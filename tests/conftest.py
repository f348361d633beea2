import numpy as np
import pytest

from cstardual.cstarcat import (
    FiniteCStarCategory,
    HilbertBimodule,
    StarFunctor,
    one_object_category,
)
from cstardual.functors import sections_category
from cstardual.generators import GenParams, _random_unitary, _transport_category, gen_spaceoid
from cstardual.rng import Xoshiro256StarStar
from cstardual.spaceoid import FiniteSpaceoid


def pointwise_tensor(n):
    """Structure constants of functions on n points in the indicator basis."""
    T = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        T[i, i, i] = 1.0
    return T


def functions_algebra(n, label="A"):
    return one_object_category(pointwise_tensor(n), np.eye(n), np.ones(n), label)


def conditioned_category(seed, kappa):
    """Section category of a generated 3-object spaceoid (the oracle, also
    returned) with each Hom-set's basis changed by U diag(s) V, U and V
    unitary and s log-spaced from 1 to ``kappa``: condition number kappa."""
    oracle = gen_spaceoid(GenParams(seed=seed, n_objects=3, max_base=4, edge_density=0.9))
    cat = sections_category(oracle, check=False)
    rng = Xoshiro256StarStar(seed)
    transforms = {}
    for A, B in sorted(cat.hom_pairs()):
        n = cat.dim(A, B)
        sing = np.logspace(0, np.log10(kappa), n)
        transforms[(A, B)] = _random_unitary(rng, n) @ (sing[:, None] * _random_unitary(rng, n))
    return _transport_category(cat, transforms), oracle


@pytest.fixture
def scalars_category():
    """The one-object category with a single one-dimensional Hom-set."""
    return one_object_category(np.ones((1, 1, 1)), np.eye(1), np.ones(1))


def _constant_tensors(objs, dims, value=1.0):
    comp = {}
    for A in objs:
        for B in objs:
            for C in objs:
                comp[(A, B, C)] = np.full(
                    (dims[(A, B)], dims[(B, C)], dims[(A, C)]), value, dtype=complex)
    return comp


@pytest.fixture
def footnote_category():
    """Two objects, every Hom-set one-dimensional, all products 1."""
    objs = ("A", "B")
    dims = {(A, B): 1 for A in objs for B in objs}
    comp = _constant_tensors(objs, dims)
    invol = {(A, B): np.eye(1) for A in objs for B in objs}
    units = {A: np.ones(1) for A in objs}
    return FiniteCStarCategory(objs, dims, comp, invol, units)


@pytest.fixture
def discrete_two_category():
    """diag(C, C): two one-dimensional diagonals, zero off-diagonal Hom-sets."""
    objs = ("A", "B")
    dims = {("A", "A"): 1, ("A", "B"): 0, ("B", "A"): 0, ("B", "B"): 1}
    comp = {("A", "A", "A"): np.ones((1, 1, 1)), ("B", "B", "B"): np.ones((1, 1, 1))}
    invol = {("A", "A"): np.eye(1), ("B", "B"): np.eye(1)}
    units = {"A": np.ones(1), "B": np.ones(1)}
    return FiniteCStarCategory(objs, dims, comp, invol, units)


@pytest.fixture
def footnote_embedding(discrete_two_category, footnote_category):
    """The object-preserving functor of the discrete pair into the full one;
    a *-functor that fails non-degeneracy on off-diagonal Hom-sets."""
    homs = {
        ("A", "A"): np.eye(1), ("B", "B"): np.eye(1),
        ("A", "B"): np.zeros((1, 0)), ("B", "A"): np.zeros((1, 0)),
    }
    return StarFunctor(discrete_two_category, footnote_category,
                       {"A": "A", "B": "B"}, homs)


@pytest.fixture
def c2_selfadjoint():
    """Two-dimensional algebra with b1 the unit, b2.b2 = b1, b2* = b2;
    characters send b2 to +1 and -1."""
    comp = np.zeros((2, 2, 2), dtype=complex)
    comp[0, 0, 0] = 1.0
    comp[0, 1, 1] = 1.0
    comp[1, 0, 1] = 1.0
    comp[1, 1, 0] = 1.0
    return one_object_category(comp, np.eye(2), np.array([1.0, 0.0]))


@pytest.fixture
def c2_negative_square():
    """Same shape but b2.b2 = -b1 with the identity involution: the spectrum
    of b2*.b2 is {-1}, so positivity fails."""
    comp = np.zeros((2, 2, 2), dtype=complex)
    comp[0, 0, 0] = 1.0
    comp[0, 1, 1] = 1.0
    comp[1, 0, 1] = 1.0
    comp[1, 1, 0] = -1.0
    return one_object_category(comp, np.eye(2), np.array([1.0, 0.0]))


@pytest.fixture
def s0_spaceoid():
    return FiniteSpaceoid(["A"], {"A": ["p"]}, {})


@pytest.fixture
def e1_spaceoid():
    """Two objects, bases {1,2} and {1',2',3'}, one linked pair (1, 1')."""
    return FiniteSpaceoid(
        ["A", "B"], {"A": ["1", "2"], "B": ["1'", "2'", "3'"]},
        {("A", "B"): [("1", "1'")], ("B", "A"): [("1'", "1")]})


@pytest.fixture
def full2_spaceoid():
    """Two singleton bases, fully linked; the spectrum of the footnote
    category has this shape."""
    return FiniteSpaceoid(
        ["A", "B"], {"A": ["x"], "B": ["y"]},
        {("A", "B"): [("x", "y")], ("B", "A"): [("y", "x")]})


@pytest.fixture
def chain3_spaceoid():
    """Three singleton bases in one component."""
    return FiniteSpaceoid(
        ["A", "B", "C"], {"A": ["a"], "B": ["b"], "C": ["c"]},
        {("A", "B"): [("a", "b")], ("B", "A"): [("b", "a")],
         ("B", "C"): [("b", "c")], ("C", "B"): [("c", "b")],
         ("A", "C"): [("a", "c")], ("C", "A"): [("c", "a")]})


def diagonal_support_bimodule(n_left, n_right, pairs):
    """Bimodule of functions supported on a graph inside the product of two
    finite sets; one basis vector per support pair."""
    m = len(pairs)
    la = np.zeros((n_left, m, m), dtype=complex)
    ra = np.zeros((m, n_right, m), dtype=complex)
    ipA = np.zeros((m, m, n_left), dtype=complex)
    ipB = np.zeros((m, m, n_right), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        la[i, k, k] = 1.0
        ra[k, j, k] = 1.0
        ipA[k, k, i] = 1.0
        ipB[k, k, j] = 1.0
    return HilbertBimodule(
        functions_algebra(n_left, "algA"), functions_algebra(n_right, "algB"),
        m, la, ra, ipA, ipB)


@pytest.fixture
def nonfull_bimodule():
    """Functions on {(1,1'),(2,2')} inside {1,2} x {1',2',3'}: full on the
    left, proper support {1',2'} on the right."""
    return diagonal_support_bimodule(2, 3, [(0, 0), (1, 1)])

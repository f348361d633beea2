import ast
import gc
import time
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from cstardual.cstarcat import (
    FiniteCStarCategory,
    _corner_actions,
    StarFunctor,
    check_non_degenerate,
    check_star_functor,
    corner,
    corner_projection_matrix,
    cstar_norm,
    identity_functor,
    linking_category,
    validate_category,
)
from cstardual import jsonio
from cstardual.duality import check_gelfand_isomorphism, gelfand_transform
from cstardual.errors import (BimoduleAxiomViolation, CornerDimensionExceedsOne, CstarDualError,
                             DiagonalNotSemisimple, HolonomyViolation)
from cstardual.functors import sections_category, spectral_spaceoid
from cstardual.generators import GenParams, gen_category, gen_functor_pair, scramble_category
from cstardual.numlin import DEFAULT_TOL, Tolerance, max_abs
from cstardual.rng import Xoshiro256StarStar
from cstardual.spaceoid import FiniteSpaceoid, spaceoids_isomorphic

from conftest import (conditioned_category, diagonal_support_bimodule, functions_algebra,
                      pointwise_tensor)
from test_functors import perturbed_category


class TestValidateCategory:
    def test_scalars_valid(self, scalars_category):
        assert validate_category(scalars_category).ok

    def test_footnote_valid(self, footnote_category):
        assert validate_category(footnote_category).ok

    def test_selfadjoint_square_valid(self, c2_selfadjoint):
        assert validate_category(c2_selfadjoint).ok

    def test_negative_square_fails_positivity(self, footnote_category):
        # x* = -x off the diagonal: x* . x = -1 on both off-diagonal Hom-sets,
        # while the diagonals, and so their characters, stay valid
        cat = footnote_category
        invol = {key: (-J if key[0] != key[1] else J) for key, J in cat.invol.items()}
        report = validate_category(FiniteCStarCategory(cat.objects, cat.dims, cat.comp,
                                                       invol, cat.units))
        assert not report.ok
        failed = {f.check for f in report.failures}
        assert "positivity" in failed
        # the offending spectrum value is -1 on both characters
        worst = max(f.deviation for f in report.failures if f.check == "positivity")
        assert worst == pytest.approx(1.0, abs=1e-8)

    def test_broken_unit_reported(self, scalars_category):
        cat = FiniteCStarCategory(
            ("A",), {("A", "A"): 1}, {("A", "A", "A"): np.ones((1, 1, 1))},
            {("A", "A"): np.eye(1)}, {"A": np.zeros(1)})
        report = validate_category(cat)
        assert any(f.check == "unit_law" for f in report.failures)


class TestCharacters:
    def test_scalars(self, scalars_category):
        chars = scalars_category.characters("A")
        assert len(chars) == 1
        assert chars[0] @ np.ones(1) == pytest.approx(1.0)

    def test_selfadjoint_square(self, c2_selfadjoint):
        chars = c2_selfadjoint.characters("A")
        values = [tuple(np.round(row.real, 9)) for row in chars]
        # multiplicativity forces value(b2)^2 = 1; canonical order is
        # lexicographic in the value tuples
        assert values == [(1.0, -1.0), (1.0, 1.0)]

    def test_three_idempotents(self):
        cat = functions_algebra(3)
        mat = cat.characters("A")
        assert np.allclose(np.sort(mat.real, axis=0), np.sort(np.eye(3), axis=0))

    def test_scrambled_invertible_basis(self):
        params = GenParams(seed=5, n_objects=1, max_base=4, edge_density=0.0,
                           phase_mode="trivial", scramble="invertible")
        cat, _ = gen_category(params)
        A = cat.objects[0]
        omega = cat.characters(A)
        assert len(omega) == cat.dim(A, A)
        T = cat.comp[(A, A, A)]
        lhs = np.einsum("ijm,km->kij", T, omega)
        rhs = np.einsum("ki,kj->kij", omega, omega)
        assert max_abs(lhs - rhs) < 1e-8

    def test_non_star_but_semisimple(self, c2_negative_square):
        # two multiplicative functionals exist, but b2* . b2 = -b1 makes the
        # canonical form phi(x* y) indefinite: not the diagonal of a valid input
        with pytest.raises(DiagonalNotSemisimple, match="not positive definite"):
            c2_negative_square.characters("A")

    def test_cache_keyed_by_tolerance(self, c2_selfadjoint):
        chars = c2_selfadjoint.characters("A")
        assert len(chars) == 2
        # one cached matrix, shared by every caller, so nobody may write to it
        assert c2_selfadjoint.characters("A") is chars and not chars.flags.writeable
        # at this tolerance the two characters coincide, cached or not
        with pytest.raises(DiagonalNotSemisimple):
            c2_selfadjoint.characters("A", Tolerance(abs_eps=10.0))


class TestConditioning:
    @pytest.mark.parametrize("kappa", [10, 100])
    def test_recovered_while_well_conditioned(self, kappa):
        for seed in range(20):
            cat, oracle = conditioned_category(seed, kappa)
            assert validate_category(cat).ok, seed
            S, _ = spectral_spaceoid(cat)
            assert spaceoids_isomorphic(S, oracle) is not None, seed
            assert check_gelfand_isomorphism(cat)[1].ok, seed

    @pytest.mark.parametrize("kappa", [1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    def test_typed_outcome_past_break_down(self, kappa):
        for seed in range(20):
            cat, _ = conditioned_category(seed, kappa)
            validate_category(cat)  # a report, never an exception
            try:
                spectral_spaceoid(cat)
            except CstarDualError:
                pass


class TestCorner:
    def test_diagonal_same_character(self, c2_selfadjoint):
        basis = corner(c2_selfadjoint, "A", "A", 0, 0)
        assert basis.shape[1] == 1

    def test_diagonal_distinct_characters(self, c2_selfadjoint):
        basis = corner(c2_selfadjoint, "A", "A", 0, 1)
        assert basis.shape[1] == 0

    def test_footnote_cross_corner(self, footnote_category):
        basis = corner(footnote_category, "A", "B", 0, 0)
        assert basis.shape == (1, 1)

    def test_corners_decompose_hom_sets(self):
        params = GenParams(seed=11, n_objects=3, max_base=3, edge_density=0.8,
                           phase_mode="random", scramble="unitary")
        cat, _ = gen_category(params)
        for A in cat.objects:
            for B in cat.objects:
                if A == B:
                    continue
                total = sum(
                    corner(cat, A, B, p, q).shape[1]
                    for p in range(cat.dim(A, A))
                    for q in range(cat.dim(B, B)))
                assert total == cat.dim(A, B)

    def test_partial_matching_property(self):
        params = GenParams(seed=13, n_objects=3, max_base=4, edge_density=0.9,
                           phase_mode="random", scramble="invertible")
        cat, _ = gen_category(params)
        for A in cat.objects:
            for B in cat.objects:
                if A == B:
                    continue
                for p in range(cat.dim(A, A)):
                    partners = [q for q in range(cat.dim(B, B))
                                if corner(cat, A, B, p, q).shape[1] > 0]
                    assert len(partners) <= 1


def duplicated_corner_category():
    """One base point per object and Hom(A,B) spanned by two copies of the
    same corner: both diagonal units act on it as the identity."""
    one = np.ones((1, 1, 1))
    dims = {("A", "A"): 1, ("B", "B"): 1, ("A", "B"): 2, ("B", "A"): 0}
    comp = {("A", "A", "A"): one, ("B", "B", "B"): one,
            ("A", "A", "B"): np.eye(2)[None], ("A", "B", "B"): np.eye(2)[:, None]}
    invol = {("A", "A"): np.eye(1), ("B", "B"): np.eye(1)}
    return FiniteCStarCategory(("A", "B"), dims, comp, invol, {"A": np.ones(1), "B": np.ones(1)})


class TestCornerKernel:
    def test_corner_of_dimension_two_raises(self):
        cat = duplicated_corner_category()
        with pytest.raises(CornerDimensionExceedsOne, match=r"\(A,B\) at characters \(0,0\)"):
            corner(cat, "A", "B", 0, 0)
        with pytest.raises(CornerDimensionExceedsOne):
            cat.corner_matching("A", "B")

    def test_corner_returns_the_matching_generator(self, footnote_category):
        scrambled, _ = gen_category(GenParams(seed=13, n_objects=3, max_base=4, edge_density=0.9,
                                              phase_mode="random", scramble="invertible"))
        for cat, (A, B) in [(cat, pair) for cat in (footnote_category, scrambled)
                            for pair in cat.off_diagonal_pairs()]:
            match = cat.corner_matching(A, B)
            for p in range(cat.dim(A, A)):
                for q in range(cat.dim(B, B)):
                    basis = corner(cat, A, B, p, q)
                    if match.get(p, (None,))[0] != q:
                        assert basis.shape == (cat.dim(A, B), 0)
                        continue
                    u = match[p][1]
                    assert basis.shape == (cat.dim(A, B), 1)
                    assert abs(abs(np.vdot(u, basis[:, 0])) - 1.0) < 1e-12


def two_to_one_category():
    """Two base points over A and one over B, both linked to it: Hom(A,B) is
    spanned by e_0 . x and e_1 . x, and B's unit fixes both."""
    dims = {("A", "A"): 2, ("B", "B"): 1, ("A", "B"): 2, ("B", "A"): 0}
    right = np.zeros((2, 1, 2))
    right[[0, 1], 0, [0, 1]] = 1.0
    comp = {("A", "A", "A"): pointwise_tensor(2), ("B", "B", "B"): np.ones((1, 1, 1)),
            ("A", "A", "B"): pointwise_tensor(2), ("A", "B", "B"): right}
    invol = {("A", "A"): np.eye(2), ("B", "B"): np.eye(1)}
    return FiniteCStarCategory(("A", "B"), dims, comp, invol, {"A": np.ones(2), "B": np.ones(1)})


def one_object(comp, invol, unit):
    return FiniteCStarCategory(("A",), {("A", "A"): len(unit)}, {("A", "A", "A"): comp},
                               {("A", "A"): invol}, {"A": np.asarray(unit, dtype=complex)})


def matrix_algebra():
    """M_2(C) on e11, e12, e21, e22: e_ij . e_kl = delta_jk e_il, e_ij* = e_ji."""
    T = np.zeros((4, 4, 4))
    for i, j, l in product(range(2), repeat=3):
        T[2 * i + j, 2 * j + l, 2 * i + l] = 1.0
    return one_object(T, np.eye(4)[[0, 2, 1, 3]], [1, 0, 0, 1])


def dual_numbers():
    """C[x]/x^2 on 1, x with x* = x: x is nilpotent."""
    T = np.zeros((2, 2, 2))
    T[0, 0, 0] = T[0, 1, 1] = T[1, 0, 1] = 1.0
    return one_object(T, np.eye(2), [1, 0])


class TestCornerCertificate:
    """One eigendecomposition per Hom-set, checked afterwards, gives the
    matching of the stacked corner projections; where it cannot be
    certified, the first failure keeps its class and message."""

    @pytest.mark.parametrize("make", [matrix_algebra, dual_numbers])
    def test_non_semisimple_diagonal(self, make):
        cat = make()
        with pytest.raises(DiagonalNotSemisimple):
            cat.characters("A")
        report = validate_category(cat)
        assert "diagonal_semisimple" in {f.check for f in report.failures}

    @pytest.mark.parametrize("name", ["footnote_category", "c2_selfadjoint", "e1", "full2",
                                      "chain3", "seed13", "seed2", "seed7"])
    def test_matching_agrees_with_stacked_corners(self, request, name):
        if name.startswith("seed"):
            cat, _ = gen_category(GenParams(seed=int(name[4:]), n_objects=3, max_base=4,
                                            edge_density=0.9, phase_mode="random",
                                            scramble="invertible"))
        elif name in ("e1", "full2", "chain3"):
            cat = sections_category(request.getfixturevalue(f"{name}_spaceoid"))
        else:
            cat = request.getfixturevalue(name)
        for A, B in cat.hom_pairs():
            match = cat.corner_matching(A, B)
            for p, q in product(range(cat.dim(A, A)), range(cat.dim(B, B))):
                basis = corner(cat, A, B, p, q)
                if match.get(p, (None,))[0] != q:
                    assert basis.shape == (cat.dim(A, B), 0)
                    continue
                _, u, functional = match[p]
                phase = np.vdot(basis[:, 0], u)
                assert abs(abs(phase) - 1.0) <= 1e-12
                stacked = basis[:, 0].conj() @ corner_projection_matrix(cat, A, B, p, q)
                assert max_abs(functional - np.conj(phase) * stacked) <= \
                    1e-12 * max(1.0, max_abs(stacked))

    def test_two_corners_in_one_pair(self):
        with pytest.raises(CornerDimensionExceedsOne,
                           match=r"^corner \(A,B\) at characters \(0,0\) has dimension > 1$"):
            duplicated_corner_category().corner_matching("A", "B")

    def test_two_characters_meet_one(self):
        with pytest.raises(HolonomyViolation,
                           match="^character 0 of B matches two characters of A$"):
            two_to_one_category().corner_matching("A", "B")

    @pytest.mark.parametrize("seed", range(5))
    def test_corner_actions_match_einsum(self, seed):
        cat, _ = gen_category(GenParams(seed=seed, n_objects=3, max_base=4, edge_density=0.8,
                                        phase_mode="random", scramble="invertible"))
        for A, B in cat.hom_pairs():
            T1, T2 = cat.comp[(A, A, B)], cat.comp[(A, B, B)]
            eA, eB = cat.idempotents(A), cat.idempotents(B)
            left, right = _corner_actions(cat, A, B, DEFAULT_TOL)
            # a sum of len(e) products, reordered
            for got, want, e, T in ((left, np.einsum("ip,ijk->pkj", eA, T1), eA, T1),
                                    (right, np.einsum("jq,ijk->qki", eB, T2), eB, T2)):
                assert max_abs(got - want) <= 1e-14 * (1.0 + len(e) * max_abs(e) * max_abs(T))


class TestCstarNorm:
    def test_unit(self, footnote_category):
        assert cstar_norm(footnote_category, "A", "A",
                          footnote_category.unit("A")) == pytest.approx(1.0)

    def test_selfadjoint_generator(self, c2_selfadjoint):
        assert cstar_norm(c2_selfadjoint, "A", "A",
                          np.array([0, 1.0])) == pytest.approx(1.0)

    def test_scaling(self):
        cat = functions_algebra(3)
        x = np.array([0, 3.0, 0])
        assert cstar_norm(cat, "A", "A", x) == pytest.approx(3.0)

    def test_cstar_identity_on_random_elements(self):
        params = GenParams(seed=2, n_objects=2, max_base=3, edge_density=1.0,
                           phase_mode="random", scramble="unitary")
        cat, _ = gen_category(params)
        rng = np.random.default_rng(0)
        for A in cat.objects:
            for B in cat.objects:
                d = cat.dim(A, B)
                if d == 0:
                    continue
                x = rng.normal(size=d) + 1j * rng.normal(size=d)
                xx = cat.compose(B, A, B, cat.star(A, B, x), x)
                lhs = cstar_norm(cat, B, B, xx)
                rhs = cstar_norm(cat, A, B, x) ** 2
                assert abs(lhs - rhs) <= 1e-6 * (1 + rhs)


class TestSpectrumComponents:
    """The linked components of the spectrum: which characters of different
    diagonals are matched by nonzero corners."""

    def test_discrete_pair(self, discrete_two_category):
        S, _ = spectral_spaceoid(discrete_two_category)
        assert [c.objects for c in S.components()] == [("A",), ("B",)]

    def test_footnote(self, footnote_category):
        S, _ = spectral_spaceoid(footnote_category)
        assert [c.objects for c in S.components()] == [("A", "B")]

    def test_e1_sections(self, e1_spaceoid):
        S, G = spectral_spaceoid(sections_category(e1_spaceoid))
        linked = [c for c in S.components() if len(c.objects) > 1]
        assert len(linked) == 1 and linked[0].objects == ("A", "B")
        # the linked component pairs evaluation at base point 1 with 1'
        diag = linked[0].diag
        assert np.allclose(G.diag["A"][int(diag["A"])].real, [1, 0])  # diag basis ['1','2']
        assert np.allclose(G.diag["B"][int(diag["B"])].real, [1, 0, 0])


class TestStarFunctors:
    def test_identity_valid(self, footnote_category):
        assert check_star_functor(identity_functor(footnote_category)).ok

    def test_footnote_embedding_valid(self, footnote_embedding):
        assert check_star_functor(footnote_embedding).ok

    def test_unit_breaking_map_invalid(self, scalars_category):
        bad = StarFunctor(scalars_category, scalars_category, {"A": "A"},
                          {("A", "A"): np.zeros((1, 1))})
        report = check_star_functor(bad)
        assert any(f.check == "functor_unit" for f in report.failures)

    def test_identity_non_degenerate(self, footnote_category):
        ok, witness = check_non_degenerate(identity_functor(footnote_category))
        assert ok and witness is None

    def test_footnote_embedding_degenerate(self, footnote_embedding):
        ok, witness = check_non_degenerate(footnote_embedding)
        assert not ok
        (A2, p, B2, q), A, B = witness
        assert {A, B} == {"A", "B"} and (A2, B2) == (A, B)
        # the witness is a matched pair: its functional is nonzero on the target
        assert footnote_embedding.target.corner_matching(A2, B2)[p][0] == q

    def test_discrete_endofunctors_non_degenerate(self, discrete_two_category):
        swap = StarFunctor(
            discrete_two_category, discrete_two_category, {"A": "B", "B": "A"},
            {("A", "A"): np.eye(1), ("B", "B"): np.eye(1),
             ("A", "B"): np.zeros((0, 0)), ("B", "A"): np.zeros((0, 0))})
        assert check_star_functor(swap).ok
        ok, _ = check_non_degenerate(swap)
        assert ok


def compatibility_broken_bimodule():
    # <x_2,x_1>_A acts on x_0 and x_1, x_2 . <x_1,x_k>_B on neither:
    # triples (2,1,0) and (2,1,1) fail, the first is reported
    M = diagonal_support_bimodule(3, 3, [(0, 0), (1, 1), (2, 2)])
    M.ipA[2, 1, :] = [0.5, 0.5, 0.0]
    return M


def non_hermitian_bimodule():
    # coordinate 2 of either algebra acts on no basis vector, so only the
    # hermitian checks see it: left fails at (1,1), right at (0,1) first
    M = diagonal_support_bimodule(3, 3, [(0, 0), (1, 1)])
    M.ipA[1, 1, 2] = 1j
    M.ipB[1, 0, 2] = 1j
    return M


class TestLinkingCategory:
    def test_zero_module_gives_discrete(self):
        M = diagonal_support_bimodule(1, 1, [])
        cat = linking_category(M)
        assert cat.dim("A", "B") == 0 and cat.dim("B", "A") == 0
        assert validate_category(cat).ok

    def test_line_over_scalars_gives_footnote(self, footnote_category):
        M = diagonal_support_bimodule(1, 1, [(0, 0)])
        cat = linking_category(M)
        assert all(cat.dim(A, B) == 1 for A in "AB" for B in "AB")
        for key in cat.comp:
            assert np.allclose(cat.comp[key], footnote_category.comp[key])

    def test_nonfull_fixture(self, nonfull_bimodule):
        cat = linking_category(nonfull_bimodule)
        assert validate_category(cat).ok
        assert cat.dim("A", "B") == 2
        # diagonal corner reproduces the algebra exactly
        assert np.array_equal(cat.comp[("A", "A", "A")], pointwise_tensor(2))

    def test_incompatible_inner_products_rejected(self):
        M = diagonal_support_bimodule(2, 2, [(0, 0), (1, 1)])
        M.ipA[0, 0, 0] = -1.0  # breaks positivity on the left
        with pytest.raises(BimoduleAxiomViolation):
            linking_category(M)

    @pytest.mark.parametrize("make, message", [
        (compatibility_broken_bimodule, "compatibility <x,y>_A.z = x.<y,z>_B fails at basis (2,1,0)"),
        (non_hermitian_bimodule, "right inner product not hermitian at (0,1)"),
    ])
    def test_bimodule_axiom_witness(self, make, message):
        with pytest.raises(BimoduleAxiomViolation) as exc:
            linking_category(make())
        assert str(exc.value) == message


def test_holonomy_violation_detected():
    # two chains forcing two distinct partners: transitivity of the corner
    # matching fails, so the spectrum's composite-point check rejects the input
    objs = ("A", "B", "C")
    dims = {}
    for X in objs:
        for Y in objs:
            dims[(X, Y)] = 2 if X == Y else 0
    dims[("A", "B")] = dims[("B", "A")] = 1
    dims[("B", "C")] = dims[("C", "B")] = 1
    dims[("A", "C")] = dims[("C", "A")] = 1
    comp = {}
    invol = {}
    units = {X: np.ones(2) for X in objs}
    for X in objs:
        comp[(X, X, X)] = pointwise_tensor(2)
        invol[(X, X)] = np.eye(2)
    # matched pairs: A0-B0 via AB, B0-C0 via BC, but A1-C0 via AC
    def link(X, Y, i, j):
        T = np.zeros((2, 1, 1), dtype=complex)
        T[i, 0, 0] = 1.0
        comp[(X, X, Y)] = T
        T = np.zeros((1, 2, 1), dtype=complex)
        T[0, j, 0] = 1.0
        comp[(X, Y, Y)] = T
        invol[(X, Y)] = np.eye(1)

    link("A", "B", 0, 0)
    link("B", "A", 0, 0)
    link("B", "C", 0, 0)
    link("C", "B", 0, 0)
    link("A", "C", 1, 0)
    link("C", "A", 0, 1)
    # inner products on the rank-one ideals
    for X, Y in [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B")]:
        T = np.zeros((1, 1, 2), dtype=complex)
        T[0, 0, 0] = 1.0
        comp[(X, Y, X)] = T
    for X, Y, i in [("A", "C", 1), ("C", "A", 0)]:
        T = np.zeros((1, 1, 2), dtype=complex)
        T[0, 0, i] = 1.0
        comp[(X, Y, X)] = T
    T = np.zeros((1, 1, 2), dtype=complex)
    T[0, 0, 0] = 1.0
    comp[("C", "A", "C")] = T
    T = np.zeros((1, 1, 2), dtype=complex)
    T[0, 0, 1] = 1.0
    comp[("A", "C", "A")] = np.zeros((1, 1, 2), dtype=complex)
    comp[("A", "C", "A")][0, 0, 1] = 1.0
    cat = FiniteCStarCategory(objs, dims, comp, invol, units)
    with pytest.raises(HolonomyViolation, match="has no composite point"):
        spectral_spaceoid(cat)


# ---------------------------------------------------------------------------
# the support walk against the dense per-tuple loops it replaced
# ---------------------------------------------------------------------------

TIGHT = Tolerance(1e-300, 1e-300)  # every nonzero deviation becomes a failure


def reference_validate_sweeps(cat, tol):
    """The associativity and involution loops of ``validate_category`` as they
    were before the support walk: every object tuple, one ``tensordot`` pair
    or ``einsum`` each.  ``(check, witness, deviation, ok)`` in record order."""
    objs = cat.objects
    tmax = max([1.0] + [max_abs(T) for T in cat.comp.values()])
    jmax = max([1.0] + [max_abs(J) for J in cat.invol.values()])
    atol = tol.axiom(tmax, jmax)
    records = []
    for A, B, C, D in product(objs, repeat=4):
        if cat.dim(A, B) * cat.dim(B, C) * cat.dim(C, D) == 0:
            continue
        T1, T2 = cat.comp[(A, B, C)], cat.comp[(A, C, D)]
        T3, T4 = cat.comp[(B, C, D)], cat.comp[(A, B, D)]
        lhs = np.tensordot(T1, T2, axes=(2, 0))
        rhs = np.tensordot(T3, T4, axes=(2, 1)).transpose(2, 0, 1, 3)
        dev = max_abs(lhs - rhs)
        records.append(("associativity", f"({A},{B},{C},{D})", dev, dev <= atol))
    for A, B, C in product(objs, repeat=3):
        if cat.dim(A, B) * cat.dim(B, C) == 0:
            continue
        T = cat.comp[(A, B, C)]
        Jab, Jbc, Jac = cat.invol[(A, B)], cat.invol[(B, C)], cat.invol[(A, C)]
        lhs = np.conj(T) @ Jac.T
        rhs = np.einsum("qj,pi,qpm->ijm", Jbc, Jab, cat.comp[(C, B, A)], optimize=True)
        dev = max_abs(lhs - rhs)
        records.append(("involution_antimultiplicative", f"({A},{B},{C})", dev, dev <= atol))
    return records


def reference_functor_composition(F, tol):
    """The composition loop of ``check_star_functor`` before the support walk."""
    src, tgt = F.source, F.target
    hmax = max([1.0] + [max_abs(H) for H in F.hom_maps.values()])
    tmax = max([1.0] + [max_abs(T) for T in src.comp.values()]
               + [max_abs(T) for T in tgt.comp.values()])
    atol = tol.axiom(hmax, tmax)
    records = []
    for A, B, C in product(src.objects, repeat=3):
        T = src.comp[(A, B, C)]
        if 0 in T.shape:
            continue
        A2, B2, C2 = F.obj_map[A], F.obj_map[B], F.obj_map[C]
        Hab, Hbc, Hac = F.hom_maps[(A, B)], F.hom_maps[(B, C)], F.hom_maps[(A, C)]
        lhs = T @ Hac.T
        rhs = np.einsum("pi,qj,pqm->ijm", Hab, Hbc, tgt.comp[(A2, B2, C2)], optimize=True)
        dev = max_abs(lhs - rhs)
        records.append(("functor_composition", f"({A},{B},{C})", dev, dev <= atol))
    return records


def assert_sweeps_match(check, reference):
    """``check(tol)`` (a report) against ``reference(tol)`` (records): the
    same checks in the same order, the same failures and witnesses, and
    deviations bit-identical for associativity, else within 1e-14 of
    ``max(1, deviation)``.
    Under ``TIGHT`` every nonzero deviation is a failure, so the report
    carries each one; a tuple it does not name has deviation 0."""
    report, records = check(DEFAULT_TOL), reference(DEFAULT_TOL)
    names = {r[0] for r in records}
    assert [c for c in report.checks_run if c in names] == [r[0] for r in records]
    assert [(f.check, f.witness) for f in report.failures if f.check in names] \
        == [(c, w) for c, w, _, ok in records if not ok]
    tight = check(TIGHT)
    got = {(f.check, f.witness): f.deviation for f in tight.failures if f.check in names}
    assert set(got) <= {(c, w) for c, w, _, _ in records}
    for name, witness, dev, _ in reference(TIGHT):
        new = got.get((name, witness), 0.0)
        if name == "associativity":
            assert new == dev, (witness, new, dev)
        else:
            assert abs(new - dev) <= 1e-14 * max(1.0, dev), (name, witness, new, dev)


def ring_sections(n):
    """Sections of a ring spaceoid: 2 base points per object and one link per
    ring edge, so all but 3n of the n^2 Hom-sets are zero."""
    objs = [f"O{i:03d}" for i in range(n)]
    links = {}
    for A, B in zip(objs, objs[1:] + objs[:1]):
        links[(A, B)], links[(B, A)] = [("p1", "p0")], [("p0", "p1")]
    return sections_category(FiniteSpaceoid(objs, {A: ["p0", "p1"] for A in objs}, links),
                             check=False)


def split_square_category():
    """Sections of a spaceoid with two components over four objects, {a, b0,
    d1} and {b1, c, d0}: Hom(A,C) = 0 while Hom(A,B), Hom(B,C), Hom(C,D),
    Hom(B,D) and Hom(A,D) are not, so on (A,B,C,D) the product (xy)z runs
    through a zero Hom-set and x(yz) through a nonzero one, and both vanish."""
    pairs = {("A", "B"): [("a", "b0")], ("B", "C"): [("b1", "c")], ("C", "D"): [("c", "d0")],
             ("B", "D"): [("b0", "d1"), ("b1", "d0")], ("A", "D"): [("a", "d1")]}
    links = dict(pairs)
    links.update({(Y, X): [(q, p) for p, q in pts] for (X, Y), pts in pairs.items()})
    S = FiniteSpaceoid(["A", "B", "C", "D"],
                       {"A": ["a"], "B": ["b0", "b1"], "C": ["c"], "D": ["d0", "d1"]}, links)
    return sections_category(S, check=False)


def _shifted(cat, key):
    """``cat`` with every entry of ``comp[key]`` shifted by 1."""
    comp = {k: v.copy() for k, v in cat.comp.items()}
    comp[key] += 1.0
    return FiniteCStarCategory(cat.objects, dict(cat.dims), comp, cat.invol, cat.units)


class TestSupportWalk:
    @pytest.mark.parametrize("seed", range(50))
    @pytest.mark.parametrize("scramble", ["unitary", "invertible"])
    def test_perturbed_corpus_matches_dense_loops(self, seed, scramble):
        for involution in (False, True):
            cat = perturbed_category(seed, scramble, involution)
            assert_sweeps_match(lambda tol: validate_category(cat, tol),
                                lambda tol: reference_validate_sweeps(cat, tol))

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_corpus_matches_dense_loops(self, seed):
        for density in (0.6, 0.8):
            params = GenParams(seed=seed, n_objects=2 + seed % 4, max_base=3,
                               edge_density=density, phase_mode="random",
                               scramble=("unitary", "invertible")[seed % 2])
            cat, _ = gen_category(params)
            assert_sweeps_match(lambda tol: validate_category(cat, tol),
                                lambda tol: reference_validate_sweeps(cat, tol))
            phi, _ = gen_functor_pair(params)
            homs = {k: H.copy() for k, H in phi.hom_maps.items()}
            key = max(k for k, H in homs.items() if H.size)
            homs[key].reshape(-1)[seed % homs[key].size] += 0.3
            for F in (phi, StarFunctor(phi.source, phi.target, phi.obj_map, homs)):
                assert_sweeps_match(lambda tol: check_star_functor(F, tol),
                                    lambda tol: reference_functor_composition(F, tol))

    def test_non_full_categories_match_dense_loops(self):
        square = split_square_category()
        ring, _ = scramble_category(ring_sections(6), Xoshiro256StarStar(6), "unitary")
        for cat in (ring, square, _shifted(square, ("A", "B", "D"))):
            assert_sweeps_match(lambda tol: validate_category(cat, tol),
                                lambda tol: reference_validate_sweeps(cat, tol))
        for cat in (ring, square):
            F = gelfand_transform(cat)
            assert_sweeps_match(lambda tol: check_star_functor(F, tol),
                                lambda tol: reference_functor_composition(F, tol))

    def test_zero_contraction_hom_set(self):
        cat = split_square_category()
        assert cat.dim("A", "C") == 0 and cat.dim("B", "D") == 2
        assert all(cat.dim(*pair) for pair in [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
        assert validate_category(cat).ok
        # x . (yz) made nonzero through Hom(B,D), while (xy) . z stays in Hom(A,C) = 0
        mutant = _shifted(cat, ("A", "B", "D"))
        report = validate_category(mutant)
        witnesses = [f.witness for f in report.failures if f.check == "associativity"]
        assert "(A,B,C,D)" in witnesses
        assert witnesses == [w for c, w, _, ok in reference_validate_sweeps(mutant, DEFAULT_TOL)
                             if c == "associativity" and not ok]

    def test_many_object_ring_is_fast(self):
        # the dense loops visited all 48^4 quadruples here, about 1.7 s
        cat = ring_sections(48)
        start = time.perf_counter()
        report = validate_category(cat)
        assert time.perf_counter() - start < 1.0
        assert report.ok


# ---------------------------------------------------------------------------
# zero Hom-sets are implicit
# ---------------------------------------------------------------------------

def reference_pair_sweeps(cat, tol):
    """The per-pair loops of ``validate_category`` before they walked the
    support: every Hom pair, zero or not, in record order."""
    tmax = max([1.0] + [max_abs(T) for T in cat.comp.values()])
    jmax = max([1.0] + [max_abs(J) for J in cat.invol.values()])
    atol = tol.axiom(tmax, jmax)
    records = []
    for A, B in cat.hom_pairs():
        eye = np.eye(cat.dim(A, B))
        left = np.einsum("i,ijk->kj", cat.unit(A), cat.comp[(A, A, B)])
        right = np.einsum("j,ijk->ki", cat.unit(B), cat.comp[(A, B, B)])
        dev = max(max_abs(left - eye), max_abs(right - eye))
        records.append(("unit_law", f"({A},{B})", dev, dev <= atol))
    for A, B in cat.hom_pairs():
        dev = max_abs(cat.invol[(B, A)] @ np.conj(cat.invol[(A, B)]) - np.eye(cat.dim(A, B)))
        records.append(("involution_involutive", f"({A},{B})", dev, dev <= atol))
    return records


def reference_functor_involution(F, tol):
    """The involution loop of ``check_star_functor`` over every Hom pair."""
    src, tgt = F.source, F.target
    hmax = max([1.0] + [max_abs(H) for H in F.hom_maps.values()])
    tmax = max([1.0] + [max_abs(T) for T in src.comp.values()]
               + [max_abs(T) for T in tgt.comp.values()])
    atol = tol.axiom(hmax, tmax)
    records = []
    for A, B in src.hom_pairs():
        lhs = F.hom_maps[(B, A)] @ src.invol[(A, B)]
        rhs = tgt.invol[F.image_pair(A, B)] @ np.conj(F.hom_maps[(A, B)])
        dev = max_abs(lhs - rhs)
        records.append(("functor_involution", f"({A},{B})", dev, dev <= atol))
    return records


def _dense_keys(cat):
    """Every comp and invol key whose tensor has nonzero size."""
    comp = [(A, B, C) for A, B, C in product(cat.objects, repeat=3)
            if cat.dim(A, B) * cat.dim(B, C) * cat.dim(A, C)]
    invol = [(A, B) for A, B in product(cat.objects, repeat=2) if cat.dim(A, B) * cat.dim(B, A)]
    return comp, invol


# five objects whose sections have Hom triples of nonzero size and no
# structure constant: the pairs there never share a base point
UNCOMPOSED = GenParams(seed=31, n_objects=5, max_base=3, edge_density=0.6, phase_mode="random")


class TestImplicitZeros:
    @pytest.mark.parametrize("scramble", ["none", "unitary"])
    def test_only_nonzero_tensors_are_stored(self, scramble):
        ring, _ = scramble_category(ring_sections(12), Xoshiro256StarStar(12), scramble)
        for cat in (ring, split_square_category(), gen_category(UNCOMPOSED)[0]):
            assert all(T.size for T in cat.comp.values())
            assert all(J.size for J in cat.invol.values())
            for A, B, C in product(cat.objects, repeat=3):
                T = cat.comp[(A, B, C)]
                assert T.shape == (cat.dim(A, B), cat.dim(B, C), cat.dim(A, C))
                assert (A, B, C) in cat.comp or not np.any(T)
            for A, B in cat.hom_pairs():
                assert cat.invol[(A, B)].shape == (cat.dim(B, A), cat.dim(A, B))
            assert cat.out == {A: [B for B in cat.objects if cat.dim(A, B)] for A in cat.objects}
        assert len(ring.comp) < 12 ** 2 and len(ring.invol) == 3 * 12
        with pytest.raises(KeyError):
            ring.comp[("O000", "O001", "Z")]

    def test_declared_zero_tensors_are_dropped(self):
        cat = split_square_category()
        comp = dict(cat.comp)
        comp[("A", "C", "A")] = np.zeros((0, 0, 1))
        comp[("A", "B", "C")] = np.zeros((1, 1, 0))
        rebuilt = FiniteCStarCategory(cat.objects, cat.dims, comp, cat.invol, cat.units)
        assert set(rebuilt.comp) == set(cat.comp)
        assert validate_category(rebuilt).ok

    @pytest.mark.parametrize("field", ["comp", "invol"])
    def test_undeclared_object_raises(self, field):
        cat = split_square_category()
        key = {"comp": ("A", "B", "Z"), "invol": ("Z", "A")}[field]
        given = {"comp": dict(cat.comp), "invol": dict(cat.invol)}
        given[field][key] = np.zeros((1, 1, 1) if field == "comp" else (1, 1))
        with pytest.raises(ValueError, match="does not name declared objects"):
            FiniteCStarCategory(cat.objects, cat.dims, given["comp"], given["invol"], cat.units)

    def test_json_lists_every_nonzero_size_tensor(self):
        cat, _ = gen_category(UNCOMPOSED)
        comp, invol = _dense_keys(cat)
        assert len(cat.comp) < len(comp)  # some stored nowhere, read as zeros
        doc = jsonio.category_to_json(cat)
        assert set(doc["comp"]) == {"|".join(key) for key in comp}
        assert set(doc["invol"]) == {"|".join(key) for key in invol}
        back = jsonio.category_from_json(doc)
        for key in comp:
            assert np.array_equal(back.comp[key], cat.comp[key])

    @pytest.mark.parametrize("seed", range(8))
    def test_pair_sweeps_match_dense_loops(self, seed):
        for involution in (False, True):
            cat = perturbed_category(seed, ("unitary", "invertible")[seed % 2], involution)
            assert_sweeps_match(lambda tol: validate_category(cat, tol),
                                lambda tol: reference_pair_sweeps(cat, tol))
        phi, _ = gen_functor_pair(GenParams(seed=seed, n_objects=2 + seed % 4, max_base=3,
                                            edge_density=0.6, scramble="unitary"))
        homs = {k: H.copy() for k, H in phi.hom_maps.items()}
        key = max(k for k, H in homs.items() if H.size)
        homs[key].reshape(-1)[seed % homs[key].size] += 0.3
        for F in (phi, StarFunctor(phi.source, phi.target, phi.obj_map, homs)):
            assert_sweeps_match(lambda tol: check_star_functor(F, tol),
                                lambda tol: reference_functor_involution(F, tol))

    def test_non_full_pair_sweeps_match_dense_loops(self):
        ring, _ = scramble_category(ring_sections(6), Xoshiro256StarStar(6), "invertible")
        units = {A: u + 0.25 for A, u in ring.units.items()}
        mutant = FiniteCStarCategory(ring.objects, ring.dims, ring.comp, ring.invol, units)
        square = split_square_category()
        for cat in (ring, mutant, square):
            assert_sweeps_match(lambda tol: validate_category(cat, tol),
                                lambda tol: reference_pair_sweeps(cat, tol))
        for F in (gelfand_transform(ring), gelfand_transform(square), identity_functor(mutant)):
            assert_sweeps_match(lambda tol: check_star_functor(F, tol),
                                lambda tol: reference_functor_involution(F, tol))
        assert any(f.check == "unit_law" for f in validate_category(mutant).failures)

    def test_spectrum_skips_zero_hom_sets(self):
        cat, _ = scramble_category(ring_sections(12), Xoshiro256StarStar(12), "unitary")
        S, G = spectral_spaceoid(cat)
        assert cat._matchings and all(cat.dim(A, B) for A, B, _ in cat._matchings)
        for A, B in cat.off_diagonal_pairs():
            assert G.hat[(A, B)].shape == G.frames[(A, B)].shape == (cat.dim(A, B),) * 2
        assert sum(len(pts) for pts in S.points.values()) == 2 * 12

    def test_category_is_freed_without_the_collector(self):
        # a closure over the category would put it in a reference cycle, and
        # keep its tensors alive until the next collection
        cat, _ = gen_category(UNCOMPOSED)
        assert validate_category(cat).ok
        ref = weakref.ref(cat)
        gc.disable()
        try:
            del cat
            assert ref() is None
        finally:
            gc.enable()

    def test_many_object_ring_scrambles_fast(self):
        # transporting every one of the 48^3 triples took about 9 s on 2 cores
        cat = ring_sections(48)
        start = time.perf_counter()
        scrambled, _ = scramble_category(cat, Xoshiro256StarStar(48), "unitary")
        assert time.perf_counter() - start < 1.0
        assert validate_category(scrambled).ok


SRC = Path(__file__).resolve().parent.parent / "src" / "cstardual"


def test_no_dense_object_tuple_loops():
    """No code in ``src/`` loops over all object triples or quadruples with
    ``product(..., repeat=k)``, k >= 3: such sweeps walk the support index."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            for kw in node.keywords:
                if (name == "product" and kw.arg == "repeat" and isinstance(kw.value, ast.Constant)
                        and kw.value.value >= 3):
                    found.append((path.name, node.lineno))
    assert found == []


def _named_in(tree, name):
    """``(enclosing qualified name, line)`` of every mention of ``name`` as a
    name or an attribute, outside the definition of ``name`` itself."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if getattr(node, "id", getattr(node, "attr", None)) == name:
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_one_spectrum_per_category():
    """In ``src/`` only ``spectral_spaceoid`` calls the spectrum body, and only
    it and ``FiniteCStarCategory.__init__`` name the ``_spectra`` cache, so no
    caller bypasses the cache or writes to it."""
    allowed = {"_spectral_spaceoid": {"spectral_spaceoid"},
               "_spectra": {"FiniteCStarCategory.__init__", "spectral_spaceoid"}}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, scopes in allowed.items():
            found += [(path.name, name, scope, line) for scope, line in _named_in(tree, name)
                      if scope not in scopes]
    assert found == []
    # the scan sees the mentions it allows
    tree = ast.parse((SRC / "functors.py").read_text())
    assert {scope for scope, _ in _named_in(tree, "_spectral_spaceoid")} == {"spectral_spaceoid"}

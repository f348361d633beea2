"""Seeded random instances with built-in oracles.

Spaceoids are generated valid by construction: maximal pair components are
sampled whole (dropping a single point of a component would break groupoid
closure), phases come from random gauge transformations of the trivial
cocycle, which exhausts all valid cocycles since pair-groupoid cohomology is
trivial.  Categories are section categories of generated spaceoids pushed
through a per-Hom-set basis change; the generating spaceoid is the oracle
the recovered spectrum must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .cstarcat import FiniteCStarCategory, StarFunctor
from .functors import gamma_on_morphism, sections_category
from .numlin import DEFAULT_TOL, Tolerance
from .rng import Xoshiro256StarStar
from .spaceoid import FiniteSpaceoid, SpaceoidMorphism, apply_gauge

OBJECT_POOL = ("A", "B", "C", "D", "E", "F", "G", "H")

PHASE_MODES = ("trivial", "random")
SCRAMBLE_MODES = ("none", "unitary", "invertible")


@dataclass(frozen=True)
class GenParams:
    seed: int
    n_objects: int = 2
    max_base: int = 3
    edge_density: float = 0.5
    phase_mode: str = "random"
    scramble: str = "none"

    def __post_init__(self):
        if not (1 <= self.n_objects <= 8):
            raise ValueError("n_objects must be in 1..8")
        if not (1 <= self.max_base <= 6):
            raise ValueError("max_base must be in 1..6")
        if not (0.0 <= self.edge_density <= 1.0):
            raise ValueError("edge_density must be in [0, 1]")
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {PHASE_MODES}")
        if self.scramble not in SCRAMBLE_MODES:
            raise ValueError(f"scramble must be one of {SCRAMBLE_MODES}")


def _sample_skeleton(rng, params):
    """Objects, base sets and whole-component links."""
    objects = OBJECT_POOL[: params.n_objects]
    base_sets = {A: [f"{A.lower()}{i}" for i in range(rng.randint(1, params.max_base))]
                 for A in objects}
    free = {A: list(base_sets[A]) for A in objects}
    links = []  # each: {object: base point}
    while True:
        avail = [A for A in objects if free[A]]
        if len(avail) < 2 or rng.uniform() >= params.edge_density:
            break
        size = rng.randint(2, len(avail))
        members = sorted(rng.sample(avail, size))
        link = {}
        for A in members:
            x = free[A][rng.randrange(len(free[A]))]
            free[A].remove(x)
            link[A] = x
        links.append(link)
    return objects, base_sets, links


def _points_from_links(objects, links):
    return {(A, B): [(link[A], link[B]) for link in links if A in link and B in link]
            for A, B in product(objects, repeat=2) if A != B}


def gen_spaceoid(params: GenParams) -> FiniteSpaceoid:
    """Deterministic-in-seed spaceoid that always passes validation."""
    rng = Xoshiro256StarStar(params.seed)
    objects, base_sets, links = _sample_skeleton(rng, params)
    points = _points_from_links(objects, links)
    S = FiniteSpaceoid(objects, base_sets, points)
    if params.phase_mode == "random":
        lam = {h: rng.phase() for h in S.all_points()}
        S = apply_gauge(S, lam)
    return S


# ---------------------------------------------------------------------------
# basis scrambles
# ---------------------------------------------------------------------------

def _random_complex(rng, rows, cols):
    re = np.array([[rng.normal() for _ in range(cols)] for _ in range(rows)])
    im = np.array([[rng.normal() for _ in range(cols)] for _ in range(rows)])
    return (re + 1j * im) / np.sqrt(2.0)


def _random_unitary(rng, n):
    """Haar-ish unitary by modified Gram-Schmidt on PRNG Gaussians (keeps
    the generator path independent of LAPACK dispatch)."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    while True:
        M = _random_complex(rng, n, n)
        cols = []
        ok = True
        for j in range(n):
            v = M[:, j].copy()
            for u in cols:
                v -= (u.conj() @ v) * u
            for u in cols:  # second pass for orthogonality at full precision
                v -= (u.conj() @ v) * u
            norm = np.linalg.norm(v)
            if norm < 1e-8:
                ok = False
                break
            cols.append(v / norm)
        if ok:
            return np.column_stack(cols)


def _random_invertible(rng, n):
    """Well-conditioned invertible matrix (singular values in [0.6, 1.8])."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    U = _random_unitary(rng, n)
    V = _random_unitary(rng, n)
    sing = np.array([0.6 + 1.2 * rng.uniform() for _ in range(n)])
    return U @ (sing[:, None] * V)


def scramble_category(cat: FiniteCStarCategory, rng, mode: str):
    """Per-Hom-set basis change; structure tensors are transported so the
    abstract category is unchanged.  Returns (category, transforms) with
    ``transforms[(A, B)]`` the matrix whose columns are the new basis in old
    coordinates."""
    if mode == "none":
        transforms = {
            (A, B): np.eye(cat.dim(A, B), dtype=complex) for A, B in cat.hom_pairs()}
        return cat, transforms
    make = _random_unitary if mode == "unitary" else _random_invertible
    transforms = {(A, B): make(rng, cat.dim(A, B)) for A, B in sorted(cat.hom_pairs())}
    return _transport_category(cat, transforms), transforms


def _transport_category(cat: FiniteCStarCategory, transforms):
    """The category in the bases given per Hom-set by the columns of ``transforms``."""
    inv = {key: np.linalg.inv(T) if T.size else T for key, T in transforms.items()}
    comp = {(A, B, C): np.einsum("ip,jq,ijk,rk->pqr", transforms[(A, B)], transforms[(B, C)],
                                 T, inv[(A, C)], optimize=True)
            for (A, B, C), T in cat.comp.items()}
    invol = {(A, B): inv[(B, A)] @ J @ np.conj(transforms[(A, B)])
             for (A, B), J in cat.invol.items()}
    units = {A: inv[(A, A)] @ cat.unit(A) for A in cat.objects}
    return FiniteCStarCategory(cat.objects, dict(cat.dims), comp, invol, units)


def gen_category(params: GenParams, tol: Tolerance = DEFAULT_TOL):
    """Scrambled section category plus its generating spaceoid (the oracle:
    the recovered spectrum must be isomorphic to it)."""
    oracle = gen_spaceoid(params)
    cat = sections_category(oracle, tol, check=False)
    rng = Xoshiro256StarStar((params.seed * 0x9E3779B9 + 0x5CA1AB1E) & (2**64 - 1))
    cat, _ = scramble_category(cat, rng, params.scramble)
    return cat, oracle


# ---------------------------------------------------------------------------
# morphism and functor corpora
# ---------------------------------------------------------------------------

def _expand(S: FiniteSpaceoid, rng):
    """Spaceoid covering S component-wise, plus the covering base maps.

    Each maximal component of S appears with multiplicity 0..2 (duplicated
    components collapse onto the original under the map); every object keeps
    a nonempty base set.  Component-whole copies keep the map component
    preserving, and the copies inherit the parent's phases so the projection
    is a phase-preserving morphism."""
    comps = S.components()
    mult = [(0, 1, 1, 1, 2)[rng.randrange(5)] for _ in comps]
    for A in S.objects:
        if not any(m > 0 and A in comp.objects for m, comp in zip(mult, comps)):
            for i, comp in enumerate(comps):
                if A in comp.objects:
                    mult[i] = max(mult[i], 1)
                    break
    base_sets = {A: [] for A in S.objects}
    fbase = {A: {} for A in S.objects}
    links = []

    def fresh(A, label):
        cand, n = label, 0
        while cand in base_sets[A]:
            n += 1
            cand = f"{label}~{n}"
        return cand

    for comp, k in zip(comps, mult):
        for copy in range(k):
            link = {}
            for A in comp.objects:
                x1 = fresh(A, comp.diag[A])
                base_sets[A].append(x1)
                fbase[A][x1] = comp.diag[A]
                link[A] = x1
            if len(comp.objects) > 1:
                links.append(link)
    points = _points_from_links(tuple(S.objects), links)
    plain = FiniteSpaceoid(S.objects, base_sets, points)
    # pull the phases back along the covering map, point by point and pair by pair
    img = SpaceoidMorphism(plain, S, {A: A for A in S.objects}, fbase)._images()
    return plain._with_phases(S._nu[img], S._c[S._row(img[plain._p], img[plain._q])]), fbase


def _component_character(S: FiniteSpaceoid, rng):
    """Unit-modulus multiplicative scalars: mu_A conj(mu_B) over each linked
    component, the general solution of the multiplicativity constraint."""
    scalars = {}
    for comp in S.components():
        if len(comp.objects) < 2:
            continue
        mu = {o: rng.phase() for o in comp.objects}
        for (A, B), h in comp.points.items():
            scalars[h] = mu[A] * np.conj(mu[B])
    return scalars


def _gauge_and_morphism(S2: FiniteSpaceoid, rng, phase_mode):
    """Spaceoid S1 (a gauge-twisted component-wise covering of S2) plus a
    valid morphism S1 -> S2 with nontrivial scalars."""
    S1_plain, fbase = _expand(S2, rng)
    if phase_mode == "random":
        lam = {h: rng.phase() for h in S1_plain.all_points()}
    else:
        lam = {}
    S1 = apply_gauge(S1_plain, lam)
    scalars = {}
    extra = _component_character(S1, rng)
    for h in S1.all_points():
        # frames of S1 are lam[h] times the frames inherited from S2
        scalars[h] = np.conj(complex(lam.get(h, 1.0))) * extra.get(h, 1.0)
    m = SpaceoidMorphism(S1, S2, {A: A for A in S1.objects}, fbase, scalars)
    return S1, m


def gen_morphism_pair(params: GenParams):
    """Composable pair of valid spaceoid morphisms m1 : S1 -> S2, m2 : S2 -> S3."""
    rng = Xoshiro256StarStar((params.seed ^ 0xC0FFEE0DDBA11) & (2**64 - 1))
    S3 = gen_spaceoid(params)
    S2, m2 = _gauge_and_morphism(S3, rng, params.phase_mode)
    S1, m1 = _gauge_and_morphism(S2, rng, params.phase_mode)
    return m1, m2


def gen_functor_pair(params: GenParams, tol: Tolerance = DEFAULT_TOL):
    """Composable non-degenerate *-functors Phi : C1 -> C2, Psi : C2 -> C3,
    optionally through scrambled bases (params.scramble)."""
    m1, m2 = gen_morphism_pair(params)
    cat3 = sections_category(m2.target, tol, check=False)
    cat2 = sections_category(m2.source, tol, check=False)
    cat1 = sections_category(m1.source, tol, check=False)
    phi = gamma_on_morphism(m2, tol, cats=(cat3, cat2), check=False)
    psi = gamma_on_morphism(m1, tol, cats=(cat2, cat1), check=False)
    if params.scramble != "none":
        rng = Xoshiro256StarStar((params.seed ^ 0x5C7A3B1E5) & (2**64 - 1))
        cat3s, T3 = scramble_category(cat3, rng, params.scramble)
        cat2s, T2 = scramble_category(cat2, rng, params.scramble)
        cat1s, T1 = scramble_category(cat1, rng, params.scramble)
        phi = _transport_functor(phi, cat3s, cat2s, T3, T2)
        psi = _transport_functor(psi, cat2s, cat1s, T2, T1)
    return phi, psi


def _transport_functor(F: StarFunctor, src_s, tgt_s, Tsrc, Ttgt):
    inv_tgt = {key: np.linalg.inv(T) if T.size else T for key, T in Ttgt.items()}
    homs = {(A, B): inv_tgt[F.image_pair(A, B)] @ F.hom_maps[(A, B)] @ Tsrc[(A, B)]
            for A, B in F.source.hom_pairs()}
    return StarFunctor(src_s, tgt_s, dict(F.obj_map), homs)

"""The two natural isomorphisms of the duality and the spectral theorem for
non-full Hilbert C*-bimodules over commutative unital algebras.

Isomorphism verdicts are constructive: explicit inverses are produced and
checked, never inferred from dimension counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cstarcat import (
    FiniteCStarCategory,
    HilbertBimodule,
    LINK_LEFT,
    LINK_RIGHT,
    StarFunctor,
    _cstar_norms,
    check_star_functor,
    linking_category,
)
from .errors import InvalidCategory, InvalidSpaceoid
from .functors import (
    gamma_on_morphism,
    sections_category,
    sigma_on_morphism,
    spectral_spaceoid,
)
from .numlin import DEFAULT_TOL, Tolerance, max_abs, nearest_rows, numeric_rank
from .spaceoid import (
    FiniteSpaceoid,
    SpaceoidMorphism,
    compose_morphisms,
    invert_morphism,
    validate_morphism,
    validate_spaceoid,
)


@dataclass
class NaturalityReport:
    """Maximum deviation of a naturality square, the bound judged against, and witnesses."""

    square_identity: float = 0.0
    witnesses: list = field(default_factory=list)
    tolerance: float = DEFAULT_TOL.residual()

    @property
    def ok(self) -> bool:
        return self.square_identity <= self.tolerance

    def record(self, label, deviation):
        deviation = float(deviation)
        self.witnesses.append((label, deviation))
        self.square_identity = max(self.square_identity, deviation)

    def to_json(self):
        return {
            "pass": bool(self.ok),
            "max_deviation": self.square_identity,
            "tolerance": self.tolerance,
            "witnesses": [
                {"element": str(lbl), "deviation": dev} for lbl, dev in self.witnesses
            ],
        }


# ---------------------------------------------------------------------------
# the transform on the algebra side
# ---------------------------------------------------------------------------

def gelfand_transform(C: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL,
                      spectrum=None) -> StarFunctor:
    """Transform of a category into the sections of its spectrum.

    Basis element x of Hom(A,B) is sent to its coordinate vector over the
    point generators of the section category; the result is a *-functor,
    bijective on every Hom-set and isometric for the C*-norms.
    ``spectrum`` may supply a precomputed ``(S, G)`` pair.
    """
    S, G = spectrum if spectrum is not None else spectral_spaceoid(C, tol)
    sec = sections_category(S, tol, check=False)
    homs = {(A, B): (G.diag[A] if A == B else G.hat[(A, B)].T).copy() for A, B in C.hom_pairs()}
    return StarFunctor(C, sec, {A: A for A in C.objects}, homs)


def check_gelfand_isomorphism(C: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL,
                              spectrum=None):
    """Verify that the transform is a *-isomorphism.

    Returns (functor, report) where the report covers the functor axioms,
    per-Hom-set bijectivity (numeric rank) and isometry of the C*-norms on
    all basis elements.
    """
    F = gelfand_transform(C, tol, spectrum)
    report = check_star_functor(F, tol)
    for A, B in C.hom_pairs():
        H = F.hom_maps[(A, B)]
        d = C.dim(A, B)
        if H.shape[0] != H.shape[1]:
            report.record("homset_bijective", False,
                          f"({A},{B}): shape {H.shape}")
            continue
        rank = numeric_rank(H, tol) if d else 0
        report.record("homset_bijective", rank == d, f"({A},{B}) rank {rank}/{d}")
        if d == 0:
            continue
        n_src = _cstar_norms(C, A, B, np.eye(d), tol)
        dev = np.abs(n_src - _cstar_norms(F.target, A, B, H, tol))
        report.record("isometric", dev <= tol.residual(1.0 + n_src),
                      lambda i: f"({A},{B}) basis {i}", dev)
    return F, report


# ---------------------------------------------------------------------------
# the transform on the spaceoid side
# ---------------------------------------------------------------------------

def evaluation_transform(S: FiniteSpaceoid, tol: Tolerance = DEFAULT_TOL,
                         spectrum=None) -> SpaceoidMorphism:
    """Morphism from a spaceoid onto the spectrum of its section category.

    Points go to the pair of evaluation characters at their target and
    source; frame scalars compare the spectrum's corner frames with the
    point generators.  The result is invertible (checked by the caller via
    ``invert_morphism`` / ``validate_morphism``).
    """
    report = validate_spaceoid(S, tol)
    if not report.ok:
        raise InvalidSpaceoid(f"cannot evaluate: {report}")
    S2, G = spectrum if spectrum is not None else \
        spectral_spaceoid(sections_category(S, tol, check=False), tol)

    base_maps = {}
    for A in S.objects:
        basis = sorted(S.base_sets[A])
        # evaluation at the i-th base point is the i-th coordinate-projection character
        best, dev = nearest_rows(G.diag[A], np.eye(len(basis)))
        for i in np.flatnonzero(dev > tol.residual())[:1]:
            raise InvalidCategory(
                f"no spectrum character matches evaluation at ({A},{basis[i]})")
        base_maps[A] = {x: G.point_label(A, k) for x, k in zip(basis, best.tolist())}

    m = SpaceoidMorphism(S, S2, {A: A for A in S.objects}, base_maps, {})
    # the transform carries the frame section to its value at h: the
    # delta_h coordinate of the frame, expressed in S's unit frame
    m.scalars = {h: complex(G.frames[h[:2]][g[2]][h[2]])
                 for h, g in zip(S.all_points(), m._image_handles())}
    return m


# ---------------------------------------------------------------------------
# naturality squares
# ---------------------------------------------------------------------------

def check_naturality_G(F: StarFunctor, tol: Tolerance = DEFAULT_TOL) -> NaturalityReport:
    """Both composites of the algebra-side square agree on every basis
    element: transforming then pulling back along the spectrum of the
    functor equals applying the functor then transforming."""
    C1, C2 = F.source, F.target
    spec1 = spectral_spaceoid(C1, tol)
    spec2 = spectral_spaceoid(C2, tol)
    g1 = gelfand_transform(C1, tol, spec1)
    g2 = gelfand_transform(C2, tol, spec2)
    sm = sigma_on_morphism(F, tol, spectra=(spec1, spec2))
    gamma = gamma_on_morphism(sm, tol, cats=(g1.target, g2.target), check=False)
    left = g1.then(gamma)
    right = F.then(g2)
    homs = {key: (left.hom_maps[key], right.hom_maps[key]) for key in C1.hom_pairs()}
    scale = max([1.0] + [max(max_abs(L), max_abs(R)) for L, R in homs.values()])
    report = NaturalityReport(tolerance=tol.residual(scale))
    for (A, B), (L, R) in homs.items():
        report.record(f"({A},{B})", max_abs(L - R))
    return report


def check_naturality_E(m: SpaceoidMorphism, tol: Tolerance = DEFAULT_TOL) -> NaturalityReport:
    """Both composites of the spaceoid-side square agree point by point and
    scalar by scalar."""
    E1, E2 = m.source, m.target
    sec1 = sections_category(E1, tol, check=False)
    sec2 = sections_category(E2, tol, check=False)
    spec1 = spectral_spaceoid(sec1, tol)
    spec2 = spectral_spaceoid(sec2, tol)
    ev1 = evaluation_transform(E1, tol, spectrum=spec1)
    ev2 = evaluation_transform(E2, tol, spectrum=spec2)
    gamma = gamma_on_morphism(m, tol, cats=(sec2, sec1), check=False)
    sm = sigma_on_morphism(gamma, tol, spectra=(spec2, spec1))
    left = compose_morphisms(ev1, sm)
    right = compose_morphisms(m, ev2)
    report = NaturalityReport(tolerance=tol.residual())
    if left.obj_map != right.obj_map or left.base_maps != right.base_maps:
        report.record("point maps differ", float("inf"))
        return report
    for h, p1, p2 in zip(E1.all_points(), left._image_handles(), right._image_handles()):
        if p1 != p2:
            report.record(f"{h}: {p1} vs {p2}", float("inf"))
            continue
        report.record(str(h), abs(left.scalar(h) - right.scalar(h)))
    return report


# ---------------------------------------------------------------------------
# bimodule spectral theorem
# ---------------------------------------------------------------------------

@dataclass
class BimoduleSpectrum:
    """Spectral data of a non-full Hilbert C*-bimodule.

    ``pairs`` is the graph of the partial bijection between the two spectra
    (indices into the canonical character orders, with the character value
    tuples included for identification); ``iso`` maps module coordinates to
    section coordinates over the line bundle on the graph.
    """

    pairs: list                 # [(left char index, right char index), ...]
    left_characters: np.ndarray   # rows: character values on algA basis
    right_characters: np.ndarray  # rows: character values on algB basis
    left_support: list          # left char indices hit by the bijection
    right_support: list
    iso: np.ndarray             # (n_points, module_dim)
    gelfand: StarFunctor

    def full_left(self) -> bool:
        return len(self.left_support) == self.left_characters.shape[0]

    def full_right(self) -> bool:
        return len(self.right_support) == self.right_characters.shape[0]

    def to_json(self):
        return {
            "pairs": [[int(p), int(q)] for p, q in self.pairs],
            "left_support": [int(p) for p in self.left_support],
            "right_support": [int(q) for q in self.right_support],
            "full_left": self.full_left(),
            "full_right": self.full_right(),
        }


def bimodule_spectrum(M: HilbertBimodule, tol: Tolerance = DEFAULT_TOL) -> BimoduleSpectrum:
    """Spectral theorem driver: the bimodule is the sections of a complex
    line bundle over the graph of a partial bijection between the spectra.

    Builds the linking category, takes its spectrum, and restricts the
    transform to the module Hom-set; the supports of the partial bijection
    witness non-fullness on either side.
    """
    cat = linking_category(M, tol)
    spec = spectral_spaceoid(cat, tol)
    S, G = spec
    F = gelfand_transform(cat, tol, spectrum=spec)
    A, B = LINK_LEFT, LINK_RIGHT
    pairs = [(int(S.target(h)), int(S.source(h))) for h in S.hom_points(A, B)]
    return BimoduleSpectrum(
        pairs=pairs,
        left_characters=G.diag[A],
        right_characters=G.diag[B],
        left_support=sorted({p for p, _ in pairs}),
        right_support=sorted({q for _, q in pairs}),
        iso=F.hom_maps[(A, B)].copy(),
        gelfand=F,
    )


def check_bimodule_isomorphism(M: HilbertBimodule, spec: BimoduleSpectrum,
                               tol: Tolerance = DEFAULT_TOL):
    """Verify the module-to-sections map is bijective and preserves both
    inner products; returns the maximum deviation."""
    A, B = LINK_LEFT, LINK_RIGHT
    F = spec.gelfand
    sec = F.target
    m = M.module_dim
    if spec.iso.shape != (m, m) or (m and numeric_rank(spec.iso, tol) != m):
        return float("inf")
    X = F.hom_maps[(A, B)]                 # column i: image of x_i
    Y = sec.invol[(A, B)] @ np.conj(X)     # column i: image of x_i*
    # [i, j]: image of <x_i,x_j>_A against x_i . x_j*, and of <x_i,x_j>_B
    # against x_i* . x_j
    left = M.ipA @ F.hom_maps[(A, A)].T
    left -= np.einsum("pi,qj,pqk->ijk", X, Y, sec.comp[(A, B, A)], optimize=True)
    right = M.ipB @ F.hom_maps[(B, B)].T
    right -= np.einsum("pi,qj,pqk->ijk", Y, X, sec.comp[(B, A, B)], optimize=True)
    return max(max_abs(left), max_abs(right))

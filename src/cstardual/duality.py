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
    ValidationReport,
    _axiom_scales,
    _cstar_norms,
    _support_paths,
    _sweep_checks,
    check_star_functor,
    linking_category,
    validate_category,
)
from .errors import (
    BimoduleAxiomViolation,
    CstarDualError,
    HolonomyViolation,
    InvalidCategory,
    InvalidSpaceoid,
)
from .functors import (
    gamma_on_morphism,
    sections_category,
    sigma_on_morphism,
    spectral_spaceoid,
)
from .numlin import (DEFAULT_TOL, Tolerance, max_abs, nearest_rows, numeric_rank,
                     singular_values)
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

def gelfand_transform(C: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL) -> StarFunctor:
    """Transform of a category into the sections of its spectrum.

    Basis element x of Hom(A,B) is sent to its coordinate vector over the
    point generators of the section category; the result is a *-functor,
    bijective on every Hom-set and isometric for the C*-norms.
    """
    S, G = spectral_spaceoid(C, tol)
    sec = sections_category(S, tol, check=False)
    homs = {(A, B): (G.diag[A] if A == B else G.hat[(A, B)].T).copy() for A, B in C.hom_pairs()}
    return StarFunctor(C, sec, {A: A for A in C.objects}, homs)


def check_gelfand_isomorphism(C: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL):
    """Verify that the transform is a *-isomorphism.

    Returns (functor, report) where the report covers the functor axioms,
    per-Hom-set bijectivity (numeric rank) and isometry of the C*-norms on
    all basis elements.  A zero Hom-set has no spectrum points, so its
    bijectivity holds; the zero Hom-sets record it once, together.
    """
    F, report, _ = _checked_transform(C, tol)
    return F, report


def _checked_transform(C, tol):
    """``check_gelfand_isomorphism`` and the singular values of each nonzero
    Hom-set's square transform matrix, by Hom-set."""
    F = gelfand_transform(C, tol)
    report = check_star_functor(F, tol)
    nonzero = _support_paths(C, 2)
    report.record("homset_bijective", np.ones(len(C.dims) - len(nonzero), dtype=bool))
    sing = {}
    for A, B in nonzero:
        H, d = F.hom_maps[(A, B)], C.dim(A, B)
        if H.shape[0] != H.shape[1]:
            report.record("homset_bijective", False, f"({A},{B}): shape {H.shape}")
            continue
        sing[(A, B)] = singular_values(H)
        rank = numeric_rank(H, tol, sing[(A, B)])
        report.record("homset_bijective", rank == d, f"({A},{B}) rank {rank}/{d}")
        n_src = _cstar_norms(C, A, B, np.eye(d), tol)
        dev = np.abs(n_src - _cstar_norms(F.target, A, B, H, tol))
        report.record("isometric", dev <= tol.residual(1.0 + n_src),
                      lambda i: f"({A},{B}) basis {i}", dev)
    return F, report, sing


# ---------------------------------------------------------------------------
# certificate-first validation
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = np.finfo(float).eps / 2  # u = 2⁻⁵³
_PHASE_CHECKS = ("nu_unimodular", "c_unimodular", "nu_symmetric", "c_matches_nu_on_units",
                 "involution_antimultiplicative", "cocycle")


def certified_spectrum(C: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL):
    """``spectral_spaceoid`` of C, whose spaceoid must pass ``validate_spaceoid``;
    else HolonomyViolation names the first failure.  Returns ``(S, G,
    report)``, the report being ``validate_spaceoid``'s."""
    S, G = spectral_spaceoid(C, tol)
    report = validate_spaceoid(S, tol)
    if not report.ok:
        first = report.failures[0]
        raise HolonomyViolation(f"spectrum fails {first.check} at {first.witness}")
    return S, G, report


def axiom_certificate(C: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL):
    """``check_gelfand_isomorphism`` on the ``certified_spectrum`` of C, and from
    its observed residuals a rigorous bound on every deviation that
    ``validate_category`` computes on C.  Returns ``(F, report, bounds)``:
    the transform, the check's report and ``bounds[check]``, ``inf`` (or
    NaN) where no bound holds: the report fails or a Hom map is singular.

    The bound.  F is the transform, T the section category of the spectrum
    S, and ``H_AB = F.hom_maps[(A, B)]`` maps coordinates of Hom(A,B) to
    coordinates over the points of S.  ``|.|`` is the largest entry modulus,
    ``|.|₁`` the sum of moduli.  Each quantity is a maximum over all Hom-sets
    or all checked tuples:

    - ``K = √d_AB / (σ_min(H_AB) − 4 n u σ_max(H_AB))`` over the nonzero
      Hom-sets, ``u = 2⁻⁵³``, the σ from the SVD that bijectivity computes:
      ``‖H⁻¹‖_∞ ≤ √d ‖H⁻¹‖₂``, less the SVD's rounding.  A deviation w in
      T's coordinates is ``H⁻¹ w`` in C's, so at most ``K |w|``.
    - ``h`` the largest column 1-norm of any H (``|F(x)|₁`` for a basis
      element x), ``g`` its largest entry, ``n`` the largest Hom dimension,
      ``t, j`` the ``tmax, jmax`` of ``validate_category`` and ``U`` the
      largest ``|unit|₁``.
    - ``ε_c, ε_i, ε_u`` the largest ``functor_composition``,
      ``functor_involution`` and ``functor_unit`` deviations, each plus
      ``4 n u`` times the magnitudes it subtracts (the γₙ rounding model of
      Higham, Accuracy and Stability of Numerical Algorithms, §3.1):
      ``n t g + h g (1+δ)``, ``n g j + (1+δ) g`` and ``U g + 1``.
    - ``δ`` the largest deviation of the spectrum's phase checks
      (``_PHASE_CHECKS``), plus ``16 u``.

    In T a basis section is ``e_p`` per point p, with ``e_p e_q = c(p,q)
    e_pq`` and ``e_p* = ν(p) e_p*`` exact in the stored phases and ``|c|,
    |ν| ≤ 1+δ``; products with base points and units are exact.  A point of
    a product and one factor determine the other, so ``|ab| ≤ (1+δ) |a|
    |b|₁`` and ``|ab| ≤ (1+δ) |a|₁ |b|``.  The phase checks bound T's own
    defects on basis sections: the associator by ``δ`` (cocycle), ``e_p**
    − e_p`` by ``3δ + 2δ²`` (ν symmetric and unimodular),
    antimultiplicativity by ``δ(5 + 5δ + 2δ²)`` (the worst case, a pair
    closing on the diagonal, where c matches ν), and ``e_p* e_p = w e_s``,
    s the source base point, has ``|w − 1| ≤ δ(4 + 3δ)``.  Each identity of
    C, carried through F, splits into one term per functor defect and T's
    own defect on the images.  For associativity, with ``xy = Σ_m T_ABC[i,
    j, m] b_m``::

        H_AD((xy)z − x(yz)) = [F((xy)z) − F(xy)F(z)] + [F(xy) − F(x)F(y)]F(z)
                            + [(F(x)F(y))F(z) − F(x)(F(y)F(z))]
                            − F(x)[F(yz) − F(y)F(z)] − [F(x(yz)) − F(x)F(yz)]

    where the outer terms are at most ``n t ε_c``, the next two ``h (1+δ)
    ε_c`` (taken ``n`` times larger here) and the associator ``h³ δ``:

    - associativity ``≤ K (2 n t ε_c + 2 n h (1+δ) ε_c + h³ δ)``;
    - ``unit_law`` ``≤ K (U ε_c + h ε_u)``, on either side;
    - ``involution_involutive`` ``≤ K (n j ε_i + (1+δ) ε_i + (3δ + 2δ²) h)``;
    - ``involution_unit`` ``≤ K (U ε_i + 2 ε_u)``;
    - ``involution_antimultiplicative`` ``≤ K (n t ε_i + (1+δ) ε_c + (n j)²
      ε_c + 2 (1+δ)² h ε_i + n (1+δ) ε_i² + δ(5 + 5δ + 2δ²) h²)``;
    - ``diagonal_commutative`` ``≤ 2 K ε_c``, T's diagonals commuting exactly;
    - ``positivity`` needs no K: the sweep's character rows at B are
      ``H_BB``, so it evaluates ``F(x* x)`` itself, which is real and
      nonnegative up to ``E = |x*|₁ ε_c + (1+δ) |F(x)|₁ ε_i + δ(4 + 3δ)
      |F(x)|₁²`` for a basis element x.  The sweep allows
      ``tol.positivity(s)``, linear in ``s ≥ 1 + |F(x)|² (1 − δ(4 + 3δ)) −
      E``; the bound is the largest ``E / s``, against ``tol.positivity(1)``;
    - ``diagonal_semisimple`` holds: the spectrum has the characters.

    Each bound is on the exact deviation.  The sweep computes it with its
    own rounding, far below the half threshold ``certified_validate``
    leaves for it.
    """
    spaceoid_report = certified_spectrum(C, tol)[2]
    F, report, sing = _checked_transform(C, tol)
    checks = ("associativity", "unit_law", "involution_involutive", "involution_unit",
              "involution_antimultiplicative", "diagonal_commutative", "diagonal_semisimple",
              "positivity")
    if not report.ok:
        return F, report, dict.fromkeys(checks, np.inf)
    u, n = _UNIT_ROUNDOFF, max(C.dims.values())
    t, j = _axiom_scales(C)
    mags = {key: np.abs(F.hom_maps[key]) for key in sing}
    h = max(float(M.sum(axis=0).max()) for M in mags.values())
    g = max(float(M.max()) for M in mags.values())
    U = max(float(np.abs(C.unit(A)).sum()) for A in C.objects)
    gaps = [s[-1] - 4 * n * u * s[0] for s in sing.values()]
    K = max(np.sqrt(len(s)) / gap if gap > 0 else np.inf for s, gap in zip(sing.values(), gaps))
    phases, largest = spaceoid_report.largest, report.largest
    d = max(phases.get(name, 0.0) for name in _PHASE_CHECKS) + 16 * u
    ec = largest.get("functor_composition", 0.0) + 4 * n * u * (n * t * g + h * g * (1 + d))
    ei = largest.get("functor_involution", 0.0) + 4 * n * u * (n * g * j + (1 + d) * g)
    eu = largest.get("functor_unit", 0.0) + 4 * n * u * (U * g + 1)
    bounds = dict(zip(checks, (
        K * (2 * n * t * ec + 2 * n * h * (1 + d) * ec + h ** 3 * d),
        K * (U * ec + h * eu),
        K * (n * j * ei + (1 + d) * ei + (3 * d + 2 * d * d) * h),
        K * (U * ei + 2 * eu),
        K * (n * t * ei + (1 + d) * ec + (n * j) ** 2 * ec + 2 * (1 + d) ** 2 * h * ei
             + n * (1 + d) * ei * ei + d * (5 + 5 * d + 2 * d * d) * h * h),
        2 * K * ec,
        0.0,
        max(_positivity_ratio(M, C.invol[key], ec, ei, d) for key, M in mags.items()))))
    return F, report, bounds


def _positivity_ratio(M, J, ec, ei, d):
    """Largest ``E / s`` of ``axiom_certificate``'s positivity bound over the
    basis of one Hom-set: ``M`` the moduli of its transform matrix, ``J`` its
    involution matrix."""
    a, w = M.sum(axis=0), d * (4 + 3 * d)
    E = np.abs(J).sum(axis=0) * ec + (1 + d) * a * ei + w * a * a
    return float(np.max(E / (1 + np.maximum(0.0, M.max(axis=0) ** 2 * max(0.0, 1 - w) - E))))


def certified_validate(C: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL):
    """``validate_category``'s verdict, from the Gelfand certificate where it
    decides.

    When ``axiom_certificate`` bounds every check's deviation by at most half
    its sweep threshold (``tol.axiom(tmax, jmax)``; for positivity
    ``tol.positivity`` per unit of scale), every deviation the sweep would
    compute passes, so the report records the sweep's check names with the
    sweep's multiplicities and no failure.  Otherwise (the spectrum raises,
    or a bound is inconclusive) the report is ``validate_category``'s own,
    failures and witnesses included.  The spectrum stays cached on C
    (``spectral_spaceoid``) for callers that need it.
    """
    try:
        _, _, bounds = axiom_certificate(C, tol)
    except CstarDualError:
        return validate_category(C, tol)
    limits = dict.fromkeys(bounds, tol.axiom(*_axiom_scales(C)))
    limits["positivity"] = tol.positivity(1.0)
    if all(bounds[check] <= limits[check] / 2 for check in bounds):
        return ValidationReport(checks_run=_sweep_checks(C))
    return validate_category(C, tol)


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
    g1 = gelfand_transform(C1, tol)
    g2 = gelfand_transform(C2, tol)
    sm = sigma_on_morphism(F, tol)
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
    # sigma below reads the spectra of sec1 and sec2 from their caches
    ev1 = evaluation_transform(E1, tol, spectrum=spectral_spaceoid(sec1, tol))
    ev2 = evaluation_transform(E2, tol, spectrum=spectral_spaceoid(sec2, tol))
    gamma = gamma_on_morphism(m, tol, cats=(sec2, sec1), check=False)
    sm = sigma_on_morphism(gamma, tol)
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


def validated_linking_category(M: HilbertBimodule, tol: Tolerance = DEFAULT_TOL):
    """``linking_category`` of M, validated by ``certified_validate``; a
    failure raises BimoduleAxiomViolation naming the sweep's first failure."""
    cat = linking_category(M, tol)
    report = certified_validate(cat, tol)
    if not report.ok:
        first = report.failures[0]
        raise BimoduleAxiomViolation(f"linking category fails {first.check} at {first.witness}")
    return cat


def bimodule_spectrum(M: HilbertBimodule, tol: Tolerance = DEFAULT_TOL) -> BimoduleSpectrum:
    """Spectral theorem driver: the bimodule is the sections of a complex
    line bundle over the graph of a partial bijection between the spectra.

    Builds and validates the linking category, takes its spectrum (the one
    the validation cached, where it took one), and restricts the transform
    to the module Hom-set; the supports of the partial bijection witness
    non-fullness on either side.
    """
    cat = validated_linking_category(M, tol)
    S, G = spectral_spaceoid(cat, tol)
    F = gelfand_transform(cat, tol)
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

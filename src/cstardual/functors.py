"""The two sides of the duality: the section functor (spaceoid to category)
and the spectrum functor (category to spaceoid), on objects and morphisms.

Sections are exact: the structure constants of the section category are the
stored phases, so all numerical error of a round trip lives in the spectrum
direction (characters, corners, frame extraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .cstarcat import (
    FiniteCStarCategory,
    StarFunctor,
    check_non_degenerate,
    corner_projection_matrix,
    cstar_norm,
)
from .errors import (
    DegenerateFunctor,
    HolonomyViolation,
    InvalidMorphism,
    InvalidSpaceoid,
)
from .numlin import DEFAULT_TOL, Tolerance, max_abs
from .spaceoid import (DIAGONAL, NO_COMPOSITE, FiniteSpaceoid, SpaceoidMorphism, _runs,
                       validate_morphism, validate_spaceoid)

_MATCH_TOL = 1e-6  # character matching across two diagonalizations


# ---------------------------------------------------------------------------
# section functor, on objects
# ---------------------------------------------------------------------------

def diag_basis(S: FiniteSpaceoid, A):
    """Basis labels of the diagonal Hom-set of the section category."""
    return sorted(S.base_sets[A])


def sections_category(S: FiniteSpaceoid, tol: Tolerance = DEFAULT_TOL,
                      check: bool = True) -> FiniteCStarCategory:
    """Category of sections of a finite spaceoid.

    One generator per point: indicator sections delta_p on off-diagonal
    Hom-sets and delta_x per base point on diagonals.  Composition extends by
    zero where no composite point exists; identities are the all-ones
    sections.
    """
    if check:
        report = validate_spaceoid(S, tol)
        if not report.ok:
            raise InvalidSpaceoid(f"cannot take sections: {report}")

    objs, n = S.objects, len(S.objects)
    dims = {(A, B): len(S.base_sets[A]) if A == B else len(S.points[(A, B)])
            for A, B in product(objs, repeat=2)}

    # Every nonzero structure constant as the object triple (a, b, c), the
    # basis indices (i, j, k) in Hom(a,b), Hom(b,c), Hom(a,c) and a value:
    # products of base points, units acting on points from either side, and
    # composable pairs onto their composite point, or onto the diagonal where
    # they close there; a pair without a composite point extends by zero.
    # Base labels are coded by diagonal basis index.
    obj, base = _runs(np.zeros(n, dtype=np.int64), [dims[(A, A)] for A in objs])
    P, Q, R = S._p, S._q, S._r
    pair = np.flatnonzero((R >= 0) | ((R == DIAGONAL) & (S._slab[Q] == S._tlab[P])))
    P, Q, R = P[pair], Q[pair], R[pair]
    tobj, sobj, loc, one = S._tobj, S._sobj, S._local, np.ones(len(S._local))
    a = np.concatenate([obj, tobj, tobj, tobj[P]])
    b = np.concatenate([obj, tobj, sobj, sobj[P]])
    c = np.concatenate([obj, sobj, sobj, sobj[Q]])
    i = np.concatenate([base, S._tlab, loc, loc[P]])
    j = np.concatenate([base, loc, S._slab, loc[Q]])
    k = np.concatenate([base, loc, loc, np.where(R >= 0, loc[R], S._tlab[P])])
    v = np.concatenate([np.ones(len(base)), one, one, S._c[pair]])
    triple = (a * n + b) * n + c
    order = np.argsort(triple, kind="stable")
    bounds = np.searchsorted(triple[order], np.arange(n ** 3 + 1))
    comp = {}
    for t, (A, B, C) in enumerate(product(objs, repeat=3)):
        comp[(A, B, C)] = T = np.zeros((dims[(A, B)], dims[(B, C)], dims[(A, C)]), dtype=complex)
        sel = order[bounds[t]:bounds[t + 1]]
        T[i[sel], j[sel], k[sel]] = v[sel]

    star = S._inverses()
    invol = {}
    for A, B in product(objs, repeat=2):
        if A == B:
            invol[(A, B)] = np.eye(dims[(A, B)], dtype=complex)
        else:
            ps = S._offset[(A, B)] + np.arange(dims[(A, B)])
            invol[(A, B)] = J = np.zeros((dims[(B, A)], dims[(A, B)]), dtype=complex)
            J[loc[star[ps]], loc[ps]] = S._nu[ps]

    units = {A: np.ones(dims[(A, A)], dtype=complex) for A in objs}
    return FiniteCStarCategory(objs, dims, comp, invol, units)


# ---------------------------------------------------------------------------
# section functor, on morphisms (contravariant)
# ---------------------------------------------------------------------------

def gamma_on_morphism(m: SpaceoidMorphism, tol: Tolerance = DEFAULT_TOL,
                      cats=None, check: bool = True) -> StarFunctor:
    """Pull-back functor on sections induced by a spaceoid morphism.

    A generator delta_q of the target's sections pulls back to the sum of
    F_p delta_p over the preimage points p.  Contravariant: the returned
    functor runs from sections of the morphism's target to sections of its
    source.  ``cats`` may supply the two section categories to keep functor
    endpoints shared across calls.
    """
    if check:
        report = validate_morphism(m, tol)
        if not report.ok:
            raise InvalidMorphism(f"cannot pull back sections: {report}")
    src_cat = cats[0] if cats else sections_category(m.target, tol, check=False)
    dst_cat = cats[1] if cats else sections_category(m.source, tol, check=False)

    inv_obj = {v: k for k, v in m.obj_map.items()}
    homs = {}
    for A2, B2 in product(m.target.objects, repeat=2):
        A, B = inv_obj[A2], inv_obj[B2]
        H = np.zeros((dst_cat.dim(A, B), src_cat.dim(A2, B2)), dtype=complex)
        if A2 == B2:
            tgt_idx = {x: j for j, x in enumerate(diag_basis(m.target, A2))}
            for i, x in enumerate(diag_basis(m.source, A)):
                H[i, tgt_idx[m.base_maps[A][x]]] = 1.0
        else:
            for i, h in enumerate(m.source.hom_points(A, B)):
                H[i, m.point_map(h)[2]] = m.scalar(h)
        homs[(A2, B2)] = H
    return StarFunctor(src_cat, dst_cat, inv_obj, homs)


# ---------------------------------------------------------------------------
# spectrum functor, on objects
# ---------------------------------------------------------------------------

@dataclass
class GelfandData:
    """Coordinates of the transformed basis sections in the chosen frames.

    ``diag[A][k, i]`` is the value of basis element i of the diagonal at A on
    the k-th canonical character (equivalently at the k-th base point of the
    spectrum).  ``hat[(A, B)][i, n]`` is the value of basis element i of
    Hom(A,B) at the n-th spectrum point, in that point's unit frame, and
    ``frames[(A, B)][n]`` is the frame vector itself in Hom(A,B) coordinates.
    """

    diag: dict
    hat: dict
    frames: dict

    def point_label(self, A, k: int) -> str:
        """Label of the k-th base point over A, zero-padded to one width per
        diagonal so that string order is index order."""
        width = max(2, len(str(len(self.diag[A]) - 1)))
        return f"{k:0{width}d}"


def _frame_vector(cat, A, B, basis_vec, tol):
    """Normalize a corner generator: C*-norm one, first nonzero coordinate
    positive real."""
    nrm = cstar_norm(cat, A, B, basis_vec, tol)
    if nrm <= 1e-6:
        raise HolonomyViolation(
            f"corner generator in Hom({A},{B}) has vanishing norm; "
            f"input is not a valid commutative C*-category")
    u = basis_vec / nrm
    mags = np.abs(u)
    first = int(np.argmax(mags > 1e-8 * np.max(mags)))
    return u * (np.conj(u[first]) / abs(u[first]))


def _project_coeff(frame, w, tol, context):
    """Coefficient of w against the one-dimensional frame; the residual must
    vanish for the input to be a valid commutative category."""
    denom = np.vdot(frame, frame)
    coeff = np.vdot(frame, w) / denom
    residual = max_abs(w - coeff * frame)
    scale = 1.0 + max_abs(w)
    if residual > 1e-6 * scale:
        raise HolonomyViolation(f"projection residual {residual:g} at {context}")
    return complex(coeff)


def spectral_spaceoid(C: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL):
    """Spectrum of a finite commutative C*-category.

    Base points are the canonical characters of the diagonals; Hom(A,B)
    points are the character pairs with nonzero corner, frames are the
    corner generators normalized to C*-norm one with deterministic phase,
    and the cocycle is read off by composing and involuting frames.

    Returns ``(S, G)`` with ``G`` the section coordinates of every basis
    element (the data of the transform into the section category of S).
    """
    objs = C.objects
    gd = GelfandData(diag={}, hat={}, frames={})
    base_sets = {}
    for A in objs:
        omega = C.character_matrix(A, tol)
        gd.diag[A] = omega
        base_sets[A] = [gd.point_label(A, k) for k in range(omega.shape[0])]

    points = {}
    frames = {}
    coords = {}
    for A, B in product(objs, repeat=2):
        if A == B:
            continue
        matching = C.corner_matching(A, B, tol)
        pts = []
        for p_idx in sorted(matching):
            q_idx, gen, functional = matching[p_idx]
            key = (A, B, gd.point_label(A, p_idx), gd.point_label(B, q_idx))
            pts.append(key[2:])
            frames[key] = _frame_vector(C, A, B, gen, tol)
            # frame = s . gen with |gen| = 1, so frame* K / |frame|^2 = gen* K / s
            coords[key] = functional / np.vdot(gen, frames[key])
        points[(A, B)] = pts
        total = len(pts)
        if total != C.dim(A, B):
            raise HolonomyViolation(
                f"corner dimensions over Hom({A},{B}) sum to {total}, "
                f"dimension is {C.dim(A, B)}")

    S = FiniteSpaceoid(objs, base_sets, points)
    handles = S.all_points()
    keys = [h[:2] + (S.target(h), S.source(h)) for h in handles]
    frame = [frames[key] for key in keys]
    nu = np.empty(len(handles), dtype=complex)
    c = np.empty(len(S._p), dtype=complex)
    try:
        for p, h in enumerate(handles):
            w = C.star(h[0], h[1], frame[p])
            nu[p] = _project_coeff(frame[S._point(S.star(h))], w, tol, f"nu{h}")
        for row, (p, q, r) in enumerate(zip(S._p.tolist(), S._q.tolist(), S._r.tolist())):
            (A, B, _), (_, Cobj, _) = h1, h2 = handles[p], handles[q]
            w = C.compose(A, B, Cobj, frame[p], frame[q])
            if r == NO_COMPOSITE:
                S._composites()  # raises: this is the first row without a composite
            # a composite on the diagonal: project on the idempotent
            onto = C.idempotents(A, tol)[:, int(S.target(h1))] if r == DIAGONAL else frame[r]
            c[row] = _project_coeff(onto, w, tol, f"c{h1},{h2}")
    except InvalidSpaceoid as exc:
        # matching produced no inverse/composite point: invalid input category
        raise HolonomyViolation(str(exc))

    S = S._with_phases(nu, c)
    for A, B in S.points:
        ps = range(S._offset[(A, B)], S._offset[(A, B)] + len(S.points[(A, B)]))
        shape = (len(ps), C.dim(A, B))
        gd.frames[(A, B)] = np.array([frame[p] for p in ps], dtype=complex).reshape(shape)
        gd.hat[(A, B)] = np.array([coords[keys[p]] for p in ps], dtype=complex).reshape(shape).T
    return S, gd


# ---------------------------------------------------------------------------
# spectrum functor, on morphisms (contravariant)
# ---------------------------------------------------------------------------

def _match_character(omega_rows, values, context):
    devs = [max_abs(row - values) for row in omega_rows]
    best = int(np.argmin(devs))
    if devs[best] > _MATCH_TOL * (1.0 + max_abs(values)):
        raise InvalidMorphism(
            f"no character matches the pulled-back functional at {context} "
            f"(best deviation {devs[best]:g})")
    return best


def sigma_on_morphism(F: StarFunctor, tol: Tolerance = DEFAULT_TOL,
                      spectra=None) -> SpaceoidMorphism:
    """Spectrum of a non-degenerate *-functor.

    The point map sends a spectrum point of the functor's target category to
    the point named by the pulled-back characters; frame scalars express the
    functor's fiber action in the chosen frames.  Raises DegenerateFunctor
    when the non-degeneracy gate fails (the point map would lose a point).
    ``spectra`` may supply ((S_src, G_src), (S_tgt, G_tgt)) precomputed for
    the functor's source and target categories.
    """
    ok, witness = check_non_degenerate(F, tol)
    if not ok:
        cls, A, B = witness
        raise DegenerateFunctor(
            f"functional {dict(cls.assignment)} vanishes after pull-back on "
            f"Hom({A},{B})")
    src, tgt = F.source, F.target
    (S1, G1) = spectra[0] if spectra else spectral_spaceoid(src, tol)
    (S2, G2) = spectra[1] if spectra else spectral_spaceoid(tgt, tol)

    inv_obj = {v: k for k, v in F.obj_map.items()}
    base_maps = {}
    for A2 in tgt.objects:
        A = inv_obj[A2]
        omega_src = G1.diag[A]
        bm = {}
        for k, row in enumerate(G2.diag[A2]):
            pull = row @ F.hom_maps[(A, A)]
            idx = _match_character(omega_src, pull, f"({A2}, char {k})")
            bm[G2.point_label(A2, k)] = G1.point_label(A, idx)
        base_maps[A2] = bm

    m = SpaceoidMorphism(S2, S1, inv_obj, base_maps, {})
    scalars = {}
    for h in S2.all_points():
        A2, B2, _ = h
        A, B = inv_obj[A2], inv_obj[B2]
        target_handle = m.point_map(h)
        u1 = G1.frames[(A, B)][target_handle[2]]
        y = F.hom_maps[(A, B)] @ u1
        p = tgt.characters(A2, tol)[int(S2.target(h))]
        q = tgt.characters(B2, tol)[int(S2.source(h))]
        K = corner_projection_matrix(tgt, A2, B2, p, q, tol)
        u2 = G2.frames[(A2, B2)][h[2]]
        scalars[h] = _project_coeff(u2, K @ y, tol, f"scalar{h}")
    m.scalars = scalars
    return m

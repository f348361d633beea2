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
    _cstar_norms,
)
from .errors import (
    DegenerateFunctor,
    HolonomyViolation,
    InvalidCategory,
    InvalidMorphism,
    InvalidSpaceoid,
)
from .numlin import DEFAULT_TOL, Tolerance, nearest_rows
from .spaceoid import (DIAGONAL, NO_COMPOSITE, FiniteSpaceoid, SpaceoidMorphism, _runs,
                       validate_morphism, validate_spaceoid)


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
    # a tensor per triple with a structure constant; the category reads the rest as zeros
    triple = (a * n + b) * n + c
    order = np.argsort(triple, kind="stable")
    codes, starts, counts = np.unique(triple[order], return_index=True, return_counts=True)
    comp = {}
    for t, lo, m in zip(codes.tolist(), starts.tolist(), counts.tolist()):
        A, B, C = objs[t // (n * n)], objs[t // n % n], objs[t % n]
        comp[(A, B, C)] = T = np.zeros((dims[(A, B)], dims[(B, C)], dims[(A, C)]), dtype=complex)
        sel = order[lo:lo + m]
        T[i[sel], j[sel], k[sel]] = v[sel]

    star = S._inverses()
    invol = {(A, A): np.eye(dims[(A, A)], dtype=complex) for A in objs}
    for (A, B), pts in S.points.items():
        if pts:
            ps = S._offset[(A, B)] + np.arange(len(pts))
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
    S = m.source
    images = m.target._local[m._image_points()]
    scalars = np.array([m.scalar(h) for h in S._handles], dtype=complex)
    homs = {}
    for A2, B2 in product(m.target.objects, repeat=2):
        A, B = inv_obj[A2], inv_obj[B2]
        H = np.zeros((dst_cat.dim(A, B), src_cat.dim(A2, B2)), dtype=complex)
        if A2 == B2:
            tgt_idx = {x: j for j, x in enumerate(diag_basis(m.target, A2))}
            for i, x in enumerate(diag_basis(S, A)):
                H[i, tgt_idx[m.base_maps[A][x]]] = 1.0
        else:
            ps = S._offset[(A, B)] + np.arange(len(S.points[(A, B)]))
            H[S._local[ps], images[ps]] = scalars[ps]
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


def _project(onto, W, tol):
    """Coefficients of the rows of W against the rows of ``onto``, each a
    one-dimensional frame, with the residuals and the bounds under which they
    must stay for the input to be a valid commutative category."""
    coeff = np.sum(np.conj(onto) * W, axis=1) / np.sum(np.conj(onto) * onto, axis=1)
    residual = np.max(np.abs(W - coeff[:, None] * onto), axis=1, initial=0.0)
    return coeff, residual, tol.residual(1.0 + np.max(np.abs(W), axis=1, initial=0.0))


def spectral_spaceoid(C: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL):
    """Spectrum of a finite commutative C*-category.

    Base points are the canonical characters of the diagonals; Hom(A,B)
    points are the character pairs with nonzero corner, frames are the
    corner generators normalized to C*-norm one with deterministic phase,
    and the cocycle is read off by composing and involuting frames: one
    stacked contraction per Hom-set for ``nu`` and per Hom triple for ``c``.
    The first failing point, then the first failing pair-table row, is
    reported; a category without objects raises InvalidCategory.

    Returns ``(S, G)`` with ``G`` the section coordinates of every basis
    element (the data of the transform into the section category of S).
    The pair is kept on C per tolerance, beside its characters, so every
    caller reads the one spectrum of C; an input that raises keeps nothing
    and raises again on the next call.
    """
    if tol not in C._spectra:
        C._spectra[tol] = _spectral_spaceoid(C, tol)
    return C._spectra[tol]


def _spectral_spaceoid(C, tol):
    """The body of ``spectral_spaceoid``, computed once per category and tolerance."""
    objs = C.objects
    if not objs:
        raise InvalidCategory("a category without objects has no spectrum")
    gd = GelfandData(diag={A: C.characters(A, tol) for A in objs}, hat={}, frames={})
    base_sets = {A: [gd.point_label(A, k) for k in range(len(gd.diag[A]))] for A in objs}

    points, gens, funcs, norms = {}, {}, {}, {}
    for A, B in C.off_diagonal_pairs():
        if not C.dim(A, B):
            continue  # no points; the spaceoid reads the Hom-set as empty
        matching = C.corner_matching(A, B, tol)
        ps, shape = sorted(matching), (len(matching), C.dim(A, B))
        gens[(A, B)] = np.array([matching[p][1] for p in ps], dtype=complex).reshape(shape)
        funcs[(A, B)] = np.array([matching[p][2] for p in ps], dtype=complex).reshape(shape)
        norms[(A, B)] = _cstar_norms(C, A, B, gens[(A, B)].T, tol)
        if np.any(norms[(A, B)] <= tol.residual()):
            raise HolonomyViolation(
                f"corner generator in Hom({A},{B}) has vanishing norm; "
                f"input is not a valid commutative C*-category")
        points[(A, B)] = [(gd.point_label(A, p), gd.point_label(B, matching[p][0])) for p in ps]
        if len(ps) != C.dim(A, B):
            raise HolonomyViolation(
                f"corner dimensions over Hom({A},{B}) sum to {len(ps)}, "
                f"dimension is {C.dim(A, B)}")
    S = FiniteSpaceoid(objs, base_sets, points)

    # Every point's frame is one row of one array, in point order, zero-padded
    # to the widest Hom-set: the generator at C*-norm one, its first nonzero
    # coordinate made positive real.
    N, width = len(S._handles), max(C.dims.values())
    rows = {key: slice(S._offset[key], S._offset[key] + len(pts)) for key, pts in S.points.items()}
    (gen, functional), scale = np.zeros((2, N, width), dtype=complex), np.ones(N)
    for key in gens:
        at, d = rows[key], C.dim(*key)
        gen[at, :d], functional[at, :d], scale[at] = gens[key], funcs[key], norms[key]
    U = gen / scale[:, None]
    mags = np.abs(U)
    first = np.argmax(mags > tol.phase(10) * np.max(mags, axis=1, keepdims=True), axis=1)
    lead = U[np.arange(N), first]
    frame = U * (np.conj(lead) / np.abs(lead))[:, None]
    # frame = s . gen with |gen| = 1, so frame* K / |frame|^2 = gen* K / s
    hat = functional / np.sum(np.conj(gen) * frame, axis=1)[:, None]
    frame.flags.writeable = hat.flags.writeable = False  # G is cached on C and shared

    # nu: each frame involuted, one product per Hom-set, against the frame of
    # the inverse point
    star, W = S._star, np.zeros((N, width), dtype=complex)
    for (A, B), at in rows.items():
        gd.frames[(A, B)], gd.hat[(A, B)] = frame[at, :C.dim(A, B)], hat[at, :C.dim(A, B)].T
        if (A, B) in gens:
            W[at, :C.dim(B, A)] = np.conj(gd.frames[(A, B)]) @ C.invol[(A, B)].T
    nu, (nu_res, nu_bound) = np.zeros(N, dtype=complex), np.zeros((2, N))
    has = np.flatnonzero(star >= 0)
    nu[has], nu_res[has], nu_bound[has] = _project(frame[star[has]], W[has], tol)

    # c: frame products, one contraction per Hom triple over its pair-table
    # rows, against the frame of the composite point or, on the diagonal,
    # the idempotent of the target character
    P, Q, R, n = S._p, S._q, S._r, len(objs)
    live = np.flatnonzero(R != NO_COMPOSITE)
    triple = ((S._tobj[P] * n + S._sobj[P]) * n + S._sobj[Q])[live]
    W = np.zeros((len(P), width), dtype=complex)
    for t in np.unique(triple).tolist():
        at = live[triple == t]
        A, B, Cobj = objs[t // (n * n)], objs[t // n % n], objs[t % n]
        W[at, :C.dim(A, Cobj)] = np.einsum("ri,rj,ijk->rk", frame[P[at], :C.dim(A, B)],
                                           frame[Q[at], :C.dim(B, Cobj)], C.comp[(A, B, Cobj)])
    idem = np.zeros((n, width, width), dtype=complex)
    for a, A in enumerate(objs):
        idem[a, :C.dim(A, A), :C.dim(A, A)] = C.idempotents(A, tol).T
    onto = np.where((R >= 0)[:, None], frame[np.maximum(R, 0)], idem[S._tobj[P], S._tlab[P]])
    c, (c_res, c_bound) = np.zeros(len(P), dtype=complex), np.zeros((2, len(P)))
    c[live], c_res[live], c_bound[live] = _project(onto[live], W[live], tol)

    h = S._handles
    try:
        for k in np.flatnonzero((star < 0) | (nu_res > nu_bound))[:1]:
            S.star(h[k])  # raises where the point has no inverse
            raise HolonomyViolation(f"projection residual {nu_res[k]:g} at nu{h[k]}")
        for k in np.flatnonzero((R == NO_COMPOSITE) | (c_res > c_bound))[:1]:
            if R[k] == NO_COMPOSITE:
                S._composites()  # raises: this is the first row without a composite
            raise HolonomyViolation(
                f"projection residual {c_res[k]:g} at c{h[P[k]]},{h[Q[k]]}")
    except InvalidSpaceoid as exc:
        # matching produced no inverse/composite point: invalid input category
        raise HolonomyViolation(str(exc))
    return S._with_phases(nu, c), gd


# ---------------------------------------------------------------------------
# spectrum functor, on morphisms (contravariant)
# ---------------------------------------------------------------------------

def sigma_on_morphism(F: StarFunctor, tol: Tolerance = DEFAULT_TOL) -> SpaceoidMorphism:
    """Spectrum of a non-degenerate *-functor.

    The point map sends a spectrum point of the functor's target category to
    the point named by the pulled-back characters.  A point's frame scalar
    is the functor read in Gelfand coordinates: the image under F of the
    frame of the point's image, evaluated at the point (its ``hat`` row in
    the target's spectrum).  ``corner_matching`` certifies every corner
    projection as ``u f``, and ``hat`` is ``f`` rescaled to the frame, so
    this is the projection of F(frame) onto the point's frame.  Both spectra
    are the categories' own (``spectral_spaceoid``).  Raises
    DegenerateFunctor when the non-degeneracy gate fails (the point map
    would lose a point), InvalidMorphism where a point has no image.
    """
    ok, witness = check_non_degenerate(F, tol)
    if not ok:
        (A2, p, B2, q), A, B = witness
        raise DegenerateFunctor(
            f"functional {dict(sorted([(A2, p), (B2, q)]))} vanishes after "
            f"pull-back on Hom({A},{B})")
    src, tgt = F.source, F.target
    S1, G1 = spectral_spaceoid(src, tol)
    S2, G2 = spectral_spaceoid(tgt, tol)

    inv_obj = {v: k for k, v in F.obj_map.items()}
    base_maps = {}
    for A2 in tgt.objects:
        A = inv_obj[A2]
        pull = G2.diag[A2] @ F.hom_maps[(A, A)]
        best, dev = nearest_rows(G1.diag[A], pull)
        bound = tol.residual(1.0 + np.abs(pull).max(axis=1, initial=0.0))
        for k in np.flatnonzero(dev > bound)[:1]:
            raise InvalidMorphism(
                f"no character matches the pulled-back functional at ({A2}, char {k}) "
                f"(best deviation {dev[k]:g})")
        base_maps[A2] = {G2.point_label(A2, k): G1.point_label(A, idx)
                         for k, idx in enumerate(best.tolist())}

    m = SpaceoidMorphism(S2, S1, inv_obj, base_maps, {})
    # per Hom-set of S2 that holds points: the image frames through the
    # functor, each evaluated at its point
    images = m._image_points()
    scalars = np.zeros(len(images), dtype=complex)
    for (A2, B2), off in S2._offset.items():
        if not S2.points[(A2, B2)]:
            continue
        A, B = inv_obj[A2], inv_obj[B2]
        at = slice(off, off + len(S2.points[(A2, B2)]))  # the Hom-set's points, in order
        Y = G1.frames[(A, B)][S1._local[images[at]]] @ F.hom_maps[(A, B)].T
        scalars[at] = np.sum(G2.hat[(A2, B2)].T * Y, axis=1)
    m.scalars = dict(zip(S2._handles, scalars.tolist()))
    return m

"""Finite-dimensional commutative C*-categories as structure tensors.

A category is stored per Hom-set: composition tensors ``comp[(A,B,C)]`` with
``comp[i,j,k]`` the coefficient of basis vector k of Hom(A,C) in b_i . b_j,
conjugate-linear involution matrices ``invol[(A,B)]`` acting as
``x* = J @ conj(x)``, and unit vectors on the diagonals.  Tensors of size
zero are not stored and read as zeros of their shape.  Characters of the
diagonal algebras are extracted numerically and everything downstream
(corners, norms, the spectrum construction) is built on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import (
    BimoduleAxiomViolation,
    CornerDimensionExceedsOne,
    DiagonalNotSemisimple,
    HolonomyViolation,
    NoConvergence,
    NotHermitian,
)
from .numlin import DEFAULT_TOL, Tolerance, hermitian_eig, joint_diagonalize, lex_order, max_abs
from .rng import Xoshiro256StarStar

_CORNER_SEED = 0xC0A2E125


# ---------------------------------------------------------------------------
# validation reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckFailure:
    check: str
    witness: str
    deviation: float = 0.0


@dataclass
class ValidationReport:
    """Outcome of an axiom sweep; failures carry witness indices."""

    checks_run: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    _deviations: list = field(default_factory=list, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, check, ok, witness="", deviation=0.0):
        """One check; with ``ok`` an array, one per element, where ``check`` and
        ``deviation`` may be aligned arrays and ``witness(k)`` names failure k."""
        if np.ndim(ok):
            checks = np.broadcast_to(np.asarray(check, dtype=object), len(ok)).tolist()
            devs = np.broadcast_to(np.asarray(deviation, dtype=float), len(ok))
            self.checks_run += checks
            self.failures += [CheckFailure(checks[k], witness(k), float(devs[k]))
                              for k in np.flatnonzero(np.logical_not(ok)).tolist()]
            self._deviations.append((checks if np.ndim(check) else check, devs))
            return
        self.checks_run.append(check)
        self._deviations.append((check, deviation))
        if not ok:
            self.failures.append(CheckFailure(check, witness, deviation))

    @property
    def largest(self) -> dict:
        """Each check's largest deviation, NaN winning; not serialized."""
        largest = {}
        for check, devs in self._deviations:
            if isinstance(check, list):  # aligned names
                names = np.asarray(check)
                groups = [(name, devs[names == name]) for name in dict.fromkeys(check)]
            else:
                groups = [(check, devs)]
            for name, dev in groups:
                if np.size(dev):
                    largest[name] = float(np.maximum(largest.get(name, 0.0), np.max(dev)))
        return largest

    def to_json(self):
        return {
            "valid": self.ok,
            "checks_run": sorted(set(self.checks_run)),
            "failures": [
                {"check": f.check, "witness": f.witness, "deviation": f.deviation}
                for f in self.failures
            ],
        }

    def __str__(self):
        if self.ok:
            return f"valid ({len(self.checks_run)} checks)"
        lines = [f"INVALID ({len(self.failures)} failures)"]
        lines += [f"  {f.check}: {f.witness} (dev {f.deviation:.3g})" for f in self.failures]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the category
# ---------------------------------------------------------------------------

class _Zeros(dict):
    """Tensors by key; a key not stored reads as a fresh zero array of
    ``shape(key)``, which raises ``KeyError`` on an undeclared object."""

    def __init__(self, shape):
        self.shape = shape

    def __missing__(self, key):
        return np.zeros(self.shape(key), dtype=complex)


class FiniteCStarCategory:
    """Finite commutative C*-category given by structure tensors.

    ``comp`` and ``invol`` store the tensors of nonzero size only; every other
    declared key reads as zeros of its shape.  ``out[A]`` lists the objects B
    with Hom(A,B) nonzero, in object order: the support index every sweep
    walks.  Instances are treated as immutable after construction; characters,
    minimal idempotents, corner matchings and the spectrum
    (``functors.spectral_spaceoid``) are cached lazily, per tolerance.
    """

    def __init__(self, objects, dims, comp, invol, units):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object labels")
        self.dims = {}
        for A, B in product(self.objects, repeat=2):
            if (A, B) not in dims:
                raise ValueError(f"missing dimension for Hom-set ({A},{B})")
            d = int(dims[(A, B)])
            if d < 0:
                raise ValueError(f"negative dimension for Hom-set ({A},{B})")
            self.dims[(A, B)] = d
        # comp (A,B,C) is shaped by Hom(A,B), Hom(B,C), Hom(A,C), invol (A,B) by
        # Hom(B,A), Hom(A,B).  The shapes close over ``dims``, not ``self``: a
        # closure over self puts every category in a reference cycle.
        dims = self.dims
        self.comp = _Zeros(lambda k: (dims[k[:2]], dims[k[1:]], dims[k[::2]]))
        self.invol = _Zeros(lambda k: (dims[k[::-1]], dims[k]))
        for what, stored, given in (("comp tensor", self.comp, comp),
                                    ("invol matrix", self.invol, invol)):
            for key, T in given.items():
                try:
                    shape = stored.shape(key)
                except (KeyError, TypeError):
                    raise ValueError(f"{what} key {key!r} does not name declared objects") from None
                T = np.asarray(T, dtype=complex)
                if T.shape != shape:
                    raise ValueError(f"{what} ({','.join(map(str, key))}) has shape {T.shape}, "
                                     f"want {shape}")
                if T.size:
                    stored[key] = T
        self.out = {A: [B for B in self.objects if dims[(A, B)]] for A in self.objects}
        self.units = {A: np.asarray(units[A], dtype=complex) for A in self.objects}
        for A, u in self.units.items():
            if u.shape != (dims[(A, A)],):
                raise ValueError(f"unit of {A} has wrong length")
        self._characters, self._idempotents, self._matchings, self._spectra = {}, {}, {}, {}

    # -- basic operations ---------------------------------------------------

    def dim(self, A, B) -> int:
        return self.dims[(A, B)]

    def compose(self, A, B, C, x, y):
        return np.einsum("i,j,ijk->k", x, y, self.comp[(A, B, C)])

    def star(self, A, B, x):
        return self.invol[(A, B)] @ np.conj(x)

    def unit(self, A):
        return self.units[A]

    def hom_pairs(self):
        return [(A, B) for A in self.objects for B in self.objects]

    def off_diagonal_pairs(self):
        return [(A, B) for A, B in self.hom_pairs() if A != B]

    # -- action matrices ------------------------------------------------------

    def left_action_matrix(self, A, B, a):
        """Matrix of x -> a . x : Hom(A,B) -> Hom(A,B) for a in Hom(A,A)."""
        return np.einsum("i,ijk->kj", a, self.comp[(A, A, B)])

    def right_action_matrix(self, A, B, b):
        """Matrix of x -> x . b : Hom(A,B) -> Hom(A,B) for b in Hom(B,B)."""
        return np.einsum("j,ijk->ki", b, self.comp[(A, B, B)])

    # -- characters -----------------------------------------------------------

    def characters(self, A, tol: Tolerance = DEFAULT_TOL):
        """Characters of the diagonal at A, cached per tolerance: row k is
        the value tuple of character k on the diagonal basis, rows in the
        canonical (lexicographic) order.  The array is shared, so read-only."""
        if (A, tol) not in self._characters:
            self._characters[(A, tol)] = _diagonal_characters(self, A, tol)
        return self._characters[(A, tol)]

    def idempotents(self, A, tol: Tolerance = DEFAULT_TOL):
        """Columns are coordinates of the minimal idempotents, ordered like
        the characters (column k satisfies char_j(e_k) = delta_jk)."""
        if (A, tol) not in self._idempotents:
            omega = self.characters(A, tol)
            self._idempotents[(A, tol)] = np.linalg.solve(omega, np.eye(omega.shape[0]))
        return self._idempotents[(A, tol)]

    def corner_matching(self, A, B, tol: Tolerance = DEFAULT_TOL):
        """Partial bijection between the characters at A and at B induced by
        nonzero corners: dict ``p -> (q, u, u* K)`` with ``u`` the unit
        generator of the corner and ``u* K`` its coordinate functional
        (``K`` the corner projection)."""
        if (A, B, tol) not in self._matchings:
            self._matchings[(A, B, tol)] = _corner_matching(self, A, B, tol)
        return self._matchings[(A, B, tol)]


def _finish_characters(cat, A, omega, tol):
    """Validate raw character rows and return them canonically ordered."""
    d = cat.dim(A, A)
    check_tol = tol.character(1.0 + max_abs(omega))
    T = cat.comp[(A, A, A)]
    lhs = np.dot(T.reshape(d * d, d), omega.T).reshape(d, d, len(omega)).transpose(2, 0, 1)
    rhs = np.einsum("ki,kj->kij", omega, omega)
    if max_abs(lhs - rhs) > check_tol:
        raise DiagonalNotSemisimple(
            f"functionals on {A} are not multiplicative (dev {max_abs(lhs - rhs):g})")
    if max_abs(omega @ cat.unit(A) - 1.0) > check_tol:
        raise DiagonalNotSemisimple(f"functionals on {A} are not unital")
    dist = np.max(np.abs(omega[:, None, :] - omega[None, :, :]), axis=2, initial=0.0)
    close = np.argwhere(np.triu(dist < 10 * check_tol, 1))
    if close.size:
        k, l = close[0]
        raise DiagonalNotSemisimple(f"characters {k},{l} on {A} coincide")
    omega = omega[lex_order(omega)]
    omega.flags.writeable = False  # cached and shared by every caller
    return omega


def _diagonal_characters(cat, A, tol):
    """Characters through the canonical inner product <x,y> = phi(x* y) with
    phi = tr o L, faithful and positive on the diagonal of every commutative
    C*-category.  In a *-orthonormal basis the left-multiplication operators
    become normal and commute, so one seeded joint diagonalization
    (``numlin.joint_diagonalize``) gives their eigenvalue tuples, which are
    the character rows.  Nothing is checked beforehand; the certificate comes
    after: the unitary must diagonalize every operator (else "not
    diagonalized"), and ``_finish_characters`` must find ``d`` distinct
    multiplicative unital rows, which are then the whole spectrum of a
    ``d``-dimensional algebra (Dedekind).  Where either fails, the diagonal is
    not the algebra of a valid input."""
    if cat.dim(A, A) == 0:
        raise DiagonalNotSemisimple(f"diagonal at {A} is zero-dimensional")
    T = cat.comp[(A, A, A)]
    lmats = np.transpose(T, (0, 2, 1))  # lmats[i] is the matrix of x -> b_i . x
    phi = np.einsum("ijj->i", T)
    gram = np.einsum("ai,ijk,k->aj", cat.invol[(A, A)].T, T, phi, optimize=True)
    try:
        evals, V = hermitian_eig(gram, tol)
        if evals[0] <= tol.rank(evals[-1]):
            raise DiagonalNotSemisimple(f"canonical form on {A} is not positive definite")
        root = np.sqrt(evals)
        C = (root[:, None] * V.conj().T)
        Cinv = V * (1.0 / root)[None, :]
        _, tuples = joint_diagonalize(C @ lmats @ Cinv, tol)
    except (NotHermitian, NoConvergence) as exc:
        raise DiagonalNotSemisimple(f"no joint eigenbasis for the diagonal at {A}: {exc}")
    return _finish_characters(cat, A, tuples.T, tol)


# ---------------------------------------------------------------------------
# corners
# ---------------------------------------------------------------------------

def corner_projection_matrix(cat, A, B, p: int, q: int, tol: Tolerance = DEFAULT_TOL):
    """Matrix of x -> e_p . x . e_q on Hom(A,B), for character p of A and q of B."""
    e_p = cat.idempotents(A, tol)[:, p]
    e_q = cat.idempotents(B, tol)[:, q]
    return cat.right_action_matrix(A, B, e_q) @ cat.left_action_matrix(A, B, e_p)


def _corner_zero_tol(cat, A, B, tol):
    """Column norm up to which a corner projection on Hom(A,B) counts as zero."""
    return tol.residual(1.0 + max_abs(cat.idempotents(A, tol)) * max_abs(cat.idempotents(B, tol)))


def _corner_generators(K, zero_tol):
    """Unit generators of the ranges of a stack of corner projections
    ``K[s, n, n]`` with ``n > 0``: ``(u, u* K, nonzero, exceeds)``, where
    ``u`` is the largest column normalized (meaningful where ``nonzero``) and
    ``exceeds`` marks a range of dimension > 1."""
    s = np.arange(len(K))
    norms = np.sqrt(np.add.reduce((K.conj() * K).real, axis=1))
    jmax = np.argmax(norms, axis=1)
    top = norms[s, jmax]
    nonzero = top > zero_tol
    u = K[s, :, jmax] / np.where(nonzero, top, 1.0)[:, None]
    functional = np.matmul(u.conj()[:, None, :], K)[:, 0, :]
    residual = np.max(np.abs(K - u[:, :, None] * functional[:, None, :]), axis=(1, 2))
    exceeds = nonzero & (residual > zero_tol * np.maximum(1.0, np.max(np.abs(K), axis=(1, 2))))
    return u, functional, nonzero, exceeds


def corner(cat, A, B, p: int, q: int, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal basis (columns) of the corner e_p . Hom(A,B) . e_q, for
    character p of A and q of B.

    The corner of a valid commutative C*-category has dimension 0 or 1;
    anything larger raises CornerDimensionExceedsOne.
    """
    K = corner_projection_matrix(cat, A, B, p, q, tol)
    if K.size == 0:
        return np.zeros((cat.dim(A, B), 0), dtype=complex)
    u, _, nonzero, exceeds = _corner_generators(K[None], _corner_zero_tol(cat, A, B, tol))
    if exceeds[0]:
        raise CornerDimensionExceedsOne(
            f"corner ({A},{B}) at characters ({p},{q}) has dimension > 1")
    return u.T[:, nonzero]


def _corner_actions(cat, A, B, tol):
    """``left[p]`` is x -> e_p . x and ``right[q]`` is x -> x . e_q on
    Hom(A,B), for every minimal idempotent at A and at B."""
    left = np.tensordot(cat.idempotents(A, tol), cat.comp[(A, A, B)], axes=(0, 0))
    right = np.tensordot(cat.idempotents(B, tol), cat.comp[(A, B, B)], axes=(0, 1))
    return left.transpose(0, 2, 1), right.transpose(0, 2, 1)


@lru_cache(maxsize=None)
def _corner_weights(dA, dB):
    """Seeded complex weights ``w = (a, b)``, a of length dA and b of length
    dB, and every sum ``a_p + b_q`` at index ``p dB + q``."""
    rng = Xoshiro256StarStar(_CORNER_SEED)
    w = np.array([complex(rng.normal(), rng.normal()) for _ in range(dA + dB)])
    sums = (w[:dA, None] + w[None, dA:]).ravel()
    w.flags.writeable = sums.flags.writeable = False  # shared by every caller
    return w, sums


def _corner_matching(cat, A, B, tol):
    """Partial bijection between diagonal characters induced by nonzero
    corners: dict p_index -> (q_index, generator u, functional f), in p
    order, with ``|u| = 1``, ``f u = 1`` and ``u f`` the corner projection.

    On a valid category the idempotent actions commute, so ``M = L(sum a_p
    e_p) + R(sum b_q e_q)``, weights seeded from ``_CORNER_SEED``, has
    eigenvalue ``a_p + b_q`` exactly on corner (p, q).  One ``eig`` gives
    the generators (unit columns u_k of U) and the functionals (rows f_k of
    U^-1); eigenvalue k is assigned the nearest ``a_p + b_q``.  Certificate,
    checked afterwards: no p or q is assigned twice, and every
    ``U^-1 L(e_p) U`` and ``U^-1 R(e_q) U`` is the 0/1 diagonal of its
    assigned pairs within the corner tolerance over
    ``kappa = |U|_F |U^-1|_F >= cond(U)``.  Then e_p and e_q fix the u_k and
    f_k of their pairs and annihilate the others, so every corner projection
    is ``u_k f_k`` or zero.  Only an uncertified Hom-set goes through
    ``_stacked_corner_matching``, which names its first failure."""
    if cat.dim(A, B) == 0:
        return {}
    T1, T2 = cat.comp[(A, A, B)], cat.comp[(A, B, B)]
    eA, eB = cat.idempotents(A, tol), cat.idempotents(B, tol)
    dA, dB = len(eA), len(eB)
    w, sums = _corner_weights(dA, dB)
    try:
        lam, U = np.linalg.eig(cat.left_action_matrix(A, B, eA @ w[:dA])
                               + cat.right_action_matrix(A, B, eB @ w[dA:]))
        F = np.linalg.inv(U)
    except np.linalg.LinAlgError:
        return _stacked_corner_matching(cat, A, B, tol)
    p, q = np.unravel_index(np.argmin(np.abs(lam[:, None] - sums), axis=1), (dA, dB))
    hit = np.concatenate([p == np.arange(dA)[:, None], q == np.arange(dB)[:, None]])
    # U^-1 L(e_p) U and U^-1 R(e_q) U, from the actions of the basis elements
    acts = np.concatenate([np.tensordot(eA, F @ np.tensordot(T1, U, axes=(1, 0)), axes=(0, 0)),
                           np.tensordot(eB, F @ np.tensordot(T2, U, axes=(0, 0)), axes=(0, 0))])
    dev = np.max(np.abs(acts - hit[:, None, :] * np.eye(len(U))))
    kappa = np.linalg.norm(U) * np.linalg.norm(F)
    if np.all(hit.sum(axis=1) <= 1) and kappa * dev <= _corner_zero_tol(cat, A, B, tol):
        return {int(p[k]): (int(q[k]), U[:, k], F[k]) for k in np.argsort(p).tolist()}
    return _stacked_corner_matching(cat, A, B, tol)


def _stacked_corner_matching(cat, A, B, tol):
    """The matching from every corner projection at once,
    ``right[None] @ left[:, None]``.  The first failure in (p, q) order is
    raised: a corner of dimension > 1, or a character of A with two partners,
    and after those a character of B with two partners.  Where none fails,
    the matching is returned, with ``u`` the corner's largest column
    normalized and ``f = u* K``."""
    left, right = _corner_actions(cat, A, B, tol)
    n, shape = cat.dim(A, B), (len(left), len(right))
    u, functional, nonzero, exceeds = (x.reshape(shape + x.shape[1:]) for x in _corner_generators(
        (right[None] @ left[:, None]).reshape(-1, n, n), _corner_zero_tol(cat, A, B, tol)))
    second = nonzero & (np.cumsum(nonzero, axis=1) > 1)
    for p, q in np.argwhere(exceeds | second)[:1]:
        if exceeds[p, q]:
            raise CornerDimensionExceedsOne(
                f"corner ({A},{B}) at characters ({p},{q}) has dimension > 1")
        raise HolonomyViolation(f"character {p} of {A} matches two characters of {B}")
    for p, q in np.argwhere(nonzero & (np.cumsum(nonzero, axis=0) > 1))[:1]:
        raise HolonomyViolation(f"character {q} of {B} matches two characters of {A}")
    return {int(p): (int(q), u[p, q], functional[p, q]) for p, q in np.argwhere(nonzero)}


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------

def _squares(cat, A, B, X):
    """Column i holds x_i* . x_i in Hom(B,B) for column x_i of X in Hom(A,B)."""
    X = np.asarray(X, dtype=complex)
    stars = cat.invol[(A, B)] @ np.conj(X)
    left = np.tensordot(stars, cat.comp[(B, A, B)], axes=(0, 0))  # [n, j, k]: x_n* . b_j
    return np.einsum("njk,jn->kn", left, X)


def _cstar_norms(cat, A, B, X, tol):
    """C*-norms of the columns of X in Hom(A,B)."""
    Y = _squares(cat, A, B, X)
    omega = cat.characters(B, tol)
    if omega.size == 0 or Y.size == 0:
        return np.zeros(Y.shape[1])
    return np.sqrt(np.maximum(0.0, np.max((omega @ Y).real, axis=0)))


def cstar_norm(cat, A, B, x, tol: Tolerance = DEFAULT_TOL) -> float:
    """The unique C*-norm: sqrt of the spectral radius of x* . x."""
    return float(_cstar_norms(cat, A, B, np.asarray(x)[:, None], tol)[0])


# ---------------------------------------------------------------------------
# category validation
# ---------------------------------------------------------------------------

def _support_paths(cat, length):
    """Object tuples of the given length joined by nonzero Hom-sets (Hom(A,B),
    Hom(B,C), ... nonzero), in the order of ``product(cat.objects, repeat=length)``."""
    paths = [(A,) for A in cat.objects]
    for _ in range(length - 1):
        paths = [path + (B,) for path in paths for B in cat.out[path[-1]]]
    return paths


def _pair_sweep(cat, dev):
    """``dev(A, B)`` on the nonzero Hom-sets and 0 on the others, in ``hom_pairs()`` order."""
    devs = {pair: dev(*pair) for pair in _support_paths(cat, 2)}
    return [devs.get(pair, 0.0) for pair in cat.hom_pairs()]


def _sandwich(P, Q, T):
    """``[i, j, m] = sum_pq P[p, i] Q[q, j] T[p, q, m]`` as two GEMMs (a view)."""
    (p, i), (q, j), m = P.shape, Q.shape, T.shape[2]
    X = np.dot(P.T, T.reshape(p, q * m)).reshape(i, q, m)
    return np.dot(Q.T, X.transpose(1, 0, 2).reshape(q, i * m)).reshape(j, i, m).transpose(1, 0, 2)


def _record_sweep(report, check, devs, where, atol):
    """One record for a sweep: deviation k at object tuple ``where[k]``."""
    devs = np.array(devs, dtype=float)
    report.record(check, devs <= atol, lambda k: f"({','.join(map(str, where[k]))})", devs)


def _axiom_scales(cat: FiniteCStarCategory):
    """``(tmax, jmax)``: the largest composition and involution entries, at
    least 1.  ``validate_category`` judges its tensor identities against
    ``tol.axiom(tmax, jmax)``."""
    return (max([1.0] + [max_abs(T) for T in cat.comp.values()]),
            max([1.0] + [max_abs(J) for J in cat.invol.values()]))


def _sweep_checks(cat: FiniteCStarCategory) -> list:
    """The check names ``validate_category`` records on ``cat`` when every
    diagonal has its characters, each as often as the sweep records it."""
    n, pairs = len(cat.objects), _support_paths(cat, 2)
    return (["associativity"] * len(_support_paths(cat, 4)) + ["unit_law"] * n * n
            + ["involution_involutive"] * n * n + ["involution_unit"] * n
            + ["involution_antimultiplicative"] * len(_support_paths(cat, 3))
            + ["diagonal_commutative"] * n + ["diagonal_semisimple"] * n
            + ["positivity"] * sum(cat.dim(A, B) for A, B in pairs))


def validate_category(cat: FiniteCStarCategory, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Exhaustive axiom sweep on all basis tuples.

    Failures are report entries with witness indices, never exceptions;
    positivity is checked by evaluating the characters of each diagonal on
    x* . x for every basis element x of every Hom-set.

    The tuple checks walk the nonzero Hom support: A, then every B with
    Hom(A,B) nonzero, every C with Hom(B,C) nonzero and, for associativity,
    every D with Hom(C,D) nonzero, each in object order.  These are exactly
    the tuples that carry basis triples (or pairs), in the order of a dense
    loop over all tuples.  Each tuple costs two GEMMs on reshapes with
    explicit shapes, since a Hom-set contracted over may be zero while the
    outer ones are not; for associativity they are the GEMMs ``tensordot``
    makes, so its deviations are bit for bit ``tensordot``'s.  The per-pair
    checks compute on the nonzero Hom-sets and hold deviation 0 on the zero
    ones.  Each check records once: its deviations in one array, its
    witnesses named on failure.
    """
    report = ValidationReport()
    objs = cat.objects
    atol = tol.axiom(*_axiom_scales(cat))

    where, devs, swapped = _support_paths(cat, 4), [], {}
    for A, B, C, D in where:
        ab, bc, cd = cat.dim(A, B), cat.dim(B, C), cat.dim(C, D)
        ac, bd, ad = cat.dim(A, C), cat.dim(B, D), cat.dim(A, D)
        # (xy)z and x(yz) are the GEMMs that tensordot(T1, T2, (2, 0)) and
        # tensordot(T3, T4, (2, 1)) make; T4's operand is a transposed copy, made once
        if (A, B, D) not in swapped:
            swapped[(A, B, D)] = cat.comp[(A, B, D)].transpose(1, 0, 2).reshape(bd, ab * ad)
        gap = np.dot(cat.comp[(A, B, C)].reshape(ab * bc, ac),
                     cat.comp[(A, C, D)].reshape(ac, cd * ad)).reshape(ab, bc, cd, ad)
        gap -= np.dot(cat.comp[(B, C, D)].reshape(bc * cd, bd),
                      swapped[(A, B, D)]).reshape(bc, cd, ab, ad).transpose(2, 0, 1, 3)
        devs.append(max_abs(gap))
    _record_sweep(report, "associativity", devs, where, atol)

    def unit_law(A, B):
        eye = np.eye(cat.dim(A, B))
        left = np.einsum("i,ijk->kj", cat.unit(A), cat.comp[(A, A, B)])
        right = np.einsum("j,ijk->ki", cat.unit(B), cat.comp[(A, B, B)])
        return max(max_abs(left - eye), max_abs(right - eye))

    def involutive(A, B):
        return max_abs(cat.invol[(B, A)] @ np.conj(cat.invol[(A, B)]) - np.eye(cat.dim(A, B)))

    pairs = cat.hom_pairs()
    _record_sweep(report, "unit_law", _pair_sweep(cat, unit_law), pairs, atol)
    _record_sweep(report, "involution_involutive", _pair_sweep(cat, involutive), pairs, atol)

    for A in objs:
        dev = max_abs(cat.star(A, A, cat.unit(A)) - cat.unit(A))
        report.record("involution_unit", dev <= atol, f"({A})", dev)

    where, devs = _support_paths(cat, 3), []
    for A, B, C in where:
        ab, bc, ac, ca = cat.dim(A, B), cat.dim(B, C), cat.dim(A, C), cat.dim(C, A)
        lhs = np.dot(np.conj(cat.comp[(A, B, C)]).reshape(ab * bc, ac), cat.invol[(A, C)].T)
        # [i, j, m] = sum_qp Jbc[q, j] Jab[p, i] comp(C,B,A)[q, p, m]
        rhs = _sandwich(cat.invol[(B, C)], cat.invol[(A, B)], cat.comp[(C, B, A)])
        devs.append(max_abs(lhs.reshape(ab, bc, ca) - rhs.transpose(1, 0, 2)))
    _record_sweep(report, "involution_antimultiplicative", devs, where, atol)

    for A in objs:
        T = cat.comp[(A, A, A)]
        dev = max_abs(T - np.transpose(T, (1, 0, 2)))
        report.record("diagonal_commutative", dev <= atol, f"({A})", dev)

    chars = {}
    for A in objs:
        try:
            chars[A] = cat.characters(A, tol)
            report.record("diagonal_semisimple", True, f"({A})")
        except DiagonalNotSemisimple as exc:
            report.record("diagonal_semisimple", False, f"({A}): {exc}")

    for A, B in _support_paths(cat, 2):
        d = cat.dim(A, B)
        if B not in chars:
            continue
        # characters of Hom(B,B) on x* . x, one column per basis element x
        vals = chars[B] @ _squares(cat, A, B, np.eye(d))
        bound = tol.positivity(1.0 + np.max(np.abs(vals), axis=0))
        neg = np.min(vals.real, axis=0)
        imag = np.max(np.abs(vals.imag), axis=0)
        report.record("positivity", (neg >= -bound) & (imag <= bound),
                      lambda i: f"({A},{B}) basis {i}",
                      np.where(neg < 0, -neg, 0.0) + imag)
    return report


# ---------------------------------------------------------------------------
# *-functors
# ---------------------------------------------------------------------------

@dataclass
class StarFunctor:
    """Object-bijective morphism of categories: per-Hom-set linear maps."""

    source: FiniteCStarCategory
    target: FiniteCStarCategory
    obj_map: dict
    hom_maps: dict  # (A, B) -> matrix (d_target, d_source)

    def image_pair(self, A, B):
        return (self.obj_map[A], self.obj_map[B])

    def apply(self, A, B, x):
        return self.hom_maps[(A, B)] @ np.asarray(x, dtype=complex)

    def then(self, other: "StarFunctor") -> "StarFunctor":
        """Composite functor: first self, then other."""
        if other.source is not self.target:
            raise ValueError("functors are not composable")
        obj = {A: other.obj_map[self.obj_map[A]] for A in self.source.objects}
        homs = {(A, B): other.hom_maps[self.image_pair(A, B)] @ self.hom_maps[(A, B)]
                for A, B in self.source.hom_pairs()}
        return StarFunctor(self.source, other.target, obj, homs)


def identity_functor(cat: FiniteCStarCategory) -> StarFunctor:
    homs = {(A, B): np.eye(cat.dim(A, B), dtype=complex) for A, B in cat.hom_pairs()}
    return StarFunctor(cat, cat, {A: A for A in cat.objects}, homs)


def check_star_functor(F: StarFunctor, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Verify functor axioms on all basis pairs.

    Composition walks the source's nonzero Hom support like
    ``validate_category`` (A, then B with Hom(A,B) nonzero, then C with
    Hom(B,C) nonzero, skipping a zero Hom(A,C)); each triple costs one GEMM
    for ``F(x y)`` and two for ``F(x) F(y)``, and the check records once.
    The involution check computes on the source's nonzero Hom-sets only.
    """
    report = ValidationReport()
    src, tgt = F.source, F.target
    vals = list(F.obj_map.values())
    ok = (sorted(F.obj_map.keys()) == sorted(src.objects)
          and sorted(vals) == sorted(tgt.objects))
    report.record("object_bijective", ok, str(F.obj_map))
    if not ok:
        return report
    hmax = max([1.0] + [max_abs(H) for H in F.hom_maps.values()])
    tmax = max([1.0] + [max_abs(T) for T in src.comp.values()]
               + [max_abs(T) for T in tgt.comp.values()])
    atol = tol.axiom(hmax, tmax)

    for A in src.objects:
        dev = max_abs(F.apply(A, A, src.unit(A)) - tgt.unit(F.obj_map[A]))
        report.record("functor_unit", dev <= atol, f"({A})", dev)

    where, devs = [(A, B, C) for A, B, C in _support_paths(src, 3) if src.dim(A, C)], []
    for A, B, C in where:
        ab, bc, ac = src.dim(A, B), src.dim(B, C), src.dim(A, C)
        Hac = F.hom_maps[(A, C)]
        lhs = np.dot(src.comp[(A, B, C)].reshape(ab * bc, ac), Hac.T)
        rhs = _sandwich(F.hom_maps[(A, B)], F.hom_maps[(B, C)],
                        tgt.comp[(F.obj_map[A], F.obj_map[B], F.obj_map[C])])
        devs.append(max_abs(lhs.reshape(ab, bc, len(Hac)) - rhs))
    _record_sweep(report, "functor_composition", devs, where, atol)

    def involution(A, B):
        lhs = F.hom_maps[(B, A)] @ src.invol[(A, B)]
        return max_abs(lhs - tgt.invol[F.image_pair(A, B)] @ np.conj(F.hom_maps[(A, B)]))

    _record_sweep(report, "functor_involution", _pair_sweep(src, involution),
                  src.hom_pairs(), atol)
    return report


def check_non_degenerate(F: StarFunctor, tol: Tolerance = DEFAULT_TOL):
    """Non-degeneracy gate: every functional that is nonzero on a target
    Hom-set must pull back to a nonzero functional.

    Returns ``(True, None)`` or ``(False, ((A2, p, B2, q), A, B))``: the
    functional of the target's matched character pair (p of A2, q of B2),
    nonzero on Hom(A2,B2), vanishes after pull-back on Hom(A,B).
    A functional's restriction to Hom(A',B') is nonzero exactly when its
    character pair is matched by a nonzero corner, so the gate quantifies
    over matched pairs.
    """
    src, tgt = F.source, F.target
    for A, B in src.off_diagonal_pairs():
        A2, B2 = F.image_pair(A, B)
        matching = tgt.corner_matching(A2, B2, tol)
        if not matching:
            continue
        ps = list(matching)
        functionals = np.array([matching[p][2] for p in ps])
        pulled = np.max(np.abs(functionals @ F.hom_maps[(A, B)]), axis=1, initial=0.0)
        bound = tol.residual(1.0 + np.max(np.abs(functionals), axis=1))
        for k in np.flatnonzero(pulled <= bound)[:1].tolist():
            return False, ((A2, ps[k], B2, matching[ps[k]][0]), A, B)
    return True, None


# ---------------------------------------------------------------------------
# Hilbert C*-bimodules and the linking category
# ---------------------------------------------------------------------------

LINK_LEFT = "A"
LINK_RIGHT = "B"


@dataclass
class HilbertBimodule:
    """Bimodule over two commutative unital algebras with two inner products.

    ``ipA[i, j]`` holds the coordinates of the left inner product of basis
    vectors i and j (linear in i, conjugate-linear in j); ``ipB[i, j]`` the
    right inner product (conjugate-linear in i, linear in j).
    """

    algA: FiniteCStarCategory  # one-object category
    algB: FiniteCStarCategory  # one-object category
    module_dim: int
    left_action: np.ndarray   # (dimA, m, m): (a, x) -> a.x
    right_action: np.ndarray  # (m, dimB, m): (x, b) -> x.b
    ipA: np.ndarray           # (m, m, dimA)
    ipB: np.ndarray           # (m, m, dimB)

    def __post_init__(self):
        for alg in (self.algA, self.algB):
            if len(alg.objects) != 1:
                raise ValueError("bimodule algebras must be one-object categories")
        self.left_action = np.asarray(self.left_action, dtype=complex)
        self.right_action = np.asarray(self.right_action, dtype=complex)
        self.ipA = np.asarray(self.ipA, dtype=complex)
        self.ipB = np.asarray(self.ipB, dtype=complex)
        m, da, db = self.module_dim, self.dimA, self.dimB
        if self.left_action.shape != (da, m, m):
            raise ValueError("left_action tensor has wrong shape")
        if self.right_action.shape != (m, db, m):
            raise ValueError("right_action tensor has wrong shape")
        if self.ipA.shape != (m, m, da):
            raise ValueError("ipA tensor has wrong shape")
        if self.ipB.shape != (m, m, db):
            raise ValueError("ipB tensor has wrong shape")

    @property
    def dimA(self):
        return self.algA.dim(self.algA.objects[0], self.algA.objects[0])

    @property
    def dimB(self):
        return self.algB.dim(self.algB.objects[0], self.algB.objects[0])


def one_object_category(comp, invol, unit, label="A") -> FiniteCStarCategory:
    comp = np.asarray(comp, dtype=complex)
    return FiniteCStarCategory(
        (label,), {(label, label): comp.shape[0]}, {(label, label, label): comp},
        {(label, label): invol}, {label: unit})


def linking_category(M: HilbertBimodule, tol: Tolerance = DEFAULT_TOL) -> FiniteCStarCategory:
    """Two-object category [[algA, M], [M*, algB]] with composition from the
    module actions and inner products.

    The dual basis of M* mirrors the basis of M, so the (A,A) and (B,B)
    corners reproduce the input algebras with identical structure constants.
    The bimodule axioms are checked here (BimoduleAxiomViolation); the
    category axioms are not (``duality.validated_linking_category`` adds them).
    """
    A, B = LINK_LEFT, LINK_RIGHT
    a_lbl, b_lbl = M.algA.objects[0], M.algB.objects[0]
    da, db, m = M.dimA, M.dimB, M.module_dim
    Ta = M.algA.comp[(a_lbl, a_lbl, a_lbl)]
    Tb = M.algB.comp[(b_lbl, b_lbl, b_lbl)]
    Ja = M.algA.invol[(a_lbl, a_lbl)]
    Jb = M.algB.invol[(b_lbl, b_lbl)]

    comp = {
        (A, A, A): Ta, (B, B, B): Tb,
        (A, A, B): M.left_action,   # a . x
        (A, B, B): M.right_action,  # x . b
        (A, B, A): M.ipA,           # x . y* = <x,y>_A
        (B, A, B): M.ipB,           # y* . x = <y,x>_B (bilinear in dual coords)
    }
    # y* . a = (a* . y)*   and   b . y* = (y . b*)*, where column k of J is
    # the coordinate vector of the star of basis vector k
    comp[(B, A, A)] = np.conj(np.einsum("ik,ijl->jkl", Ja, M.left_action))
    comp[(B, B, A)] = np.conj(np.einsum("jk,ijl->kil", Jb, M.right_action))

    invol = {
        (A, A): Ja, (B, B): Jb,
        (A, B): np.eye(m, dtype=complex),
        (B, A): np.eye(m, dtype=complex),
    }
    units = {A: M.algA.unit(a_lbl), B: M.algB.unit(b_lbl)}
    dims = {(A, A): da, (A, B): m, (B, A): m, (B, B): db}
    cat = FiniteCStarCategory((A, B), dims, comp, invol, units)

    _check_bimodule_axioms(M, cat, tol)
    # the diagonals are the algebras, tensor for tensor, so their characters
    # are the ones the bimodule check just computed
    for obj, alg in ((A, M.algA), (B, M.algB)):
        cat._characters[(obj, tol)] = alg.characters(alg.objects[0], tol)
    return cat


def _star_defect(ip, J):
    """[i, j] is max |<x_i,x_j>* - <x_j,x_i>| for inner-product coordinates
    ip[i, j] and the involution J of the algebra they live in."""
    stars = np.conj(ip) @ J.T
    return np.max(np.abs(stars - np.transpose(ip, (1, 0, 2))), axis=2, initial=0.0)


def _check_bimodule_axioms(M: HilbertBimodule, cat, tol):
    A, B = LINK_LEFT, LINK_RIGHT
    scale = 1.0 + max(max_abs(M.ipA), max_abs(M.ipB), max_abs(M.left_action),
                      max_abs(M.right_action))
    atol = tol.axiom(scale)
    # [i, j, k] holds <x_i,x_j>_A . x_k and x_i . <x_j,x_k>_B
    lhs = np.einsum("ija,akl->ijkl", M.ipA, M.left_action, optimize=True)
    rhs = np.einsum("ibl,jkb->ijkl", M.right_action, M.ipB, optimize=True)
    bad = np.argwhere(np.max(np.abs(lhs - rhs), axis=3, initial=0.0) > atol)
    if bad.size:
        i, j, k = bad[0]
        raise BimoduleAxiomViolation(
            f"compatibility <x,y>_A.z = x.<y,z>_B fails at basis ({i},{j},{k})")
    # [i, j] compares <x_i,x_j>* with <x_j,x_i>, for the left and the right side
    dev_left = _star_defect(M.ipA, cat.invol[(A, A)])
    dev_right = _star_defect(M.ipB, cat.invol[(B, B)])
    bad = np.argwhere((dev_left > atol) | (dev_right > atol))
    if bad.size:
        i, j = bad[0]
        side = "left" if dev_left[i, j] > atol else "right"
        raise BimoduleAxiomViolation(f"{side} inner product not hermitian at ({i},{j})")
    for alg_obj, ip, lbl in ((M.algA, M.ipA, "left"), (M.algB, M.ipB, "right")):
        obj = alg_obj.objects[0]
        try:
            omega = alg_obj.characters(obj, tol)
        except DiagonalNotSemisimple as exc:
            raise BimoduleAxiomViolation(f"{lbl} algebra not semisimple: {exc}")
        for c in range(omega.shape[0]):
            # Gram matrix of the inner product evaluated through one character;
            # positivity of <x,x> for all x is positive semidefiniteness here.
            W = np.einsum("ijd,d->ij", ip, omega[c])
            H = (W + W.conj().T) / 2
            evals, _ = hermitian_eig(H, tol)
            if evals.size and evals[0] < -tol.positivity(1.0 + evals[-1]):
                raise BimoduleAxiomViolation(
                    f"{lbl} inner product not positive at character {c}")

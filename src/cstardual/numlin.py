"""Dense complex linear algebra kernels used by every other module.

Hermitian eigendecompositions and singular values come from LAPACK (``eigh``
and ``svd``).  Joint diagonalization (``joint_diagonalize``) uses the
random-combination technique: eigendecompose a seeded random real
combination of the Hermitian and anti-Hermitian parts, all projected at once,
and recurse on degenerate eigenvalue clusters.  It checks nothing beforehand;
its certificate is the check afterwards that the unitary diagonalizes every
matrix, which proves the family commuting and normal, and a family that fails
it raises NoConvergence.  Canonical orders are one ``np.lexsort`` over
(re, im) columns (``lex_order``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotSquare
from .rng import Xoshiro256StarStar

_SIMDIAG_SEED = 0x51DE0C1E
DEFAULT_EPS = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Every numerical threshold, derived from ``abs_eps`` and ``rel_eps``
    (finite and positive; the CLI's ``--tol`` sets both).

    One method per kind of decision takes the magnitude judged and returns the
    largest deviation allowed.  Former fixed constants carry ``r = abs_eps /
    DEFAULT_EPS``, exactly 1 at the default, so each default [in brackets] is
    bit for bit the constant it replaced.

    - ``axiom(*s) = 1e2 abs_eps m^2``, ``m = max(1, *s)`` [1e-7 m^2]: identities
      of structure tensors with largest entries ``s``.
    - ``character(s) = 1e3 abs_eps s^2``, ``s = 1 + max|omega|`` [1e-6 s^2]:
      characters are multiplicative and unital; closer than ten times it, equal.
    - ``kernel(*s) = 1e2 abs_eps prod(s)``: Hermitian and diagonalized, with
      ``s = max(1, |M|)``.
    - ``rank(top) = rel_eps top + abs_eps``: singular and Gram eigenvalues count.
    - ``residual(s) = 1e-6 r s``: corner, projection, norm and naturality
      residuals, pulled-back functionals, character matches, eigenvalue
      clusters, isometry and round trips.
    - ``positivity(s) = 1e-7 r s``: the negative or imaginary part of a positive.
    - ``phase(s) = abs_eps s``: unimodular (``s = 1``); identities between phase
      products and a frame's lead coordinate (10); gauge triviality (100).
    """

    abs_eps: float = DEFAULT_EPS
    rel_eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.abs_eps, self.rel_eps)):
            raise ValueError(f"tolerances must be finite and positive, got "
                             f"abs_eps={self.abs_eps}, rel_eps={self.rel_eps}")

    def axiom(self, *scales):
        m = max((1.0, *scales))
        return 1e2 * self.abs_eps * m * m

    def character(self, scale):
        return 1e3 * self.abs_eps * scale * scale

    def kernel(self, *scales):
        return math.prod(scales, start=100.0 * self.abs_eps)

    def rank(self, top):
        return self.rel_eps * top + self.abs_eps

    def residual(self, scale=1.0):
        return 1e-6 * (self.abs_eps / DEFAULT_EPS) * scale

    def positivity(self, scale=1.0):
        return 1e-7 * (self.abs_eps / DEFAULT_EPS) * scale

    def phase(self, scale=1.0):
        return self.abs_eps * scale


DEFAULT_TOL = Tolerance()


def max_abs(M) -> float:
    return float(np.abs(M).max(initial=0.0))


def _as_square(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {A.shape}")
    return A


def hermitian_eig(M, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    Parameters
    ----------
    M : (n, n) array_like, Hermitian within ``tol.kernel(max(1, |M|))``.
    tol : Tolerance

    Returns
    -------
    eigenvalues : (n,) float ndarray, ascending.
    U : (n, n) complex ndarray, unitary, ``M ~ U @ diag(eigenvalues) @ U*``.
    """
    A = _as_square(M)
    dev = max_abs(A - A.conj().T)
    if dev > tol.kernel(max(1.0, max_abs(A))):
        raise NotHermitian(f"matrix is not Hermitian (deviation {dev:g})")
    try:
        evals, U = np.linalg.eigh((A + A.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}")
    return evals, U


def singular_values(M) -> np.ndarray:
    """Singular values (LAPACK ``svd``), descending; empty for an empty matrix."""
    A = np.asarray(M, dtype=complex)
    if A.size == 0:
        return np.zeros(0)
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd did not converge: {exc}")


def numeric_rank(M, tol: Tolerance = DEFAULT_TOL, sing=None) -> int:
    """Number of singular values above ``tol.rank(smax)``; ``sing`` may supply
    them, as ``singular_values(M)`` returns them."""
    sing = singular_values(M) if sing is None else sing
    return int(np.sum(sing > tol.rank(sing[0]))) if sing.size else 0


def nearest_rows(rows, targets):
    """For each row of ``targets``, the index of the nearest row of ``rows``
    in the largest entry modulus (the first on ties) and its deviation."""
    dev = np.abs(np.asarray(targets)[:, None] - np.asarray(rows)[None]).max(axis=2, initial=0.0)
    best = np.argmin(dev, axis=1)
    return best, dev[np.arange(len(best)), best]


def lex_order(rows):
    """Indices that sort the rows of a complex matrix lexicographically in the
    (re, im) pairs of their entries: one stable ``np.lexsort``, in which
    ``-0.0`` ties with ``0.0``."""
    rows = np.asarray(rows)
    keys = np.stack([rows.real, rows.imag], axis=-1).reshape(len(rows), -1)
    return np.lexsort(keys.T[::-1])


def _split(projected, bounds, rng, tol, depth):
    """Unitary ``W`` (k x k) that makes every matrix of the stack
    ``projected`` (parts restricted to a k-dimensional subspace) diagonal;
    ``bounds[i]`` is the spread up to which part i counts as scalar."""
    k = projected.shape[1]
    if k <= 1:
        return np.eye(k, dtype=complex)
    if depth > 60:
        raise NoConvergence("simultaneous diagonalization recursion too deep")
    ev = np.real(np.diagonal(projected, axis1=1, axis2=2))
    off = np.max(np.abs(projected - ev[:, None, :] * np.eye(k)), axis=(1, 2))
    if np.all(off + np.ptp(ev, axis=1) <= bounds):
        return np.eye(k, dtype=complex)  # joint eigenspace: any orthonormal basis will do
    H = np.tensordot([rng.normal() for _ in range(len(projected))], projected, axes=1)
    H = (H + H.conj().T) / 2.0
    evals, W = hermitian_eig(H, tol)
    gap = tol.residual(max(1.0, max_abs(H)))
    cuts = (np.flatnonzero(np.diff(evals) > gap) + 1).tolist()
    # one block of k means the draw failed to separate: it recurses on a fresh draw
    cols = []
    for lo, hi in zip([0] + cuts, cuts + [k]):
        B = W[:, lo:hi]
        cols.append(B @ _split(B.conj().T @ projected @ B, bounds, rng, tol, depth + 1)
                    if hi - lo > 1 else B)
    return np.concatenate(cols, axis=1)


def joint_diagonalize(mats, tol: Tolerance = DEFAULT_TOL):
    """Unitary ``U`` and eigenvalue tuples ``tuples[i, k] = (U* M_i U)[k, k]``
    of a stack ``mats`` of ``m`` matrices ``n x n`` (``n >= 1``), columns in
    canonical order: lexicographic in the tuples, so already-diagonal input
    returns the identity.

    Nothing is checked beforehand.  The certificate is the check afterwards:
    every ``U* M_i U`` must be diagonal within ``tol.kernel(max(1, |M_i|))``,
    else NoConvergence names the first matrix that is not.  A unitary that
    diagonalizes every matrix proves the family commuting and normal.
    """
    mats = np.asarray(mats, dtype=complex)
    herm = mats.conj().transpose(0, 2, 1)
    parts = np.stack([(mats + herm) / 2.0, (mats - herm) / 2.0j], axis=1).reshape(
        (-1,) + mats.shape[1:])
    bounds = tol.residual(np.maximum(1.0, np.max(np.abs(parts), axis=(1, 2))))
    rng = Xoshiro256StarStar(_SIMDIAG_SEED)
    U = _split(parts, bounds, rng, tol, 0)
    D = U.conj().T @ mats @ U
    tuples = np.diagonal(D, axis1=1, axis2=2)
    off = np.max(np.abs(D - tuples[:, None, :] * np.eye(len(U))), axis=(1, 2))
    scales = np.maximum(1.0, np.max(np.abs(mats), axis=(1, 2)))
    for i in np.flatnonzero(off > tol.kernel(scales))[:1]:
        raise NoConvergence(f"matrix {i} not diagonalized (off-diagonal {off[i]:g})")
    order = lex_order(tuples.T)
    return U[:, order], tuples[:, order]

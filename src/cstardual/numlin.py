"""Dense complex linear algebra kernels used by every other module.

Hermitian eigendecompositions and singular values come from LAPACK (``eigh``
and ``svd``).  Simultaneous diagonalization of a commuting normal family uses
the random-combination technique: eigendecompose a seeded random real
combination of the Hermitian and anti-Hermitian parts and recurse on
degenerate eigenvalue clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotCommuting, NotHermitian, NotNormal, NotSquare
from .rng import Xoshiro256StarStar

_SIMDIAG_SEED = 0x51DE0C1E
_CLUSTER_REL_GAP = 1e-6


@dataclass(frozen=True)
class Tolerance:
    """Absolute and relative comparison thresholds.

    Defaults leave ample double-precision headroom for the exact-rational-like
    inputs this library works with.
    """

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self):
        if not (self.abs_eps > 0 and self.rel_eps > 0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


def max_abs(M) -> float:
    M = np.asarray(M)
    return 0.0 if M.size == 0 else float(np.max(np.abs(M)))


def _as_square(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {A.shape}")
    return A


def hermitian_eig(M, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    Parameters
    ----------
    M : (n, n) array_like, Hermitian within ``tol.abs_eps``.
    tol : Tolerance

    Returns
    -------
    eigenvalues : (n,) float ndarray, ascending.
    U : (n, n) complex ndarray, unitary, ``M ~ U @ diag(eigenvalues) @ U*``.
    """
    A = _as_square(M)
    if max_abs(A - A.conj().T) > tol.abs_eps:
        raise NotHermitian("matrix is not Hermitian within abs_eps")
    try:
        evals, U = np.linalg.eigh((A + A.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}")
    return evals, U


def numeric_rank(M, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values (LAPACK ``svd``) above
    ``rel_eps * smax + abs_eps``."""
    A = np.asarray(M, dtype=complex)
    if A.size == 0:
        return 0
    try:
        sing = np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd did not converge: {exc}")
    return int(np.sum(sing > tol.rel_eps * sing[0] + tol.abs_eps))


def _check_family(Ms, tol: Tolerance):
    mats = [_as_square(M) for M in Ms]
    if not mats:
        raise ValueError("simultaneous_diag needs at least one matrix")
    n = mats[0].shape[0]
    for M in mats:
        if M.shape[0] != n:
            raise NotSquare("matrices must share one size")
    scales = [max(1.0, max_abs(M)) for M in mats]
    for i, M in enumerate(mats):
        dev = max_abs(M @ M.conj().T - M.conj().T @ M)
        if dev > 100.0 * tol.abs_eps * scales[i] ** 2:
            raise NotNormal(f"matrix {i} is not normal (deviation {dev:g})")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            dev = max_abs(mats[i] @ mats[j] - mats[j] @ mats[i])
            if dev > 100.0 * tol.abs_eps * scales[i] * scales[j]:
                raise NotCommuting(f"matrices {i},{j} do not commute (deviation {dev:g})")
    return mats, n


def _hermitian_parts(mats):
    parts = []
    for M in mats:
        parts.append((M + M.conj().T) / 2.0)
        parts.append((M - M.conj().T) / 2.0j)
    return parts


def _split(V, parts, rng, tol, depth):
    """Refine the orthonormal block V so all projected parts become diagonal."""
    k = V.shape[1]
    if k <= 1:
        return V
    if depth > 60:
        raise NoConvergence("simultaneous diagonalization recursion too deep")
    projected = [V.conj().T @ P @ V for P in parts]
    spreads = []
    for P in projected:
        ev = np.real(np.diag(P))
        spreads.append(max_abs(P - np.diag(ev)) + (np.ptp(ev) if ev.size else 0.0))
    if all(s <= _CLUSTER_REL_GAP * max(1.0, max_abs(P)) for s, P in zip(spreads, parts)):
        return V  # joint eigenspace: any orthonormal basis will do
    H = np.zeros((k, k), dtype=complex)
    for P in projected:
        H += rng.normal() * P
    H = (H + H.conj().T) / 2.0
    evals, W = hermitian_eig(H, tol)
    V = V @ W
    gap = _CLUSTER_REL_GAP * max(1.0, max_abs(H))
    blocks, start = [], 0
    for i in range(1, k + 1):
        if i == k or evals[i] - evals[i - 1] > gap:
            blocks.append((start, i))
            start = i
    if len(blocks) == 1:
        # random combination failed to separate; retry with a fresh draw
        return _split(V, parts, rng, tol, depth + 1)
    cols = []
    for lo, hi in blocks:
        sub = V[:, lo:hi]
        cols.append(_split(sub, parts, rng, tol, depth + 1) if hi - lo > 1 else sub)
    return np.concatenate(cols, axis=1)


def simultaneous_diag(Ms, tol: Tolerance = DEFAULT_TOL):
    """Joint unitary diagonalizer of pairwise-commuting normal matrices.

    Returns a unitary ``U`` such that every ``U* M U`` is diagonal within
    ``100 * abs_eps`` (scaled by the matrix magnitude).  Raises NotCommuting /
    NotNormal when the preconditions fail and NoConvergence when the seeded
    random-combination recursion cannot separate the family.
    """
    mats, n = _check_family(Ms, tol)
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    parts = _hermitian_parts(mats)
    rng = Xoshiro256StarStar(_SIMDIAG_SEED)
    U = _split(np.eye(n, dtype=complex), parts, rng, tol, 0)
    tuples = []
    for i, M in enumerate(mats):
        D = U.conj().T @ M @ U
        off = max_abs(D - np.diag(np.diag(D)))
        if off > 100.0 * tol.abs_eps * max(1.0, max_abs(M)):
            raise NoConvergence(f"matrix {i} not diagonalized (off-diagonal {off:g})")
        tuples.append(np.diag(D))
    # canonical column order: lexicographic in the joint eigenvalue tuples,
    # so already-diagonal input returns the identity
    keys = [tuple(v for z in col for v in (z.real, z.imag))
            for col in np.array(tuples).T]
    order = sorted(range(n), key=lambda k: keys[k])
    return U[:, order]

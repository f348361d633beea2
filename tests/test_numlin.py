import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstardual.errors import (
    NoConvergence,
    NotHermitian,
    NotSquare,
)
from cstardual.numlin import (
    DEFAULT_TOL,
    Tolerance,
    hermitian_eig,
    joint_diagonalize,
    lex_order,
    max_abs,
    nearest_rows,
    numeric_rank,
)


def random_hermitian(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A + A.conj().T


class TestHermitianEig:
    def test_identity(self):
        evals, U = hermitian_eig(np.eye(2))
        assert np.allclose(evals, [1.0, 1.0])
        assert np.array_equal(U, np.eye(2))

    def test_pauli_x(self):
        evals, U = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(evals, [-1.0, 1.0])
        assert max_abs(U.conj().T @ U - np.eye(2)) < 1e-12

    def test_two_by_two_with_imaginary_offdiag(self):
        # characteristic polynomial x^2 - 4x + 3 by hand
        M = np.array([[2, 1j], [-1j, 2]])
        evals, U = hermitian_eig(M)
        assert np.allclose(evals, [1.0, 3.0])
        assert max_abs(U @ np.diag(evals) @ U.conj().T - M) < 1e-12

    def test_not_square(self):
        with pytest.raises(NotSquare):
            hermitian_eig(np.ones((2, 3)))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @given(st.integers(0, 10_000), st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_budget(self, seed, n):
        M = random_hermitian(seed, n)
        evals, U = hermitian_eig(M)
        tol = DEFAULT_TOL
        budget = 10 * tol.abs_eps * (1 + max_abs(M))
        assert max_abs(U @ np.diag(evals) @ U.conj().T - M) <= budget
        assert max_abs(U.conj().T @ U - np.eye(n)) <= 10 * tol.abs_eps
        assert np.all(np.diff(evals) >= -1e-12)

    def test_larger_scale(self):
        M = 1e4 * random_hermitian(5, 12)
        evals, U = hermitian_eig(M)
        assert max_abs(U @ np.diag(evals) @ U.conj().T - M) <= \
            10 * DEFAULT_TOL.abs_eps * (1 + max_abs(M))


class TestSimultaneousDiag:
    def test_single_identity(self):
        assert np.array_equal(joint_diagonalize([np.eye(2)])[0], np.eye(2))

    def test_already_diagonal(self):
        U = joint_diagonalize([np.diag([1.0, 2.0]), np.diag([3.0, 3.0])])[0]
        assert np.array_equal(U, np.eye(2))

    def test_pauli_x_with_identity(self):
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        U = joint_diagonalize([X, np.eye(2)])[0]
        D = U.conj().T @ X @ U
        assert max_abs(D - np.diag(np.diag(D))) < 1e-10
        assert sorted(np.round(np.diag(D).real, 8)) == [-1.0, 1.0]
        assert np.allclose(np.abs(U), np.full((2, 2), 1 / np.sqrt(2)))

    def test_degenerate_family(self):
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
        diags = [np.diag([0, 0, 0, 1, 1, 2.0]), np.diag([0, 1, 1, 0, 2, 2.0]),
                 np.diag([3, 3, 1, 1, 0, 0.0])]
        Ms = [Q @ D @ Q.conj().T for D in diags]
        U = joint_diagonalize(Ms)[0]
        for M in Ms:
            D = U.conj().T @ M @ U
            assert max_abs(D - np.diag(np.diag(D))) <= 100 * DEFAULT_TOL.abs_eps * 4

    def test_normal_but_not_hermitian(self):
        # unitary (normal, complex spectrum) commuting with a projector
        W = np.diag([1j, 1j, -1.0])
        P = np.diag([1.0, 1.0, 0.0])
        rng = np.random.default_rng(11)
        Q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        U = joint_diagonalize([Q @ W @ Q.conj().T, Q @ P @ Q.conj().T])[0]
        for M in (Q @ W @ Q.conj().T, Q @ P @ Q.conj().T):
            D = U.conj().T @ M @ U
            assert max_abs(D - np.diag(np.diag(D))) < 1e-9

    def test_order_invariance_of_joint_spectrum(self):
        rng = np.random.default_rng(7)
        Q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        Ms = [Q @ np.diag(rng.normal(size=4)) @ Q.conj().T for _ in range(3)]

        def joint(Ms):
            U = joint_diagonalize(Ms)[0]
            cols = []
            for k in range(4):
                cols.append(tuple(
                    np.round((U[:, k].conj() @ M @ U[:, k]).real, 6) for M in Ms))
            return cols

        a = joint(Ms)
        b = joint(Ms[::-1])
        assert sorted(a) == sorted(tuple(t[::-1]) for t in b)

    def test_not_commuting(self):
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Z = np.diag([1.0, -1.0])
        with pytest.raises(NoConvergence, match="not diagonalized"):
            joint_diagonalize([X, Z])

    def test_not_normal(self):
        with pytest.raises(NoConvergence, match="not diagonalized"):
            joint_diagonalize([np.array([[0, 1], [0, 0]], dtype=complex)])


class TestCanonicalOrder:
    """Rows sort lexicographically in their (re, im) pairs, stably, with -0.0
    tied to 0.0: the order of Python tuple keys, from one ``np.lexsort``."""

    # leading values tie in rows 0, 1 and 3 (one of them -0.0); rows 1 and 3
    # tie in every entry, so they keep their order
    ROWS = np.array([[0.0, 1.0, 3.0], [-0.0, -0.0, 1.0], [1.0, 0.0, 5.0],
                     [0.0, 0.0, 1.0], [1.0, 0.0, 4.0], [0.0, 1.0 - 1e-300j, 3.0]])

    def test_order_pinned_against_tuple_keys(self):
        keys = [tuple(v for z in row for v in (z.real, z.imag)) for row in self.ROWS]
        expected = sorted(range(len(self.ROWS)), key=lambda k: keys[k])
        assert expected == [1, 3, 5, 0, 4, 2]
        assert lex_order(self.ROWS).tolist() == expected

    def test_joint_diagonalizer_columns(self):
        Ms = [np.diag([0.0, -0.0, 1.0, 0.0, 1.0]), np.diag([1.0, 2.0, 0.0, -1.0, 0.0]),
              np.diag([3.0, 1.0, 5.0, 2.0, 4.0])]
        assert np.argmax(np.abs(joint_diagonalize(Ms)[0]), axis=0).tolist() == [3, 0, 1, 4, 2]
        Ms = [np.diag([0.0, -0.0, 1.0, 0.0]), np.diag([1.0, -0.0, 0.0, 0.0])]
        assert np.argmax(np.abs(joint_diagonalize(Ms)[0]), axis=0).tolist() == [1, 3, 0, 2]


class TestNearestRows:
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(0, 6), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_row_by_row_search(self, seed, n_rows, n_targets, width):
        rng = np.random.default_rng(seed)
        # entries from a small set, so that ties occur
        rows = rng.integers(-2, 3, size=(n_rows, width)) + 1j * rng.integers(-1, 2, (n_rows, width))
        targets = rng.integers(-2, 3, size=(n_targets, width)).astype(complex)
        best, dev = nearest_rows(rows, targets)
        for t, b, d in zip(targets, best, dev):
            devs = [max_abs(row - t) for row in rows]
            assert (b, d) == (int(np.argmin(devs)), min(devs))


class TestNumericRank:
    def test_zero_rect(self):
        assert numeric_rank(np.zeros((2, 3))) == 0

    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_rank_one(self):
        # singular values 2, 0 by hand
        assert numeric_rank(np.ones((2, 2))) == 1

    @pytest.mark.parametrize("M, rank", [
        # 1e-8 lies above the threshold rel_eps * 1 + abs_eps = 2e-9
        (np.diag([1.0, 1e-8]), 2),
        # singular values 2e300 and 0: squaring them would overflow
        (np.full((2, 2), 1e300), 1),
    ])
    def test_threshold_on_singular_values(self, M, rank):
        assert numeric_rank(M) == rank

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_rank_of_adjoint(self, seed, n, m):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        # random rank truncation
        r = min(n, m)
        if r > 1 and seed % 2:
            U, s, Vh = np.linalg.svd(M)
            s[r // 2:] = 0.0
            M = (U[:, :r] * s) @ Vh[:r]
        assert numeric_rank(M) == numeric_rank(M.conj().T)


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(rel_eps=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_tolerance_must_be_finite(value):
    with pytest.raises(ValueError):
        Tolerance(abs_eps=value)
    with pytest.raises(ValueError):
        Tolerance(rel_eps=value)


def test_default_thresholds_keep_their_values():
    tol = DEFAULT_TOL
    assert tol.axiom(2.0) == 1e2 * 1e-9 * 2.0 * 2.0
    assert tol.character(3.0) == 1e3 * 1e-9 * 3.0 * 3.0
    assert tol.kernel(2.0, 3.0) == 100.0 * 1e-9 * 2.0 * 3.0
    assert tol.rank(4.0) == 1e-9 * 4.0 + 1e-9
    assert tol.residual() == 1e-6 and tol.residual(3.0) == 1e-6 * 3.0
    assert tol.positivity() == 1e-7 and tol.positivity(3.0) == 1e-7 * 3.0
    assert tol.phase() == 1e-9 and tol.phase(10) == 10 * 1e-9 and tol.phase(100) == 100 * 1e-9


SRC = Path(__file__).resolve().parent.parent / "src" / "cstardual"
# literals in (0, 1) that decide nothing: sampling constants of the generators
# and the CLI's --density default
NOT_THRESHOLDS = {("generators.py", 0.5), ("generators.py", 0.6), ("generators.py", 1e-8),
                  ("cli.py", 0.7)}


def test_thresholds_derive_from_tolerance():
    """Outside numlin no code reads the raw epsilons or writes a threshold
    as a literal: every bound comes from a Tolerance method."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "numlin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("abs_eps", "rel_eps"):
                found.append((path.name, node.lineno, node.attr))
            elif (isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < node.value < 1 and (path.name, node.value) not in NOT_THRESHOLDS):
                found.append((path.name, node.lineno, node.value))
    assert found == []


def test_numlin_public_functions_have_callers():
    """Every public function of numlin is called from another module of
    ``src/``: numlin keeps no entry point that no command runs."""
    tree = ast.parse((SRC / "numlin.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "numlin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    assert sorted(public - called) == []

"""Tests for Lorentzian scalar products and Jordan-type classification."""

import numpy as np
import pytest

from isoparam import (
    DimensionMismatch,
    LorentzForm,
    NondiagnosableOperator,
    ScalarProduct,
    SelfAdjointOperator,
    classify_jordan,
    euclidean_form,
    inner,
    is_self_adjoint,
    minkowski_form,
)
from isoparam.indefinite_linalg import cluster


def random_self_adjoint(rng, form, scale=1.0):
    S = scale * rng.standard_normal((form.dim, form.dim))
    return np.linalg.solve(form.gram, 0.5 * (S + S.T))


def random_isometry(rng, gram, scale=0.3):
    S = scale * rng.standard_normal(gram.shape)
    K = np.linalg.solve(gram, S - S.T)
    T = np.eye(gram.shape[0])
    term = np.eye(gram.shape[0])
    for i in range(1, 20):
        term = term @ K / i
        T = T + term
    return T


class TestForms:
    def test_timelike_unit_vector(self):
        form = minkowski_form(2)
        assert inner(form, [1, 0], [1, 0]) == -1.0

    def test_seminull_pairing(self):
        form = LorentzForm(2, [[0, 1], [1, 0]])
        assert inner(form, [1, 0], [0, 1]) == 1.0

    def test_inner_symmetry_matches_transpose_evaluation(self):
        rng = np.random.default_rng(0)
        form = LorentzForm(4, np.diag([-1.0, 1.0, 2.0, 0.5]))
        for _ in range(50):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            # oracle: evaluate the transposed expression directly
            direct = float(y @ form.gram.T @ x)
            assert abs(inner(form, x, y) - inner(form, y, x)) < 1e-12
            assert abs(inner(form, x, y) - direct) < 1e-12

    def test_signature_enforced(self):
        with pytest.raises(ValueError):
            LorentzForm(2, np.eye(2))
        with pytest.raises(ValueError):
            LorentzForm(3, np.diag([-1.0, -1.0, 1.0]))
        # degenerate gram rejected
        with pytest.raises(ValueError):
            ScalarProduct(2, [[1, 1], [1, 1]])

    def test_dimension_mismatch(self):
        form = minkowski_form(3)
        with pytest.raises(DimensionMismatch):
            inner(form, [1, 0], [0, 1])


class TestSelfAdjoint:
    def test_identity_always_self_adjoint(self):
        for form in (minkowski_form(3), euclidean_form(4), LorentzForm(2, [[0, 1], [1, 0]])):
            assert is_self_adjoint(form, np.eye(form.dim))

    def test_rotation_self_adjoint_for_lorentz(self):
        # oracle: gram @ A = [[0, -1], [-1, 0]] is symmetric
        form = minkowski_form(2)
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        GA = form.gram @ A
        assert np.allclose(GA, GA.T)
        assert is_self_adjoint(form, A)

    def test_shear_not_self_adjoint_for_euclidean(self):
        assert not is_self_adjoint(euclidean_form(2), [[0, 1], [0, 0]])

    def test_operator_constructor_rejects(self):
        with pytest.raises(ValueError):
            SelfAdjointOperator(euclidean_form(2), [[0, 1], [0, 0]])


def seminull_type_iii_operator():
    """A e1 = 0, A e2 = e3, A e3 = e1 on the semi-null Gram."""
    gram = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    A = np.zeros((3, 3))
    A[2, 1] = 1.0  # e2 -> e3
    A[0, 2] = 1.0  # e3 -> e1
    return LorentzForm(3, gram), A


def lifted_horosphere_operator(n=2, c=-4.0):
    """Bordered lift of the horosphere spectrum {sqrt(-c)/2 x(2n-2), sqrt(-c) x1}."""
    s0 = np.sqrt(-c) / 2
    values = [s0] * (2 * n - 2) + [2 * s0]
    m = len(values)
    A = np.diag(values + [0.0])
    A[m - 1, m] = -s0
    A[m, m - 1] = s0
    gram = np.diag([1.0] * m + [-1.0])
    return LorentzForm(m + 1, gram), A


class TestClassifyJordan:
    def test_identity_is_type_i(self):
        op = SelfAdjointOperator(minkowski_form(3), np.eye(3))
        cls = classify_jordan(op)
        assert cls.jtype == "I"
        assert cls.real_eigs == ((1.0, 3, 3),)

    def test_seminull_shift_is_type_iii(self):
        form, A = seminull_type_iii_operator()
        # oracle: A^2 != 0 and A^3 = 0 by direct multiplication
        assert np.abs(A @ A).max() > 0.5
        assert np.abs(A @ A @ A).max() == 0.0
        cls = classify_jordan(SelfAdjointOperator(form, A))
        assert cls.jtype == "III"
        assert cls.real_eigs == ((0.0, 3, 1),)

    def test_lifted_horosphere_is_type_ii(self):
        form, A = lifted_horosphere_operator(n=2, c=-4.0)
        # oracle: characteristic polynomial is (x - 1)^4 and the degenerate
        # 2x2 block has rank(A - I) = 1
        coeffs = np.poly(A)
        assert np.allclose(coeffs, np.poly([1.0, 1.0, 1.0, 1.0]), atol=1e-12)
        block = A[2:, 2:] - np.eye(2)
        assert np.linalg.matrix_rank(block) == 1
        cls = classify_jordan(SelfAdjointOperator(form, A))
        assert cls.jtype == "II"
        assert cls.real_eigs == ((1.0, 4, 3),)
        assert cls.epsilon in (-1, 1)

    def test_rotation_block_is_type_iv(self):
        a, b = 0.3, 0.7
        A = np.array([[a, -b], [b, a]])
        # oracle: complex eigenvalues a +- ib
        w = np.linalg.eigvals(A)
        assert np.allclose(sorted(w.real), [a, a])
        assert np.allclose(sorted(np.abs(w.imag)), [b, b])
        cls = classify_jordan(SelfAdjointOperator(minkowski_form(2), A))
        assert cls.jtype == "IV"
        assert abs(cls.complex_pair[0] - a) < 1e-12
        assert abs(cls.complex_pair[1] - b) < 1e-12

    def test_epsilon_sign_rule(self):
        # epsilon = sign(<(A - lam) u, u>) for u in the degenerate block
        form, A = lifted_horosphere_operator(n=2, c=-4.0)
        u = np.zeros(4)
        u[2] = 1.0
        s = (A - np.eye(4)) @ u @ form.gram @ u
        cls = classify_jordan(SelfAdjointOperator(form, A))
        assert cls.epsilon == (1 if s > 0 else -1)

    def test_epsilon_negative_branch(self):
        # flipping the orientation of the horosphere flips epsilon
        form, A = lifted_horosphere_operator(n=2, c=-4.0)
        cls = classify_jordan(SelfAdjointOperator(form, -A))
        assert cls.jtype == "II"
        assert cls.real_eigs == ((-1.0, 4, 3),)
        assert cls.epsilon == -1
        gram_err = np.abs(
            cls.adapted_basis.T @ form.gram @ cls.adapted_basis - cls.canonical_gram()
        ).max()
        shape_err = np.abs(
            -A @ cls.adapted_basis - cls.adapted_basis @ cls.canonical_matrix()
        ).max()
        assert max(gram_err, shape_err) < 1e-12


class TestClassificationInvariants:
    def test_canonical_gram_and_shape(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            form = minkowski_form(dim)
            cases.append((form, random_self_adjoint(rng, form)))
        cases.append(seminull_type_iii_operator())
        cases.append(lifted_horosphere_operator())
        for form, A in cases:
            cls = classify_jordan(SelfAdjointOperator(form, A))
            gram_err = np.abs(
                cls.adapted_basis.T @ form.gram @ cls.adapted_basis - cls.canonical_gram()
            ).max()
            shape_err = np.abs(
                A @ cls.adapted_basis - cls.adapted_basis @ cls.canonical_matrix()
            ).max()
            assert gram_err < 1e-9
            assert shape_err < 1e-9

    def test_invariance_under_form_isometries(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            dim = int(rng.integers(2, 6))
            form = minkowski_form(dim)
            A = random_self_adjoint(rng, form)
            cls = classify_jordan(SelfAdjointOperator(form, A))
            T = random_isometry(rng, form.gram)
            assert np.abs(T.T @ form.gram @ T - form.gram).max() < 1e-10
            cls2 = classify_jordan(SelfAdjointOperator(form, np.linalg.solve(T, A @ T), tol=1e-7))
            assert cls.jtype == cls2.jtype
            assert len(cls.real_eigs) == len(cls2.real_eigs)
            for (v1, a1, g1), (v2, a2, g2) in zip(cls.real_eigs, cls2.real_eigs):
                assert (a1, g1) == (a2, g2)
                assert abs(v1 - v2) < 1e-8

    def test_alg_geo_against_dense_jordan_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            form = minkowski_form(4)
            A = random_self_adjoint(rng, form)
            cls = classify_jordan(SelfAdjointOperator(form, A))
            w = np.linalg.eigvals(A)
            for value, alg, geo in cls.real_eigs:
                assert alg >= geo
                count = int(np.sum(np.abs(w - value) < 1e-6 * (1 + abs(value))))
                assert count == alg

    def test_nondiagnosable_on_absurd_tolerance(self):
        op = SelfAdjointOperator(minkowski_form(3), np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(NondiagnosableOperator):
            classify_jordan(op, tol=10.0)


class TestCluster:
    @staticmethod
    def runs(values, tol):
        return [(s.start, s.stop) for s in cluster(values, tol)]

    def test_ascending(self):
        values = [0.0, 1e-9, 2e-9, 1.0, 1.0 + 5e-9, 3.0]
        assert self.runs(values, 1e-8) == [(0, 3), (3, 5), (5, 6)]

    def test_descending(self):
        values = [3.0, 1.0 + 5e-9, 1.0, 2e-9, 1e-9, 0.0]
        assert self.runs(values, 1e-8) == [(0, 1), (1, 3), (3, 6)]

    def test_empty(self):
        assert cluster([], 1e-8) == []
        assert cluster(np.zeros(0), np.zeros(0)) == []

    def test_single_value(self):
        assert self.runs([2.5], 1e-8) == [(0, 1)]
        assert self.runs([2.5], np.zeros(0)) == [(0, 1)]

    def test_stack_is_split_row_by_row(self):
        rng = np.random.default_rng(5)
        stack = np.sort(rng.choice([0.0, 1e-9, 0.5, 0.5 + 2e-9, 1.0], size=(20, 6)), axis=1)
        assert cluster(stack, 1e-8) == [cluster(row, 1e-8) for row in stack]
        tol = rng.uniform(0, 1e-8, size=5)
        assert cluster(stack, tol) == [cluster(row, tol) for row in stack]
        assert cluster(np.zeros((3, 0)), 1e-8) == [[], [], []]

    def test_gap_equal_to_tol_merges(self):
        assert self.runs([0.0, 0.5, 1.0], 0.5) == [(0, 3)]

    def test_per_gap_tolerance(self):
        # the same gap of 0.1 merges where its tolerance allows it only
        values = np.array([0.0, 0.1, 0.2, 0.3])
        assert self.runs(values, np.array([0.2, 0.05, 0.2])) == [(0, 2), (2, 4)]
        assert self.runs(values, np.array([0.05, 0.2, 0.05])) == [(0, 1), (1, 3), (3, 4)]

    def test_slices_index_the_input(self):
        values = np.array([1.0, 1.0, 4.0, 4.0, 4.0])
        means = [values[s].mean() for s in cluster(values, 1e-12)]
        assert means == [1.0, 4.0]

    def test_matches_running_mean_loop_on_separated_clusters(self):
        # the merge loop cluster replaced, kept as the reference: on runs
        # narrower than tol and gaps wider than 2 tol both group alike, and
        # the mean of a slice is the mean of the same floats in the same order
        def running_mean_loop(values, tol):
            clusters = []
            for v in values:
                if clusters and abs(v - np.mean(clusters[-1])) <= tol:
                    clusters[-1].append(v)
                else:
                    clusters.append([v])
            return [(float(np.mean(cl)), len(cl)) for cl in clusters]

        rng = np.random.default_rng(3)
        tol = 1e-7
        for _ in range(200):
            centers = np.cumsum(rng.uniform(3 * tol, 1.0, size=rng.integers(1, 6)))
            values = np.sort(np.concatenate(
                [c + rng.uniform(0, 0.9 * tol, size=rng.integers(1, 5)) for c in centers]
            ))
            got = [(float(values[s].mean()), s.stop - s.start) for s in cluster(values, tol)]
            assert got == running_mean_loop(values, tol)

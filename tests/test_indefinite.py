"""Tests for Jordan-type classification over Lorentzian scalar products."""

import numpy as np
import pytest

from isoparam import DimensionMismatch, NondiagnosableOperator, classify_jordan
from isoparam import indefinite_linalg
from isoparam.indefinite_linalg import (
    JORDAN_TOL, MERGE_TOL, JordanClassification, _classify_pass, cluster,
)
from isoparam.verification import _lorentz_operator


def minkowski(dim):
    """diag(-1, 1, ..., 1)."""
    return np.diag([-1.0] + [1.0] * (dim - 1))


def random_self_adjoint(rng, gram, scale=1.0):
    dim = gram.shape[0]
    S = scale * rng.standard_normal((dim, dim))
    return np.linalg.solve(gram, 0.5 * (S + S.T))


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
    """The Gram checks at the entry of classify_jordan."""

    def test_signature_enforced(self):
        with pytest.raises(ValueError, match="signature"):
            classify_jordan(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="signature"):
            classify_jordan(np.eye(3), np.diag([-1.0, -1.0, 1.0]))

    def test_degenerate_gram_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            classify_jordan(np.eye(2), [[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="degenerate"):
            classify_jordan(np.eye(3), np.diag([-1.0, 0.0, 1.0]))

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            classify_jordan(np.eye(2), [[-1.0, 0.5], [0.0, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            classify_jordan(np.eye(2), minkowski(3))
        with pytest.raises(DimensionMismatch):
            classify_jordan(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            classify_jordan(np.ones(2), minkowski(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad):
        for i, j in [(0, 0), (0, 1), (1, 1)]:
            gram = minkowski(2)
            gram[i, j] = gram[j, i] = bad
            with pytest.raises(ValueError):
                classify_jordan(np.eye(2), gram)
        gram = minkowski(2)
        gram[0, 1] = bad  # and asymmetric
        with pytest.raises(ValueError):
            classify_jordan(np.eye(2), gram)


class TestSelfAdjoint:
    """The self-adjointness check at the entry of classify_jordan."""

    def test_identity_always_self_adjoint(self):
        for gram in (minkowski(3), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0, -0.5])):
            cls = classify_jordan(np.eye(gram.shape[0]), gram)
            assert cls.jtype == "I"
            assert cls.real_eigs == ((1.0, gram.shape[0], gram.shape[0]),)

    def test_rotation_self_adjoint_for_lorentz(self):
        # oracle: gram @ A = [[0, -1], [-1, 0]] is symmetric
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        GA = minkowski(2) @ A
        assert np.allclose(GA, GA.T)
        assert classify_jordan(A, minkowski(2)).jtype == "IV"

    def test_non_self_adjoint_rejected(self):
        # oracle: gram @ A = [[0, -1], [0, 0]] is not symmetric
        with pytest.raises(ValueError, match="self-adjoint"):
            classify_jordan([[0, 1], [0, 0]], minkowski(2))
        # symmetric, but not self-adjoint for the Lorentzian gram
        with pytest.raises(ValueError, match="self-adjoint"):
            classify_jordan([[0, 1], [1, 0]], minkowski(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_operator_rejected(self, bad):
        for gram in (minkowski(3), np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])):
            for i, j in [(0, 0), (0, 1), (2, 2)]:
                A = np.eye(3)
                A[i, j] = bad
                with pytest.raises(ValueError):
                    classify_jordan(A, gram)
                A[j, i] = bad
                with pytest.raises(ValueError):
                    classify_jordan(A, gram)


def seminull_type_iii_operator():
    """A e1 = 0, A e2 = e3, A e3 = e1 on the semi-null Gram."""
    gram = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    A = np.zeros((3, 3))
    A[2, 1] = 1.0  # e2 -> e3
    A[0, 2] = 1.0  # e3 -> e1
    return gram, A


def lifted_horosphere_operator(n=2, c=-4.0):
    """Bordered lift of the horosphere spectrum {sqrt(-c)/2 x(2n-2), sqrt(-c) x1}."""
    s0 = np.sqrt(-c) / 2
    values = [s0] * (2 * n - 2) + [2 * s0]
    m = len(values)
    A = np.diag(values + [0.0])
    A[m - 1, m] = -s0
    A[m, m - 1] = s0
    gram = np.diag([1.0] * m + [-1.0])
    return gram, A


class TestClassifyJordan:
    def test_identity_is_type_i(self):
        cls = classify_jordan(np.eye(3), minkowski(3))
        assert cls.jtype == "I"
        assert cls.real_eigs == ((1.0, 3, 3),)

    def test_seminull_shift_is_type_iii(self):
        gram, A = seminull_type_iii_operator()
        # oracle: A^2 != 0 and A^3 = 0 by direct multiplication
        assert np.abs(A @ A).max() > 0.5
        assert np.abs(A @ A @ A).max() == 0.0
        cls = classify_jordan(A, gram)
        assert cls.jtype == "III"
        assert cls.real_eigs == ((0.0, 3, 1),)

    def test_lifted_horosphere_is_type_ii(self):
        gram, A = lifted_horosphere_operator(n=2, c=-4.0)
        # oracle: characteristic polynomial is (x - 1)^4 and the degenerate
        # 2x2 block has rank(A - I) = 1
        coeffs = np.poly(A)
        assert np.allclose(coeffs, np.poly([1.0, 1.0, 1.0, 1.0]), atol=1e-12)
        block = A[2:, 2:] - np.eye(2)
        assert np.linalg.matrix_rank(block) == 1
        cls = classify_jordan(A, gram)
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
        cls = classify_jordan(A, minkowski(2))
        assert cls.jtype == "IV"
        assert abs(cls.complex_pair[0] - a) < 1e-12
        assert abs(cls.complex_pair[1] - b) < 1e-12

    def test_epsilon_sign_rule(self):
        # epsilon = sign(<(A - lam) u, u>) for u in the degenerate block
        gram, A = lifted_horosphere_operator(n=2, c=-4.0)
        u = np.zeros(4)
        u[2] = 1.0
        s = (A - np.eye(4)) @ u @ gram @ u
        cls = classify_jordan(A, gram)
        assert cls.epsilon == (1 if s > 0 else -1)

    def test_epsilon_negative_branch(self):
        # flipping the orientation of the horosphere flips epsilon
        gram, A = lifted_horosphere_operator(n=2, c=-4.0)
        cls = classify_jordan(-A, gram)
        assert cls.jtype == "II"
        assert cls.real_eigs == ((-1.0, 4, 3),)
        assert cls.epsilon == -1
        assert max(cls.residuals(-A, gram)) < 1e-12


class TestClassificationInvariants:
    def test_canonical_gram_and_shape(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            gram = minkowski(dim)
            cases.append((gram, random_self_adjoint(rng, gram)))
        cases.append(seminull_type_iii_operator())
        cases.append(lifted_horosphere_operator())
        for gram, A in cases:
            gram_err, shape_err = classify_jordan(A, gram).residuals(A, gram)
            assert gram_err < 1e-9
            assert shape_err < 1e-9

    def test_invariance_under_form_isometries(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            dim = int(rng.integers(2, 6))
            gram = minkowski(dim)
            A = random_self_adjoint(rng, gram)
            cls = classify_jordan(A, gram)
            T = random_isometry(rng, gram)
            assert np.abs(T.T @ gram @ T - gram).max() < 1e-10
            cls2 = classify_jordan(np.linalg.solve(T, A @ T), gram)
            assert cls.jtype == cls2.jtype
            assert len(cls.real_eigs) == len(cls2.real_eigs)
            for (v1, a1, g1), (v2, a2, g2) in zip(cls.real_eigs, cls2.real_eigs):
                assert (a1, g1) == (a2, g2)
                assert abs(v1 - v2) < 1e-8

    def test_alg_geo_against_dense_jordan_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            gram = minkowski(4)
            A = random_self_adjoint(rng, gram)
            cls = classify_jordan(A, gram)
            w = np.linalg.eigvals(A)
            for value, alg, geo in cls.real_eigs:
                assert alg >= geo
                count = int(np.sum(np.abs(w - value) < 1e-6 * (1 + abs(value))))
                assert count == alg

    def test_nondiagnosable_on_absurd_tolerance(self):
        # a rank threshold of 10 (1 + max|A|) puts all of R^3 in every kernel
        A = np.diag([1.0, 2.0, 3.0])
        eig, scale = np.linalg.eig(A), 1.0 + 3.0
        with pytest.raises(NondiagnosableOperator, match="inconsistent multiplicities"):
            _classify_pass(
                A, minkowski(3), eig, MERGE_TOL * scale, JORDAN_TOL * scale, 10.0 * scale, {}
            )

    @pytest.mark.parametrize("residuals", [(np.nan, np.nan), (0.0, np.nan), (np.nan, 0.0)])
    def test_nan_residual_fails_the_guard(self, monkeypatch, residuals):
        # every candidate's guard refuses, so the last refusal is raised
        monkeypatch.setattr(JordanClassification, "residuals", lambda cls, A, gram: residuals)
        with pytest.raises(NondiagnosableOperator, match="canonical reconstruction failed"):
            classify_jordan(np.diag([-1.0, 2.0, 3.0]), minkowski(3))

    def test_one_pass_on_verify_operators(self, monkeypatch):
        # the random operators of the jordan suite have no gap between
        # MERGE_TOL and JORDAN_TOL S, so each call runs one candidate
        passes, classify_pass = [], indefinite_linalg._classify_pass
        monkeypatch.setattr(
            indefinite_linalg, "_classify_pass", lambda *a: passes.append(1) or classify_pass(*a)
        )
        rng = np.random.default_rng(17)
        for _ in range(300):
            passes.clear()
            classify_jordan(*_lorentz_operator(rng, int(rng.integers(2, 6))))
            assert len(passes) == 1

    def test_one_eig_per_call(self, monkeypatch):
        # the type IV block takes its eigenvector from the eig of the candidates
        eig, calls = np.linalg.eig, []

        def counting_eig(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        A = np.array([[0.3, -0.7, 0.0], [0.7, 0.3, 0.0], [0.0, 0.0, 2.0]])
        cls = classify_jordan(A, minkowski(3))
        assert cls.jtype == "IV"
        assert calls == [(3, 3)]


def planted_operator(
    rng, jtype, lam, extra, clean, epsilon=None, orthogonal=False, imag=None
):
    """(A, gram, shape): the canonical type II or III shape at lam, with
    `extra` more kernel directions at lam, or the type IV pair lam +- i imag
    (extra = 0), and the clean eigenvalues, carried by a seeded basis B as
    A = B C B^-1 and gram = B^-T Gc B^-1.  B is a rotation (B^-1 = B^T), or
    the product Q1 D Q2 with D in [0.7, 1.4] (condition at most 2)."""
    size = {"II": 2, "III": 3, "IV": 2}[jtype]
    dim = size + extra + len(clean)
    real = [(v, 1, 1) for v in clean]
    pair = (lam, imag) if jtype == "IV" else None
    if pair is None:
        real.append((lam, size + extra, 1 + extra))
    diag = tuple([lam] * extra + list(clean))
    shape = JordanClassification(jtype, tuple(sorted(real)), pair, epsilon, np.eye(dim), diag, dim)
    B = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    if orthogonal:
        B_inv = B.T
    else:
        B = B @ np.diag(rng.uniform(0.7, 1.4, dim)) @ np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        B_inv = np.linalg.inv(B)
    gram = B_inv.T @ shape.canonical_gram() @ B_inv
    return B @ shape.canonical_matrix() @ B_inv, 0.5 * (gram + gram.T), shape


class TestPlantedShapes:
    """Canonical type II, III and IV shapes carried by a seeded basis: the
    Jordan chain, the kernel complement and the choice among candidate
    merges on input that is not an arrowhead."""

    @staticmethod
    def check(A, gram, shape):
        cls = classify_jordan(A, gram)
        assert cls.jtype == shape.jtype
        assert cls.epsilon == shape.epsilon
        assert [(a, g) for _, a, g in cls.real_eigs] == [(a, g) for _, a, g in shape.real_eigs]
        for (v, _, _), (want, _, _) in zip(cls.real_eigs, shape.real_eigs):
            assert abs(v - want) < 1e-6
        if shape.complex_pair is not None:
            err = np.abs(np.subtract(cls.complex_pair, shape.complex_pair)).max()
            assert err < 1e-6 * shape.complex_pair[1]
        assert max(cls.residuals(A, gram)) < 1e-8

    @staticmethod
    def clean_values(rng, lam, count):
        return [lam - rng.uniform(0.5, 2.0), lam + rng.uniform(0.5, 2.0)][:count]

    @pytest.mark.parametrize("nclean", [0, 1, 2])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_type_ii(self, epsilon, extra, nclean):
        rng = np.random.default_rng([2, epsilon + 1, extra, nclean])
        for _ in range(6):
            lam = rng.uniform(-2.0, 2.0)
            clean = self.clean_values(rng, lam, nclean)
            self.check(*planted_operator(rng, "II", lam, extra, clean, epsilon))

    @pytest.mark.parametrize("nclean", [0, 1, 2])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_type_iii(self, extra, nclean):
        rng = np.random.default_rng([3, extra, nclean])
        for _ in range(6):
            lam = rng.uniform(-2.0, 2.0)
            clean = self.clean_values(rng, lam, nclean)
            self.check(*planted_operator(rng, "III", lam, extra, clean))

    def test_single_type_iii_block(self):
        # the canonical block at 0.5 rotated by 20 seeded rotations; each also
        # admits a type IV candidate, with residual between 3e-6 and 9e-5
        for seed in range(20):
            rng = np.random.default_rng(seed)
            self.check(*planted_operator(rng, "III", 0.5, 0, [], orthogonal=True))

    @pytest.mark.parametrize("nclean", [0, 1, 2])
    @pytest.mark.parametrize("imag", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_type_iv_with_small_imaginary_part(self, imag, nclean):
        # from imag = 1e-4 down, the pair's gaps lie below JORDAN_TOL S and
        # offer candidates that merge it; none of them reconstructs better
        rng = np.random.default_rng([4, round(-np.log10(imag)), nclean])
        for _ in range(6):
            lam = rng.uniform(-2.0, 2.0)
            clean = self.clean_values(rng, lam, nclean)
            self.check(*planted_operator(rng, "IV", lam, 0, clean, imag=imag))

    def test_least_residual_decides(self, monkeypatch):
        # a lone 3x3 block splits its eigenvalue into a real value and a
        # pair of imaginary part ~4e-6: the type IV candidate that keeps
        # the pair passes its guard, and the type III one that merges all
        # three wins on its lower residual
        passes, classify_pass = [], indefinite_linalg._classify_pass

        def recording_pass(*args):
            err, cls = classify_pass(*args)
            passes.append((cls.jtype, err))
            return err, cls

        monkeypatch.setattr(indefinite_linalg, "_classify_pass", recording_pass)
        for seed in range(5):
            passes.clear()
            rng = np.random.default_rng(seed)
            A, gram, _ = planted_operator(rng, "III", 0.5, 0, [], orthogonal=True)
            assert classify_jordan(A, gram).jtype == "III"
            best = {}
            for jtype, err in passes:
                best[jtype] = min(err, best.get(jtype, np.inf))
            assert set(best) == {"III", "IV"}
            assert best["III"] < best["IV"]
            assert best["III"] == min(err for _, err in passes)

    def test_tie_goes_to_the_smaller_tolerance(self, monkeypatch):
        # the lone block of seed 0 offers three candidates, in ascending
        # tolerance; the choice reads only the residuals they return
        A, gram, _ = planted_operator(np.random.default_rng(0), "III", 0.5, 0, [], orthogonal=True)
        results = iter([(2.0, "first"), (1.0, "second"), (1.0, "third")])
        monkeypatch.setattr(indefinite_linalg, "_classify_pass", lambda *args: next(results))
        assert classify_jordan(A, gram) == "second"
        assert next(results, None) is None

    @pytest.mark.xfail(strict=True, reason=(
        "the type III basis has a column of norm about the scale (the block's off-diagonal "
        "entries are 1), so its absolute residuals grow with the scale; the type IV candidate's "
        "are lower and win"))
    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_type_iii_at_large_scale(self, scale):
        # draw 19 of the CI step "planted Jordan shapes": a lone type III
        # block, no clean values, condition-2 basis; right up to scale 1e4
        rng = np.random.default_rng([29, 19])
        lam = rng.uniform(-2.0, 2.0)
        A, gram, shape = planted_operator(rng, "III", lam, 0, self.clean_values(rng, lam, 0))
        cls = classify_jordan(scale * A, gram)
        assert (cls.jtype, cls.real_eigs[0][1:]) == ("III", (3, 1))
        assert abs(cls.real_eigs[0][0] / scale - lam) < 1e-6


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

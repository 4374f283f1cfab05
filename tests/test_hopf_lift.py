"""Tests for the lift correspondence: lifted shape operators, their Jordan
types and the projection back to downstairs spectra."""

import numpy as np
import pytest

from isoparam import hopf_lift
from isoparam import (
    ConstraintViolation,
    JordanClassification,
    LiftedShapeData,
    NondiagnosableOperator,
    TubeSpec,
    TubeSpectrum,
    build_w,
    check_type_constraints,
    classify,
    classify_jordan,
    classify_lift,
    hopf_lift_data,
    lift_shape_operator,
    normal_kahler_angle,
    project_spectrum,
    random_subspace,
    standard_spectrum,
    tube_lift_data,
)
from isoparam.solvable_model import ANVector

C = -4.0


class TestLiftMatrix:
    def test_horosphere_block(self):
        # n = 2, c = -4: downstairs {1, 1, 2}, b on the Hopf slot; the 2x2
        # degenerate block has characteristic polynomial
        # (2 - x)(-x) + 1 = (x - 1)^2
        spec = standard_spectrum("horosphere", 2, c=C)
        lifted = lift_shape_operator(hopf_lift_data(spec, C))
        A, _ = lifted
        block = A[2:, 2:]
        assert np.allclose(block, [[2.0, -1.0], [1.0, 0.0]])
        assert np.allclose(np.poly(block), [1.0, -2.0, 1.0])
        cls = classify_jordan(*lifted)
        assert cls.jtype == "II"
        assert cls.real_eigs == ((1.0, 4, 3),)

    def test_chk_lift_type_i(self):
        # oracle: numeric eigendecomposition of the lifted matrix
        spec = standard_spectrum("tube-chk", 3, r=1.2, c=C, k=1)
        lifted = lift_shape_operator(hopf_lift_data(spec, C))
        w = np.sort(np.linalg.eigvals(lifted[0]).real)
        lam, mu = np.tanh(1.2), 1 / np.tanh(1.2)
        assert abs(lam * mu - (-C / 4)) < 1e-12
        expect = np.sort([lam] * 3 + [mu] * 3)
        assert np.abs(w - expect).max() < 1e-10
        cls = classify_jordan(*lifted)
        assert cls.jtype == "I"
        assert {a for _, a, _ in cls.real_eigs} == {3}

    def test_rhn_lift_type_iv(self):
        r = 0.8
        spec = standard_spectrum("tube-rhn", 3, r=r, c=C)
        lifted = lift_shape_operator(hopf_lift_data(spec, C))
        w = np.linalg.eigvals(lifted[0])
        pair = w[np.abs(w.imag) > 1e-8]
        assert len(pair) == 2
        a = float(pair.real.mean())
        b = float(np.abs(pair.imag).mean())
        lam = np.tanh(r)
        assert abs(2 * a - 4 * C * lam / (C - 4 * lam**2)) < 1e-10
        assert abs(4 * a**2 + 4 * b**2 + C) < 1e-10
        cls = classify_jordan(*lifted)
        assert cls.jtype == "IV"

    def test_self_adjoint_and_trace(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            fam = ["tube-chk", "horosphere", "tube-rhn"][int(rng.integers(3))]
            k = int(rng.integers(0, n)) if fam == "tube-chk" else None
            spec = standard_spectrum(fam, n, r=float(rng.uniform(0.2, 2.5)), c=C, k=k)
            A, G = lift_shape_operator(hopf_lift_data(spec, C))
            GA = G @ A
            assert np.abs(GA - GA.T).max() < 1e-12
            assert abs(np.trace(A) - spec.trace()) < 1e-12

    def test_b_must_be_unit(self):
        spec = standard_spectrum("horosphere", 2, c=C)
        with pytest.raises(ValueError):
            LiftedShapeData(spec, np.array([1.0, 1.0, 0.0]), C)

    def test_b_must_not_be_nan(self):
        spec = standard_spectrum("horosphere", 2, c=C)
        with pytest.raises(ValueError):
            LiftedShapeData(spec, np.array([1.0, np.nan, 0.0]), C)


class TestProjection:
    def test_type_ii_projection(self):
        spec = standard_spectrum("horosphere", 3, c=C)
        cls = classify_lift(hopf_lift_data(spec, C))
        down = project_spectrum(cls, C)
        assert down.entries == ((1.0, 4, 4), (2.0, 1, 1))
        assert down.hopf_value == 2.0

    def test_type_i_hopf_is_sum(self):
        # oracle: hyperbolic identity tanh + coth = 2 coth(2r)
        r = 1.0
        assert abs(np.tanh(r) + 1 / np.tanh(r) - 2 / np.tanh(2 * r)) < 1e-14
        spec = standard_spectrum("tube-chk", 4, r=r, c=C, k=2)
        cls = classify_lift(hopf_lift_data(spec, C))
        down = project_spectrum(cls, C)
        assert abs(down.hopf_value - 2 / np.tanh(2)) < 1e-10
        assert spec.matches(down, tol=1e-10)

    def test_type_iv_hopf_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            spec = standard_spectrum("tube-rhn", n, r=float(rng.uniform(0.2, 3.0)), c=C)
            cls = classify_lift(hopf_lift_data(spec, C))
            down = project_spectrum(cls, C)
            assert cls.jtype == "IV"
            assert abs(down.hopf_value) < np.sqrt(-C)
            assert spec.matches(down, tol=1e-8)

    def test_type_iii_partial_projection(self):
        w = random_subspace(2, 1, seed=9)
        W = build_w(w, 3, C)
        spec = TubeSpec(W, 0.9)
        coef = np.array([0.5, 0.2, 0.8])
        v = W.w_perp_basis.T @ coef
        v /= np.linalg.norm(v)
        xi = ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, C)
        assert normal_kahler_angle(W, xi) > 0.05
        cls = classify_lift(tube_lift_data(spec, xi))
        assert cls.jtype == "III"
        down = project_spectrum(cls, C)
        assert down.family == "w-tube"
        assert down.unresolved_dims == 3
        assert down.dim == 5
        # the shared eigenvalue mu survives with multiplicity k - 2 = 1
        mu = -C / (4 * np.tanh(0.9))
        assert any(abs(v - mu) < 1e-8 for v, _, _ in down.entries)

    def test_projection_keeps_the_lift_eigenvalues(self):
        # the projected curvatures are the lift's eigenvalues bit for bit,
        # not the mean of their copies
        spec = standard_spectrum("tube-chk", 10, r=0.7, c=C, k=3)
        cls = classify_lift(hopf_lift_data(spec, C))
        (lam, _, _), (mu, _, _) = cls.real_eigs
        down = project_spectrum(cls, C)
        assert mu == 1.6546216358026298
        assert down.entries == ((lam, 6, 6), (mu, 12, 12), (lam + mu, 1, 1))

    def test_constraint_violations_raise(self):
        spec = standard_spectrum("horosphere", 2, c=C)
        cls = classify_lift(hopf_lift_data(spec, C))
        with pytest.raises(ConstraintViolation):
            project_spectrum(cls, -1.0)  # wrong curvature: lambda != sqrt(-c)/2


class TestRoundTrip:
    def test_all_families_many_radii(self):
        rng = np.random.default_rng(4)
        expected = {"tube-chk": "I", "horosphere": "II", "tube-rhn": "IV"}
        for _ in range(25):
            n = int(rng.integers(2, 7))
            r = float(rng.uniform(0.2, 2.5))
            for fam, etype in expected.items():
                k = int(rng.integers(0, n)) if fam == "tube-chk" else None
                spec = standard_spectrum(fam, n, r=r, c=C, k=k)
                cls = classify_lift(hopf_lift_data(spec, C))
                assert cls.jtype == etype
                assert spec.matches(project_spectrum(cls, C), tol=1e-8)

    def test_berndt_brueck_tube_lifts_are_type_iii(self):
        # constant-angle normal spaces (the homogeneous non-Hopf tubes):
        # every normal direction has the same angle phi, and the defective
        # eigenvalue stays inside (-sqrt(-c)/2, sqrt(-c)/2)
        from isoparam import complement, subspace_from_blocks

        rng = np.random.default_rng(17)
        for n, k, phi in [(4, 2, np.pi / 3), (5, 2, 1.1), (4, 2, np.pi / 2), (5, 4, np.pi / 2)]:
            w_perp = subspace_from_blocks(
                n - 1, [(phi, k)] if phi < np.pi / 2 else [(np.pi / 2, k)]
            )
            W = build_w(complement(w_perp), n, C)
            assert W.k == k
            for _ in range(5):
                r = float(rng.uniform(0.3, 2.0))
                spec = TubeSpec(W, r)
                xi = None
                coef = rng.standard_normal(k)
                v = W.w_perp_basis.T @ coef
                v /= np.linalg.norm(v)
                xi = ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, C)
                assert abs(normal_kahler_angle(W, xi) - phi) < 1e-9
                cls = classify_lift(tube_lift_data(spec, xi))
                assert cls.jtype == "III"
                assert abs(cls.defective_eig) < np.sqrt(-C) / 2

    def test_w_tube_lifts_are_type_iii(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            m = n - 1
            k = int(rng.integers(2, 2 * n - 2))
            W = build_w(random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, C)
            spec = TubeSpec(W, float(rng.uniform(0.3, 2.0)))
            xi = None
            for _ in range(100):
                coef = rng.standard_normal(k)
                v = W.w_perp_basis.T @ coef
                v /= np.linalg.norm(v)
                cand = ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, C)
                if normal_kahler_angle(W, cand) > 0.1:
                    xi = cand
                    break
            if xi is None:
                continue  # w_perp is complex: every direction lifts to type I
            cls = classify_lift(tube_lift_data(spec, xi))
            assert cls.jtype == "III"
            lam = np.sqrt(-C) / 2 * np.tanh(np.sqrt(-C) / 2 * spec.r)
            assert abs(cls.defective_eig - lam) < 1e-8


@pytest.mark.parametrize("r", [1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rhn_round_trip_at_small_radius(n, r):
    # lambda_1 ~ r and the Hopf value ~ 4r stay apart although mu ~ 1/r
    # dominates the spectrum: the clustering tolerance is relative to the
    # two values it compares, not to the largest one
    spec = standard_spectrum("tube-rhn", n, r=r, c=C)
    cls = classify_lift(hopf_lift_data(spec, C))
    assert cls.jtype == "IV"
    assert spec.matches(project_spectrum(cls, C), tol=1e-8)


def w_tube_normal(n, k, seed, c=C):
    """(W_w, xi): a random w with dim w_perp = k, and a random unit normal."""
    W = build_w(random_subspace(n - 1, 2 * (n - 1) - k, seed=seed), n, c)
    v = W.w_perp_basis.T @ np.random.default_rng(seed).standard_normal(k)
    v /= np.linalg.norm(v)
    return W, ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, c)


def w_tube_lift(n, r, k, seed):
    """Lift data of the tube of radius r around W_w, dim w_perp = k, at a
    random normal direction (its Kahler angle is strictly inside (0, pi/2))."""
    W, xi = w_tube_normal(n, k, seed)
    assert 0.1 < normal_kahler_angle(W, xi) < np.pi / 2 - 0.1
    return tube_lift_data(TubeSpec(W, r), xi)


def seeded_w_tube_lift(seed):
    """Lift data of a W-tube drawn from seed: n = 3-10, dim w_perp = 2 to
    2n - 3, r log-uniform on [0.05, 3] (c = -4), at the first normal drawn
    whose Kahler angle lies in (0.1, pi/2 - 0.1)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    k, r = int(rng.integers(2, 2 * n - 2)), float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
    while True:
        W, xi = w_tube_normal(n, k, int(rng.integers(2**31)))
        if 0.1 < normal_kahler_angle(W, xi) < np.pi / 2 - 0.1:
            return tube_lift_data(TubeSpec(W, r), xi)


def test_w_tube_lift_data_keeps_the_closed_forms():
    # lambda = s0 tanh(s0 r) and mu = s0 coth(s0 r) reach the spectrum as
    # computed, not as the mean of their copies
    rng = np.random.default_rng(25)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        k, r = int(rng.integers(3, 2 * n - 2)), float(rng.uniform(0.2, 3.0))
        W = build_w(random_subspace(n - 1, 2 * (n - 1) - k, seed=int(rng.integers(2**31))), n, C)
        v = W.w_perp_basis.T @ rng.standard_normal(k)
        v /= np.linalg.norm(v)
        data = tube_lift_data(TubeSpec(W, r), ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, C))
        values = [v for v, _, _ in data.spectrum_down.entries]
        assert np.tanh(r) in values and 1 / np.tanh(r) in values  # s0 = 1 at c = -4


@pytest.mark.parametrize("n", [10, 30])
def test_lift_types_at_benchmark_sizes(n):
    # the sizes of the tube-sweep benchmark, where eigenvalue kernels are
    # wide and the type II/III kernel complements have many columns
    r, k = 0.7, n // 2
    k_perp = 2 * n - 4
    cases = [
        ("tube-chk", "I", [(2 * k + 1, 2 * k + 1), (2 * (n - k) - 1, 2 * (n - k) - 1)]),
        ("horosphere", "II", [(2 * n, 2 * n - 1)]),
        ("tube-rhn", "IV", [(n - 1, n - 1), (n - 1, n - 1)]),
        ("w-tube", "III", [(2 * n - k_perp + 1, 2 * n - k_perp - 1), (k_perp - 1, k_perp - 1)]),
    ]
    for family, jtype, mults in cases:
        if family == "w-tube":
            data = w_tube_lift(n, r, k_perp, seed=n)
        else:
            data = hopf_lift_data(standard_spectrum(family, n, r=r, c=C, k=k), C)
        A, gram = lift_shape_operator(data)
        cls = classify_jordan(A, gram)
        assert cls.jtype == jtype
        assert [(alg, geo) for _, alg, geo in cls.real_eigs] == mults
        gram_err, shape_err = cls.residuals(A, gram)
        assert gram_err <= 1e-9
        assert shape_err <= 1e-9


def test_each_cluster_center_factored_once(monkeypatch):
    # a type III lift offers several candidate merges; they share the
    # kernel of A - lambda I for every center they have in common
    from isoparam import indefinite_linalg as il

    passes, centers = [], []
    classify_pass, kernel = il._classify_pass, il._kernel
    monkeypatch.setattr(il, "_classify_pass", lambda *a: passes.append(1) or classify_pass(*a))
    monkeypatch.setattr(il, "_kernel", lambda A, v, t: centers.append(v) or kernel(A, v, t))
    cls = classify_jordan(*lift_shape_operator(w_tube_lift(10, 0.7, 16, seed=10)))
    assert cls.jtype == "III"
    assert len(passes) > 1
    assert len(centers) == len(set(centers))
    assert {value for value, _, _ in cls.real_eigs} <= set(centers)


def spread_b_lift(n, seed):
    """Lift data with 2n - 1 rows whose Hopf weight b spreads inside runs of
    equal curvatures, so classify_lift keeps several rows of a run: runs of
    1-4 rows at values uniform on (-3, 3), and a Gaussian b with each entry
    zeroed with probability 0.3 (b = e_1 if all are)."""
    rng = np.random.default_rng(seed)
    runs = []
    while sum(runs) < 2 * n - 1:
        runs.append(int(min(rng.integers(1, 5), 2 * n - 1 - sum(runs))))
    values = np.sort(rng.uniform(-3.0, 3.0, len(runs)))
    b = rng.standard_normal(2 * n - 1) * (rng.random(2 * n - 1) >= 0.3)
    if not b.any():
        b[0] = 1.0
    spectrum = TubeSpectrum(tuple((v, L, L) for v, L in zip(values, runs)))
    return LiftedShapeData(spectrum, b / np.linalg.norm(b), C)


def seeded_hopf_lift(seed):
    """Lift data of a Hopf family drawn from seed: tube-chk (any k),
    tube-rhn or the horosphere, n = 2-10, c in {-4, -1, -16, -0.01} and
    s0 r log-uniform on [0.05, 3]."""
    rng = np.random.default_rng(seed)
    family = ("tube-chk", "tube-rhn", "horosphere")[int(rng.integers(3))]
    n = int(rng.integers(2, 11))
    c = float(rng.choice([-4.0, -1.0, -16.0, -0.01]))
    r = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0)))) / (np.sqrt(-c) / 2)
    return hopf_lift_data(standard_spectrum(family, n, r=r, c=c, k=int(rng.integers(0, n))), c)


def split_b_lift(eps):
    """Curvatures 0 and 1 (twice), b = (sqrt(1 - eps^2), eps/sqrt(2),
    eps/sqrt(2)): the run at 1 keeps weight eps, so the full matrix has an
    eigenvalue about eps^2 / 2 below 1, next to the exact eigenvector
    (0, 1, -1)/sqrt(2) at 1."""
    b = np.array([np.sqrt(1 - eps**2), eps / np.sqrt(2), eps / np.sqrt(2)])
    return LiftedShapeData(TubeSpectrum(((0.0, 1, 1), (1.0, 2, 2))), b, C)


def lift_cases(n, r):
    """(family, lift data) for the three Hopf families and, from n = 3 on, a
    W-tube with dim w_perp = n at a normal of intermediate angle; a seeded
    spread-b lift; and at n = 2 the split of the run at 1."""
    cases = [
        (family, hopf_lift_data(standard_spectrum(family, n, r=r, c=C, k=n // 2), C))
        for family in ("tube-chk", "horosphere", "tube-rhn")
    ]
    if n >= 3:
        cases.append(("w-tube", w_tube_lift(n, r, n, seed=n)))
    cases.append(("spread-b", spread_b_lift(n, [n, round(100 * r)])))
    if n == 2:
        cases.append(("split-b", split_b_lift(0.1)))
    return cases


def assert_matches_full_classification(family, r, data):
    # oracle: classify_jordan on the full 2n x 2n bordered matrix
    op = lift_shape_operator(data)
    want, got = classify_jordan(*op), classify_lift(data)
    assert got.jtype == want.jtype, (family, r)
    assert [(a, g) for _, a, g in got.real_eigs] == [(a, g) for _, a, g in want.real_eigs]
    assert got.epsilon == want.epsilon
    assert (got.complex_pair is None) == (want.complex_pair is None)
    pairs = list(zip(got.complex_pair or (), want.complex_pair or ()))
    pairs += [(u, v) for (u, _, _), (v, _, _) in zip(got.real_eigs, want.real_eigs)]
    pairs += list(zip(got.diag, want.diag))  # same canonical column order
    assert len(got.diag) == len(want.diag)
    for u, v in pairs:
        assert abs(u - v) <= 1e-12 * abs(v), (family, r, u, v)
    got_err = max(got.residuals(*op))
    if family != "w-tube":
        assert got_err <= 1e-9, (family, r)
    assert got_err <= 10 * max(want.residuals(*op)) + 1e-12, (family, r)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 30, 100])
def test_deflated_lift_matches_full_classification(n):
    for r in ([0.05, 0.7, 2.5] if n <= 30 else [0.7]):
        for family, data in lift_cases(n, r):
            assert_matches_full_classification(family, r, data)


@pytest.mark.parametrize("eps", [0.01, 0.001])
def test_free_column_joins_within_first_rung(eps):
    # the full matrix has an eigenvalue eps^2 / 2 below the exact one at 1.0:
    # 5e-5 at eps = 0.01, 250 times MERGE_TOL S but below JORDAN_TOL S, so
    # the lift must not merge them where the full classification does not
    assert_matches_full_classification("split-b", eps, split_b_lift(eps))


@pytest.mark.parametrize("residuals", [(np.nan, np.nan), (0.0, np.nan), (np.nan, 0.0)])
def test_nan_residual_fails_the_lift_guard(monkeypatch, residuals):
    # only the lift's structured residuals get the NaN, so every decision
    # on the secular roots passes and the lift's own guard must refuse
    n = 3
    data = hopf_lift_data(standard_spectrum("tube-chk", n, r=0.7, c=C, k=1), C)
    monkeypatch.setattr(hopf_lift, "_lift_residuals", lambda *args: residuals)
    with pytest.raises(NondiagnosableOperator, match="deflated lift does not reconstruct"):
        classify_lift(data)


def guard_residuals(monkeypatch):
    """The residual pairs that classify_lift's guard computes, one per call."""
    pairs = []
    residuals = hopf_lift._lift_residuals
    monkeypatch.setattr(hopf_lift, "_lift_residuals", lambda *a: pairs.append(residuals(*a)) or pairs[-1])
    return pairs


def assert_guard_matches_dense(pairs, data):
    # oracle: residuals() of the classification on the full bordered matrix
    M, gram = lift_shape_operator(data)
    dense = classify_lift(data).residuals(M, gram)
    assert np.abs(np.subtract(pairs[-1], dense)).max() <= 1e-12 * (1 + np.abs(M).max())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 30, 100])
def test_structured_guard_matches_dense_residuals(monkeypatch, n):
    pairs = guard_residuals(monkeypatch)
    for r in ([0.05, 0.7, 2.5] if n <= 30 else [0.7]):
        for _, data in lift_cases(n, r):
            assert_guard_matches_dense(pairs, data)


def test_structured_guard_matches_dense_on_spread_b(monkeypatch):
    pairs = guard_residuals(monkeypatch)
    for seed in range(200):
        n = 2 + seed % 20
        assert_guard_matches_dense(pairs, spread_b_lift(n, [n, seed, 21]))


def test_lift_forms_no_full_size_residual(monkeypatch):
    # at n = 100 the guard must not evaluate residuals() on the 2n x 2n matrix
    n = 100
    residuals = JordanClassification.residuals

    def small_only(cls, A, gram, rows=None):
        if len(A) == 2 * n:
            raise AssertionError("dense residual of the full lift")
        return residuals(cls, A, gram, rows)

    monkeypatch.setattr(JordanClassification, "residuals", small_only)
    for _, data in lift_cases(n, 0.7):
        classify_lift(data)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 30, 100])
def test_lift_makes_no_dense_classification(monkeypatch, n):
    # every lift is decided from its secular equation: no input of
    # lift_cases reaches a candidate pass of classify_jordan, at any n
    from isoparam import indefinite_linalg

    def no_pass(*args):
        raise AssertionError("classify_lift ran a pass of classify_jordan")

    monkeypatch.setattr(indefinite_linalg, "_classify_pass", no_pass)
    for r in ([0.05, 0.7, 2.5] if n <= 30 else [0.7]):
        for family, data in lift_cases(n, r):
            classify_lift(data)


@pytest.mark.parametrize("family, n, k, r, jtype", [
    # mu - lambda = 2 / sinh(2r) lies between RANK_TOL and JORDAN_TOL times 1 + max|M|
    ("tube-chk", 10, 3, 4.972698386207045, "I"),
    # at small r the scale 1 + mu puts the pair's split in that window
    ("tube-rhn", 10, None, 2.7489733401185794e-05, "IV"),
])
def test_hopf_lift_between_the_rungs_stays_right(family, n, k, r, jtype):
    spec = standard_spectrum(family, n, r=r, c=C, k=k)
    cls = classify_lift(hopf_lift_data(spec, C))
    assert cls.jtype == jtype
    assert spec.matches(project_spectrum(cls, C), tol=1e-8)


def test_lohnherr_lift_is_type_iii_at_zero():
    # lift --example lohnherr --n 4: r = 0 and b = 1/sqrt(2) on the rows of
    # -1 and 1, so f(x) = -x^3 / (1 - x^2) has its triple root at the
    # weightless curvature 0, whose five rows join it
    import contextlib
    import io
    import json

    from isoparam.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["lift", "--example", "lohnherr", "--n", "4", "--output", "json"]) == 0
    payload = json.loads(out.getvalue())
    assert (payload["jordan_type"], payload["eigenvalues"]) == ("III", [[0.0, 8, 6]])


@pytest.mark.parametrize("r", [0.3, 0.7, 1.5])
def test_zero_weight_eigenvalue_keeps_its_row(r):
    # for n = 2, k = 1 the W-tube curvature lambda = s0 tanh(s0 r) carries
    # no Hopf weight; the triple root of the lift is decided at lambda
    # itself, where its eig copies split, and stays type III
    W = build_w(random_subspace(1, 1, seed=0), 2, C)
    v = W.w_perp_basis[0]
    data = tube_lift_data(TubeSpec(W, r), ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, C))
    lam = np.sqrt(-C) / 2 * np.tanh(np.sqrt(-C) / 2 * r)
    i = int(np.argmin(np.abs(data.spectrum_down.expanded() - lam)))
    assert abs(data.b[i]) <= 1e-12
    cls = classify_lift(data)
    assert cls.jtype == "III"
    assert abs(cls.defective_eig - lam) < 1e-8
    assert [(a, g) for _, a, g in cls.real_eigs] == [(4, 2)]


@pytest.mark.parametrize("family, n, k, r, error", [
    # mu - lambda falls between RANK_TOL and JORDAN_TOL times the block scale
    ("tube-rhn", 10, None, 8.297804099718359, NondiagnosableOperator),
    ("tube-chk", 30, 2, 8.238976516464781, NondiagnosableOperator),
    # the spectrum has merged the Hopf value into mu's run
    ("tube-chk", 10, 0, 1.451223259259736e-06, ConstraintViolation),
])
def test_unresolved_hopf_lift_raises(family, n, k, r, error):
    # where the radius leaves the lift's eigenvalues unresolved, the lift or
    # its projection raises; it never answers
    data = hopf_lift_data(standard_spectrum(family, n, r=r, c=C, k=k), C)
    with pytest.raises(error):
        project_spectrum(classify_lift(data), C)


@pytest.mark.parametrize("n", [3, 10])
def test_hopf_row_in_a_shared_run_matches_the_full_matrix(n):
    # at tanh(s0 r) = 1/sqrt(3) the tube-rhn Hopf value equals mu, so the
    # Hopf row shares mu's run, whose other rows are exact eigenvectors
    r = float(np.arctanh(1 / np.sqrt(3)))
    spec = standard_spectrum("tube-rhn", n, r=r, c=C)
    assert [a for _, a, _ in spec.entries] == [n - 1, n]
    assert_matches_full_classification("tube-rhn", r, hopf_lift_data(spec, C))


def test_curvature_is_a_homothety():
    # at c = -4 s0^2 every curvature of a Hopf family at radius r / s0 is
    # s0 times its value at c = -4 and radius r, and so is every
    # eigenvalue of the lift; 1,000 seeded draws of each family, any n, k.
    # Then the same for 300 W-tubes, n = 3-10, with the same w and normal
    # (Kahler angle in (0.1, pi/2 - 0.1)), whose lifts also keep their
    # admissibility and whose w keeps its case
    def rel(u, v):
        return abs(u - v) / abs(v)

    for seed in range(1000):
        rng = np.random.default_rng([24, seed])
        family = ("tube-chk", "tube-rhn", "horosphere")[int(rng.integers(3))]
        n = int(rng.integers(2, 11))
        c = float(rng.choice([-1e-6, -1e-2, -1.0, -16.0, -1e2, -1e4]))
        r = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        k, s0 = int(rng.integers(0, n)), np.sqrt(-c) / 2
        got, want = (standard_spectrum(family, n, r=r / s0, c=c, k=k),
                     standard_spectrum(family, n, r=r, c=C, k=k))
        case = (family, n, c, r, k)
        assert [e[1:] for e in got.entries] == [e[1:] for e in want.entries], case
        for u, v in [*zip(got.values, want.values), (got.hopf_value, want.hopf_value)]:
            assert rel(u, s0 * v) <= 1e-15, case
        got, want = classify_lift(hopf_lift_data(got, c)), classify_lift(hopf_lift_data(want, C))
        assert (got.jtype, got.epsilon) == (want.jtype, want.epsilon), case
        assert [e[1:] for e in got.real_eigs] == [e[1:] for e in want.real_eigs], case
        assert (got.complex_pair is None) == (want.complex_pair is None), case
        pairs = [*zip(got.complex_pair or (), want.complex_pair or ())]
        for u, v in pairs + [(u, v) for (u, _, _), (v, _, _) in zip(got.real_eigs, want.real_eigs)]:
            assert rel(u, s0 * v) <= 1e-10, case

    for seed in range(300):
        rng = np.random.default_rng([29, seed])
        n = int(rng.integers(3, 11))
        k = int(rng.integers(2, 2 * n - 2))
        c = float(rng.choice([-1e-6, -1e-2, -1.0, -16.0, -1e2, -1e4]))
        r = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        s0 = np.sqrt(-c) / 2
        while True:
            w_seed = int(rng.integers(2**31))
            W, xi = w_tube_normal(n, k, w_seed)
            if 0.1 < normal_kahler_angle(W, xi) < np.pi / 2 - 0.1:
                break
        W_c, xi_c = w_tube_normal(n, k, w_seed, c)
        got, want = tube_lift_data(TubeSpec(W_c, r / s0), xi_c), tube_lift_data(TubeSpec(W, r), xi)
        case = ("w-tube", n, c, r, k, w_seed)
        down = [*zip(got.spectrum_down.values, want.spectrum_down.values)]
        assert max(rel(u, s0 * v) for u, v in down) <= 1e-10, case
        got, want = classify_lift(got), classify_lift(want)
        assert (got.jtype, got.epsilon) == (want.jtype, want.epsilon), case
        assert [e[1:] for e in got.real_eigs] == [e[1:] for e in want.real_eigs], case
        pairs = [*zip(got.complex_pair or (), want.complex_pair or ())]
        for u, v in pairs + [(u, v) for (u, _, _), (v, _, _) in zip(got.real_eigs, want.real_eigs)]:
            assert rel(u, s0 * v) <= 1e-12, case
        admissible = check_type_constraints(got, c).admissible
        assert admissible == check_type_constraints(want, C).admissible, case
        assert classify(n, c, r=r / s0, w=W_c.w).case == classify(n, C, r=r, w=W.w).case, case

"""Tests for the Jacobi-field tube calculus and spectra."""

import dataclasses
import warnings

import numpy as np
import pytest
import w_frame_oracles as oracle

from isoparam import (
    ANVector,
    FocalRadius,
    InvalidCodimension,
    InvalidK,
    NotNormal,
    RealSubspace,
    TubeSpec,
    build_w,
    jacobi_scalars,
    lohnherr_spectrum,
    normal_kahler_angle,
    numeric_shape_operator,
    parallel_data,
    random_subspace,
    standard_spectrum,
    subspace_from_blocks,
    tube_char_poly,
    tube_char_roots,
    tube_mean_curvature,
    tube_lift_data,
    tube_spectrum_at,
    unitary_conjugate,
)
from isoparam import tube_geometry as tg
from isoparam.indefinite_linalg import cluster
from isoparam.tube_geometry import angle_factor_cubic

C = -4.0


def normal_vector(W, coefs):
    v = W.w_perp_basis.T @ np.asarray(coefs, dtype=float)
    v /= np.linalg.norm(v)
    return ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, W.c)


class TestJacobiScalars:
    def test_initial_conditions(self):
        for nu in (-1.3, 0.0, 0.7, 2.5):
            g, gp, h, hp = jacobi_scalars(nu, 0.0, C)
            assert g == 1.0 and h == 0.0
            assert abs(gp + nu) < 1e-15  # g' (0) = -nu
            assert hp == -1.0

    def test_focal_zero_of_g_mu(self):
        # oracle: cosh(1) - coth(1) sinh(1) = 0
        mu = np.cosh(1) / np.sinh(1)
        assert abs(np.cosh(1) - mu * np.sinh(1)) < 1e-15
        g, _, _, _ = jacobi_scalars(mu, 1.0, C)
        assert abs(g) < 1e-15

    def test_g_lambda_at_one_is_sech(self):
        # oracle: (cosh^2 - sinh^2)/cosh = sech
        g, _, _, _ = jacobi_scalars(np.tanh(1), 1.0, C)
        assert abs(g - 1 / np.cosh(1)) < 1e-15

    def test_solves_jacobi_equation(self):
        # 4 zeta'' + c zeta = 0 via finite differences
        h = 1e-4
        for nu in (0.4, 1.7):
            for t in (0.3, 1.1):
                gm = jacobi_scalars(nu, t - h, C)[0]
                g0, gp, hh, hp = jacobi_scalars(nu, t, C)
                gp_ = jacobi_scalars(nu, t + h, C)
                second = (gp_[0] - 2 * g0 + gm) / h**2
                assert abs(4 * second + C * g0) < 1e-5
                fd = (gp_[0] - gm) / (2 * h)
                assert abs(fd - gp) < 1e-8

    @pytest.mark.parametrize(
        "nu, t", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, -np.inf)]
    )
    def test_rejects_non_finite_input(self, nu, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                jacobi_scalars(nu, t, C)

    @pytest.mark.parametrize("t", [1000.0, -1000.0])
    def test_overflow_raises_focal_radius(self, t):
        # cosh(1000) overflows, and g = cosh - nu sinh is then inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FocalRadius, match="overflow"):
                jacobi_scalars(1.0, t, C)


class TestParallelData:
    def test_start_values(self):
        r = 1.3
        lam, mu, alpha, beta, focal = parallel_data(r, 0.0, C)
        assert abs(lam - np.tanh(r)) < 1e-15
        assert abs(mu - 1 / np.tanh(r)) < 1e-15
        assert alpha == 0.0 and abs(beta - 1.0) < 1e-15
        assert not focal

    def test_focal_endpoint(self):
        lam, mu, alpha, beta, focal = parallel_data(1.0, 1.0, C)
        assert lam == 0.0 and mu == np.inf and focal

    def test_large_radius_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for r, t, c in [(400.0, 1.0, -4.0), (400.0, 350.0, -1.0), (30.0, 29.5, -4.0)]:
                s0 = mpmath.sqrt(-c) / 2
                q = mpmath.cosh(s0 * r) / mpmath.cosh(s0 * (r - t))
                want = (q**3 * mpmath.sinh(s0 * t) / s0, q**2)
                lam, mu, alpha, beta, focal = parallel_data(r, t, c)
                assert np.isfinite([lam, mu]).all() and not focal
                for got, ref in zip((alpha, beta), want):
                    assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_unbounded_data_raise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for r, t in [(np.inf, 1.0), (np.nan, 0.0), (400.0, 399.0), (800.0, 750.0)]:
                with pytest.raises(FocalRadius):
                    parallel_data(r, t, C)

    def test_lambda_collapses(self):
        for r in (0.5, 2.0, 5.0):
            lam = parallel_data(r, r - 1e-6, C)[0]
            assert lam < 1e-5 * np.sqrt(-C)

    def test_monotone(self):
        r = 2.0
        ts = np.linspace(0, r * 0.99, 40)
        lams = [parallel_data(r, t, C)[0] for t in ts]
        mus = [parallel_data(r, t, C)[1] for t in ts]
        assert np.all(np.diff(lams) < 0)
        assert np.all(np.diff(mus) > 0)

    def test_evolved_seminull_frame(self):
        # The frame built from alpha(t), beta(t) realizes the semi-null
        # relations with lambda(t) for the evolved operator -Z'(t) Z(t)^-1
        # acting on the parallel translation of the original (E1, E2, E3).
        G = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
        for r, c in [(1.0, -4.0), (0.6, -1.0), (2.3, -2.5)]:
            s0 = np.sqrt(-c) / 2
            lam0 = s0 * np.tanh(s0 * r)
            for t in np.linspace(0, 0.95 * r, 15):
                g, gp, h, hp = jacobi_scalars(lam0, t, c)
                Z = np.array([[g, 0, h], [0, g, 0], [0, h, g]])
                Zp = np.array([[gp, 0, hp], [0, gp, 0], [0, hp, gp]])
                M = -Zp @ np.linalg.inv(Z)
                lam, mu, alpha, beta, _ = parallel_data(r, t, c)
                E1 = np.array([beta, 0, 0])
                E2 = np.array([-(alpha**2) / (8 * beta**3), 1 / beta, -alpha / (2 * beta**2)])
                E3 = np.array([alpha / (2 * beta), 0, 1.0])
                assert np.abs(M @ E1 - lam * E1).max() < 1e-10
                assert np.abs(M @ E2 - (lam * E2 + E3)).max() < 1e-10
                assert np.abs(M @ E3 - (E1 + lam * E3)).max() < 1e-10
                gram = np.array([v1 @ G @ v2 for v1 in (E1, E2, E3) for v2 in (E1, E2, E3)])
                expect = np.array([0, 1, 0, 1, 0, 0, 0, 0, 1.0])
                assert np.abs(gram - expect).max() < 1e-10
                assert beta > 0 and alpha >= 0


class TestCharPoly:
    def test_degree(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 2 * n - 2))
            poly = tube_char_poly(n, k, 1.0, np.pi / 3 if k > 1 else np.pi / 2, C)
            assert len(poly) - 1 == 2 * n - 1

    def test_trace_is_mean_curvature(self):
        # oracle for the identity: (k-1) coth + tanh-terms reassemble into
        # the closed mean-curvature formula, independently of phi
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 2 * n - 2))
            r = float(rng.uniform(0.05, 3.0))
            phi = np.pi / 2 if k == 1 else float(rng.uniform(0, np.pi / 2))
            c = float(rng.choice([-4.0, -1.0]))
            roots = tube_char_roots(n, k, r, phi, c)
            H = tube_mean_curvature(n, k, r, c)
            assert abs(roots.sum() - H) < 1e-9 * abs(H)

    def test_hopf_value_at_angle_zero(self):
        # oracle: evaluate the cubic at sqrt(-c) coth(r sqrt(-c))
        for r in (0.5, 1.0, 2.0):
            lam = np.tanh(r)
            x = 2 / np.tanh(2 * r)
            val = np.polyval(angle_factor_cubic(lam, 0.0, C), x)
            assert abs(val) < 1e-12
            roots = tube_char_roots(3, 2, r, 0.0, C)
            assert np.abs(roots - x).min() < 1e-8

    def test_k1_reading_drops_mu_root(self):
        # mu = -c/(4 lam) is an exact root of the pi/2 cubic, so the k = 1
        # polynomial is the quadratic factor times (lam - x)^(2n-3)
        r, n = 0.8, 3
        lam = np.tanh(r)
        mu = 1 / lam
        assert abs(np.polyval(angle_factor_cubic(lam, np.pi / 2, C), mu)) < 1e-12
        roots = tube_char_roots(n, 1, r, np.pi / 2, C)
        assert len(roots) == 2 * n - 1
        assert np.abs(roots - mu).min() > 0.1  # mu itself does not appear

    def test_invalid_codimension(self):
        with pytest.raises(InvalidCodimension):
            tube_char_poly(3, 4, 1.0, 0.0, C)  # k = 2n-2 excluded
        with pytest.raises(FocalRadius):
            tube_char_poly(3, 2, 0.0, 0.0, C)

    @pytest.mark.parametrize(
        "n, k, r, error",
        [
            (3, 2, 0.0, FocalRadius),
            (3, 2, -1.0, FocalRadius),
            (3, 2, float("nan"), FocalRadius),
            (3, 9, 1.0, InvalidCodimension),
        ],
        ids=["zero-radius", "negative-radius", "nan-radius", "k-too-large"],
    )
    def test_roots_validate_like_poly(self, n, k, r, error):
        with pytest.raises(error):
            tube_char_roots(n, k, r, 0.0, C)

    @pytest.mark.parametrize(
        "k, r, c",
        [(1, 1e-310, C), (2, 1e-310, C), (3, 1e-310, C), (3, 1e-300, -1e-300)],
        ids=["k1-subnormal-r", "k2-subnormal-r", "k3-subnormal-r", "lam-underflows"],
    )
    def test_non_finite_factors_raise_focal_radius(self, k, r, c):
        # at a subnormal r, mu = s0 coth(s0 r) and mu - lam overflow; at
        # c = r = 1e-300, lam underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (tube_char_poly, tube_char_roots):
                with pytest.raises(FocalRadius, match="not finite"):
                    call(3, k, r, np.pi / 2 if k == 1 else np.pi / 4, c)

    def test_roots_against_mpmath_of_the_expanded_cubic(self):
        # oracle: the roots of the angle cubic in its expanded x form,
        # -x^3 + (-c/(4 lam) + 3 lam) x^2 + (c - 6 lam^2) x / 2
        # + (16 lam^4 - 16 c lam^2 - c^2 + (c + 4 lam^2)^2 cos 2 phi) / (32 lam),
        # at 80 digits (for k = 1 without its root mu), and lam, mu with their
        # powers.  Worst relative error of a root over these cells: 8.0e-16.
        # Solving the expanded cubic in float64 instead reaches 3.7e-8 on
        # them (at s0 r = 12), and 1.6e-5 on other draws at s0 r = 1e-6
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2)
        worst = 0.0
        with mp.workdps(80):
            for s0r in (1e-6, 1e-4, 0.01, 1, 3, 5, 8, 12, 20, 30, 50):
                for c in (-1e-6, -4.0, -100.0):
                    for _ in range(3):
                        n = int(rng.integers(2, 21))
                        k = int(rng.integers(1, 2 * n - 2))
                        phi = np.pi / 2 if k == 1 else float(rng.uniform(0, np.pi / 2))
                        r = s0r / (np.sqrt(-c) / 2)
                        s0, cc, ph = mp.sqrt(-mp.mpf(c)) / 2, mp.mpf(c), mp.mpf(phi)
                        lam, mu = s0 * mp.tanh(s0 * r), s0 / mp.tanh(s0 * r)
                        cubic = [-1, -cc / (4 * lam) + 3 * lam, (cc - 6 * lam**2) / 2,
                                 (16 * lam**4 - 16 * cc * lam**2 - cc**2
                                  + (cc + 4 * lam**2) ** 2 * mp.cos(2 * ph)) / (32 * lam)]
                        want = [mp.re(x) for x in mp.polyroots(cubic, maxsteps=500, extraprec=400)]
                        if k == 1:
                            want.remove(min(want, key=lambda x: abs(x - mu)))
                        want = sorted(want + [lam] * (2 * n - k - 2) + [mu] * max(k - 2, 0))
                        got = tube_char_roots(n, k, r, phi, c)
                        worst = max(worst, max(abs((x - y) / y) for x, y in zip(got, want)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_huge_curvature_answers(self, k):
        # at c = -1e300 and r = 0.5, s0 r = 2.5e149: lam = mu = s0 = 5e149 to
        # rounding and the top root is lam + mu = 2 s0; no c^2 is formed.
        # The polynomial's constant term, about s0^5, does overflow
        phi = np.pi / 2 if k == 1 else np.pi / 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = tube_char_roots(3, k, 0.5, phi, -1e300)
            with pytest.raises(FocalRadius, match="overflows"):
                tube_char_poly(3, k, 0.5, phi, -1e300)
        assert roots.tolist() == [5e149] * 4 + [1e150]

    def test_overflowing_coefficients_raise_focal_radius(self):
        # degree 19 at s0 = 5e34: the roots are finite, the coefficients not
        assert tube_char_roots(10, 3, 1.0, 0.7, -1e70)[-1] == pytest.approx(1e35)
        with pytest.raises(FocalRadius, match="overflows"):
            tube_char_poly(10, 3, 1.0, 0.7, -1e70)


class TestMeanCurvature:
    def test_minimal_ruled_limit(self):
        assert tube_mean_curvature(3, 1, 0.0, C) == 0.0
        assert abs(tube_mean_curvature(4, 1, 1e-8, C)) < 1e-6

    def test_frozen_example(self):
        # oracle: direct evaluation of the closed formula
        expect = (1 + 6 * np.sinh(1) ** 2) / (np.sinh(1) * np.cosh(1))
        H = tube_mean_curvature(3, 2, 1.0, C)
        assert abs(H - expect) < 1e-12
        assert abs(H - 5.121006065278155) < 1e-12
        assert abs(H - 5.1210) < 1e-3

    def test_focal_radius_error(self):
        with pytest.raises(FocalRadius):
            tube_mean_curvature(3, 2, 0.0, C)

    @pytest.mark.parametrize("r", [float("nan"), float("inf")])
    def test_rejects_non_finite_radius(self, r):
        with pytest.raises(FocalRadius):
            tube_mean_curvature(3, 2, r, C)

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (3, 3), (20, 30)])
    def test_large_radius_limit_without_overflow(self, n, k):
        # sinh(2 s0 r) overflows at r = 400; H tends to 2n s0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = tube_mean_curvature(n, k, 400.0, C)
        assert abs(H - 2 * n * np.sqrt(-C) / 2) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_k1_has_no_csch_term_at_a_subnormal_radius(self, n):
        # 1/sinh(2 s0 r) overflows at r = 1e-320, but for k = 1 its
        # coefficient k - 1 is zero: H = 2n s0 tanh(s0 r) = 2n r at c = -4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tube_mean_curvature(n, 1, 1e-320, C) == 2 * n * 1e-320

    @pytest.mark.parametrize("k", [2, 3])
    def test_overflowing_csch_raises_focal_radius(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FocalRadius, match="not finite"):
                tube_mean_curvature(4, k, 1e-320, C)


class TestTubeSpectrumValues:
    @pytest.mark.parametrize(
        "entries, hopf",
        [(((np.nan, 1, 1),), None), (((1.0, 1, 1), (np.inf, 2, 2)), None),
         (((1.0, 2, 2),), np.nan), (((1.0, 2, 2),), -np.inf)],
    )
    def test_tube_spectrum_rejects_non_finite(self, entries, hopf):
        with pytest.raises(ValueError, match="finite"):
            tg.TubeSpectrum(entries, hopf_value=hopf)

    def test_finite_spectrum_is_kept(self):
        spec = tg.TubeSpectrum(((2.0, 1, 1), (0.5, 2, 2)), hopf_value=2.0)
        assert spec.entries == ((0.5, 2, 2), (2.0, 1, 1))


class TestSpectrumFromPairs:
    # the one merge rule: neighbours within CLUSTER_TOL (1 + max|v|) merge to
    # the mean over all their copies, v0 + sum m_i (v_i - v0) / sum m_i

    def test_lone_pair_is_kept_bit_for_bit(self):
        values = [0.1 + 0.2, 1 / 3, -0.0, 7e300]
        spec = tg.spectrum_from_pairs([(v, 5) for v in values])
        assert spec.entries == tuple(sorted((v, 5, 5) for v in values))
        assert np.signbit(spec.entries[0][0])  # -0.0 keeps its sign

    def test_merged_run_takes_the_mean_over_all_copies(self):
        a, b = 1.0, 1.0 + 3e-8
        spec = tg.spectrum_from_pairs([(b, 1), (a, 3)])
        assert spec.entries == ((a + (b - a) / 4, 4, 4),)
        assert spec.entries[0][0] != (a + b) / 2  # not the mean of the distinct values

    def test_zero_multiplicity_is_dropped(self):
        # even a value that is not finite: it names no curvature
        spec = tg.spectrum_from_pairs([(2.0, 1), (1.0, 0), (np.inf, 0)], hopf_value=2.0)
        assert spec.entries == ((2.0, 1, 1),) and spec.dim == 1 and spec.hopf_value == 2.0

    @pytest.mark.parametrize(
        "values", [[np.inf], [-np.inf, 1.0], [1.0, np.nan], [np.inf, 1.0], [-np.inf], [np.nan]], ids=str
    )
    def test_non_finite_value_raises_without_a_warning(self, values):
        # the merge tolerance scales with the larger value, so inf or NaN
        # would swallow its neighbour into one entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                tg.spectrum_from_pairs([(v, 2) for v in values])

    def test_negative_multiplicity_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            tg.spectrum_from_pairs([(1.0, 2), (1.0, -1)])

    def test_char_spectrum_is_the_roots_pairs(self):
        # tube_char_spectrum passes lam, mu and the angle factor's roots as
        # pairs; it equals the pairs of ones of tube_char_roots, with the
        # closed-form lam = tanh(r) and mu = coth(r) (c = -4) bit for bit
        rng = np.random.default_rng(27)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            k, r, phi = int(rng.integers(1, 2 * n - 2)), float(rng.uniform(0.05, 3.0)), float(rng.uniform(0, np.pi / 2))
            got = tg.tube_char_spectrum(n, k, r, phi, C)
            want = tg.spectrum_from_pairs([(x, 1) for x in tube_char_roots(n, k, r, phi, C)])
            assert [e[1:] for e in got.entries] == [e[1:] for e in want.entries]
            assert np.allclose(got.values, want.values, rtol=1e-15, atol=0)
            for value, power in [(np.tanh(r), 2 * n - k - 2), (1 / np.tanh(r), k - 2)]:
                assert power < 1 or (value, power, power) in got.entries


class TestTubeSpec:
    @pytest.mark.parametrize("r", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_radius_outside_open_half_line(self, r):
        W = build_w(random_subspace(2, 2, seed=5), 3, C)
        with pytest.raises(FocalRadius):
            TubeSpec(W, r)


class TestStandardSpectra:
    def test_tube_chk_example(self):
        spec = standard_spectrum("tube-chk", 3, r=1.0, c=C, k=1)
        values = {round(v, 12): (a, g) for v, a, g in spec.entries}
        assert values[round(np.tanh(1), 12)] == (2, 2)
        assert values[round(1 / np.tanh(1), 12)] == (2, 2)
        assert values[round(2 / np.tanh(2), 12)] == (1, 1)
        assert abs(spec.hopf_value - 2 / np.tanh(2)) < 1e-15

    def test_horosphere(self):
        for n in (2, 3, 5):
            spec = standard_spectrum("horosphere", n, c=C)
            assert spec.entries == ((1.0, 2 * n - 2, 2 * n - 2), (2.0, 1, 1))
            assert spec.hopf_value == 2.0

    def test_rhn_merging_radius(self):
        r_star = np.log(2 + np.sqrt(3)) / np.sqrt(-C)
        spec = standard_spectrum("tube-rhn", 3, r=r_star, c=C)
        # lambda_1 = lambda_3 merge into one entry
        assert len(spec.entries) == 2
        mults = sorted(a for _, a, _ in spec.entries)
        assert mults == [2, 3]

    def test_lohnherr(self):
        spec = lohnherr_spectrum(3, C)
        assert spec.entries == ((-1.0, 1, 1), (0.0, 3, 3), (1.0, 1, 1))
        assert spec.trace() == 0.0

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            standard_spectrum("tube-chk", 3, r=1.0, c=C, k=5)
        with pytest.raises(InvalidK):
            standard_spectrum("nonsense", 3, r=1.0, c=C)

    @pytest.mark.parametrize("example", ["tube-chk", "tube-rhn", "horosphere"])
    @pytest.mark.parametrize("r", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_radius(self, example, r):
        # the horosphere ignores r, but a radius that is given must be finite
        with pytest.raises(FocalRadius):
            standard_spectrum(example, 3, r=r, c=C, k=1)

    @pytest.mark.parametrize("example", ["tube-chk", "tube-rhn"])
    def test_rejects_radius_whose_curvatures_overflow(self, example):
        # s0 / tanh(s0 r) is inf at a subnormal r
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FocalRadius):
                standard_spectrum(example, 3, r=1e-320, c=C, k=1)


class TestTubeSpectrumAt:
    def test_complex_normal_space_matches_chk(self):
        # w = C^1 inside C^2 (n = 3): W_w is a totally geodesic CH^2,
        # i.e. the k_CH = n - k/2 = 2 example
        w = subspace_from_blocks(2, [(0.0, 2)])
        W = build_w(w, 3, C)
        spec = TubeSpec(W, 0.9)
        xi = normal_vector(W, [1.0, 0.0])
        assert normal_kahler_angle(W, xi) < 1e-9
        got = tube_spectrum_at(spec, xi)
        expect = standard_spectrum("tube-chk", 3, r=0.9, c=C, k=2)
        assert got.matches(expect, tol=1e-9)

    def test_trace_equals_mean_curvature(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = n - 1
            k = int(rng.integers(1, 2 * n - 2))
            W = build_w(random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, C)
            spec = TubeSpec(W, float(rng.uniform(0.2, 2.0)))
            xi = normal_vector(W, rng.standard_normal(k))
            got = tube_spectrum_at(spec, xi)
            assert abs(got.trace() - tube_mean_curvature(n, k, spec.r, C)) < 1e-9

    def test_nonconstant_angle_gives_varying_spectra(self):
        # w = a real line in C^2: w_perp has angles {0, pi/2}
        w = random_subspace(2, 1, seed=4)
        W = build_w(w, 3, C)
        spec = TubeSpec(W, 1.0)
        angles = []
        spectra = []
        for coefs in np.eye(3):
            xi = normal_vector(W, coefs + 0.1)
            angles.append(normal_kahler_angle(W, xi))
            spectra.append(tube_spectrum_at(spec, xi))
        assert max(angles) - min(angles) > 0.1
        assert not spectra[0].matches(spectra[np.argmax(angles)], tol=1e-6)

    def test_rejects_non_normal(self):
        w = random_subspace(2, 1, seed=5)
        W = build_w(w, 3, C)
        spec = TubeSpec(W, 1.0)
        bad = ANVector(1.0, np.zeros(2, complex), 0.0, C)
        with pytest.raises(NotNormal):
            tube_spectrum_at(spec, bad)


class TestNumericShapeOperator:
    def test_matches_char_roots(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            m = n - 1
            k = int(rng.integers(1, 2 * n - 2))
            W = build_w(random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, C)
            spec = TubeSpec(W, float(rng.uniform(0.2, 2.5)))
            xi = normal_vector(W, rng.standard_normal(k))
            S = numeric_shape_operator(spec, xi)
            evals = np.linalg.eigvalsh(0.5 * (S + S.T))
            phi = normal_kahler_angle(W, xi)
            roots = tube_char_roots(n, k, spec.r, phi, C)
            assert np.abs(np.sort(evals) - roots).max() < 1e-8

    def test_symmetric_in_riemannian_frame(self):
        w = random_subspace(3, 2, seed=7)
        W = build_w(w, 4, C)
        spec = TubeSpec(W, 1.3)
        xi = normal_vector(W, [1.0, -0.5, 0.3, 0.8])
        S = numeric_shape_operator(spec, xi)
        assert np.abs(S - S.T).max() < 1e-10

    @pytest.mark.parametrize("k", [2, 3])
    def test_lost_symmetry_raises_focal_radius(self, k):
        # at r = 20 the evolution is finite but no longer symmetric
        W = build_w(random_subspace(3, 6 - k, seed=3), 4, C)
        xi = normal_vector(W, np.ones(k))
        assert np.isfinite(tube_char_roots(4, k, 20.0, normal_kahler_angle(W, xi), C)).all()
        with pytest.raises(FocalRadius, match="not symmetric.*1e-8"):
            numeric_shape_operator(TubeSpec(W, 20.0), xi)

    def test_complex_case_diagonalizes_to_chk(self):
        w = subspace_from_blocks(3, [(0.0, 2)])  # C^1 in C^3, n = 4, k = 4
        W = build_w(w, 4, C)
        spec = TubeSpec(W, 0.7)
        xi = normal_vector(W, [1.0, 0.0, 0.0, 0.0])
        S = numeric_shape_operator(spec, xi)
        evals = np.sort(np.linalg.eigvalsh(0.5 * (S + S.T)))
        expect = standard_spectrum("tube-chk", 4, r=0.7, c=C, k=2).expanded()
        assert np.abs(evals - expect).max() < 1e-9


def eigen_weights(S, u):
    """Sorted eigenvalues of S, and per eigenspace its dimension and the
    weight |u|^2 of u on it: invariants of a rotation of the frame."""
    evals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    weights = (vecs.T @ u) ** 2
    runs = cluster(evals, 1e-7 * (1.0 + np.abs(evals[1:])))
    return evals, [(len(evals[run]), weights[run].sum()) for run in runs]


class TestTubeOperatorOracle:
    # the full-frame evolution on the frames of build_w against the
    # per-column assembly on the frames of the row-by-row build_w
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 30])
    def test_matches_per_column_assembly(self, n):
        rng = np.random.default_rng(n)
        m = n - 1
        for k in sorted({1, 2 * n - 3}):
            for r in np.exp(rng.uniform(np.log(0.05), np.log(3.0), 4)):
                w = random_subspace(m, 2 * m - k, int(rng.integers(2**31)))
                W = build_w(w, n, C)
                xi = normal_vector(W, rng.standard_normal(k))
                S = numeric_shape_operator(TubeSpec(W, r), xi)
                got = np.linalg.eigvalsh(0.5 * (S + S.T))
                S, _ = oracle.tube_operator_frame(oracle.build_w(w, n, C), r, xi)
                want = np.linalg.eigvalsh(0.5 * (S + S.T))
                assert len(got) == 2 * n - 1
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_does_not_use_the_block(self, monkeypatch):
        # the full-frame evolution is an independent check of _tube_block
        def refuse(*args):
            raise AssertionError("numeric_shape_operator called _tube_block")

        monkeypatch.setattr(tg, "_tube_block", refuse)
        n, k, r = 4, 3, 0.8
        W = build_w(random_subspace(n - 1, 2 * (n - 1) - k, seed=12), n, C)
        xi = normal_vector(W, [1.0, -0.4, 0.7])
        S = numeric_shape_operator(TubeSpec(W, r), xi)
        roots = tube_char_roots(n, k, r, normal_kahler_angle(W, xi), C)
        assert np.abs(np.linalg.eigvalsh(0.5 * (S + S.T)) - roots).max() < 1e-8


def oracle_lift_weights(w, n, r, xi):
    """Sorted eigenvalues and per eigenspace (dimension, |b|) of the per-column
    assembly on the frames of the row-by-row build_w."""
    S, u = oracle.tube_operator_frame(oracle.build_w(w, n, C), r, xi)
    evals, runs = eigen_weights(S, -u)
    return evals, [(d, np.sqrt(x)) for d, x in runs]


def block_lift_weights(data):
    """The same invariants of tube_lift_data: the expanded spectrum, and per
    entry its multiplicity and the norm of b on its run."""
    ents = data.spectrum_down.entries
    starts = np.cumsum([0] + [a for _, a, _ in ents])
    return data.spectrum_down.expanded(), [
        (a, np.linalg.norm(data.b[s:s + a])) for (_, a, _), s in zip(ents, starts)
    ]


def coordinate_subspace(m, rows):
    """The RealSubspace of C^m spanned by the given interleaved coordinates."""
    return RealSubspace(m, np.eye(2 * m)[sorted(rows)])


class TestTubeBlock:
    # tube_lift_data on the coupled block against the per-column assembly
    def assert_matches_oracle(self, w, n, r, xi):
        W = build_w(w, n, C)
        data = tube_lift_data(TubeSpec(W, r), xi)
        got, got_b = block_lift_weights(data)
        want, want_b = oracle_lift_weights(w, n, r, xi)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert [d for d, _ in got_b] == [d for d, _ in want_b]
        assert np.allclose([x for _, x in got_b], [x for _, x in want_b], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 30])
    def test_matches_per_column_assembly(self, n):
        rng = np.random.default_rng(100 + n)
        m = n - 1
        for k in sorted({1, 2, n, 2 * n - 3} & set(range(1, 2 * n - 2))):
            for r in np.exp(rng.uniform(np.log(0.05), np.log(3.0), 3)):
                w = random_subspace(m, 2 * m - k, int(rng.integers(2**31)))
                xi = normal_vector(build_w(w, n, C), rng.standard_normal(k))
                self.assert_matches_oracle(w, n, r, xi)

    @pytest.mark.parametrize("n", [3, 4, 6, 10])
    def test_complex_and_totally_real_w_perp(self, n):
        rng = np.random.default_rng(200 + n)
        m = n - 1
        for r in (0.05, 0.7, 3.0):
            # phi = 0: w_perp = C^1, the first coordinate in a random unitary frame
            w = unitary_conjugate(coordinate_subspace(m, range(2, 2 * m)), n)
            W = build_w(w, n, C)
            xi = normal_vector(W, rng.standard_normal(2))
            assert normal_kahler_angle(W, xi) < 1e-7 and W.p_perp_basis.shape[0] == 0
            self.assert_matches_oracle(w, n, r, xi)
            # phi = pi/2: w_perp = R^m, the real coordinates in a random unitary frame
            w = unitary_conjugate(coordinate_subspace(m, range(1, 2 * m, 2)), n)
            W = build_w(w, n, C)
            xi = normal_vector(W, rng.standard_normal(m))
            assert abs(normal_kahler_angle(W, xi) - np.pi / 2) < 1e-7
            self.assert_matches_oracle(w, n, r, xi)

    @pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 4), (6, 9), (10, 3)])
    def test_bulk_multiplicities(self, n, k):
        m = n - 1
        W = build_w(random_subspace(m, 2 * m - k, seed=n + k), n, C)
        xi = normal_vector(W, np.arange(1.0, k + 1))
        lam, mu, m_lam, m_mu, block, u = tg._tube_block(TubeSpec(W, 0.9), xi)
        assert (m_lam, m_mu) == (2 * n - k - 2, max(k - 2, 0))
        assert block.shape == (len(u), len(u)) == ((2, 2) if k == 1 else (3, 3))
        assert abs(lam - np.tanh(0.9)) <= 1e-15 and abs(mu - 1 / np.tanh(0.9)) <= 1e-15
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_subnormal_radius(self):
        # s0 / tanh(s0 r) overflows at r = 1e-310: mu (k = 3) and the F xi
        # column of the block are not finite
        n = 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = build_w(random_subspace(n - 1, 2 * (n - 1) - 3, seed=3), n, C)
            xi = normal_vector(W, [1.0, 2.0, 3.0])
            for call in (tube_lift_data, numeric_shape_operator):
                with pytest.raises(FocalRadius, match="not finite"):
                    call(TubeSpec(W, 1e-310), xi)
            # for k = 1, mu has multiplicity 0 and the tube tends to W_w
            # itself, the minimal ruled hypersurface
            W = build_w(random_subspace(n - 1, 2 * (n - 1) - 1, seed=3), n, C)
            data = tube_lift_data(TubeSpec(W, 1e-310), normal_vector(W, [1.0]))
        assert data.spectrum_down.matches(lohnherr_spectrum(n, C), tol=1e-12)

    def test_inconsistent_frames_trip_the_coupling_guard(self):
        W = build_w(random_subspace(3, 3, seed=11), 4, C)
        xi = normal_vector(W, [1.0, 0.5, -0.3])
        tube_lift_data(TubeSpec(W, 1.0), xi)
        # w_perp rows 1e-10 too long: still normal within NORMAL_TOL, but
        # the coupling read off the frames is no longer s0 P J xi
        bad = dataclasses.replace(W, w_perp_basis=(1 + 1e-10) * W.w_perp_basis)
        with pytest.raises(NotNormal, match="coupling"):
            tube_lift_data(TubeSpec(bad, 1.0), xi)

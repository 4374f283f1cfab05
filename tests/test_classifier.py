"""Tests for the decision procedures and the moduli enumeration."""

import numpy as np
import pytest

from isoparam import (
    DuplicateEigenvalue,
    FocalRadius,
    InvalidK,
    JordanClassification,
    ParityViolation,
    PoleAtP,
    WNotProper,
    cartan_residual,
    check_type_constraints,
    classify,
    classify_lift,
    complement,
    enumerate_profiles,
    hopf_lift_data,
    inside_cartan_phi,
    kahler_profile,
    random_subspace,
    standard_spectrum,
    subspace_from_blocks,
)

C = -4.0
PI2 = np.pi / 2


def fake_classification(jtype, real_eigs, complex_pair=None, epsilon=None, dim=6):
    """Constraint checks only read the eigendata, so a stub basis is fine."""
    return JordanClassification(
        jtype=jtype,
        real_eigs=tuple(real_eigs),
        complex_pair=complex_pair,
        epsilon=epsilon,
        adapted_basis=np.eye(dim),
        diag=(),
        dim=dim,
    )


class TestCartanResidual:
    def test_single_eigenvalue_empty_sum(self):
        assert cartan_residual([(1.3, 5)], 0, C) == 0.0

    def test_tanh_coth_pair_vanishes(self):
        # c + 4 lambda mu = -4 + 4 tanh coth = 0 kills every term
        spectrum = [(np.tanh(1), 3), (1 / np.tanh(1), 7)]
        assert abs(cartan_residual(spectrum, 0, C)) < 1e-12
        assert abs(cartan_residual(spectrum, 1, C)) < 1e-12

    def test_hand_evaluated_example(self):
        # oracle: 3 * (-4 + 4*0.5*1.0) / (0.5 - 1.0) = 3 * (-2) / (-0.5) = 12
        assert abs(cartan_residual([(0.5, 2), (1.0, 3)], 0, C) - 12.0) < 1e-12

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEigenvalue):
            cartan_residual([(1.0, 2), (1.0, 3)], 0, C)


class TestInsideCartanPhi:
    def test_positive_case(self):
        value, pred = inside_cartan_phi(1.0, 2.0, C)
        assert abs(value - 4.0) < 1e-12
        assert pred is True
        # oracle arithmetic: |1 - 1| = 0 < |2 - 0.5| = 1.5

    def test_negative_case(self):
        value, pred = inside_cartan_phi(0.4, 2.0, C)
        assert abs(value + 0.5) < 1e-12
        assert pred is False
        # oracle arithmetic: |0.4 - 2.5| = 2.1 > 1.5

    def test_degenerate_p(self):
        # p + c/(4p) = 0: the condition is vacuously false and phi < 0
        for x in (0.5, 2.0, 7.0):
            value, pred = inside_cartan_phi(x, 1.0, C)
            assert abs(value + 4.0) < 1e-12
            assert pred is False

    def test_pole(self):
        with pytest.raises(PoleAtP):
            inside_cartan_phi(2.0, 2.0, C)

    def test_sign_agreement_grid(self):
        xs = np.linspace(0.01, 4.0, 100)
        ps = np.linspace(0.05, 4.0, 100)
        for p in ps:
            for x in xs:
                if abs(x - p) < 1e-9:
                    continue
                value, pred = inside_cartan_phi(float(x), float(p), C)
                assert (value > 0) == pred


class TestTypeConstraints:
    def test_type_ii_at_half(self):
        cls = fake_classification("II", [(1.0, 5, 4)])
        report = check_type_constraints(cls, C)
        assert report.admissible

    def test_type_iii_out_of_range_fails(self):
        cls = fake_classification("III", [(1.2, 6, 4)])
        report = check_type_constraints(cls, C)
        assert not report.admissible
        failed = {ch.name for ch in report.checks if not ch.passed}
        assert "lambda_inside" in failed

    def test_type_iv_from_rhn_lift(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = standard_spectrum("tube-rhn", 3, r=float(rng.uniform(0.2, 2.5)), c=C)
            cls = classify_lift(hopf_lift_data(spec, C))
            report = check_type_constraints(cls, C)
            assert report.admissible
            by_name = {ch.name: ch.residual for ch in report.checks}
            assert by_name["a2b2c_equality"] < 1e-9
            assert all(
                ch.residual < 1e-9 for ch in report.checks if ch.name == "xiao_relation"
            )


class TestClassify:
    def test_hyperplane_is_case_iv(self):
        for n in (2, 3, 5):
            w = random_subspace(n - 1, 2 * (n - 1) - 1, seed=n)
            report = classify(n, c=C, w=w, r=0.0)
            assert report.case == "iv"
            assert report.homogeneous
            assert report.constant_principal_curvatures
            assert report.k == 1

    def test_constant_angle_plane_is_case_v(self):
        # w_perp = the pi/3 plane in C^3 (n = 4, k = 2), even k
        w_perp = subspace_from_blocks(3, [(np.pi / 3, 2)])
        w = complement(w_perp)
        report = classify(4, c=C, w=w, r=1.0)
        assert report.case == "v"
        assert report.homogeneous
        assert report.k == 2
        assert abs(report.phi - np.pi / 3) < 1e-9

    def test_real_line_in_c2_is_case_vi(self):
        w = random_subspace(2, 1, seed=11)
        report = classify(3, c=C, w=w, r=1.0)
        assert report.case == "vi"
        assert not report.homogeneous
        assert not report.constant_principal_curvatures
        profile = report.invariant
        assert profile.entries == ((PI2, 1), (0.0, 2))

    def test_complex_normal_space_is_case_i(self):
        # w_perp = C e_1 in C^2 (n = 3): the core is a totally geodesic CH^2
        w_perp = subspace_from_blocks(2, [(0.0, 2)])
        w = complement(w_perp)
        report = classify(3, c=C, w=w, r=0.5)
        assert report.case == "i"
        assert report.homogeneous
        assert report.k == 2  # case i reports the complex dimension of the core

    def test_case_i_k_round_trip(self):
        # named-family k and subspace-derived k agree in case i
        for n, k_ch in [(3, 1), (4, 2), (5, 1)]:
            named = classify(n, family="tube-chk", k=k_ch, r=1.0)
            w_perp = subspace_from_blocks(n - 1, [(0.0, 2 * (n - k_ch))])
            derived = classify(n, c=C, w=complement(w_perp), r=1.0)
            assert named.case == derived.case == "i"
            assert named.k == derived.k == k_ch

    def test_named_families(self):
        assert classify(3, family="horosphere").case == "iii"
        assert classify(3, family="tube-rhn", r=1.0).case == "ii"
        assert classify(3, family="tube-chk", k=0, r=1.0).case == "i"
        assert classify(3, family="tube-chk", k=2, r=1.0).case == "i"
        assert classify(3, family="lohnherr", r=0.0).case == "iv"
        assert classify(3, family="horosphere").invariant == "F_H"
        assert classify(3, family="tube-chk", k=0, r=1.0).invariant == "F_o"

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            classify(4, k=3, angle=np.pi / 3, r=1.0)
        # odd k is fine at pi/2
        assert classify(4, k=3, angle=PI2, r=1.0).case == "v"

    def test_zero_radius_only_for_ruled_hypersurface(self):
        w = random_subspace(2, 2, seed=13)
        with pytest.raises(FocalRadius):
            classify(3, c=C, w=w, r=0.0)

    def test_report_depends_only_on_congruence_class(self):
        from isoparam import unitary_conjugate

        rng = np.random.default_rng(17)
        w = random_subspace(3, 2, seed=19)
        base = classify(4, c=C, w=w, r=1.0)
        for _ in range(10):
            w2 = unitary_conjugate(w, int(rng.integers(2**31)))
            report = classify(4, c=C, w=w2, r=1.0)
            assert report.case == base.case
            assert report.invariant.matches(base.invariant, angle_tol=1e-8)

    def test_rejects_full_subspace(self):
        w = random_subspace(2, 4, seed=23)
        with pytest.raises(WNotProper):
            classify(3, c=C, w=w, r=1.0)

    @pytest.mark.parametrize("r", [float("nan"), float("inf")])
    def test_rejects_non_finite_radius(self, r):
        w = random_subspace(2, 1, seed=3)
        with pytest.raises(FocalRadius):
            classify(3, c=C, w=w, r=r)
        with pytest.raises(FocalRadius):
            classify(3, c=C, family="tube-rhn", r=r)


class TestEnumerateProfiles:
    def test_n2_trivial_cases(self):
        # no constant-angle or nonconstant families exist for n = 2
        fams0 = enumerate_profiles(2, 0)
        assert len(fams0) == 1 and fams0[0].entries == ()
        fams1 = enumerate_profiles(2, 1)
        assert len(fams1) == 1
        assert fams1[0].entries == ((PI2, 1),)
        assert fams1[0].free_count == 0

    def test_ch3_uniqueness(self):
        fams = enumerate_profiles(3, 3)
        assert len(fams) == 1
        assert fams[0].entries == ((0.0, 2), (PI2, 1))
        assert fams[0].free_count == 0

    def test_n3_k2_single_free_family(self):
        fams = enumerate_profiles(3, 2)
        assert len(fams) == 1
        assert fams[0].entries == ((None, 2),)
        assert fams[0].free_count == 1

    def test_max_codimension_profile_general_n(self):
        # k = 2n-3 always gives exactly {(0, 2n-4), (pi/2, 1)}
        for n in (3, 4, 5, 6):
            fams = enumerate_profiles(n, 2 * n - 3)
            assert len(fams) == 1
            assert fams[0].entries == ((0.0, 2 * n - 4), (PI2, 1)) if n > 2 else True

    def test_invalid_range(self):
        with pytest.raises(InvalidK):
            enumerate_profiles(3, 4)

    def test_families_have_witnesses(self):
        # every returned family is realized by an explicit subspace
        for n in range(2, 6):
            for k in range(0, 2 * n - 2):
                for fam in enumerate_profiles(n, k):
                    free_angles = [
                        np.pi / 3 + 0.2 * i for i in range(fam.free_count)
                    ]
                    profile = fam.at(*free_angles)
                    blocks = list(profile.entries)
                    W = subspace_from_blocks(n - 1, blocks)
                    got, _, _ = kahler_profile(W)
                    assert got.matches(profile, angle_tol=1e-9)

    @pytest.mark.parametrize("angles", [(), (0.5, 0.7)])
    def test_at_rejects_wrong_angle_count(self, angles):
        # (None, 2), (pi/2, 1): one free angle
        fam = enumerate_profiles(4, 3)[0]
        assert fam.free_count == 1
        with pytest.raises(ValueError, match="free_count"):
            fam.at(*angles)

    def test_at_takes_free_count_angles(self):
        fam = enumerate_profiles(4, 3)[0]
        assert fam.at(0.5).entries == ((PI2, 1), (0.5, 2))

    def test_random_subspaces_land_in_some_family(self):
        from isoparam.classifier import _specializes

        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            kw = int(rng.integers(1, 2 * (n - 1) + 1))  # dim w >= 1
            k = 2 * (n - 1) - kw
            w = random_subspace(n - 1, kw, int(rng.integers(2**31)))
            profile, _, _ = kahler_profile(complement(w))
            # stratum signature of the observed profile
            m0 = sum(m for a, m in profile.entries if a < 1e-7)
            p = sum(m for a, m in profile.entries if a > PI2 - 1e-7)
            interior = tuple(
                sorted(m for a, m in profile.entries if 1e-7 <= a <= PI2 - 1e-7)
            )
            stratum = (m0, interior, p)
            fams = enumerate_profiles(n, k)
            strata = []
            for fam in fams:
                fm0 = sum(m for a, m in fam.entries if a == 0.0)
                fp = sum(m for a, m in fam.entries if a is not None and a > 1.0)
                ffree = tuple(sorted(m for a, m in fam.entries if a is None))
                strata.append((fm0, ffree, fp))
            assert any(_specializes(stratum, s) for s in strata)

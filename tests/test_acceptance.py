"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single PASS line when its assertions hold, so running
`pytest tests/test_acceptance.py -v -s` gives a per-criterion report.
"""

import time

import numpy as np

import isoparam as iso
from isoparam.solvable_model import ANVector
from isoparam.verification import RunConfig, verify_suites


def report(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def normal_vector(W, coefs):
    v = W.w_perp_basis.T @ np.asarray(coefs, dtype=float)
    v /= np.linalg.norm(v)
    return ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, W.c)


def test_01_hopf_spectra_closed_forms():
    """Remark-style closed forms for the three Hopf families, 1e-12."""
    start = time.perf_counter()
    for n in range(2, 7):
        for r in (0.25, 1.0, 2.5):
            for c in (-1.0, -4.0):
                s0 = np.sqrt(-c) / 2
                for k in range(0, n):
                    spec = iso.standard_spectrum("tube-chk", n, r=r, c=c, k=k)
                    expect = sorted(
                        [(s0 * np.tanh(s0 * r), 2 * k), (s0 / np.tanh(s0 * r), 2 * (n - k - 1)), (2 * s0 / np.tanh(2 * s0 * r), 1)]
                    )
                    expect = [(v, m) for v, m in expect if m > 0]
                    assert len(spec.entries) == len(expect)
                    for (v, a, g), (ev, em) in zip(spec.entries, expect):
                        assert abs(v - ev) <= 1e-12
                        assert a == em and g == em
                spec = iso.standard_spectrum("tube-rhn", n, r=r, c=c)
                expect = {}
                for v, m in [
                    (s0 * np.tanh(s0 * r), n - 1),
                    (s0 / np.tanh(s0 * r), n - 1),
                    (2 * s0 * np.tanh(2 * s0 * r), 1),
                ]:
                    for key in list(expect):
                        if abs(key - v) < 1e-7:
                            expect[key] += m
                            break
                    else:
                        expect[v] = m
                assert len(spec.entries) == len(expect)
                for (v, a, g), (ev, em) in zip(spec.entries, sorted(expect.items())):
                    assert abs(v - ev) <= 1e-12 and a == em
                spec = iso.standard_spectrum("horosphere", n, c=c)
                assert abs(spec.entries[0][0] - s0) <= 1e-12
                assert abs(spec.entries[1][0] - 2 * s0) <= 1e-12
                assert spec.entries[0][1] == 2 * n - 2 and spec.entries[1][1] == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"Hopf spectra match closed forms to 1e-12 ({elapsed:.3f}s)")


def test_02_trace_identity():
    """Char-poly trace equals the mean curvature, 200 samples, rel 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 2 * n - 2))
        r = float(rng.uniform(1e-6, 3.0))
        phi = np.pi / 2 if k == 1 else float(rng.uniform(0, np.pi / 2))
        c = float(rng.choice([-4.0, -1.0, -2.7]))
        roots = iso.tube_char_roots(n, k, r, phi, c)
        H = iso.tube_mean_curvature(n, k, r, c)
        assert abs(roots.sum() - H) <= 1e-9 * abs(H)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"trace identity relative error < 1e-9 on 200 samples ({elapsed:.3f}s)")


def test_03_focal_collapse():
    """g_mu(r) = 0 to 1e-12 on (0, 5]; lambda vanishes at the focal set."""
    for c in (-1.0, -4.0):
        s0 = np.sqrt(-c) / 2
        for r in np.linspace(1e-3, 5.0, 200):
            mu = s0 / np.tanh(s0 * r)
            g, _, _, _ = iso.jacobi_scalars(mu, r, c)
            assert abs(g) <= 1e-12
            lam = iso.parallel_data(r, max(0.0, r - 1e-6), c)[0]
            assert lam < 1e-5 * np.sqrt(-c)
    report(3, "focal collapse: g_mu(r) < 1e-12 and lambda(r - 1e-6) < 1e-5 sqrt(-c)")


def test_04_jordan_round_trip():
    """Lift -> classify -> project reproduces spectra; types match."""
    rng = np.random.default_rng(4)
    expected = {"tube-chk": "I", "horosphere": "II", "tube-rhn": "IV"}
    for fam, etype in expected.items():
        for _ in range(50):
            n = int(rng.integers(2, 7))
            r = float(rng.uniform(0.15, 2.8))
            c = float(rng.choice([-4.0, -1.0]))
            k = int(rng.integers(0, n)) if fam == "tube-chk" else None
            spec = iso.standard_spectrum(fam, n, r=r, c=c, k=k)
            cls = iso.classify_lift(iso.hopf_lift_data(spec, c))
            assert cls.jtype == etype, (fam, n, r, c, k, cls.jtype)
            down = iso.project_spectrum(cls, c)
            assert spec.matches(down, tol=1e-8)
    # W-tubes at nonzero angle lift to type III (k = 1 included: the
    # Lohnherr equidistants force the angle pi/2)
    checked = 0
    while checked < 25:
        n = int(rng.integers(2, 6))
        m = n - 1
        k = int(rng.integers(1, 2 * n - 2))
        W = iso.build_w(iso.random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, -4.0)
        spec = iso.TubeSpec(W, float(rng.uniform(0.3, 2.0)))
        xi = None
        for _ in range(60):
            cand = normal_vector(W, rng.standard_normal(k))
            if iso.normal_kahler_angle(W, cand) > 0.1:
                xi = cand
                break
        if xi is None:
            continue
        cls = iso.classify_lift(iso.tube_lift_data(spec, xi))
        assert cls.jtype == "III"
        lam = np.sqrt(4.0) / 2 * np.tanh(np.sqrt(4.0) / 2 * spec.r)
        assert abs(cls.defective_eig - lam) < 1e-8
        checked += 1
    report(4, "round trips reproduce spectra to 1e-8 with types I/II/IV; W-tubes are III")


def test_05_type_iv_algebra():
    """Xiao relation and 4a^2+4b^2+c = 0 for the RH^n-tube lift, 50 radii."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        r = float(rng.uniform(0.1, 3.0))
        c = float(rng.choice([-4.0, -1.0]))
        spec = iso.standard_spectrum("tube-rhn", n, r=r, c=c)
        cls = iso.classify_lift(iso.hopf_lift_data(spec, c))
        assert cls.jtype == "IV"
        a, b = cls.complex_pair
        for lam, _, _ in cls.real_eigs:
            assert abs(a * (4 * lam**2 - c) - lam * (4 * a**2 + 4 * b**2 - c)) < 1e-9
        assert abs(4 * a**2 + 4 * b**2 + c) < 1e-9
        lam = min((v for v, _, _ in cls.real_eigs), key=abs)
        hopf = 4 * c * lam / (c - 4 * lam**2)
        assert abs(2 * a - hopf) < 1e-9
        assert -np.sqrt(-c) < 2 * a < np.sqrt(-c)
    report(5, "type IV residuals < 1e-9 and Hopf value inside (-sqrt(-c), sqrt(-c))")


def test_06_cartan_residuals_and_phi_filter():
    """Residuals vanish for (lambda, -c/(4 lambda)) pairs; filter agrees on a grid."""
    for c in (-1.0, -4.0):
        s0 = np.sqrt(-c) / 2
        for r in np.linspace(0.05, 4.0, 100):
            lam = s0 * np.tanh(s0 * r)
            spectrum = [(lam, 3), (-c / (4 * lam), 5)]
            assert abs(iso.cartan_residual(spectrum, 0, c)) < 1e-9
            assert abs(iso.cartan_residual(spectrum, 1, c)) < 1e-9
    count = 0
    for p in np.linspace(0.05, 4.0, 100):
        for x in np.linspace(0.01, 4.0, 100):
            if abs(x - p) < 1e-9:
                continue
            value, predicate = iso.inside_cartan_phi(float(x), float(p), -4.0)
            assert (value > 0) == predicate
            count += 1
    assert count >= 9900
    report(6, f"Cartan pair residuals < 1e-9; phi-filter agreement on {count} grid points")


def test_07_kahler_invariance():
    """Profiles invariant under 1000 unitary conjugations; complements match."""
    rng = np.random.default_rng(7)
    for trial in range(1000):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(0, 2 * m + 1))
        W = iso.random_subspace(m, k, int(rng.integers(2**31)))
        p1 = iso.congruence_invariant(W)
        p2 = iso.congruence_invariant(iso.unitary_conjugate(W, int(rng.integers(2**31))))
        assert len(p1.entries) == len(p2.entries)
        for (a1, m1), (a2, m2) in zip(p1.entries, p2.entries):
            assert m1 == m2
            assert abs(a1 - a2) <= 1e-8
        q1 = p1.nonzero_entries()
        q2 = iso.congruence_invariant(iso.complement(W)).nonzero_entries()
        assert [m for _, m in q1] == [m for _, m in q2]
        assert all(abs(a1 - a2) <= 1e-8 for (a1, _), (a2, _) in zip(q1, q2))
    report(7, "1000 unitary conjugations preserve profiles; complements match exactly")


def test_08_group_model_consistency():
    """Connection, curvature, associativity and subgroup closure."""
    rng = np.random.default_rng(8)
    c = -4.0

    def rand_vec(n):
        return ANVector(
            rng.standard_normal(),
            rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1),
            rng.standard_normal(),
            c,
        )

    for _ in range(500):
        n = int(rng.integers(2, 6))
        X, Y, Z = rand_vec(n), rand_vec(n), rand_vec(n)
        torsion = iso.levi_civita(X, Y) - iso.levi_civita(Y, X) - iso.bracket(X, Y)
        assert iso.an_norm(torsion) <= 1e-9
        compat = iso.an_inner(iso.levi_civita(X, Y), Z) + iso.an_inner(Y, iso.levi_civita(X, Z))
        assert abs(compat) <= 1e-9
        R1 = iso.curvature_tensor(X, Y, Z)
        R2 = (
            iso.levi_civita(X, iso.levi_civita(Y, Z))
            - iso.levi_civita(Y, iso.levi_civita(X, Z))
            - iso.levi_civita(iso.bracket(X, Y), Z)
        )
        assert iso.an_norm(R1 - R2) <= 1e-9

    for _ in range(200):
        n = int(rng.integers(2, 6))
        p1, p2, p3 = (iso.ANPoint(0.7 * rand_vec(n)) for _ in range(3))
        left = iso.group_product(iso.group_product(p1, p2), p3).coords
        right = iso.group_product(p1, iso.group_product(p2, p3)).coords
        assert iso.an_norm(left - right) <= 1e-10

    for trial in range(5):
        n = int(rng.integers(2, 6))
        m = n - 1
        kw = int(rng.integers(1, 2 * m + 1))
        w = iso.random_subspace(m, kw, int(rng.integers(2**31)))
        W = iso.build_w(w, n, c) if kw < 2 * m else None
        p = iso.ANPoint.origin(n, c)
        for _ in range(200):
            a, x = 0.15 * rng.standard_normal(2)
            coefs = 0.2 * rng.standard_normal(kw)
            row = coefs @ w.basis
            p = iso.group_product(p, iso.ANPoint(ANVector(a, row[0::2] + 1j * row[1::2], x, c)))
        if W is not None:
            assert iso.contains_point(p, W, 1e-9)
    report(8, "group model: connection/curvature to 1e-9, associativity 1e-10, closure 1e-9")


def test_09_minimality_and_horocycles():
    """Exactly traceless shape operators; horocycle points stay in W_w."""
    rng = np.random.default_rng(9)
    c = -4.0
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = n - 1
        k = int(rng.integers(1, 2 * m + 1))
        W = iso.build_w(iso.random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, c)
        for xi in W.normal_frame():
            assert np.trace(iso.shape_operator(W, xi)) == 0.0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        m = n - 1
        kw = int(rng.integers(1, 2 * m))
        w = iso.random_subspace(m, kw, int(rng.integers(2**31)))
        W = iso.build_w(w, n, c)
        coefs = rng.standard_normal(kw)
        row = coefs @ w.basis
        row /= np.linalg.norm(row)
        U = ANVector(0.0, row[0::2] + 1j * row[1::2], 0.0, c)
        p = iso.ANPoint.origin(n, c)
        t = float(rng.uniform(-2.0, 2.0))
        p = iso.horocycle_point(p, U, t)
        assert iso.contains_point(p, W, 1e-9)
    report(9, "shape operators exactly traceless; 100 horocycle points inside W_w at 1e-9")


def test_10_ch3_uniqueness():
    """One admissible profile for (n, k) = (3, 3); realized by every 3-plane."""
    fams = iso.enumerate_profiles(3, 3)
    assert len(fams) == 1
    assert fams[0].entries == ((0.0, 2), (np.pi / 2, 1))
    target = fams[0].at()
    rng = np.random.default_rng(10)
    for _ in range(500):
        W = iso.random_subspace(2, 3, int(rng.integers(2**31)))
        profile = iso.congruence_invariant(W)
        assert profile.matches(target, angle_tol=1e-8)
    w = iso.random_subspace(2, 1, seed=int(rng.integers(2**31)))
    rep = iso.classify(3, c=-4.0, w=w, r=1.0)
    assert rep.case == "vi"
    assert not rep.homogeneous
    assert not rep.constant_principal_curvatures
    report(10, "(3,3) moduli is the single profile {(0,2),(pi/2,1)}; case vi, inhomogeneous")


def test_11_numeric_vs_formula_and_verify_runtime():
    """Numeric tube operator matches char-poly roots; verify all < 30 s."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = n - 1
        k = int(rng.integers(1, 2 * n - 2))
        W = iso.build_w(iso.random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, -4.0)
        spec = iso.TubeSpec(W, float(rng.uniform(0.2, 2.5)))
        xi = normal_vector(W, rng.standard_normal(k))
        S = iso.numeric_shape_operator(spec, xi)
        evals = np.sort(np.linalg.eigvalsh(0.5 * (S + S.T)))
        roots = iso.tube_char_roots(n, k, spec.r, iso.normal_kahler_angle(W, xi), -4.0)
        assert np.abs(evals - roots).max() <= 1e-8
    start = time.perf_counter()
    summary = verify_suites(RunConfig(seed=0))
    elapsed = time.perf_counter() - start
    assert summary["ok"], [
        ch for s in summary["suites"] for ch in s["checks"] if not ch["passed"]
    ]
    assert elapsed < 30.0
    report(11, f"numeric operator matches roots to 1e-8; verify all suites in {elapsed:.2f}s")

"""Randomized verification suites for the library invariants.

Each suite replays the defining identities of one module on seeded random
data and returns its checks as the dicts that `schemas/verify.json`
describes: failures are data, not exceptions.  Results are deterministic
in (seed, suite): every check derives its own generator from the run seed
and a fixed check index, so aggregation order does not matter.  Random
objects come from one sampler each: `_lorentz_operator`, `_random_w`,
`_unit_normal` and `_standard`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classifier, hopf_lift, indefinite_linalg as il, kahler_angle as ka
from . import solvable_model as sm
from . import tube_geometry as tg
from .errors import IsoparamError, check_curvature, check_seed

SUITES = ("cartan", "jordan", "tube", "kahler", "group", "lift")


@dataclass
class RunConfig:
    curvature_c: float = -4.0
    seed: int = 0

    def __post_init__(self):
        check_curvature(self.curvature_c)
        check_seed(self.seed)


def _rng(config: RunConfig, suite: str, index: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, SUITES.index(suite), index])


def _record(checks, module, name, residuals, tol, inputs=None):
    """Append one check record; a failed one names the input of its worst
    residual.  A worst residual that is inf or NaN fails and is recorded as None."""
    residuals = np.atleast_1d(np.asarray(residuals, dtype=float))
    max_res = float(residuals.max()) if residuals.size else 0.0
    check = {
        "module": module,
        "name": name,
        "samples": int(residuals.size),
        "max_residual": max_res if np.isfinite(max_res) else None,  # strict JSON
        "tol": tol,
        "passed": bool(max_res <= tol),
    }
    if not check["passed"] and inputs is not None:
        check["worst_input"] = inputs[int(np.argmax(residuals))]
    checks.append(check)


def _random_flat(rng, n) -> np.ndarray:
    """A random algebra element in flat coordinates, drawn as a, re U, im U, x."""
    a, re, im = rng.standard_normal(), rng.standard_normal(n - 1), rng.standard_normal(n - 1)
    out = np.empty(2 * n)
    out[0], out[1:-1:2], out[2:-1:2], out[-1] = a, re, im, rng.standard_normal()
    return out


def _lorentz_operator(rng, dim: int):
    """A random operator self-adjoint for diag(-1, 1, ..., 1); returns (A, gram)."""
    gram = np.diag([-1.0] + [1.0] * (dim - 1))
    S = rng.standard_normal((dim, dim))
    return np.linalg.solve(gram, 0.5 * (S + S.T)), gram


def _random_w(rng, n: int, k: int, cc: float) -> sm.SubmanifoldW:
    """W_w for a random w in C^(n-1) with dim w_perp = k."""
    m = n - 1
    w = ka.random_subspace(m, 2 * m - k, int(rng.integers(2**31)))
    return sm.build_w(w, n, cc)


def _unit_normal(rng, W: sm.SubmanifoldW, cc: float) -> sm.ANVector:
    """A random unit vector of w_perp, as a normal of W."""
    v = W.w_perp_basis.T @ rng.standard_normal(W.k)
    v /= np.linalg.norm(v)
    return sm.ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, cc)


def _standard(rng, fam: str, n: int, r: float, cc: float):
    """A named-family spectrum, drawing k for tube-chk; returns (spectrum, k)."""
    k = int(rng.integers(0, n)) if fam == "tube-chk" else None
    return tg.standard_spectrum(fam, n, r=r, c=cc, k=k), k


# ---------------------------------------------------------------------------
# suites


def _kahler_draws(rng, trials: int, k_min: int):
    """Draw (m, k, seed) per trial, in trial order; group the trials by (m, k).

    Returns the draws and a dict (m, k) -> (trial indices, seeds).
    """
    draws, groups = [], {}
    for trial in range(trials):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(k_min, 2 * m + 1))
        seed = int(rng.integers(2**31))
        draws.append({"m": m, "k": k, "seed": seed})
        idx, seeds = groups.setdefault((m, k), ([], []))
        idx.append(trial)
        seeds.append(seed)
    return draws, groups


def _profile_gap(e1, e2) -> float:
    """Largest angle difference of two entry lists; inf when the multiplicities differ."""
    if len(e1) != len(e2) or any(m1 != m2 for (_, m1), (_, m2) in zip(e1, e2)):
        return np.inf
    return max((abs(a1 - a2) for (a1, _), (a2, _) in zip(e1, e2)), default=0.0)


def _suite_kahler(config: RunConfig) -> list[dict]:
    """The Kahler-angle invariants, run as stacks: one QR / SVD / eigh per (m, k) group."""
    checks = []

    inputs, groups = _kahler_draws(_rng(config, "kahler", 0), 1000, 0)
    res = np.empty(len(inputs))
    for (m, k), (idx, seeds) in groups.items():
        B = ka.random_bases(m, k, seeds)
        base = ka.kahler_profiles(B)
        conj = ka.kahler_profiles(ka.unitary_images(B, [seed + 1 for seed in seeds]))
        for t, (pb, _, _), (pc, _, _) in zip(idx, base, conj):
            res[t] = _profile_gap(pb.entries, pc.entries)
    _record(checks, "kahler_angle", "profile_unitary_invariance", res, 1e-8, inputs)

    inputs, groups = _kahler_draws(_rng(config, "kahler", 1), 300, 0)
    res = np.empty(len(inputs))
    for (m, k), (idx, seeds) in groups.items():
        B = ka.random_bases(m, k, seeds)
        base = ka.kahler_profiles(B)
        comp = ka.kahler_profiles(ka._complement_rows(B, 2 * m))
        for t, (pb, _, _), (pc, _, _) in zip(idx, base, comp):
            res[t] = _profile_gap(pb.nonzero_entries(), pc.nonzero_entries())
    _record(checks, "kahler_angle", "complement_angle_matching", res, 1e-8, inputs)

    _, groups = _kahler_draws(_rng(config, "kahler", 2), 200, 1)
    res = np.empty(200)
    for (m, k), (idx, seeds) in groups.items():
        B = ka.random_bases(m, k, seeds)
        K = ka.apply_J(B) @ B.mT  # F in the basis coordinates
        res[idx] = np.abs(K + K.mT).max(axis=(1, 2))
    _record(checks, "kahler_angle", "f_skew_adjoint", res, 1e-10)

    _, groups = _kahler_draws(_rng(config, "kahler", 3), 200, 1)
    res = np.empty(200)
    for (m, k), (idx, seeds) in groups.items():
        B = ka.random_bases(m, k, seeds)
        profiles = ka.kahler_profiles(B)
        # each principal vector xi against its block's angle; F xi is the
        # projection of J xi onto W, one matrix-vector product per vector.
        # Contiguous rows: BLAS sums a strided vector in another order.
        xi = np.ascontiguousarray(np.stack([vecs for _, vecs, _ in profiles]))
        cos_sq = np.array([[np.cos(a) ** 2 for a, block in dec for _ in block]
                           for _, _, dec in profiles])
        rows = B[:, None]

        def project(v):
            return (rows.mT @ (rows @ v[..., None]))[..., 0]

        F = project(ka.apply_J(xi))
        F2 = project(ka.apply_J(F))
        res[idx] = np.abs(F2 + cos_sq[..., None] * xi).max(axis=(1, 2))
    _record(checks, "kahler_angle", "f_squared_identity", res, 1e-9)

    _, groups = _kahler_draws(_rng(config, "kahler", 4), 300, 0)
    res = np.empty(300)
    for (m, k), (idx, seeds) in groups.items():
        for t, (profile, _, _) in zip(idx, ka.kahler_profiles(ka.random_bases(m, k, seeds))):
            res[t] = sum(
                1
                for a, mult in profile.entries
                if a < np.pi / 2 - ka.ANGLE_TOL and mult % 2
            )
    _record(checks, "kahler_angle", "multiplicity_parity", res, 0.0)

    return checks


def _random_isometry(rng, gram: np.ndarray, scale: float = 0.3) -> np.ndarray:
    S = rng.standard_normal(gram.shape) * scale
    S = S - S.T
    K = np.linalg.solve(gram, S)
    # matrix exponential as its plain power series, 17 terms past the identity
    T = np.eye(gram.shape[0])
    term = np.eye(gram.shape[0])
    for i in range(1, 18):
        term = term @ K / i
        T = T + term
    return T


def _suite_jordan(config: RunConfig) -> list[dict]:
    checks = []

    rng = _rng(config, "jordan", 0)
    res = []
    for trial in range(100):
        A, gram = _lorentz_operator(rng, int(rng.integers(2, 6)))
        res.append(max(il.classify_jordan(A, gram).residuals(A, gram)))
    _record(checks, "indefinite_linalg", "canonical_basis_reconstruction", res, 1e-9)

    rng = _rng(config, "jordan", 1)
    res = []
    for trial in range(100):
        A, gram = _lorentz_operator(rng, int(rng.integers(2, 6)))
        cls = il.classify_jordan(A, gram)
        T = _random_isometry(rng, gram)
        cls2 = il.classify_jordan(np.linalg.solve(T, A @ T), gram)
        if cls.jtype != cls2.jtype or len(cls.real_eigs) != len(cls2.real_eigs):
            res.append(np.inf)
            continue
        worst = 0.0
        for (v1, a1, g1), (v2, a2, g2) in zip(cls.real_eigs, cls2.real_eigs):
            if a1 != a2 or g1 != g2:
                worst = np.inf
            worst = max(worst, abs(v1 - v2))
        if cls.complex_pair is not None:
            worst = max(
                worst,
                abs(cls.complex_pair[0] - cls2.complex_pair[0]),
                abs(cls.complex_pair[1] - cls2.complex_pair[1]),
            )
        res.append(worst)
    _record(checks, "indefinite_linalg", "conjugation_invariance", res, 1e-8)

    rng = _rng(config, "jordan", 2)
    res = []
    for trial in range(100):
        A, gram = _lorentz_operator(rng, 4)
        cls = il.classify_jordan(A, gram)
        worst = 0.0
        if any(a < g for _, a, g in cls.real_eigs):
            worst = np.inf
        # dense complex eigendecomposition oracle
        w = np.linalg.eigvals(A)
        for value, alg, geo in cls.real_eigs:
            count = int(np.sum(np.abs(w - value) <= 1e-6 * (1 + abs(value))))
            if count != alg:
                worst = np.inf
        res.append(worst)
    _record(checks, "indefinite_linalg", "alg_geo_vs_dense_oracle", res, 0.0)

    return checks


def _suite_group(config: RunConfig) -> list[dict]:
    checks = []
    cc = config.curvature_c

    rng = _rng(config, "group", 0)
    by_n: dict[int, list] = {}
    for trial in range(500):
        n = int(rng.integers(2, 6))
        by_n.setdefault(n, []).append([_random_flat(rng, n) for _ in range(3)])
    res_t, res_m, res_c, res_j = [], [], [], []
    for n, triples in by_n.items():
        X, Y, Z = np.moveaxis(np.array(triples), 1, 0)
        C = sm._structure(n, cc)
        G = sm._koszul(C)

        def br(U, V):
            return np.einsum("ti,tj,ijk->tk", U, V, C)

        def nab(U, V):
            return np.einsum("ti,tj,ijk->tk", U, V, G)

        res_t.extend(np.linalg.norm(nab(X, Y) - nab(Y, X) - br(X, Y), axis=1))
        res_m.extend(np.abs((nab(X, Y) * Z).sum(1) + (Y * nab(X, Z)).sum(1)))
        R1 = sm._curvature(X, Y, Z, sm._flat_J(n), cc)
        R2 = nab(X, nab(Y, Z)) - nab(Y, nab(X, Z)) - nab(br(X, Y), Z)
        res_c.extend(np.linalg.norm(R1 - R2, axis=1))
        cyc = br(X, br(Y, Z)) + br(Y, br(Z, X)) + br(Z, br(X, Y))
        res_j.extend(np.linalg.norm(cyc, axis=1))
    _record(checks, "solvable_model", "torsion_free", res_t, 1e-10)
    _record(checks, "solvable_model", "metric_compatibility", res_m, 1e-10)
    _record(checks, "solvable_model", "curvature_vs_connection", res_c, 1e-9)
    _record(checks, "solvable_model", "jacobi_identity", res_j, 1e-10)

    rng = _rng(config, "group", 1)
    res = []
    for trial in range(200):
        n = int(rng.integers(2, 6))
        p1, p2, p3 = (0.5 * _random_flat(rng, n) for _ in range(3))
        left = sm._product(sm._product(p1, p2, cc), p3, cc)
        right = sm._product(p1, sm._product(p2, p3, cc), cc)
        res.append(np.linalg.norm(left - right))
    _record(checks, "solvable_model", "associativity", res, 1e-10)

    rng = _rng(config, "group", 2)
    res = []
    for trial in range(20):
        n = int(rng.integers(2, 6))
        W = _random_w(rng, n, int(rng.integers(1, 2 * n - 1)), cc)
        p = np.zeros(2 * n)
        for _ in range(200):
            step = np.zeros(2 * n)
            step[0], step[-1] = 0.15 * rng.standard_normal(2)
            if W.w.dim:
                step[1:-1] = (0.2 * rng.standard_normal(W.w.dim)) @ W.w.basis
            p = sm._product(p, step, cc)
        res.append(np.linalg.norm(W.w_perp_basis @ p[1:-1]))
    _record(checks, "solvable_model", "subgroup_closure_200_factors", res, 1e-9)

    rng = _rng(config, "group", 3)
    res = []
    for trial in range(50):
        n = int(rng.integers(2, 6))
        W = _random_w(rng, n, int(rng.integers(1, 2 * n - 1)), cc)
        worst = 0.0
        for xi in W.normal_frame():
            worst = max(worst, abs(np.trace(sm.shape_operator(W, xi))))
        res.append(worst)
    _record(checks, "solvable_model", "minimality_exact_trace", res, 0.0)

    rng = _rng(config, "group", 5)
    res = []
    for trial in range(15):
        n = int(rng.integers(2, 6))
        W = _random_w(rng, n, int(rng.integers(1, 2 * n - 1)), cc)
        rng.integers(2**31)  # unused seed draw: keeps later draws, and the per-seed verdicts
        res.extend(sm.fundamental_equation_residuals(W))
    _record(checks, "solvable_model", "gauss_codazzi_ricci", res, 1e-10)

    rng = _rng(config, "group", 4)
    res = []
    for trial in range(100):
        n = int(rng.integers(2, 6))
        m = n - 1
        kw = int(rng.integers(1, 2 * m + 1))  # dim w >= 1 so a horocycle exists
        w = ka.random_subspace(m, kw, int(rng.integers(2**31)))
        W = sm.build_w(w, n, cc) if kw < 2 * m else None
        if W is None:
            res.append(0.0)
            continue
        U = np.zeros(2 * n)
        U[1:-1] = rng.standard_normal(kw) @ w.basis
        U /= np.linalg.norm(U)
        p = np.zeros(2 * n)
        for _ in range(3):
            p = sm._product(p, float(rng.uniform(-2, 2)) * U, cc)
        res.append(np.linalg.norm(W.w_perp_basis @ p[1:-1]))
    _record(checks, "solvable_model", "horocycle_membership", res, 1e-9)

    return checks


def _suite_tube(config: RunConfig) -> list[dict]:
    checks = []
    cc = config.curvature_c

    rng = _rng(config, "tube", 0)
    res, inputs = [], []
    for trial in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 2 * n - 2))
        r = float(rng.uniform(1e-3, 3.0))
        phi = np.pi / 2 if k == 1 else float(rng.uniform(0, np.pi / 2))
        roots = tg.tube_char_roots(n, k, r, phi, cc)
        H = tg.tube_mean_curvature(n, k, r, cc)
        res.append(abs(roots.sum() - H) / abs(H))
        inputs.append({"n": n, "k": k, "r": r, "phi": phi})
    _record(checks, "tube_geometry", "trace_identity", res, 1e-9, inputs)

    rng = _rng(config, "tube", 1)
    res = []
    for r in np.linspace(0.01, 5.0, 100):
        s0 = np.sqrt(-cc) / 2
        mu = s0 / np.tanh(s0 * r)
        g, _, _, _ = tg.jacobi_scalars(mu, r, cc)
        res.append(abs(g))
    _record(checks, "tube_geometry", "focal_collapse_g_mu", res, 1e-12)

    res = []
    for r in np.linspace(0.2, 5.0, 50):
        lam, mu, alpha, beta, focal = tg.parallel_data(r, r - 1e-6, cc)
        res.append(lam / np.sqrt(-cc))
    _record(checks, "tube_geometry", "focal_collapse_lambda", res, 1e-5)

    rng = _rng(config, "tube", 2)
    res = []
    for trial in range(100):
        r = float(rng.uniform(0.3, 3.0))
        ts = np.linspace(0, r * 0.999, 30)
        lams, mus = zip(*(tg.parallel_data(r, t, cc)[:2] for t in ts))
        bad = float(np.any(np.diff(lams) >= 0)) + float(np.any(np.diff(mus) <= 0))
        res.append(bad)
    _record(checks, "tube_geometry", "monotone_evolution", res, 0.0)

    rng = _rng(config, "tube", 3)
    res = []
    hstep = 1e-4

    def _d5(fun, t):
        # five-point stencil: mu' grows like (r - t)^-2, so the extra
        # accuracy is needed when t comes close to the focal radius
        return (
            8 * (fun(t + hstep) - fun(t - hstep)) - (fun(t + 2 * hstep) - fun(t - 2 * hstep))
        ) / (12 * hstep)

    for trial in range(100):
        r = float(rng.uniform(0.7, 3.0))
        t = float(rng.uniform(0.05 * r, min(0.9 * r, r - 0.2)))
        lam_p, mu_p = _d5(lambda t_: np.array(tg.parallel_data(r, t_, cc)[:2]), t)
        lam, mu = tg.parallel_data(r, t, cc)[:2]
        # moving toward the focal set: d(lam)/dt = lam^2 + c/4
        res.append(abs(lam_p - (lam**2 + cc / 4)))
        res.append(abs(mu_p - (mu**2 + cc / 4)))
    _record(checks, "tube_geometry", "riccati_evolution", res, 1e-8)

    rng = _rng(config, "tube", 4)
    res = []
    for trial in range(100):
        r = float(rng.uniform(0.2, 3.0))
        lam = np.sqrt(-cc) / 2 * np.tanh(np.sqrt(-cc) / 2 * r)
        roots = tg._poly_roots(tg.angle_factor_cubic(lam, np.pi / 2, cc))
        # three real roots: imaginary parts were dropped; check by residual
        vals = np.polyval(tg.angle_factor_cubic(lam, np.pi / 2, cc), roots)
        res.append(np.abs(vals).max())
        # scaling consistency x -> s x under c -> s^2 c, r -> r/s
        s = float(rng.uniform(0.5, 2.0))
        lam2 = np.sqrt(-cc * s**2) / 2 * np.tanh(np.sqrt(-cc * s**2) / 2 * (r / s))
        roots2 = tg._poly_roots(tg.angle_factor_cubic(lam2, np.pi / 2, cc * s**2))
        res.append(np.abs(np.sort(roots2) - s * np.sort(roots)).max())
    _record(checks, "tube_geometry", "pi2_cubic_real_roots_and_scaling", res, 1e-8)

    rng = _rng(config, "tube", 5)
    res, inputs = [], []
    for trial in range(100):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 2 * n - 2))
        W = _random_w(rng, n, k, cc)
        r = float(rng.uniform(0.2, 2.5))
        xi = _unit_normal(rng, W, cc)
        S = tg.numeric_shape_operator(tg.TubeSpec(W, r), xi)
        evals = np.linalg.eigvalsh(0.5 * (S + S.T))
        phi = tg.normal_kahler_angle(W, xi)
        roots = tg.tube_char_roots(n, k, r, phi, cc)
        res.append(np.abs(np.sort(evals) - roots).max())
        inputs.append({"n": n, "k": k, "r": r, "phi": phi})
    _record(checks, "tube_geometry", "numeric_vs_charpoly", res, 1e-8, inputs)

    return checks


def _suite_lift(config: RunConfig) -> list[dict]:
    checks = []
    cc = config.curvature_c

    rng = _rng(config, "lift", 0)
    res, inputs = [], []
    expected = {"tube-chk": "I", "horosphere": "II", "tube-rhn": "IV"}
    for trial in range(50):
        r = float(rng.uniform(0.2, 2.5))
        n = int(rng.integers(2, 7))
        for fam, etype in expected.items():
            spec, k = _standard(rng, fam, n, r, cc)
            cls = hopf_lift.classify_lift(hopf_lift.hopf_lift_data(spec, cc))
            down = hopf_lift.project_spectrum(cls, cc)
            bad = 0.0 if cls.jtype == etype else np.inf
            if not spec.matches(down, tol=1e-8):
                bad = np.inf
            worst_v = max(
                (abs(v1 - v2) for (v1, _, _), (v2, _, _) in zip(spec.entries, down.entries)),
                default=0.0,
            )
            res.append(max(bad, worst_v))
            inputs.append({"family": fam, "n": n, "r": r, "k": k})
    _record(checks, "hopf_lift", "standard_family_round_trip", res, 1e-8, inputs)

    rng = _rng(config, "lift", 1)
    res = []
    for trial in range(100):
        n = int(rng.integers(2, 7))
        r = float(rng.uniform(0.2, 2.5))
        spec, _ = _standard(rng, ["tube-chk", "horosphere", "tube-rhn"][trial % 3], n, r, cc)
        M, _ = hopf_lift.lift_shape_operator(hopf_lift.hopf_lift_data(spec, cc))
        res.append(abs(np.trace(M) - spec.trace()))
    _record(checks, "hopf_lift", "trace_preservation", res, 1e-12)

    rng = _rng(config, "lift", 2)
    res = []
    for trial in range(50):
        n = int(rng.integers(2, 7))
        spec = tg.standard_spectrum("horosphere", n, c=cc)
        cls = hopf_lift.classify_lift(hopf_lift.hopf_lift_data(spec, cc))
        lam = cls.real_eigs[0][0]
        bad = 0.0 if cls.jtype == "II" else np.inf
        res.append(max(bad, abs(abs(lam) - np.sqrt(-cc) / 2)))
    _record(checks, "hopf_lift", "type_ii_eigenvalue_half", res, 1e-10)

    rng = _rng(config, "lift", 3)
    res, inputs = [], []
    for trial in range(40):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, 2 * n - 2))
        W = _random_w(rng, n, k, cc)
        r = float(rng.uniform(0.3, 2.0))
        inputs.append({"n": n, "k": k, "r": r})
        normals = (_unit_normal(rng, W, cc) for _ in range(100))  # drawn until one is found
        xi = next((v for v in normals if tg.normal_kahler_angle(W, v) > 0.1), None)
        if xi is None:
            res.append(0.0)  # w_perp is complex: no type III direction exists
            continue
        cls = hopf_lift.classify_lift(hopf_lift.tube_lift_data(tg.TubeSpec(W, r), xi))
        lam = cls.defective_eig
        bad = 0.0 if cls.jtype == "III" else np.inf
        if lam is None or abs(lam) >= np.sqrt(-cc) / 2:
            bad = np.inf
        lam_true = np.sqrt(-cc) / 2 * np.tanh(np.sqrt(-cc) / 2 * r)
        res.append(max(bad, abs(lam - lam_true)))
    _record(checks, "hopf_lift", "w_tube_type_iii", res, 1e-8, inputs)

    return checks


def _suite_cartan(config: RunConfig) -> list[dict]:
    checks = []
    cc = config.curvature_c
    s0 = np.sqrt(-cc) / 2

    rng = _rng(config, "cartan", 0)
    res = []
    for trial in range(100):
        r = float(rng.uniform(0.05, 4.0))
        lam = s0 * np.tanh(s0 * r)
        mu = -cc / (4 * lam)
        m1, m2 = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        spectrum = [(lam, m1), (mu, m2)]
        res.append(abs(classifier.cartan_residual(spectrum, 0, cc)))
        res.append(abs(classifier.cartan_residual(spectrum, 1, cc)))
    _record(checks, "classifier", "type_i_pair_residual", res, 1e-9)

    rng = _rng(config, "cartan", 1)
    res = []
    for trial in range(30):
        n = int(rng.integers(2, 6))
        r = float(rng.uniform(0.2, 2.5))
        for fam in ("tube-chk", "horosphere", "tube-rhn"):
            spec, _ = _standard(rng, fam, n, r, cc)
            cls = hopf_lift.classify_lift(hopf_lift.hopf_lift_data(spec, cc))
            upstairs = [(v, a) for v, a, _ in cls.real_eigs]
            for i in range(len(upstairs)):
                res.append(abs(classifier.cartan_residual(upstairs, i, cc)))
    _record(checks, "classifier", "lifted_spectrum_residual", res, 1e-9)

    res = []
    xs = np.linspace(0.01, 4.0, 100)
    ps = np.linspace(0.05, 4.0, 100)
    for p in ps:
        for x in xs:
            if abs(x - p) < 1e-9:
                continue
            value, predicate = classifier.inside_cartan_phi(float(x), float(p), cc)
            res.append(0.0 if (value > 0) == predicate else np.inf)
    _record(checks, "classifier", "phi_filter_grid_agreement", res, 0.0)

    return checks


_SUITE_RUNNERS = {
    "kahler": _suite_kahler,
    "jordan": _suite_jordan,
    "group": _suite_group,
    "tube": _suite_tube,
    "lift": _suite_lift,
    "cartan": _suite_cartan,
}


def _raised(exc: IsoparamError) -> dict:
    """The failed check of a suite that raised: no samples and no residual,
    the module that raised, and the error as its worst input."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return {
        "module": tb.tb_frame.f_globals["__name__"].rsplit(".", 1)[-1],
        "name": "raised",
        "samples": 0,
        "max_residual": None,
        "tol": 0.0,
        "passed": False,
        "worst_input": {"error": type(exc).__name__, "message": str(exc)},
    }


def verify_suites(config: RunConfig, suites=SUITES) -> dict:
    """Run the requested suites and return a structured summary.

    Deterministic given (seed, suites); failures are recorded with the
    module, invariant name, worst input and residual.  A suite whose
    sample raises an IsoparamError reports one failed check "raised" that
    names the error, and the other suites still run.
    """
    unknown = [s for s in suites if s not in _SUITE_RUNNERS]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results = []
    for name in suites:
        try:
            checks = _SUITE_RUNNERS[name](config)
        except IsoparamError as exc:
            checks = [_raised(exc)]
        passed = sum(ch["passed"] for ch in checks)
        results.append(
            {"suite": name, "passed": passed, "failed": len(checks) - passed, "checks": checks}
        )
    return {
        "seed": config.seed,
        "curvature": config.curvature_c,
        "suites": results,
        "passed": sum(r["passed"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "ok": all(r["failed"] == 0 for r in results),
    }

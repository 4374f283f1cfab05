"""Per-subspace Kahler-angle code, kept as an oracle for the stacked kernels.

`isoparam.kahler_angle` draws, conjugates, complements and diagonalizes
whole stacks of bases with one LAPACK call per stack, and
`verification._suite_kahler` runs its trials grouped by (m, k).  The
functions here are the one-subspace-at-a-time versions, one `qr`, `svd` or
`eigh` per call, and the per-trial suite loop built on them, for tests to
compare against bit for bit.
"""

import numpy as np

from isoparam import kahler_angle as ka
from isoparam.indefinite_linalg import cluster
from isoparam.verification import _record, _rng


def random_subspace(m, k, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * m, k))
    q, _ = np.linalg.qr(A)
    return ka.RealSubspace(m, q[:, :k].T)


def unitary_conjugate(W, seed):
    m = W.ambient_cdim
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
    U = np.zeros((2 * m, 2 * m))
    U[0::2, 0::2] = Q.real
    U[0::2, 1::2] = -Q.imag
    U[1::2, 0::2] = Q.imag
    U[1::2, 1::2] = Q.real
    q, s, _ = np.linalg.svd((W.basis @ U.T).T, full_matrices=False)
    return ka.RealSubspace(m, q[:, : int((s > ka.RANK_TOL).sum())].T)


def complement(W):
    dim = 2 * W.ambient_cdim
    if W.dim == 0:
        return ka.RealSubspace(W.ambient_cdim, np.eye(dim))
    if W.dim == dim:
        return ka.RealSubspace(W.ambient_cdim, np.zeros((0, dim)))
    _, _, vt = np.linalg.svd(W.basis, full_matrices=True)
    return ka.RealSubspace(W.ambient_cdim, vt[W.dim:])


def kahler_profile(W):
    k = W.dim
    if k == 0:
        return ka.KahlerProfile(()), np.zeros((0, 2 * W.ambient_cdim)), []
    B = W.basis
    K = ka.apply_J(B) @ B.T
    M = K.T @ K
    M = 0.5 * (M + M.T)
    evals, evecs = np.linalg.eigh(M)
    vectors = (B.T @ evecs).T
    angles = np.array([float(np.arccos(np.sqrt(min(1.0, max(0.0, ev))))) for ev in evals])
    entries = []
    decomposition = []
    for g in cluster(angles, ka.ANGLE_TOL):
        ang = float(angles[g].mean())
        if abs(ang) <= ka.ANGLE_TOL:
            ang = 0.0
        if abs(ang - np.pi / 2) <= ka.ANGLE_TOL:
            ang = float(np.pi / 2)
        entries.append((ang, g.stop - g.start))
        decomposition.append((ang, vectors[g]))
    return ka.KahlerProfile(tuple(entries)), vectors, decomposition


def invariant(W):
    return kahler_profile(W)[0]


def suite_kahler(config):
    """The kahler verify suite, one subspace at a time: its list of check records."""
    checks = []

    rng = _rng(config, "kahler", 0)
    res, inputs = [], []
    for trial in range(1000):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(0, 2 * m + 1))
        seed = int(rng.integers(2**31))
        W = random_subspace(m, k, seed)
        base = invariant(W)
        conj = invariant(unitary_conjugate(W, seed + 1))
        if len(base.entries) != len(conj.entries) or any(
            mb != mc for (_, mb), (_, mc) in zip(base.entries, conj.entries)
        ):
            res.append(np.inf)
        else:
            res.append(
                max(
                    (abs(ab - ac) for (ab, _), (ac, _) in zip(base.entries, conj.entries)),
                    default=0.0,
                )
            )
        inputs.append({"m": m, "k": k, "seed": seed})
    _record(checks, "kahler_angle", "profile_unitary_invariance", res, 1e-8, inputs)

    rng = _rng(config, "kahler", 1)
    res, inputs = [], []
    for trial in range(300):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(0, 2 * m + 1))
        seed = int(rng.integers(2**31))
        W = random_subspace(m, k, seed)
        p1 = invariant(W).nonzero_entries()
        p2 = invariant(complement(W)).nonzero_entries()
        if len(p1) != len(p2) or any(m1 != m2 for (_, m1), (_, m2) in zip(p1, p2)):
            res.append(np.inf)
        else:
            res.append(max((abs(a1 - a2) for (a1, _), (a2, _) in zip(p1, p2)), default=0.0))
        inputs.append({"m": m, "k": k, "seed": seed})
    _record(checks, "kahler_angle", "complement_angle_matching", res, 1e-8, inputs)

    rng = _rng(config, "kahler", 2)
    res = []
    for trial in range(200):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 2 * m + 1))
        W = random_subspace(m, k, int(rng.integers(2**31)))
        B = W.basis
        K = ka.apply_J(B) @ B.T
        res.append(np.abs(K + K.T).max())
    _record(checks, "kahler_angle", "f_skew_adjoint", res, 1e-10)

    rng = _rng(config, "kahler", 3)
    res = []
    for trial in range(200):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 2 * m + 1))
        W = random_subspace(m, k, int(rng.integers(2**31)))
        profile, vectors, decomposition = kahler_profile(W)
        worst = 0.0
        for angle, block in decomposition:
            for xi in block:
                F, _ = ka.pf_split(W, xi)
                F2 = W.project(ka.apply_J(F))
                worst = max(worst, np.abs(F2 + np.cos(angle) ** 2 * xi).max())
        res.append(worst)
    _record(checks, "kahler_angle", "f_squared_identity", res, 1e-9)

    rng = _rng(config, "kahler", 4)
    res = []
    for trial in range(300):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(0, 2 * m + 1))
        W = random_subspace(m, k, int(rng.integers(2**31)))
        profile = invariant(W)
        bad = sum(
            1
            for a, mult in profile.entries
            if a < np.pi / 2 - ka.ANGLE_TOL and mult % 2
        )
        res.append(float(bad))
    _record(checks, "kahler_angle", "multiplicity_parity", res, 0.0)

    return checks

"""Per-row frame code of W_w and the per-column tube assembly, kept as oracles.

`isoparam.solvable_model.build_w` splits w with one SVD in w's own
coordinates, and `isoparam.tube_geometry` evolves the tube operator with one
matrix solve, on the whole frame (`numeric_shape_operator`) or only on the
coupled block span{Z, P xi, F xi} (`_tube_block`).  The functions here are
the earlier versions: P w_perp from the projections of J w_perp row by row,
c_part as the complement of w_perp + J w_perp in g_alpha, and the Jacobi
fields of all 2n - 1 generators evolved one column at a time.  The frames
differ from the library's by a rotation inside each subspace, so tests
compare invariants: spans, spectra and the weight of J xi on each eigenspace.
"""

import numpy as np

from isoparam import kahler_angle as ka
from isoparam.solvable_model import SubmanifoldW, _galpha_flat


def _orth_rows(V):
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[0] == 0:
        return V
    q, s, _ = np.linalg.svd(V.T, full_matrices=False)
    return q[:, : int((s > ka.RANK_TOL).sum())].T


def _complement_rows(rows, dim):
    if rows.shape[0] == 0:
        return np.eye(dim)
    _, _, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[rows.shape[0]:]


def build_w(w, n, c):
    m = n - 1
    w_perp = _complement_rows(w.basis, 2 * m)
    j_perp = ka.apply_J(w_perp)
    p_cols = np.array([w.project(row) for row in j_perp])
    p_perp = _orth_rows(p_cols) if p_cols.size else np.zeros((0, 2 * m))
    c_part = _complement_rows(_orth_rows(np.vstack([w_perp, j_perp])), 2 * m)
    return SubmanifoldW(n, c, w, w_perp, p_perp, c_part)


def tube_operator_frame(Wspec, r, xi):
    """(S, u) of a tube of radius r around Wspec along the unit normal xi."""
    n, c, k = Wspec.n, Wspec.c, Wspec.k
    d = 2 * n
    s0 = np.sqrt(-c) / 2

    def emb(v):
        out = np.zeros(d)
        out[1:-1] = v
        return out

    B, Zv = np.eye(d)[0], np.eye(d)[-1]
    xi_g = _galpha_flat(xi)
    jxi_g = ka.apply_J(xi_g)
    pxi_full = emb(Wspec.w.project(jxi_g))
    T = np.column_stack(
        [B, Zv] + [emb(row) for row in Wspec.c_part_basis] + [emb(row) for row in Wspec.p_perp_basis]
    )
    rest = Wspec.w_perp_basis - np.outer(Wspec.w_perp_basis @ xi_g, xi_g)
    q, _, _ = np.linalg.svd(rest.T, full_matrices=False)
    Nf = np.column_stack([emb(q[:, i]) for i in range(k - 1)]) if k > 1 else np.zeros((d, 0))
    M = np.hstack([T, Nf])

    def a_xi(v):
        return s0 * (v[-1] * pxi_full + (v @ pxi_full) * Zv)

    u = M.T @ emb(jxi_g)
    gens = [(M.T @ T[:, i], M.T @ (-a_xi(T[:, i]))) for i in range(T.shape[1])]
    gens += [(np.zeros(2 * n - 1), M.T @ Nf[:, i]) for i in range(Nf.shape[1])]
    C1, S1 = np.cosh(s0 * r), np.sinh(s0 * r) / s0
    C1p, S1p = s0 * np.sinh(s0 * r), np.cosh(s0 * r)
    C2, S2 = np.cosh(2 * s0 * r), np.sinh(2 * s0 * r) / (2 * s0)
    C2p, S2p = 2 * s0 * np.sinh(2 * s0 * r), np.cosh(2 * s0 * r)
    Zm = np.zeros((2 * n - 1, 2 * n - 1))
    Zp = np.zeros_like(Zm)
    for j, (X, Xp) in enumerate(gens):
        xu, xpu = X @ u, Xp @ u
        X_perp, Xp_perp = X - xu * u, Xp - xpu * u
        Zm[:, j] = (xu * C2 + xpu * S2) * u + C1 * X_perp + S1 * Xp_perp
        Zp[:, j] = (xu * C2p + xpu * S2p) * u + C1p * X_perp + S1p * Xp_perp
    return Zp @ np.linalg.inv(Zm), u

"""Jordan types of operators self-adjoint for a Lorentzian scalar product.

classify_jordan takes a square matrix A and the Gram matrix of a scalar
product of signature (1, m-1), as plain float arrays, and checks them once
on entry.  A self-adjoint operator (gram @ A symmetric) takes one of the
four Jordan canonical shapes that can occur in Lorentzian signature:

    I   diagonalizable, orthonormal basis (first vector timelike),
    II  one 2x2 Jordan block (eigenvalue defect 1), semi-null basis,
    III one 3x3 Jordan block (eigenvalue defect 2), semi-null basis,
    IV  one complex-conjugate eigenvalue pair, orthonormal basis.

A semi-null basis {u, v, e_1, ...} has all inner products zero except
<u, v> = <e_i, e_i> = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NondiagnosableOperator

RANK_TOL = 1e-8  # kernel singular values, times 1 + max|A|
SELF_ADJOINT_TOL = 1e-10
MERGE_TOL = 1e-7  # least eigenvalue merge tolerance, times 1 + max|A|
JORDAN_TOL = 1e-4  # greatest merge tolerance and guard, times 1 + max|A|


@dataclass(frozen=True)
class JordanClassification:
    """Canonical data of a Lorentz-self-adjoint operator.

    real_eigs: (value, algebraic multiplicity, geometric multiplicity),
    sorted by value.  complex_pair: (a, b) with b > 0 when the type IV pair
    a +- ib is present.  epsilon: the +-1 entry of the type II block.
    adapted_basis: canonical basis as columns; the operator takes the shape
    of canonical_matrix() in it and the basis Gram equals canonical_gram().
    diag: eigenvalue of each diagonal basis column, in basis order, after
    the leading canonical block (all columns for type I).
    """

    jtype: str  # 'I', 'II', 'III' or 'IV'
    real_eigs: tuple[tuple[float, int, int], ...]
    complex_pair: Optional[tuple[float, float]]
    epsilon: Optional[int]
    adapted_basis: np.ndarray
    diag: tuple[float, ...]
    dim: int

    @property
    def defective_eig(self) -> Optional[float]:
        """The eigenvalue whose multiplicities differ (types II and III)."""
        for value, alg, geo in self.real_eigs:
            if alg != geo:
                return value
        return None

    def lead_block(self) -> np.ndarray:
        """The leading type II, III or IV block of canonical_matrix(); 0 x 0
        for type I."""
        if self.jtype == "I":
            return np.zeros((0, 0))
        if self.jtype == "IV":
            a, b = self.complex_pair
            return np.array([[a, -b], [b, a]])
        lam = self.defective_eig
        if self.jtype == "II":
            return np.array([[lam, 0.0], [float(self.epsilon), lam]])
        return np.array([[lam, 0.0, 1.0], [0.0, lam, 0.0], [0.0, 1.0, lam]])

    def canonical_matrix(self, cols=None) -> np.ndarray:
        """The type I/II/III/IV matrix realized in adapted_basis: the lead
        block, then diag; on the ascending basis columns cols only, which
        then start with the lead's."""
        lead = self.lead_block()
        k = len(lead)
        diag = self.diag if cols is None else np.asarray(self.diag)[cols[k:] - k]
        M = np.diag(np.concatenate([np.zeros(k), diag]))
        M[:k, :k] = lead
        return M

    def canonical_gram(self, cols=None) -> np.ndarray:
        """Gram matrix of the adapted basis: orthonormal or semi-null; on the
        ascending basis columns cols only, which then start with the
        timelike one (types I and IV) or the null pair (II and III)."""
        G = np.eye(self.dim if cols is None else len(cols))
        if self.jtype in ("I", "IV"):
            G[0, 0] = -1.0
        else:
            G[0, 0] = G[1, 1] = 0.0
            G[0, 1] = G[1, 0] = 1.0
        return G

    def residuals(self, A, gram, rows=None) -> tuple[float, float]:
        """Max-norm reconstruction residuals of A and gram in adapted_basis B:
        (|B^T gram B - canonical_gram()|, |A B - B canonical_matrix()|).  With
        rows, A and gram act on those rows of B only, an invariant block that
        holds the timelike or null columns, and B is the columns nonzero there."""
        B, cols = self.adapted_basis, None
        if rows is not None:
            B = B[rows]
            cols = np.flatnonzero(B.any(axis=0))
            B = B[:, cols]
        return (
            float(np.abs(B.T @ gram @ B - self.canonical_gram(cols)).max()),
            float(np.abs(A @ B - B @ self.canonical_matrix(cols)).max()),
        )


# ---------------------------------------------------------------------------
# classification


def classify_jordan(A, gram) -> JordanClassification:
    """Classify an operator self-adjoint for a Lorentzian scalar product.

    A and gram are square float arrays of one size.  gram must be symmetric
    and nondegenerate with exactly one negative eigenvalue, and gram @ A
    symmetric within SELF_ADJOINT_TOL of its largest entry; NaN and inf
    fail these checks.  A wrong size raises DimensionMismatch, any other
    failed check ValueError.

    Eigenvalues come from one np.linalg.eig call.  With S = 1 + max|A|, a
    candidate merges them at a tolerance t: a conjugate pair stays complex
    above t, and real parts whose consecutive gaps are at most t form one
    cluster.  The candidates are t = MERGE_TOL S and every gap |Im w_i| or
    |Re w_i - Re w_j| strictly between MERGE_TOL S and JORDAN_TOL S: all the
    tolerances where the clustering changes (a 3x3 Jordan block splits at
    the cube root of the backward error).  The kernel of A - lambda I is
    spanned by the right singular vectors with singular values at most
    RANK_TOL S; its width is the geometric multiplicity.  A candidate is
    admitted by _check_reconstruction at the top of its clustering's range
    (the next candidate's t, or JORDAN_TOL S for the last); the admitted one
    of least residual wins, the smaller t on a tie (Kagstrom and Ruhe, ACM
    TOMS 1980).  The candidates share each cluster center's kernel.

    Raises NondiagnosableOperator with the last refusal if none is admitted.
    """
    A = np.asarray(A, dtype=float)
    G = np.asarray(gram, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or G.shape != A.shape:
        raise DimensionMismatch(f"need square matrices of one size, got {A.shape}, {G.shape}")
    n = A.shape[0]
    scale = 1.0 + np.abs(A).max()
    g_scale = 1.0 + np.abs(G).max()
    if not (scale < np.inf and g_scale < np.inf):  # also rejects NaN
        raise ValueError("matrix and gram must be finite")
    if not np.abs(G - G.T).max() <= 1e-12 * g_scale:
        raise ValueError("gram matrix must be symmetric")
    # the singular values of a symmetric matrix are its |eigenvalues|
    g_eigs = np.linalg.eigvalsh(G)
    if not np.abs(g_eigs).min() > 1e-12 * g_scale:
        raise ValueError("gram matrix is degenerate")
    neg = int((g_eigs < 0).sum())
    if neg != 1:
        raise ValueError(f"expected signature (1, {n - 1}), got {neg} negative directions")
    GA = G @ A
    if not np.abs(GA - GA.T).max() <= SELF_ADJOINT_TOL * np.abs(GA).max():
        raise ValueError("matrix is not self-adjoint for the given gram")

    lo, hi = MERGE_TOL * scale, JORDAN_TOL * scale
    eig = np.linalg.eig(A)
    w = eig[0]
    gaps = np.abs(np.concatenate([w.imag, (w.real[:, None] - w.real).ravel()]))
    tols = [lo, *sorted(set(gaps[(gaps > lo) & (gaps < hi)].tolist()))]

    kernels: dict[float, np.ndarray] = {}
    best, refusal = None, None
    for merge_tol, guard_tol in zip(tols, tols[1:] + [hi]):
        try:
            err, cls = _classify_pass(A, G, eig, merge_tol, guard_tol, RANK_TOL * scale, kernels)
        except NondiagnosableOperator as exc:
            refusal = str(exc)
            continue
        if best is None or err < best[0]:
            best = (err, cls)
    if best is None:
        raise NondiagnosableOperator(refusal)
    return best[1]


def cluster(values, tol) -> list:
    """Split a monotone sequence into runs of nearby values.

    A run ends wherever two consecutive values differ by more than tol, a
    scalar or one tolerance per gap (len(values) - 1 entries).  Returns the
    runs as slices into values, in order; empty input gives no runs.  A
    stack of sequences (N, n) is compared in one pass and gives one such
    list per row.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    split = np.abs(np.diff(values)) > tol

    def runs(row) -> list[slice]:
        cuts = (np.flatnonzero(row) + 1).tolist()
        return [slice(a, b) for a, b in zip([0] + cuts, cuts + [n])] if n else []

    return runs(split) if values.ndim == 1 else [runs(row) for row in split]


def _split_spectrum(w: np.ndarray, merge_tol: float):
    """Separate a conjugate pair from the real spectrum."""
    im_big = np.abs(w.imag) > merge_tol
    complex_pair = None
    if im_big.any():
        vals = w[im_big]
        if len(vals) != 2:
            raise NondiagnosableOperator(
                f"{len(vals)} eigenvalues off the real axis; at most one conjugate pair is possible"
            )
        complex_pair = (float(vals.real.mean()), float(np.abs(vals.imag).mean()))
    reals = np.sort(w[~im_big].real)
    return complex_pair, [
        (float(reals[s].mean()), s.stop - s.start) for s in cluster(reals, merge_tol)
    ]


def _kernel(A: np.ndarray, value: float, threshold: float) -> np.ndarray:
    """Orthonormal columns spanning ker(A - value I): the right singular
    vectors whose singular values are at or below threshold."""
    n = A.shape[0]
    _, s, vt = np.linalg.svd(A - value * np.eye(n))
    return vt[n - int((s <= threshold).sum()):].T


def _form_orthonormalize(G: np.ndarray, basis: np.ndarray):
    """Orthonormalize columns against an (in)definite form.

    Returns (columns, signs): columns^T G columns = diag(signs), signs in
    {-1, +1}, negative first.
    """
    S = basis.T @ G @ basis
    S = 0.5 * (S + S.T)
    evals, evecs = np.linalg.eigh(S)
    norms = np.sqrt(np.abs(evals))
    if norms.size and norms.min() <= 1e-10 * (1 + norms.max()):
        raise NondiagnosableOperator("degenerate restricted Gram on an eigenspace")
    cols = (basis @ evecs) / norms
    signs = np.where(evals < 0, -1, 1)
    order = np.argsort(signs)
    return cols[:, order], signs[order]


def _classify_pass(A, G, eig, merge_tol, guard_tol, rank_threshold, kernels):
    """(max residual / (1 + max|A|), classification) of one candidate on the
    checked A and G: eig = np.linalg.eig(A) merged at merge_tol, the basis
    checked by _check_reconstruction at guard_tol.  kernels maps each
    cluster center already factored in this classify_jordan call to its
    kernel; new ones are added."""
    n = A.shape[0]

    complex_pair, real_clusters = _split_spectrum(eig[0], merge_tol)

    eigs: list[tuple[float, int, int]] = []
    defects: list[tuple[float, int, int]] = []
    for center, alg in real_clusters:
        if center not in kernels:
            kernels[center] = _kernel(A, center, rank_threshold)
        geo = kernels[center].shape[1]
        if geo < 1 or geo > alg:
            raise NondiagnosableOperator(
                f"inconsistent multiplicities at {center:.6g}: alg={alg}, geo={geo}"
            )
        eigs.append((center, alg, geo))
        if geo != alg:
            defects.append((center, alg, geo))

    if complex_pair is not None:
        if defects:
            raise NondiagnosableOperator("complex pair combined with a defective eigenvalue")
        jtype = "IV"
    elif not defects:
        jtype = "I"
    elif len(defects) == 1 and defects[0][1] - defects[0][2] == 1:
        jtype = "II"
    elif len(defects) == 1 and defects[0][1] - defects[0][2] == 2:
        jtype = "III"
    else:
        raise NondiagnosableOperator(f"defect pattern matches no canonical shape: {defects}")

    total = sum(alg for _, alg, _ in eigs) + (2 if complex_pair else 0)
    if total != n:
        raise NondiagnosableOperator(f"multiplicities sum to {total}, expected {n}")

    lead, blocks, first, epsilon = _adapted_basis(A, G, eig, jtype, eigs, complex_pair, kernels)
    cls = _assemble(jtype, lead, blocks, first, complex_pair, epsilon)
    scale = 1 + np.abs(A).max()
    residuals = cls.residuals(A, G)
    _check_reconstruction(residuals, scale, guard_tol, "canonical reconstruction failed")
    return max(residuals) / scale, cls


def _assemble(jtype, lead, blocks, first, complex_pair, epsilon) -> JordanClassification:
    """The classification whose basis is the lead columns (the type II, III
    or IV block), then the columns of each entry [value, alg, geo, [column
    blocks]] of blocks: first (the timelike or defective one) before the
    rest, ascending."""
    blocks = sorted(blocks, key=lambda e: (e is not first, e[0]))
    basis = np.hstack([lead] + [blk for e in blocks for blk in e[3]])
    if basis.shape[0] != basis.shape[1]:
        raise NondiagnosableOperator("adapted basis has wrong dimension")
    return JordanClassification(
        jtype=jtype,
        real_eigs=tuple(sorted((float(v), a, g) for v, a, g, _ in blocks)),
        complex_pair=complex_pair,
        epsilon=epsilon,
        adapted_basis=basis,
        diag=tuple(float(e[0]) for e in blocks for blk in e[3] for _ in range(blk.shape[1])),
        dim=basis.shape[0],
    )


def _check_reconstruction(residuals, scale, tol, what):
    """Raise NondiagnosableOperator naming what unless the residual pair
    (gram, shape) of residuals() is within 100 tol scale, with scale
    = 1 + max|A| of the reconstructed A; a NaN residual fails.  The scale
    divides the residuals: tol may carry it already, and the product
    overflows once max|A| > ~1e150."""
    gram_err, shape_err = residuals
    if not (gram_err / scale <= 100 * tol and shape_err / scale <= 100 * tol):
        raise NondiagnosableOperator(f"{what} (gram {gram_err:.2e}, shape {shape_err:.2e})")


def _adapted_basis(A, G, eig, jtype, eigs, complex_pair, kernels):
    """(lead, blocks, first, epsilon) for _assemble; blocks are orthonormal
    eigenvectors, or the kernel complement of the Jordan chain."""
    lead, blocks, first, epsilon = np.empty((len(A), 0)), [], None, None
    if jtype == "IV":
        a, b = complex_pair
        w, vecs = eig
        z = vecs[:, int(np.argmin(np.abs(w - (a + 1j * b))))]
        lead = _pair_basis(z.real.copy(), z.imag.copy(), G)
    elif jtype in ("II", "III"):
        (lam, alg, geo), = [(v, a, g) for v, a, g in eigs if a != g]
        lead, rest, epsilon = _jordan_chain(A, G, jtype, lam, alg, geo, kernels[lam])
        first = [lam, alg, geo, [rest]]
        blocks.append(first)

    # diagonalizable eigenvalues; only type I holds a timelike one
    for value, alg, geo in eigs:
        if alg != geo:
            continue
        Vcols, signs = _form_orthonormalize(G, kernels[value])
        blocks.append([value, alg, geo, [Vcols]])
        if (signs < 0).any():
            if jtype != "I" or first is not None or (signs < 0).sum() > 1:
                raise NondiagnosableOperator("too many timelike eigendirections")
            first = blocks[-1]
    if jtype == "I" and first is None:
        raise NondiagnosableOperator("no timelike eigendirection found for type I")
    return lead, blocks, first, epsilon


def _pair_basis(x, y, G):
    """The type IV lead columns from x + iy, an eigenvector of the pair's
    a + ib: rotate it to e^{i theta} (x + iy), with <x, y> = 0 and
    <x, x> > 0 (self-adjointness forces <y, y> = -<x, x>), and normalize."""
    gxx = float(x @ G @ x)
    gxy = float(x @ G @ y)
    theta = 0.5 * np.arctan2(-gxy, gxx)
    xr = np.cos(theta) * x - np.sin(theta) * y
    yr = np.sin(theta) * x + np.cos(theta) * y
    sq = float(xr @ G @ xr)
    if sq <= 0:
        raise NondiagnosableOperator("complex block carries no spacelike direction")
    norm = np.sqrt(sq)
    return np.column_stack([yr / norm, xr / norm])


def _chain_columns(chain, dot):
    """(columns, epsilon) of the type II or III block from an exact chain
    [top, N top(, N^2 top)] of N = A - lam I and the form's inner product dot,
    with dot(chain[-1], chain[0]) nonzero, positive for type III.  II: [unit,
    null = epsilon N unit] with <null, unit> = 1, unit the top shifted along
    N top to be null.  III: [e1, e2, e3 = N e2] with e1 = N e3, e2 the top
    shifted along e1 and e3 to null out <e2, e3> and <e2, e2>.  N is applied
    through the chain."""
    if len(chain) == 2:
        top, low = chain
        s = dot(low, top)
        epsilon, norm = (1 if s > 0 else -1), abs(s) ** 0.5
        return np.column_stack([top - dot(top, top) / (2 * s) * low, low * epsilon]) / norm, epsilon
    e2, e3, e1 = np.array(chain) / dot(chain[2], chain[0]) ** 0.5
    shift = -0.5 * dot(e2, e3)
    e2 = e2 - 0.5 * (dot(e2, e2) + 2 * shift * dot(e2, e3) + shift * shift) * e1 + shift * e3
    return np.column_stack([e1, e2, e3 + shift * e1]), None


def _jordan_chain(A, G, jtype, lam, alg, geo, kernel):
    """(chain, rest, epsilon): the columns of the type II or III block at the
    defective eigenvalue lam (_chain_columns), and the geo - 1 spacelike
    directions of its kernel off the chain.  With N = A - lam I the chain has
    length p = alg - geo + 1: its top is the least-null direction of
    (V^T N V)^(p-1), V the alg most-null right singular vectors of N^p, and N
    maps it down; a pairing too small to normalise raises."""
    n = A.shape[0]
    N = A - lam * np.eye(n)
    p = alg - geo + 1
    V = np.linalg.svd(np.linalg.matrix_power(N, p))[2][n - alg:].T
    chain = [V @ np.linalg.svd(np.linalg.matrix_power(V.T @ N @ V, p - 1))[2][0]]
    for _ in range(p - 1):
        chain.append(N @ chain[-1])
    pairing, scale = chain[-1] @ G @ chain[0], 1 + np.abs(A).max()
    if jtype == "II" and abs(pairing) < 1e-12 * scale:
        raise NondiagnosableOperator("degenerate semi-null pairing in type II block")
    if jtype == "III" and pairing <= 1e-12 * scale**2:
        raise NondiagnosableOperator("type III chain has nonpositive pairing")
    cols, epsilon = _chain_columns(chain, lambda x, y: x @ G @ y)
    unit, null = cols.T[:2] if jtype == "II" else cols.T[1::-1]
    rest = np.empty((n, 0))
    if geo > 1:
        # the kernel directions G-orthogonal to the chain (<null, unit> = 1)
        K = kernel - np.outer(null, (unit @ G @ kernel) / float(null @ G @ unit))
        q, _, _ = np.linalg.svd(K, full_matrices=False)
        rest, signs = _form_orthonormalize(G, q[:, : geo - 1])
        if (signs < 0).any():
            raise NondiagnosableOperator(f"type {jtype} kernel complement is not spacelike")
    return cols, rest, epsilon

"""The algebraic lift correspondence through the anti-De Sitter model.

CH^n is the base of a semi-Riemannian submersion from the anti-De Sitter
quadric in C^(n+1) with timelike circle fibers.  A hypersurface downstairs
with principal curvatures lambda_i and Hopf coefficients b_i = <J xi, X_i>
lifts to a Lorentzian hypersurface whose shape operator, in the frame of
lifted principal directions plus the vertical field, is the bordered
matrix

    [ diag(lambda_i)      -b_i sqrt(-c)/2 ]
    [ b_i sqrt(-c)/2             0        ]

self-adjoint for the Gram diag(1, ..., 1, -1).  Classifying that operator
into its Lorentzian Jordan type and projecting back recovers the
downstairs spectrum, and the four types separate the isoparametric
families: diagonalizable lifts are tubes around complex totally geodesic
subspaces, defect-one lifts are horospheres, complex-pair lifts are tubes
around the real form, and defect-two lifts are tubes around the ruled
minimal submanifolds.

The bordered matrix is an arrowhead.  A row with no Hopf weight is an
exact spacelike eigenvector, and classify_lift reads the rest of the
spectrum off the secular function of the weighted runs, f(x) = x -
s0^2 sum_j w_j / (d_j - x): its roots, their eigenvectors and, at a double
or triple root, the Jordan chain.  A weightless curvature is decided from
f, f' and f'' there, so the defective eigenvalue of a W-tube stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolation,
    DimensionMismatch,
    NondiagnosableOperator,
    check_curvature,
)
from .indefinite_linalg import (
    JORDAN_TOL, MERGE_TOL, RANK_TOL, JordanClassification, _assemble, _chain_columns,
    _check_reconstruction, _pair_basis, cluster,
)
from .tube_geometry import TubeSpectrum, _tube_block, spectrum_from_pairs


@dataclass(frozen=True)
class LiftedShapeData:
    """Downstairs spectrum plus Hopf coefficients b_i = <J xi, X_i>.

    b must be a unit vector: J xi is unit and tangent, expanded in the
    orthonormal principal frame X_1, ..., X_(2n-1) that orders the
    curvatures ascending (matching spectrum_down.expanded()).
    """

    spectrum_down: TubeSpectrum
    b: np.ndarray
    c: float

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        check_curvature(self.c)
        if len(b) != self.spectrum_down.dim:
            raise DimensionMismatch("b length does not match the spectrum dimension")
        if not abs(np.sqrt(b @ b) - 1.0) <= 1e-8:  # also rejects NaN
            raise ValueError("b must be a unit vector")
        object.__setattr__(self, "b", b)


def hopf_lift_data(spectrum: TubeSpectrum, c: float) -> LiftedShapeData:
    """Lift data for a Hopf hypersurface: b is the coordinate vector of the
    Hopf principal direction."""
    if spectrum.hopf_value is None:
        raise ValueError("spectrum has no Hopf value; supply b explicitly")
    entries = spectrum.entries  # the first row of the curvature nearest the Hopf value
    j = min(range(len(entries)), key=lambda i: abs(entries[i][0] - spectrum.hopf_value))
    b = np.zeros(sum(a for _, a, _ in entries))
    b[sum(a for _, a, _ in entries[:j])] = 1.0
    return LiftedShapeData(spectrum, b, c)


def tube_lift_data(spec, xi) -> LiftedShapeData:
    """Lift data for a tube around W_w at the point reached along xi.

    The tube is not Hopf when the angle of xi is strictly between 0 and
    pi/2, so b is computed from the coupled block of the shape operator
    (tube_geometry._tube_block): J xi has no weight on the bulk curvatures
    lambda and mu, and its weight on the block's eigenvectors y is
    y^T (-u_V).
    """
    lam, mu, m_lam, m_mu, block, u = _tube_block(spec, xi)
    evals, evecs = np.linalg.eigh(0.5 * (block + block.T))  # ascending
    b = np.zeros(m_lam + m_mu + len(evals))
    # a block row follows the bulk rows whose values are at most its own
    b[np.arange(len(evals)) + m_lam * (lam <= evals) + m_mu * (mu <= evals)] = evecs.T @ (-u)
    pairs = [(lam, m_lam), (mu, m_mu), *((e, 1) for e in evals)]
    return LiftedShapeData(spectrum_from_pairs(pairs), b, spec.c)


def _arrowhead(values, border, s0):
    """The bordered matrix with the given diagonal, last column -s0 border
    and last row +s0 border, and the signs (+1, ..., +1, -1) of its Gram."""
    M = np.diag(np.append(values, 0.0))
    M[:-1, -1] = -border * s0
    M[-1, :-1] = border * s0
    return M, np.append(np.ones(len(values)), -1.0)


def lift_shape_operator(data: LiftedShapeData) -> tuple[np.ndarray, np.ndarray]:
    """(M, gram): the bordered (2n x 2n) lifted shape operator and its Gram.

    Diagonal: the downstairs curvatures.  Last column -b_i sqrt(-c)/2,
    last row +b_i sqrt(-c)/2, corner 0.  Self-adjoint for the Gram
    diag(1,...,1,-1), so classify_jordan(*lift_shape_operator(data)) types
    it; its trace equals the downstairs mean curvature exactly.
    """
    M, signs = _arrowhead(data.spectrum_down.expanded(), data.b, np.sqrt(-data.c) / 2)
    return M, np.diag(signs)


def _lift_residuals(block, signs, cls, rows, offsets):
    """residuals(M, gram) of the bordered matrix M in cls's basis, without M:
    cls.residuals of block on rows (the weighted rows and the vertical field),
    which hold every column but the unit ones, whose residual is their offset."""
    gram_err, shape_err = cls.residuals(block, np.diag(signs), rows)
    return gram_err, float(np.max(np.abs([*offsets, shape_err])))  # np.max: a NaN fails the guard


def _secular(gap, x, sb):
    """(t, f, f', f''/2) of f(x) = x - sum sb^2 / (d - x) at x, a scalar or a
    vector, gap = d - x: (t, 1) is v(x), the eigenvector where f(x) = 0."""
    t = sb / gap
    return t, x - t @ sb, 1.0 - (t * t).sum(-1), -(t * t / gap).sum(-1)


def _chain(x, d, sb, signs, length):
    """(columns, epsilon) of the type II or III block, of length 2 or 3, at x:
    with N = M - x and u the vertical field, N v = -f u, N v' = v - f' u and
    N v''/2 = v' - f''/2 u, so shifts along u give v, v', v''/2 the Gram of
    an exact chain, which _chain_columns normalises as it does
    classify_jordan's."""
    t = sb / (d - x)
    v, v1, v2 = (np.append(t / (d - x) ** j, float(j == 0)) for j in range(3))
    u = np.append(np.zeros(len(t)), 1.0)

    def dot(p, q):  # numpy floats: an overflow is inf and a negative root NaN
        return p @ (signs * q)

    g = dot(v, v)  # <v + a u, v + a u> = g - 2a - a^2 and <v + a u, u> = -(1 + a)
    a = g / (1 + (1 + g) ** 0.5)
    v = v + a * u
    if length == 3:
        v1 = v1 + dot(v, v1) / (1 + a) * u  # <v, v'> = 0
        v2 = v2 + (dot(v, v2) - dot(v1, v1)) / (1 + a) * u  # <v, v''/2> = <v', v'>
    return _chain_columns([v2, v1, v][3 - length:], dot)


def classify_lift(data: LiftedShapeData) -> JordanClassification:
    """Classify the lifted shape operator from its secular equation.

    A row of the arrowhead M with no Hopf weight is an exact spacelike unit
    eigenvector, and so is each direction of a run orthogonal to its b.  The
    other eigenvalues are the roots of f(x) = x - s0^2 sum_j w_j / (d_j - x),
    w_j the weight sum b_i^2 of the run of value d_j (Golub 1973; Bunch,
    Nielsen and Sorensen 1978), with eigenvector v(x) = (s0 b_i / (d_i - x),
    1), timelike where f'(x) = -<v, v> > 0, and at a double or triple root
    the chain v, v' (v''/2).  With S = 1 + max|M|, a weightless value e is
    a root where |f(e)| <= RANK_TOL S and |f/f'| <= MERGE_TOL S, a double
    one where instead |f'(e)| <= RANK_TOL, a triple one where also
    |f''(e)/2| S <= JORDAN_TOL; it stays exact, and its copies among the
    roots of the compressed arrowhead (one row per run, R its largest entry)
    must lie within RANK_TOL S, or JORDAN_TOL S if multiple.  The other
    roots are real below MERGE_TOL R of imaginary part (two within it a
    double root) and a type IV pair above JORDAN_TOL R; a simple one takes a
    Newton step, or, within RANK_TOL S of a pole, its offset from it.
    Eigenvalues within MERGE_TOL S merge to the mean over all their copies.
    A decision between these thresholds or against another, or a basis (in
    classify_jordan's order) missing M by more than JORDAN_TOL S, the guard
    of its widest merge (_lift_residuals), raises NondiagnosableOperator.
    """
    spec, b, values = data.spectrum_down, data.b, data.spectrum_down.values
    run = np.repeat(np.arange(len(values)), [a for _, a, _ in spec.entries])  # row -> value
    m, s0 = len(run), np.sqrt(-data.c) / 2
    scale = 1.0 + max(abs(values[0]), abs(values[-1]), s0 * np.abs(b).max())
    weighted = b * b > 0
    rows = np.flatnonzero(np.append(weighted, True))  # the block: weighted rows, vertical field
    dw, sb, pole_of = values[run[weighted]], s0 * b[weighted], run[weighted]
    block, signs = _arrowhead(dw, b[weighted], s0)
    heavy = np.bincount(pole_of, minlength=len(values))  # weighted rows per value
    weight = np.bincount(pole_of, sb * sb, minlength=len(values))[heavy > 0]  # s0^2 w_j
    compressed = _arrowhead(values[heavy > 0], weight ** 0.5, 1.0)[0]
    root_scale = np.abs(compressed).max()
    if len(weight) == 1:  # x^2 - d x + s0^2 w, written down: a Hopf op is tube-sweep's p50
        half, beta = values[heavy > 0][0] / 2, weight[0] ** 0.5
        root = np.sqrt(abs(half) - beta + 0j) * np.sqrt(abs(half) + beta)  # no square to overflow
        roots = [half + root, half - root]
    else:
        roots = np.linalg.eigvals(compressed).astype(complex).tolist()
    light = np.flatnonzero(~weighted)
    units = np.zeros((m + 1, len(light)))  # the weightless rows' unit columns, by value
    units[light, np.arange(len(light))] = 1.0
    cut = np.searchsorted(run[light], np.arange(len(values) + 1))
    lead, pair, epsilon, jtype, first = units[:, :0], None, None, "I", None

    def part(x, blocks, length, gap):  # [value, alg, geo, blocks, units, secular, key]
        nonlocal lead, epsilon, jtype
        c, unit = sum(blk.shape[1] for blk in blocks), blocks[0].shape[1]
        if length == 1:  # v(x), timelike or not; 2 or 3: the chain, the key part
            t, _, slope, _ = _secular(gap, x, sb)
            col = np.zeros((m + 1, 1))
            col[rows, 0] = np.append(t, 1.0) / abs(slope) ** 0.5
            return [x, c + 1, c + 1, [col, *blocks], unit, True, slope > 0]
        if length > 1:
            if jtype != "I":
                raise NondiagnosableOperator("more than one defective secular root")
            lead, jtype = np.zeros((m + 1, length)), "I" * length  # II or III
            lead[rows], epsilon = _chain(x, dw, sb, signs, length)
        return [x, c + length, c + (length > 0), blocks, unit, length > 0, length > 0]

    with np.errstate(all="ignore"):  # an overflow fails a decision or the guard; inf at the poles
        _, f0, f1, f2 = _secular(dw - values[:, None], values, sb)
        root = np.abs(f0) <= RANK_TOL * scale
        mult = np.where(root & (np.abs(f1) <= RANK_TOL), 2 + (np.abs(f2) * scale <= JORDAN_TOL),
                        root & (np.abs(f0) <= MERGE_TOL * scale * np.abs(f1)))
        for j in np.argsort(-mult, kind="stable")[:np.count_nonzero(mult)]:
            e, k, tol = values[j], mult[j], RANK_TOL if mult[j] == 1 else JORDAN_TOL
            roots.sort(key=lambda z: abs(z - e))
            if len(roots) < k or not abs(roots[k - 1] - e) <= tol * scale:
                raise NondiagnosableOperator(f"the roots near {e:.6g} do not match f there")
            del roots[:k]
        parts, entries, offsets = [], [], []
        for j, e in enumerate(values):
            blocks = [units[:, cut[j]:cut[j + 1]]]
            if heavy[j] > 1:  # the run's directions orthogonal to its b are exact too
                on = np.flatnonzero(pole_of == j)
                blocks.append(np.zeros((m + 1, len(on) - 1)))
                blocks[1][rows[on]] = np.linalg.svd(sb[on][None])[2][1:].T
            parts.append(part(e, blocks, int(mult[j]), dw - e))

        if any(MERGE_TOL * root_scale < abs(z.imag) <= JORDAN_TOL * root_scale for z in roots):
            raise NondiagnosableOperator("a secular root is neither real nor complex at every rung")
        upper = [z for z in roots if z.imag > JORDAN_TOL * root_scale]
        if upper:
            if len(upper) != 1 or jtype != "I":
                raise NondiagnosableOperator("a complex pair beside another pair or defect")
            (z,), jtype, lead = upper, "IV", np.zeros((m + 1, 2))
            pair, v = (float(z.real), float(z.imag)), sb / (dw - z)
            lead[rows] = _pair_basis(np.append(v.real, 1.0), np.append(v.imag, 0.0), np.diag(signs))
        reals = np.sort([z.real for z in roots if abs(z.imag) <= MERGE_TOL * root_scale])
        for s in cluster(reals, MERGE_TOL * root_scale) if len(reals) else ():  # two: a double root
            x, gap = float(reals[s].mean()), dw - reals[s].mean()
            if s.stop - s.start == 1:  # one Newton step or, within rounding of a pole, its offset
                near = pole_of == pole_of[np.argmin(np.abs(gap))]
                if np.abs(gap[near]).max() <= RANK_TOL * scale:
                    gap[near] = sb[near] @ sb[near] / (x - sb[~near] @ (sb[~near] / gap[~near]))
                else:
                    _, fx, slope, _ = _secular(gap, x, sb)
                    x, gap = x - fx / slope, dw - (x - fx / slope)
            parts.append(part(x, [units[:, :0]], s.stop - s.start, gap))
        if sum(p[6] for p in parts) != (pair is None):
            raise NondiagnosableOperator(f"type {jtype} lift with a wrong number of timelike roots")

        parts = sorted((p for p in parts if p[1]), key=lambda p: p[0])
        for s in cluster([p[0] for p in parts], MERGE_TOL * scale):
            group = sorted(parts[s], key=lambda p: not p[5])  # a secular part's columns first
            alg, v0 = sum(p[1] for p in group), min(p[0] for p in group)
            value = v0 + sum(p[1] * (p[0] - v0) for p in group) / alg if len(group) > 1 else v0
            if len(group) > 1 and (group[1][5] or max(p[0] for p in group) - v0 > RANK_TOL * scale):
                raise NondiagnosableOperator(f"eigenvalues merged near {value:.6g} are not one kernel")
            offsets += [p[0] - value for p in group if p[4]]  # the mean over all copies
            entries.append([value, alg, sum(p[2] for p in group), [c for p in group for c in p[3]]])
            first = entries[-1] if group[0][6] else first
        cls = _assemble(jtype, lead, entries, first, pair, epsilon)
        residuals = _lift_residuals(block, signs, cls, rows, offsets)
    _check_reconstruction(residuals, scale, JORDAN_TOL * scale, "deflated lift does not reconstruct")
    return cls


def project_spectrum(cls: JordanClassification, c: float) -> TubeSpectrum:
    """Downstairs spectrum of a hypersurface whose lift has the given type.

    Type I: both eigenvalues lose one dimension to the vertical plane and
    the Hopf curvature is their sum.  Type II: the single eigenvalue
    lambda = +-sqrt(-c)/2 appears with multiplicity 2n-2 plus the Hopf
    value 2 lambda.  Type IV: real eigenspaces descend whole and the Hopf
    value is 2a = 4 c lambda / (c - 4 lambda^2).  Type III determines only
    the eigenvalues shared by every point of the tube family; the three
    remaining curvatures vary with the Kahler angle of the normal
    direction, so they are reported as unresolved dimensions.

    Raises ConstraintViolation when the classification violates the
    algebraic relations forced on isoparametric lifts.
    """
    s0 = np.sqrt(-c) / 2
    dim_down = cls.dim - 1

    if cls.jtype == "I":
        if len(cls.real_eigs) != 2:
            raise ConstraintViolation("a diagonalizable lift has exactly two eigenvalues")
        (lam, m_lam, _), (mu, m_mu, _) = cls.real_eigs
        if abs(c + 4 * lam * mu) > 1e-8 * abs(c):
            raise ConstraintViolation("eigenvalue pair fails c + 4 lambda mu = 0")
        raw = [(lam, m_lam - 1), (mu, m_mu - 1), (lam + mu, 1)]
        hopf = lam + mu
    elif cls.jtype == "II":
        if len(cls.real_eigs) != 1:
            raise ConstraintViolation("a defect-one lift has a single eigenvalue")
        lam = cls.real_eigs[0][0]
        if abs(abs(lam) - s0) > 1e-8 * s0:
            raise ConstraintViolation("defect-one lifts require lambda = +-sqrt(-c)/2")
        raw = [(lam, dim_down - 1), (2 * lam, 1)]
        hopf = 2 * lam
    elif cls.jtype == "IV":
        a, b = cls.complex_pair
        if abs(4 * a**2 + 4 * b**2 + c) > 1e-7 * abs(c):
            raise ConstraintViolation("complex pair fails 4a^2 + 4b^2 + c = 0")
        raw = [(v, m) for v, m, _ in cls.real_eigs]
        raw.append((2 * a, 1))
        hopf = 2 * a
    elif cls.jtype == "III":
        lam = cls.defective_eig
        if abs(lam) >= s0:
            raise ConstraintViolation("defect-two lifts require |lambda| < sqrt(-c)/2")
        raw = [(v, m - (3 if v == lam else 1)) for v, m, _ in cls.real_eigs]
        known = sum(m for _, m in raw)
        return spectrum_from_pairs(raw, unresolved_dims=dim_down - known, family="w-tube")
    else:
        raise ConstraintViolation(f"unknown type {cls.jtype!r}")
    down = spectrum_from_pairs(raw, hopf_value=float(hopf))
    if cls.jtype == "I" and (down.hopf_value, 1, 1) not in down.entries:  # lambda mu = -c/4 != 0
        raise ConstraintViolation("the Hopf value lambda + mu merges with another curvature")
    return down

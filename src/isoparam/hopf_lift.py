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

The bordered matrix is an arrowhead, and classify_lift classifies only
its block: the rows with Hopf weight, one weightless anchor per run of
equal curvatures and the vertical field.  Every other row is an exact
spacelike unit eigenvector, so the full matrix reconstructs exactly when
the block does, with the eigenvalues its runs joined; the guard of
classify_jordan's last rung is checked on the block alone.  Hopf data has
one weighted row, so its block has one row per distinct curvature and
its type is fixed by one 2 x 2 block (Magid), classified in closed form
wherever no rung of classify_jordan's ladder could decide otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolation,
    DimensionMismatch,
    check_curvature,
)
from .indefinite_linalg import (
    JORDAN_TOL, RANK_TOL, JordanClassification, _assemble, _check_reconstruction, _pair_basis,
    classify_jordan, cluster,
)
from .tube_geometry import TubeSpectrum, _tube_block, spectrum_from_values


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
        if not abs(np.linalg.norm(b) - 1.0) <= 1e-8:  # also rejects NaN
            raise ValueError("b must be a unit vector")
        object.__setattr__(self, "b", b)


def hopf_lift_data(spectrum: TubeSpectrum, c: float) -> LiftedShapeData:
    """Lift data for a Hopf hypersurface: b is the coordinate vector of the
    Hopf principal direction."""
    if spectrum.hopf_value is None:
        raise ValueError("spectrum has no Hopf value; supply b explicitly")
    values = spectrum.expanded()
    idx = int(np.argmin(np.abs(values - spectrum.hopf_value)))
    b = np.zeros(len(values))
    b[idx] = 1.0
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
    evals, evecs = np.linalg.eigh(0.5 * (block + block.T))
    values = np.concatenate([np.full(m_lam, lam), np.full(m_mu, mu), evals])
    b = np.concatenate([np.zeros(m_lam + m_mu), evecs.T @ (-u)])
    order = np.argsort(values, kind="stable")
    return LiftedShapeData(spectrum_from_values(values), b[order], spec.c)


def _arrowhead(values, border, s0):
    """The bordered matrix with the given diagonal, last column -s0 border
    and last row +s0 border, and the signs (+1, ..., +1, -1) of its Gram."""
    m = len(values)
    M = np.zeros((m + 1, m + 1))
    M[np.arange(m), np.arange(m)] = values
    M[:m, m] = -border * s0
    M[m, :m] = border * s0
    signs = np.ones(m + 1)
    signs[m] = -1.0
    return M, signs


def lift_shape_operator(data: LiftedShapeData) -> tuple[np.ndarray, np.ndarray]:
    """(M, gram): the bordered (2n x 2n) lifted shape operator and its Gram.

    Diagonal: the downstairs curvatures.  Last column -b_i sqrt(-c)/2,
    last row +b_i sqrt(-c)/2, corner 0.  Self-adjoint for the Gram
    diag(1,...,1,-1), so classify_jordan(*lift_shape_operator(data)) types
    it; its trace equals the downstairs mean curvature exactly.
    """
    M, signs = _arrowhead(data.spectrum_down.expanded(), data.b, np.sqrt(-data.c) / 2)
    return M, np.diag(signs)


def _lift_residuals(block, signs, joined, offsets):
    """residuals(M, gram) of the full bordered matrix M in classify_lift's
    basis, without M: on the block's rows the basis is joined's, which
    carries the eigenvalues the block's took, and a free row's unit column
    leaves only its offset, its run's value minus the eigenvalue joined."""
    gram_err, shape_err = joined.residuals(block, np.diag(signs))
    # np.max, not max: a NaN residual must survive to fail the guard
    return gram_err, float(np.max(np.abs([shape_err, *offsets])))


def _hopf_block(block):
    """classify_jordan of an arrowhead block from _arrowhead, in closed form;
    None unless exactly one border entry, beta on row h, is nonzero and no
    other row shares h's diagonal value, and None where a rung of the
    ladder could decide otherwise.

    The other rows are exact spacelike eigenvectors, the anchors.  Row h and
    the vertical field couple through [[lam_H, -beta], [beta, 0]] with Gram
    diag(1, -1) (Magid), whose characteristic polynomial x^2 - lam_H x
    + beta^2 has discriminant disc = (lam_H - 2 beta)(lam_H + 2 beta).
    Where disc > 0 the roots x carry the eigenvectors (x, beta) on (h,
    vertical), timelike for the smaller |x| (type I); where disc < 0 they
    are the pair lam_H/2 +- i sqrt(-disc)/2 (type IV); at 0 the double root
    lam_H/2 carries a semi-null pair with epsilon = sign(lam_H) (type II).

    With scale = 1 + max|block|, the closed form answers only where the
    root split sqrt|disc| and each gap between the sorted candidates (the
    anchor values and the real roots) is at most RANK_TOL scale, merged to
    the mean of its copies, or above JORDAN_TOL scale, kept apart; a merged
    run spans at most RANK_TOL scale, a double root keeps one eigenvector
    only where |beta| is above JORDAN_TOL scale, and 4 scale^2 is finite.
    """
    m = len(block) - 1
    values, nonzero = np.diag(block)[:m], np.flatnonzero(block[m, :m])
    if len(nonzero) != 1 or (values == values[nonzero[0]]).sum() > 1:
        return None
    h = int(nonzero[0])
    lam_h, beta = float(values[h]), float(block[m, h])  # floats: an overflow is inf, not a warning
    scale = 1.0 + float(np.abs(block).max())
    merge, apart = RANK_TOL * scale, JORDAN_TOL * scale
    disc = (lam_h - 2 * beta) * (lam_h + 2 * beta)
    split = abs(disc) ** 0.5
    double = split <= merge
    # 4 scale^2 bounds every square and product formed below
    if not 4 * scale * scale < np.inf or merge < split <= apart or double and not abs(beta) > apart:
        return None
    # candidates (value, alg, geo, columns): the roots, then the anchors
    cands, lead, pair, epsilon = [], np.zeros((m + 1, 0)), None, None
    if double:  # the root lam and the chain u, v with N u = epsilon v
        lam = lam_h / 2
        epsilon = 1 if lam > 0 else -1
        root = abs(lam) ** 0.5
        lead = np.zeros((m + 1, 2))
        lead[[h, m], 0] = 0.5 / root, -beta / (2 * lam * root)
        lead[[h, m], 1] = root, epsilon * beta / root
        cands.append((lam, 2, 1, lead[:, :0]))
    elif disc < 0:
        pair = (lam_h / 2, split / 2)
        x, y = np.zeros(m + 1), np.zeros(m + 1)
        x[[h, m]] = pair[0], beta
        y[h] = pair[1]
        lead = _pair_basis(x, y, np.diag([1.0] * m + [-1.0]))
    else:  # the timelike root beta^2 / big first; |x^2 - beta^2| = |x| sqrt(disc)
        big = (lam_h + (split if lam_h > 0 else -split)) / 2
        for x in (beta * beta / big, big):
            if not abs(x) * split > 0:
                return None
            v = np.zeros((m + 1, 1))
            v[[h, m], 0] = x, beta
            cands.append((x, 1, 1, v / (abs(x) * split) ** 0.5))
    key = cands[0] if cands else None  # the timelike or defective root
    eye = np.eye(m + 1)
    cands += [(values[j], 1, 1, eye[:, j:j + 1]) for j in range(m) if j != h]

    order = np.argsort([c[0] for c in cands], kind="stable")
    vals = np.array([cands[i][0] for i in order])
    runs, gaps = cluster(vals, merge), np.diff(vals)
    if ((gaps > merge) & (gaps <= apart)).any() or any(vals[s][-1] - vals[s][0] > merge for s in runs):
        return None
    entries, first = [], None
    for s in runs:
        members = [cands[i] for i in sorted(order[s])]  # roots before anchors
        alg = sum(c[1] for c in members)
        value = sum(c[0] * c[1] for c in members) / alg  # the mean over all copies
        entries.append([value, alg, sum(c[2] for c in members), [c[3] for c in members]])
        if any(c is key for c in members):
            first = entries[-1]
    jtype = "II" if epsilon else "IV" if pair else "I"
    return _assemble(jtype, lead, entries, first, pair, epsilon)


def classify_lift(data: LiftedShapeData) -> JordanClassification:
    """Classify the lifted shape operator on its bordered block.

    A curvature of multiplicity L is a run of L equal diagonal entries of
    the arrowhead, and a row of the run with no Hopf weight is an exact
    eigenvector of the lift: spacelike, unit, with the run's value.  The
    block keeps the rows with weight, the first weightless row of each run
    that has one (its anchor) and the vertical field.  The anchor keeps the
    run's value an eigenvalue of the block, so the block's classification
    makes every merge of it: the defective eigenvalue of a W-tube carries
    no weight, and its anchor holds the split triple root to type III.
    _hopf_block classifies the block in closed form where it decides it,
    and classify_jordan otherwise.

    The other weightless rows of a run are free columns that join the
    block eigenvalue nearest the run's value, the anchor's; a joined
    eigenvalue is the mean over all its copies.  The adapted basis keeps
    the canonical order of classify_jordan (the leading block, then the
    timelike or defective eigenvalue, then the rest ascending).  It must
    reconstruct the full bordered matrix within the bound of the last
    rung of classify_jordan, at scale 1 + max|block|, the full matrix's,
    or NondiagnosableOperator is raised; _lift_residuals evaluates it on
    the block.
    """
    lengths = [a for _, a, _ in data.spectrum_down.entries]
    d = data.spectrum_down.expanded()
    m = len(d)

    # kept rows: each run's anchor, then its weighted rows
    weighted = data.b != 0
    kept, runs = [], []  # runs: (value, free rows) of each run that has some
    for s, L in zip(np.cumsum([0] + lengths[:-1]), lengths):
        light = s + np.flatnonzero(~weighted[s:s + L])
        kept += [*light[:1], *s + np.flatnonzero(weighted[s:s + L])]
        if len(light) > 1:
            runs.append((d[s], light[1:]))
    block, signs = _arrowhead(d[kept], data.b[kept], np.sqrt(-data.c) / 2)
    small = _hopf_block(block) or classify_jordan(block, np.diag(signs))

    # embed: the block's rows are the kept rows and the vertical field;
    # [value, alg, geo, column blocks] per eigenvalue
    lead = small.dim - len(small.diag)  # the canonical block's columns
    cols = np.zeros((m + 1, small.dim))
    cols[kept + [m]] = small.adapted_basis
    diag = np.array(small.diag)
    eigs = [[v, a, g, [cols[:, lead:][:, diag == v]]] for v, a, g in small.real_eigs]
    # the timelike (I) or defective (II, III) eigenvalue comes first; IV has none
    first = small.diag[0] if small.jtype == "I" else small.defective_eig
    first = next((e for e in eigs if e[0] == first), None)
    centers = np.array([e[0] for e in eigs])
    joins = []  # (value, entry) of each run
    for value, rows in runs:
        e, k = eigs[int(np.argmin(np.abs(centers - value)))], len(rows)
        e[0] += k * (value - e[0]) / (e[1] + k)  # the mean over all copies
        e[1] += k
        e[2] += k
        F = np.zeros((m + 1, k))
        F[rows, range(k)] = 1.0
        e[3].append(F)
        joins.append((value, e))
    cls = _assemble(small.jtype, cols[:, :lead], eigs, first, small.complex_pair, small.epsilon)

    # the guard of classify_jordan's last rung on the full bordered matrix,
    # whose largest entry is in block; joined is small with the values that
    # the block's eigenvalues took
    moved = {v: e[0] for e, (v, _, _) in zip(eigs, small.real_eigs)}
    joined = JordanClassification(
        small.jtype, tuple((moved[v], a, g) for v, a, g in small.real_eigs), small.complex_pair,
        small.epsilon, small.adapted_basis, tuple(moved[v] for v in small.diag), small.dim)
    residuals = _lift_residuals(block, signs, joined, [value - e[0] for value, e in joins])
    scale = 1.0 + np.abs(block).max()
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
        raw = []
        for v, m, _ in cls.real_eigs:
            if v == lam:
                if m - 3 > 0:
                    raw.append((v, m - 3))
            elif m - 1 > 0:
                raw.append((v, m - 1))
        known = sum(m for _, m in raw)
        values = [v for v, m in raw for _ in range(m)]
        return spectrum_from_values(values, unresolved_dims=dim_down - known, family="w-tube")
    else:
        raise ConstraintViolation(f"unknown type {cls.jtype!r}")

    values = [v for v, m in raw if m > 0 for _ in range(m)]
    return spectrum_from_values(values, hopf_value=float(hopf))

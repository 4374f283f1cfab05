"""The anti-De Sitter model and the algebraic lift correspondence.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, DimensionMismatch, check_curvature
from .indefinite_linalg import (
    JordanClassification,
    LorentzForm,
    SelfAdjointOperator,
    classify_jordan,
)
from .tube_geometry import TubeSpectrum, spectrum_from_values


def ads_inner(z, w) -> float:
    """Re( -z_0 conj(w_0) + sum_k z_k conj(w_k) ) on C^(n+1)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if z.shape != w.shape:
        raise DimensionMismatch("vectors have different lengths")
    prods = z * np.conj(w)
    return float(np.real(prods[1:].sum() - prods[0]))


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
    pi/2, so b is computed from the numeric shape operator: its principal
    frame together with the parallel-transported -J xi.
    """
    from .tube_geometry import tube_operator_frame

    S, u = tube_operator_frame(spec, xi)
    evals, evecs = np.linalg.eigh(0.5 * (S + S.T))
    b = evecs.T @ (-u)
    return LiftedShapeData(spectrum_from_values(evals), b, spec.c)


def lift_shape_operator(data: LiftedShapeData) -> SelfAdjointOperator:
    """The bordered (2n x 2n) lifted shape operator.

    Diagonal: the downstairs curvatures.  Last column -b_i sqrt(-c)/2,
    last row +b_i sqrt(-c)/2, corner 0.  Self-adjoint for diag(1,...,1,-1);
    its trace equals the downstairs mean curvature exactly.
    """
    values = data.spectrum_down.expanded()
    m = len(values)
    s0 = np.sqrt(-data.c) / 2
    M = np.zeros((m + 1, m + 1))
    M[np.arange(m), np.arange(m)] = values
    M[:m, m] = -data.b * s0
    M[m, :m] = data.b * s0
    gram = np.diag([1.0] * m + [-1.0])
    return SelfAdjointOperator(LorentzForm(m + 1, gram), M)


def classify_lift(data: LiftedShapeData) -> JordanClassification:
    """Lift the spectrum and classify the resulting Lorentzian operator."""
    return classify_jordan(lift_shape_operator(data))


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
        return spectrum_from_values(
            values, unresolved_dims=dim_down - known, family="w-tube"
        ) if values else TubeSpectrum((), unresolved_dims=dim_down, family="w-tube")
    else:
        raise ConstraintViolation(f"unknown type {cls.jtype!r}")

    values = [v for v, m in raw if m > 0 for _ in range(m)]
    return spectrum_from_values(values, hopf_value=float(hopf))

"""Exception types shared across the library, and the curvature, radius and
seed checks."""

import math
import numbers


class IsoparamError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(IsoparamError):
    """Operands live in spaces of different dimensions."""


class NondiagnosableOperator(IsoparamError):
    """The eigenstructure matches none of the Lorentzian canonical forms.

    The input has passed the entry checks of classify_jordan, so this
    signals eigenvalues that the fixed tolerances of indefinite_linalg
    cannot separate or merge: near-coincident values or a nearly
    defective block.
    """


class VectorNotInSubspace(IsoparamError):
    """A vector expected to lie in a subspace does not (within tolerance)."""


class WNotProper(IsoparamError):
    """The defining subspace must be a proper real subspace of C^(n-1)."""


class NotTangent(IsoparamError):
    """A vector expected to be tangent to the submanifold is not."""


class NotNormal(IsoparamError):
    """A vector expected to be a unit normal of the submanifold is not."""


class InvalidCodimension(IsoparamError):
    """Codimension k outside the admissible range for the requested formula."""


class FocalRadius(IsoparamError):
    """A tube radius that is not finite and positive, at which the tube
    degenerates to the focal submanifold, or at which its data overflow or
    its evolved shape operator is no longer symmetric within 1e-8."""


class InvalidK(IsoparamError):
    """Invalid k parameter for a standard example."""


class DuplicateEigenvalue(IsoparamError):
    """The Cartan sum has a vanishing denominator."""


class PoleAtP(IsoparamError):
    """The rational function phi is evaluated at its pole x = p."""


class ConstraintViolation(IsoparamError):
    """Jordan data violates the algebraic constraints of an isoparametric lift."""


class ParityViolation(IsoparamError):
    """A constant-angle subspace with angle below pi/2 must have even dimension."""


def check_curvature(c: float):
    """Raise ValueError unless the ambient curvature c is finite and negative."""
    if not -math.inf < c < 0:  # also rejects NaN
        raise ValueError(f"curvature c must be negative and finite, got {c}")


def check_radius(r, zero_ok=False):
    """Raise FocalRadius unless the tube radius r is positive and finite;
    zero_ok admits r = 0, where a core of codimension one (case iv, k = 1)
    is the hypersurface itself."""
    if r is None or not 0 <= r < math.inf:  # also rejects NaN
        raise FocalRadius(f"tube radius must be positive and finite, got {r}")
    if r == 0 and not zero_ok:
        raise FocalRadius("r = 0 degenerates the tube to the focal submanifold")


def check_seed(seed):
    """Raise ValueError unless seed is a non-negative integer, as numpy
    seeds its generators."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

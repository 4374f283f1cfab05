"""Decision procedures for the classification of isoparametric families.

Cartan's fundamental formula in Lorentzian space forms, the sign filter
used in its analysis, the per-type algebraic constraints satisfied by
lifts of isoparametric hypersurfaces, the case classifier with
homogeneity flags, and the enumeration of admissible Kahler-angle
profiles (the moduli space of congruence classes).

The six cases:

    i    tube around a totally geodesic CH^k, k in {0, ..., n-1}
    ii   tube around a totally geodesic RH^n
    iii  horosphere
    iv   the minimal ruled hypersurface W^(2n-1) and its equidistants
    v    tube around a Berndt-Brueck submanifold W_phi^(2n-k)
    vi   tube around a W_w whose normal space has nonconstant angle

Cases i-v are exactly the homogeneous ones, and also exactly the ones
with constant principal curvatures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DuplicateEigenvalue,
    InvalidK,
    ParityViolation,
    PoleAtP,
    WNotProper,
    check_curvature,
    check_radius,
)
from .indefinite_linalg import JordanClassification, cluster
from .kahler_angle import (
    ANGLE_TOL,
    KahlerProfile,
    RealSubspace,
    complement,
    kahler_profile,
)

HOMOGENEOUS_CASES = ("i", "ii", "iii", "iv", "v")


# ---------------------------------------------------------------------------
# Cartan's fundamental formula


def cartan_residual(spectrum, i: int, c: float) -> float:
    """sum over j != i of m_j (c + 4 l_i l_j) / (l_i - l_j).

    Vanishes for every real principal curvature of equal algebraic and
    geometric multiplicity on a Lorentzian isoparametric hypersurface of
    curvature c/4.  spectrum is a list of (value, multiplicity) pairs.
    """
    values = [float(v) for v, _ in spectrum]
    mults = [int(m) for _, m in spectrum]
    li = values[i]
    total = 0.0
    for j, (lj, mj) in enumerate(zip(values, mults)):
        if j == i:
            continue
        if abs(li - lj) <= 1e-12 * (1 + abs(li)):
            raise DuplicateEigenvalue(f"eigenvalues {i} and {j} coincide")
        total += mj * (c + 4 * li * lj) / (li - lj)
    return total


def inside_cartan_phi(x: float, p: float, c: float):
    """The sign filter phi(x) = (c + 4 p x)/(p - x) for p > 0, c < 0.

    Returns (value, predicate) where predicate is the equivalent
    condition: x > 0 and |x + c/(4x)| < |p + c/(4p)|.  The two always
    agree in sign.  Raises PoleAtP at x = p.
    """
    if not p > 0:  # also rejects NaN
        raise ValueError("need p > 0")
    check_curvature(c)
    if abs(x - p) <= 1e-14 * (1 + abs(p)):
        raise PoleAtP("phi has a pole at x = p")
    value = (c + 4 * p * x) / (p - x)
    predicate = x > 0 and abs(x + c / (4 * x)) < abs(p + c / (4 * p))
    return float(value), bool(predicate)


# ---------------------------------------------------------------------------
# type constraints


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class TypeConstraintReport:
    jtype: str
    checks: tuple[ConstraintCheck, ...]

    @property
    def admissible(self) -> bool:
        return all(ch.passed for ch in self.checks)


def check_type_constraints(
    cls: JordanClassification, c: float, tol: float = 1e-9
) -> TypeConstraintReport:
    """Residuals of the algebraic relations an isoparametric lift satisfies.

    Type I/III: at most two eigenvalues with c + 4 lambda mu = 0, the
    distinguished one inside (-sqrt(-c)/2, sqrt(-c)/2).  Type II: a single
    eigenvalue +-sqrt(-c)/2.  Type IV: a(4 l^2 - c) - l(4a^2 + 4b^2 - c) = 0
    for every real eigenvalue, 4a^2 + 4b^2 + c = 0, and the Hopf value 2a
    inside (-sqrt(-c), sqrt(-c)).
    """
    s0 = check_curvature(c)
    scale = 1 + abs(c)
    checks: list[ConstraintCheck] = []

    def add(name: str, residual: float, passed: bool):
        checks.append(ConstraintCheck(name, float(residual), bool(passed)))

    values = [v for v, _, _ in cls.real_eigs]

    if cls.jtype in ("I", "II", "III"):
        g = len(values)
        limit = 2 if cls.jtype != "II" else 1
        add("eigenvalue_count", max(0, g - limit), g <= limit)
        if cls.jtype == "I" and g == 2:
            lam, mu = sorted(values, key=abs)
            res = abs(c + 4 * lam * mu)
            add("cartan_pair", res, res <= tol * scale)
            add("lambda_inside", abs(lam), abs(lam) < s0)
            add("mu_outside", abs(mu), abs(mu) > s0)
        if cls.jtype == "II":
            lam = values[0]
            res = abs(abs(lam) - s0)
            add("lambda_half", res, res <= tol * scale)
        if cls.jtype == "III":
            lam = cls.defective_eig
            add("lambda_inside", abs(lam), abs(lam) < s0)
            others = [v for v in values if v != lam]
            if others:
                res = abs(c + 4 * lam * others[0])
                add("cartan_pair", res, res <= tol * scale)
    else:  # IV
        a, b = cls.complex_pair
        g = len(values)
        add("eigenvalue_count", max(0, g - 2), 1 <= g <= 2)
        for v in values:
            # a v v, not a v**2: a finite residual must not overflow on the way
            res = abs(4 * a * v * v - a * c - v * (4 * a * a + 4 * b * b - c))
            add("xiao_relation", res, res <= tol * scale)
        res = abs(4 * a**2 + 4 * b**2 + c)
        add("a2b2c_equality", res, res <= tol * scale)
        add("hopf_inside", abs(2 * a), abs(2 * a) < 2 * s0)
        if g == 2:
            res = abs(c + 4 * values[0] * values[1])
            add("cartan_pair", res, res <= tol * scale)

    return TypeConstraintReport(cls.jtype, tuple(checks))


# ---------------------------------------------------------------------------
# the case classifier


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the case classification of an isoparametric family."""

    case: str  # 'i' ... 'vi'
    invariant: object  # KahlerProfile or a named-family tag
    n: int
    k: Optional[int] = None
    r: Optional[float] = None
    phi: Optional[float] = None

    @property
    def homogeneous(self) -> bool:
        return self.case in HOMOGENEOUS_CASES

    @property
    def constant_principal_curvatures(self) -> bool:
        """Cases i-v, the same as the homogeneous ones."""
        return self.homogeneous

    def to_dict(self) -> dict:
        if isinstance(self.invariant, KahlerProfile):
            inv = [[a, m] for a, m in sorted(self.invariant.entries)]
        else:
            inv = self.invariant
        out = {
            "case": self.case,
            "homogeneous": self.homogeneous,
            "constant_principal_curvatures": self.constant_principal_curvatures,
            "invariant": inv,
            "n": self.n,
        }
        if self.k is not None:
            out["k"] = self.k
        if self.r is not None:
            out["r"] = self.r
        if self.phi is not None:
            out["phi"] = self.phi
        return out


def classify(
    n: int,
    c: float = -4.0,
    r: Optional[float] = None,
    family: Optional[str] = None,
    w: Optional[RealSubspace] = None,
    k: Optional[int] = None,
    angle: Optional[float] = None,
) -> ClassificationReport:
    """Classify an isoparametric family into the six cases.

    Exactly one of the following must describe the input: a named family
    ('tube-chk' with k, 'tube-rhn', 'horosphere', 'lohnherr'), a real
    subspace w of C^(n-1) defining the core W_w, or a constant-angle
    datum (k, angle) for the normal space.  The report depends only on
    the unitary congruence invariant of w-perp; the radius is recorded
    but does not affect the case label.
    """
    if n < 2:
        raise InvalidK("need n >= 2")
    check_curvature(c)

    if family is not None:
        case, inv, kk, phi = _classify_family(family, n, k)
        if r is not None:
            check_radius(r, zero_ok=case == "iv")
        return ClassificationReport(case, inv, n, k=kk, r=r, phi=phi)

    if w is not None:
        if w.ambient_cdim != n - 1:
            raise InvalidK(f"w lives in C^{w.ambient_cdim}, expected C^{n - 1}")
        kk = 2 * (n - 1) - w.dim
        if kk == 0:
            raise WNotProper("w must be a proper subspace of g_alpha")
        profile, _, _ = kahler_profile(complement(w))
        return _classify_profile(profile, n, kk, c, r)

    if k is not None and angle is not None:
        _check_parity(k, angle)
        if not 1 <= k <= 2 * (n - 1) - 1:
            raise InvalidK(f"need 1 <= k <= 2n-3, got k={k}")
        profile = KahlerProfile(((float(angle), k),))
        return _classify_profile(profile, n, k, c, r)

    raise ValueError("supply a family name, a subspace w, or (k, angle)")


def _classify_family(family: str, n: int, k: Optional[int]):
    if family == "horosphere":
        return "iii", "F_H", None, None
    if family == "tube-rhn":
        return "ii", "F_RHn", None, None
    if family == "lohnherr":
        return "iv", KahlerProfile(((np.pi / 2, 1),)), 1, float(np.pi / 2)
    if family == "tube-chk":
        # in case i the reported k is the complex dimension of the core
        if k is None or not 0 <= k <= n - 1:
            raise InvalidK(f"tube-chk needs 0 <= k <= n-1, got {k}")
        if k == 0:
            return "i", "F_o", 0, None
        return "i", KahlerProfile(((0.0, 2 * (n - k)),)), k, 0.0
    raise InvalidK(f"unknown family {family!r}")


def _check_parity(k: int, angle: float):
    if k % 2 and angle < np.pi / 2 - ANGLE_TOL:
        raise ParityViolation(
            f"constant angle {angle:.6g} below pi/2 requires even k, got k={k}"
        )


def _classify_profile(
    profile: KahlerProfile, n: int, k: int, c: float, r: Optional[float]
) -> ClassificationReport:
    angles = [a for a, _ in profile.entries]
    constant = len(profile.entries) == 1
    phi = angles[0] if constant else None

    if constant and phi <= ANGLE_TOL:
        case = "i"
        phi = 0.0
        k = n - k // 2  # complex dimension of the totally geodesic core
    elif k == 1:
        case = "iv"
        phi = float(np.pi / 2)
    elif constant:
        _check_parity(k, phi)
        case = "v"
    else:
        case = "vi"
    if r is not None:
        check_radius(r, zero_ok=case == "iv")
    return ClassificationReport(case, profile, n, k=k, r=r, phi=phi)


# ---------------------------------------------------------------------------
# the moduli space of profiles


@dataclass(frozen=True)
class ProfileFamily:
    """A maximal family of congruence classes with fixed block structure.

    entries are (angle, multiplicity) with angle None for a free
    parameter ranging over [0, pi/2]; distinct free blocks carry
    generically distinct angles.  A family with no free entries is a
    single congruence class.
    """

    entries: tuple[tuple[Optional[float], int], ...]

    @property
    def free_count(self) -> int:
        return sum(1 for a, _ in self.entries if a is None)

    def at(self, *angles: float) -> KahlerProfile:
        """The profile at specific values of the free parameters, one angle
        per free entry; any other count raises ValueError."""
        if len(angles) != self.free_count:
            raise ValueError(f"need {self.free_count} angles (free_count), got {len(angles)}")
        it = iter(angles)
        fixed = sorted((next(it) if a is None else a, m) for a, m in self.entries)
        values, mults = np.array(fixed, dtype=float).reshape(-1, 2).T
        return KahlerProfile(tuple(
            (float(values[run].mean()), int(mults[run].sum()))
            for run in cluster(values, ANGLE_TOL)
        ))

    def to_list(self) -> list:
        return [[a, m] for a, m in self.entries]


def _even_partitions(total: int):
    """Partitions of total into even parts >= 2, nonincreasing."""
    if total == 0:
        yield ()
        return
    if total % 2:
        return

    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        part = min(remaining, max_part)
        while part >= 2:
            for rest in rec(remaining - part, part):
                yield (part,) + rest
            part -= 2

    yield from rec(total, total)


def _strata(n: int, k: int):
    """All (m0, free_parts, p) with m0 + sum(free) + p = k, m0 even, free
    parts even, and complex span k - m0/2 <= n - 1."""
    out = []
    for m0 in range(0, k + 1, 2):
        if k - m0 // 2 > n - 1:
            continue
        for p in range(0, k - m0 + 1):
            for free in _even_partitions(k - m0 - p):
                out.append((m0, free, p))
    return out


def _specializes(target, source) -> bool:
    """Whether `target` lies in the closure of `source` (free angles of
    source pinned to 0, pi/2, or merged into target's free blocks)."""
    m0_t, free_t, p_t = target
    m0_s, free_s, p_s = source
    if target == source:
        return True
    free_s = list(free_s)
    free_t = list(free_t)
    # assign each free block of source to: 0 (pin to zero), 1 (pin to
    # pi/2), or a bin of target's free blocks
    bins = len(free_t)
    for assignment in itertools.product(range(2 + bins), repeat=len(free_s)):
        m0 = m0_s + sum(f for f, a in zip(free_s, assignment) if a == 0)
        p = p_s + sum(f for f, a in zip(free_s, assignment) if a == 1)
        if m0 != m0_t or p != p_t:
            continue
        sums = [0] * bins
        for f, a in zip(free_s, assignment):
            if a >= 2:
                sums[a - 2] += f
        if sorted(sums) == sorted(free_t):
            return True
    return False


def enumerate_profiles(n: int, k: int) -> list[ProfileFamily]:
    """Maximal families of admissible profiles for a k-dim w_perp in C^(n-1).

    A profile consists of an even-dimensional angle-0 block, free-angle
    blocks of even dimension, and a pi/2 block of arbitrary dimension,
    subject to the complex span bound k - m0/2 <= n - 1.  Families lying
    in the closure of a larger family (by pinning or merging free angles)
    are absorbed into it, so the returned list is the stratification of
    the congruence moduli space by maximal closed families.
    """
    if n < 2 or not 0 <= k <= 2 * n - 3:
        raise InvalidK(f"need n >= 2 and 0 <= k <= 2n-3, got n={n}, k={k}")
    strata = _strata(n, k)
    maximal = []
    for s in strata:
        if any(t != s and _specializes(s, t) for t in strata):
            continue
        maximal.append(s)
    out = []
    for m0, free, p in sorted(maximal):
        entries: list[tuple[Optional[float], int]] = []
        if m0:
            entries.append((0.0, m0))
        entries.extend((None, f) for f in free)
        if p:
            entries.append((float(np.pi / 2), p))
        out.append(ProfileFamily(tuple(entries)))
    return out

"""Real subspaces of a complex Hermitian vector space.

A real k-dimensional subspace W of C^m is stored through an orthonormal
real basis in R^(2m), with complex coordinate j occupying the adjacent
slots (2j, 2j+1) as (re, im).  The complex structure J acts on each pair
as (re, im) -> (-im, re); apply_J applies it to the last axis of an array
of any shape, and complex_structure is its matrix.

For xi in W the orthogonal split J xi = F xi + P xi (F into W, P into the
complement) defines the Kahler angle of xi.  Diagonalizing the symmetric
form (xi, eta) -> <F xi, F eta> on W produces the principal Kahler angles,
the complete invariant of W under the unitary group.

The kernels take stacks of bases, so that many subspaces of one shape cost
one LAPACK call: a stack of N real k-planes of C^m is an array (N, k, 2m)
of orthonormal rows.  random_bases draws a stack from N seeds (one QR),
unitary_images maps it by N Haar-random unitaries (one complex QR, one
SVD), _complement_rows gives the complements (N, 2m - k, 2m) (one full
SVD), and kahler_profiles gives one (profile, vectors, decomposition) per
basis (one eigh).  The functions on one RealSubspace (random_subspace,
unitary_conjugate, complement, kahler_profile) run them on a stack of one.
A RealSubspace computes its complement once, on first use of perp, and
keeps it on that instance only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, VectorNotInSubspace, check_seed
from .indefinite_linalg import cluster

ANGLE_TOL = 1e-7  # clustering tolerance for angles, radians
BASIS_TOL = 1e-10
RANK_TOL = 1e-9  # rank cut on the singular values of unit-scale rows (build_w)


def apply_J(v: np.ndarray) -> np.ndarray:
    """J applied to the last axis of v: each pair (re, im) -> (-im, re).

    Bit for bit the product with complex_structure on finite input; the
    0.0 terms turn a negative zero into +0.0, as the product does.
    """
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0::2] = 0.0 - v[..., 1::2]
    out[..., 1::2] = v[..., 0::2] + 0.0
    return out


def complex_structure(m: int) -> np.ndarray:
    """Matrix of J on R^(2m) in interleaved (re, im) coordinates."""
    return apply_J(np.eye(2 * m)).T


def _complement_rows(rows: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal bases of the orthogonal complements of orthonormal rows.

    rows is one matrix (r, dim) or a stack (N, r, dim); the result has
    dim - r rows per matrix.
    """
    r = rows.shape[-2]
    if r == 0:
        return np.tile(np.eye(dim), rows.shape[:-2] + (1, 1))
    if r == dim:
        return np.zeros(rows.shape[:-2] + (0, dim))
    _, _, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[..., r:, :]


@dataclass(frozen=True)
class RealSubspace:
    """A real subspace of C^m with an orthonormal basis as rows (k x 2m)."""

    ambient_cdim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim == 1:
            basis = basis.reshape(1, -1)
        if basis.ndim != 2:
            raise DimensionMismatch(f"basis must be a vector or a matrix of rows, got {basis.shape}")
        if basis.size == 0:
            basis = basis.reshape(0, 2 * self.ambient_cdim)
        if basis.shape[1] != 2 * self.ambient_cdim:
            raise DimensionMismatch(
                f"basis vectors have length {basis.shape[1]}, expected {2 * self.ambient_cdim}"
            )
        if basis.shape[0] > 2 * self.ambient_cdim:
            raise DimensionMismatch("more basis vectors than ambient dimensions")
        k = basis.shape[0]
        # written as "not <=" so that a NaN or infinite entry fails too
        if k and not np.abs(basis @ basis.T - np.eye(k)).max() <= BASIS_TOL:
            raise ValueError("basis rows are not orthonormal")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def perp(self) -> "RealSubspace":
        """The orthogonal complement (one full SVD), kept on this instance."""
        return RealSubspace(self.ambient_cdim, _complement_rows(self.basis, 2 * self.ambient_cdim))

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the subspace."""
        return self.basis.T @ (self.basis @ v)

    def contains(self, v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.linalg.norm(v - self.project(v)) <= BASIS_TOL * max(1.0, np.linalg.norm(v)))

    def to_json(self) -> str:
        return json.dumps(
            {"ambient_cdim": self.ambient_cdim, "basis": self.basis.tolist()}
        )

    @staticmethod
    def from_json(text: str) -> "RealSubspace":
        """ValueError unless text holds an object with an integer (not bool)
        ambient_cdim and a basis of numbers in one or two dimensions."""
        data = json.loads(text)
        cdim = data.get("ambient_cdim") if isinstance(data, dict) else None
        basis = np.asarray(data.get("basis") if type(cdim) is int else None)
        if basis.dtype.kind not in "iuf" or basis.ndim not in (1, 2):
            raise ValueError("a subspace is an object with an integer ambient_cdim and a numeric basis")
        return RealSubspace(cdim, basis.astype(float))


@dataclass(frozen=True)
class KahlerProfile:
    """Principal Kahler angles with multiplicities, descending by angle."""

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        ents = tuple(sorted(((float(a), int(m)) for a, m in self.entries), reverse=True))
        if any(m <= 0 for _, m in ents):
            raise ValueError("multiplicities must be positive")
        if any(not -ANGLE_TOL <= a <= np.pi / 2 + ANGLE_TOL for a, _ in ents):  # and NaN
            raise ValueError("angles must lie in [0, pi/2]")
        # angles below pi/2 only occur with even multiplicity
        if any(m % 2 and a < np.pi / 2 - ANGLE_TOL for a, m in ents):
            raise ValueError("odd multiplicity is only possible at angle pi/2")
        object.__setattr__(self, "entries", ents)

    def matches(self, other: "KahlerProfile", angle_tol: float = ANGLE_TOL) -> bool:
        """Equality of profiles: same multiplicities, angles within angle_tol."""
        if len(self.entries) != len(other.entries):
            return False
        return all(
            ms == mo and abs(a_s - a_o) <= angle_tol
            for (a_s, ms), (a_o, mo) in zip(self.entries, other.entries)
        )

    def nonzero_entries(self) -> tuple[tuple[float, int], ...]:
        return tuple((a, m) for a, m in self.entries if a > ANGLE_TOL)


def _angle_from_sq(cos_sq: np.ndarray) -> np.ndarray:
    return np.arccos(np.sqrt(np.clip(cos_sq, 0.0, 1.0)))


def pf_split(W: RealSubspace, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split J xi = F + P with F in W and P orthogonal to W.

    |F| = cos(phi) |xi| and |P| = sin(phi) |xi| for the Kahler angle phi
    of xi with respect to W.  Raises VectorNotInSubspace when xi is not
    in W within tolerance.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2 * W.ambient_cdim,):
        raise DimensionMismatch("vector length does not match the ambient space")
    if not W.contains(xi):
        raise VectorNotInSubspace("xi does not lie in the subspace")
    jxi = apply_J(xi)
    F = W.project(jxi)
    return F, jxi - F


def kahler_profiles(bases: np.ndarray) -> list:
    """kahler_profile of each basis in a stack (N, k, 2m), as a list of N.

    One eigh diagonalizes the stack; the angles (N, k) are clustered in
    one pass.
    """
    # K[i, j] = <b_i, J b_j>, skew; the form <F xi, F eta> is K^T K = -K^2
    K = apply_J(bases) @ bases.mT
    M = K.mT @ K
    M = 0.5 * (M + M.mT)
    evals, evecs = np.linalg.eigh(M)  # ascending: angles descending
    angles = _angle_from_sq(evals)
    vectors = (bases.mT @ evecs).mT
    out = []
    for row, vecs, runs in zip(angles, vectors, cluster(angles, ANGLE_TOL)):
        entries = []
        decomposition = []
        for g in runs:
            ang = float(row[g].mean())
            if abs(ang) <= ANGLE_TOL:
                ang = 0.0
            if abs(ang - np.pi / 2) <= ANGLE_TOL:
                ang = float(np.pi / 2)
            entries.append((ang, g.stop - g.start))
            decomposition.append((ang, vecs[g]))
        out.append((KahlerProfile(tuple(entries)), vecs, decomposition))
    return out


def kahler_profile(W: RealSubspace):
    """Principal Kahler angles, vectors, and constant-angle decomposition.

    Returns (profile, principal_vectors, decomposition): principal_vectors
    is an orthonormal basis of W (rows) diagonalizing <F xi, F eta>, and
    decomposition lists (angle, sub-basis) blocks of constant angle.
    """
    return kahler_profiles(W.basis[None])[0]


def congruence_invariant(w: RealSubspace) -> KahlerProfile:
    """The complete invariant of w under the unitary group: its profile.

    Two subspaces are congruent by a unitary transformation exactly when
    their canonical profiles match.
    """
    profile, _, _ = kahler_profile(w)
    return profile


def congruent(w1: RealSubspace, w2: RealSubspace) -> bool:
    """Whether two subspaces are unitarily congruent."""
    if w1.ambient_cdim != w2.ambient_cdim:
        return False
    return congruence_invariant(w1).matches(congruence_invariant(w2))


def random_bases(m: int, k: int, seeds) -> np.ndarray:
    """Bases (len(seeds), k, 2m) of uniformly random k-planes in C^m.

    The generator of each seed draws Gaussian vectors; one stacked QR
    orthonormalizes them.  Deterministic in the seeds.
    """
    if not 0 <= k <= 2 * m:
        raise DimensionMismatch(f"k={k} outside [0, {2 * m}]")
    A = np.stack([np.random.default_rng(seed).standard_normal((2 * m, k)) for seed in seeds])
    q, _ = np.linalg.qr(A)
    return q.mT


def random_subspace(m: int, k: int, seed: int) -> RealSubspace:
    """A uniformly random k-plane in C^m: orthonormalized Gaussian vectors.

    Deterministic in the seed.
    """
    check_seed(seed)
    return RealSubspace(m, random_bases(m, k, [seed])[0])


def complement(W: RealSubspace) -> RealSubspace:
    """The orthogonal complement of W in C^m.

    Its profile shares every nonzero angle of W's profile with equal
    multiplicity; only the complex (angle zero) parts may differ.  It is
    W.perp, so calls on one W (and build_w on it) share one SVD; no state
    is kept across objects.
    """
    return W.perp


def unitary_images(bases: np.ndarray, seeds) -> np.ndarray:
    """Images of a stack of bases (N, k, 2m) under Haar-random unitaries.

    The generator of seed i draws the unitary that maps basis i; one
    stacked complex QR makes the unitaries and one stacked SVD
    orthonormalizes the images (N, k, 2m) to working precision.
    """
    m = bases.shape[-1] // 2
    Z = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        Z.append(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    Q, R = np.linalg.qr(np.stack(Z))
    d = np.diagonal(R, axis1=-2, axis2=-1)
    Q = Q * (d / np.abs(d))[..., None, :]
    # real 2m x 2m matrix of each unitary in interleaved coordinates
    U = np.zeros(Q.shape[:-2] + (2 * m, 2 * m))
    U[..., 0::2, 0::2] = Q.real
    U[..., 0::2, 1::2] = -Q.imag
    U[..., 1::2, 0::2] = Q.imag
    U[..., 1::2, 1::2] = Q.real
    q, _, _ = np.linalg.svd((bases @ U.mT).mT, full_matrices=False)
    return q.mT


def unitary_conjugate(W: RealSubspace, seed: int) -> RealSubspace:
    """Image of W under a Haar-random unitary transformation of C^m."""
    check_seed(seed)
    return RealSubspace(W.ambient_cdim, unitary_images(W.basis[None], [seed])[0])


def subspace_from_blocks(m: int, blocks: list[tuple[float, int]]) -> RealSubspace:
    """A subspace of C^m realizing the given (angle, multiplicity) blocks.

    Each angle-0 block of dimension 2d spans d complex coordinates; a
    pi/2 block of dimension p spans p; an intermediate-angle block of
    dimension 2d spans 2d.  Raises DimensionMismatch when the blocks do
    not fit in C^m.
    """
    rows = []
    next_coord = 0

    def unit(c: int, imag: bool) -> np.ndarray:
        v = np.zeros(2 * m)
        v[2 * c + (1 if imag else 0)] = 1.0
        return v

    for angle, mult in blocks:
        if abs(angle) <= ANGLE_TOL:
            if mult % 2:
                raise ValueError("angle-0 blocks must have even dimension")
            for _ in range(mult // 2):
                rows.append(unit(next_coord, False))
                rows.append(unit(next_coord, True))
                next_coord += 1
        elif abs(angle - np.pi / 2) <= ANGLE_TOL:
            for _ in range(mult):
                rows.append(unit(next_coord, False))
                next_coord += 1
        else:
            if mult % 2:
                raise ValueError("intermediate-angle blocks must have even dimension")
            for _ in range(mult // 2):
                a, b = next_coord, next_coord + 1
                rows.append(unit(a, False))
                rows.append(np.cos(angle) * unit(a, True) + np.sin(angle) * unit(b, True))
                next_coord += 2
    if next_coord > m:
        raise DimensionMismatch(
            f"blocks span {next_coord} complex dimensions, ambient has {m}"
        )
    basis = np.array(rows) if rows else np.zeros((0, 2 * m))
    return RealSubspace(m, basis)

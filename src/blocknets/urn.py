"""Finite-type urn model of the degree census, with exact spectra and the
limiting covariance of the census vector.

Vertices are encoded as balls: one ball of type k per non-master vertex
of tracked degree k (activity w_k), while every vertex of degree beyond
the tracked range -- and the master vertex -- is carried as w_k balls of
a special overflow type "*" with activity 1.  Drawing a ball and attaching
a block induces a deterministic replacement vector per (type, block) pair;
mixing over blocks gives the intensity matrix A whose dominant eigenpair
describes linear growth and whose remaining spectrum drives fluctuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .model_io import (
    BIPOLAR,
    HOOKING,
    BlockSet,
    InternalConsistencyError,
    Num,
    degree_of,
)
from .profile import DegreeProfile, build_profile

STAR = "*"
UrnType = Union[int, str]

EIGEN_VALIDATE_TOL = 1e-8
LYAPUNOV_RESIDUAL_TOL = 1e-10
MAX_TRACKED_TYPES = 64


@dataclass(frozen=True)
class ReplacementLaw:
    """Deterministic replacement vectors per (urn type, block), mixed by the
    block probabilities."""

    types: tuple[UrnType, ...]
    # per type: tuple of (block_index, probability, vector of length r+1)
    outcomes: dict[UrnType, tuple[tuple[int, Num, tuple[Num, ...]], ...]]

    def expected(self, t: UrnType) -> tuple[Num, ...]:
        cols = self.outcomes[t]
        q = len(self.types)
        acc = [0 * cols[0][1]] * q
        for _, p, vec in cols:
            acc = [a + p * x for a, x in zip(acc, vec)]
        return tuple(acc)


@dataclass
class UrnModel:
    """Intensity matrix, eigenstructure and limit covariance of the census urn."""

    profile: DegreeProfile
    types: tuple[UrnType, ...]
    activities: tuple[Num, ...]
    law: ReplacementLaw
    A: tuple[tuple[Num, ...], ...]
    eigenvalues: tuple[Num, ...]  # closed form, dominant first
    v1: tuple[Num, ...]
    B: tuple[tuple[Num, ...], ...]
    Sigma: np.ndarray
    irreducible: bool
    balanced: bool

    @property
    def r(self) -> int:
        return len(self.types) - 1

    @property
    def lambda1(self) -> Num:
        return self.eigenvalues[0]

    def A_float(self) -> np.ndarray:
        return _to_float_matrix(self.A)

    def v1_float(self) -> np.ndarray:
        return np.array([float(x) for x in self.v1])

    def activities_float(self) -> np.ndarray:
        return np.array([float(x) for x in self.activities])

    def sigma_census(self) -> np.ndarray:
        """Covariance restricted to the tracked degree coordinates."""
        return self.Sigma[: self.r, : self.r]


def _to_float_matrix(m: Sequence[Sequence[Num]]) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m], dtype=np.float64)


def replacement_vector(
    bs: BlockSet, profile: DegreeProfile, t: UrnType, block_index: int
) -> tuple[Num, ...]:
    """Replacement vector when a ball of type t is drawn and the given block
    is attached.

    New non-hook (non-pole) vertices add one ball of their degree type, or
    w_k overflow balls when their degree k exceeds the tracked range.  The
    latch moves from type t to t+d (d = the block's latch increment), again
    overflowing to w_{t+d} special balls when t+d is untracked; a drawn
    overflow ball is returned along with chi*d new overflow balls, the
    weight growth of the big vertex it represents.
    """
    ess = profile.essential
    r = len(ess)
    kr = ess[-1]
    index = {k: i for i, k in enumerate(ess)}
    one = Fraction(1) if profile.exact else 1.0
    zero = 0 * one
    vec: list[Num] = [zero] * (r + 1)
    block = bs.blocks[block_index]
    d = block.latch_increment()

    for v in block.new_vertices():
        c = degree_of(block, v)
        if c <= kr:
            if c not in index:
                raise InternalConsistencyError(
                    f"new vertex degree {c} <= {kr} is not a tracked class"
                )
            vec[index[c]] += one
        else:
            vec[r] += profile.w(c)

    if t == STAR:
        vec[r] += profile.chi * d
    elif d > 0:
        vec[index[t]] -= one
        tn = t + d
        if tn <= kr:
            if tn not in index:
                raise InternalConsistencyError(
                    f"latch moved to untracked degree {tn} <= {kr}"
                )
            vec[index[tn]] += one
        else:
            vec[r] += profile.w(tn)
    return tuple(vec)


def build_replacement_law(bs: BlockSet, profile: DegreeProfile) -> ReplacementLaw:
    types: tuple[UrnType, ...] = profile.essential + (STAR,)
    outcomes = {
        t: tuple(
            (i, b.probability, replacement_vector(bs, profile, t, i))
            for i, b in enumerate(bs.blocks)
        )
        for t in types
    }
    return ReplacementLaw(types=types, outcomes=outcomes)


def activity_vector(profile: DegreeProfile) -> tuple[Num, ...]:
    one = Fraction(1) if profile.exact else 1.0
    return tuple(profile.w(k) for k in profile.essential) + (one,)


def intensity_closed_form(profile: DegreeProfile) -> tuple[tuple[Num, ...], ...]:
    """Entrywise closed form of the intensity matrix in terms of f, g and w."""
    ess = profile.essential
    r = len(ess)
    kr = ess[-1]
    one = Fraction(1) if profile.exact else 1.0
    zero = 0 * one
    w = profile.w
    f = profile.f
    g = profile.g
    g0 = profile.g0

    A = [[zero] * (r + 1) for _ in range(r + 1)]
    for i, ki in enumerate(ess):
        fi = f.get(ki, zero)
        for j, kj in enumerate(ess):
            if i < j:
                A[i][j] = w(kj) * fi
            elif i == j:
                A[i][i] = w(ki) * (fi + g0 - one)
            else:
                A[i][j] = w(kj) * (fi + g.get(ki - kj, zero))
        A[i][r] = fi

    overflow_f = sum((w(k) * fk for k, fk in f.items() if k > kr), zero)
    for j, kj in enumerate(ess):
        tot = overflow_f
        for m, gm in g.items():
            if kj + m > kr:
                tot += w(kj + m) * gm
        A[r][j] = w(kj) * tot
    A[r][r] = overflow_f + sum((profile.chi * k * gk for k, gk in g.items() if k >= 1), zero)
    return tuple(tuple(row) for row in A)


def intensity_matrix(bs: BlockSet, profile: DegreeProfile, law: ReplacementLaw | None = None):
    """Intensity matrix built two ways: column j as a_j * E(replacement from
    type j), and from the entrywise closed form.  Both must agree; a mismatch
    means the replacement law and the profile have diverged."""
    law = law or build_replacement_law(bs, profile)
    acts = activity_vector(profile)
    q = len(law.types)
    cols = [law.expected(t) for t in law.types]
    mixture = tuple(
        tuple(acts[j] * cols[j][i] for j in range(q)) for i in range(q)
    )
    closed = intensity_closed_form(profile)
    if profile.exact:
        same = mixture == closed
    else:
        same = np.allclose(
            _to_float_matrix(mixture), _to_float_matrix(closed), rtol=1e-10, atol=1e-12
        )
    if not same:
        raise InternalConsistencyError(
            "intensity matrix mismatch between the replacement-law mixture "
            "and its closed form"
        )
    return closed


def eigen_closed_form(profile: DegreeProfile) -> tuple[Num, ...]:
    """Exact spectrum: the growth rate plus w_k*(g(0)-1) per tracked class."""
    one = Fraction(1) if profile.exact else 1.0
    g0 = profile.g0
    return (profile.lambda1,) + tuple(profile.w(k) * (g0 - one) for k in profile.essential)


def validate_spectrum(A: Sequence[Sequence[Num]], closed: Sequence[Num]) -> None:
    """The closed-form multiset must match the numeric spectrum of A.

    Simple eigenvalues are compared value-by-value at the validation
    tolerance.  A repeated eigenvalue of a defective matrix is only
    determined numerically to about eps^(1/multiplicity), so those are
    certified through their backward error instead: sigma_min(A - lam*I)
    bounds the norm of the smallest perturbation of A that has lam in its
    spectrum, and must sit below the same tolerance.
    """
    Af = _to_float_matrix(A)
    scale = max(1.0, float(np.max(np.abs(Af))) * Af.shape[0])
    numeric = np.sort_complex(np.linalg.eigvals(Af))
    want = sorted(float(x) for x in closed)
    mult: dict[float, int] = {}
    for x in want:
        mult[x] = mult.get(x, 0) + 1

    eps = np.finfo(np.float64).eps
    tol_pair = []
    for x in want:
        m = mult[x]
        tol_pair.append(
            EIGEN_VALIDATE_TOL * scale if m == 1 else 10.0 * (eps * scale) ** (1.0 / m)
        )
    got = numeric[np.argsort(numeric.real)]
    for lam_num, lam_closed, tau in zip(got, want, tol_pair):
        if abs(lam_num - lam_closed) > tau:
            raise InternalConsistencyError(
                f"numeric eigenvalue {lam_num} does not match closed-form "
                f"{lam_closed} (tolerance {tau:.2e})"
            )
    for lam_closed, m in mult.items():
        smin = float(np.linalg.svd(Af - lam_closed * np.eye(Af.shape[0]), compute_uv=False)[-1])
        if smin > EIGEN_VALIDATE_TOL * scale:
            raise InternalConsistencyError(
                f"claimed eigenvalue {lam_closed} has backward error {smin:.2e}"
            )


def right_eigenvector(profile: DegreeProfile) -> tuple[Num, ...]:
    """Dominant right eigenvector, normalized against the activity vector.

    The first r entries are the limit vector; the overflow entry makes the
    activity-weighted total equal 1.
    """
    one = Fraction(1) if profile.exact else 1.0
    head = profile.limit
    tail = one - sum(profile.w(k) * x for k, x in zip(profile.essential, head))
    return head + (tail,)


def second_moment_matrix(
    law: ReplacementLaw, acts: Sequence[Num], v1: Sequence[Num]
) -> tuple[tuple[Num, ...], ...]:
    """B = sum_t v1_t * a_t * E(xi_t xi_t'), an exact finite mixture of outer
    products of the replacement vectors."""
    q = len(law.types)
    zero = 0 * v1[0]
    B = [[zero] * q for _ in range(q)]
    for t_idx, t in enumerate(law.types):
        scale = v1[t_idx] * acts[t_idx]
        for _, p, vec in law.outcomes[t]:
            w = scale * p
            for i in range(q):
                if vec[i] == 0:
                    continue
                row = B[i]
                vi = w * vec[i]
                for j in range(q):
                    if vec[j] != 0:
                        row[j] += vi * vec[j]
    return tuple(tuple(row) for row in B)


def covariance(
    A: Sequence[Sequence[Num]],
    B: Sequence[Sequence[Num]],
    acts: Sequence[Num],
    v1: Sequence[Num],
    lam1: Num,
) -> np.ndarray:
    """Limit covariance of the scaled census vector.

    The martingale part of the census has per-step conditional covariance
    C = B - lam1^2 v1 v1' (the second moment of a replacement drawn from the
    stationary type mixture, centered at its mean lam1*v1), and the drift
    linearized around the growth ray is Ahat = A - lam1 v1 a'.  The limit
    covariance is

        Sigma = lam1 * int_0^inf e^{s Ahat} C e^{s Ahat'} e^{-lam1 s} ds.

    Along the activity direction this leaves a'Sigma a equal to the variance
    of the per-block activity increment, which vanishes exactly for balanced
    models; for those, Sigma coincides with the same integral projected off
    the growth direction (P_I e^{sA} B e^{sA'} P_I').

    The integral is lam1 * X, where X solves the Lyapunov equation
    M X + X M' = -C with M = Ahat - (lam1/2) I (Janson 2004).  Ahat's
    spectrum is 0 plus the non-dominant eigenvalues, all real and <= 0, so M
    is stable and X is unique.  M and C are formed in the model's own
    arithmetic (exact for rational models) and solved in binary64 by
    Bartels-Stewart.  The solution is certified by its relative residual
    ||M Sigma + Sigma M' + lam1 C||_F / (lam1 ||C||_F).
    """
    q = len(acts)
    M = _to_float_matrix(
        [
            [A[i][j] - lam1 * v1[i] * acts[j] - (lam1 / 2 if i == j else 0) for j in range(q)]
            for i in range(q)
        ]
    )
    C = _to_float_matrix(
        [[B[i][j] - lam1 * lam1 * v1[i] * v1[j] for j in range(q)] for i in range(q)]
    )
    lamf = float(lam1)
    X = solve_continuous_lyapunov(M, -C)
    sigma = lamf * (X + X.T) / 2.0
    resid = float(np.linalg.norm(M @ sigma + sigma @ M.T + lamf * C))
    bound = lamf * float(np.linalg.norm(C))
    if not resid <= LYAPUNOV_RESIDUAL_TOL * bound:
        raise InternalConsistencyError(
            f"covariance fails its Lyapunov equation: relative residual "
            f"{resid / max(bound, np.finfo(np.float64).tiny):.3e} "
            f"(> {LYAPUNOV_RESIDUAL_TOL:g})"
        )
    return sigma


def irreducibility_check(law: ReplacementLaw) -> bool:
    """Every type must reach every other type through positive replacement
    entries.  The census construction guarantees this, so a False return
    indicates a modeling bug rather than a property of the input."""
    q = len(law.types)
    adj = [[False] * q for _ in range(q)]
    for t_idx, t in enumerate(law.types):
        for _, _, vec in law.outcomes[t]:
            for u_idx in range(q):
                if float(vec[u_idx]) > 0:
                    adj[t_idx][u_idx] = True
    for start in range(q):
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in range(q):
                if adj[x][y] and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != q:
            return False
    return True


def _check_eigen_identities(A, acts, v1, lam1, exact: bool) -> None:
    """a'A = lam1 a' (activities form the left eigenvector) and A v1 = lam1 v1."""
    q = len(acts)
    if exact:
        for j in range(q):
            col = sum(acts[i] * A[i][j] for i in range(q))
            if col != lam1 * acts[j]:
                raise InternalConsistencyError(
                    f"activity vector is not a left eigenvector at column {j}"
                )
        for i in range(q):
            row = sum(A[i][j] * v1[j] for j in range(q))
            if row != lam1 * v1[i]:
                raise InternalConsistencyError(
                    f"dominant right eigenvector fails at row {i}"
                )
        if sum(a * v for a, v in zip(acts, v1)) != 1:
            raise InternalConsistencyError("right eigenvector is not normalized")
    else:
        Af = _to_float_matrix(A)
        af = np.array([float(x) for x in acts])
        v1f = np.array([float(x) for x in v1])
        lamf = float(lam1)
        scale = max(1.0, float(np.max(np.abs(Af))))
        if float(np.max(np.abs(af @ Af - lamf * af))) > 1e-10 * scale:
            raise InternalConsistencyError("activity vector is not a left eigenvector")
        if float(np.max(np.abs(Af @ v1f - lamf * v1f))) > 1e-10 * scale:
            raise InternalConsistencyError("dominant right eigenvector check failed")
        if abs(float(af @ v1f) - 1.0) > 1e-10:
            raise InternalConsistencyError("right eigenvector is not normalized")


def build_urn(bs: BlockSet, profile: DegreeProfile | None = None) -> UrnModel:
    """Assemble the full urn model for a block set, running every internal
    consistency check along the way."""
    profile = profile or build_profile(bs)
    if profile.r > MAX_TRACKED_TYPES:
        raise InternalConsistencyError(
            f"tracked-class count {profile.r} exceeds the supported maximum "
            f"{MAX_TRACKED_TYPES}"
        )
    law = build_replacement_law(bs, profile)
    acts = activity_vector(profile)
    A = intensity_matrix(bs, profile, law)
    eigs = eigen_closed_form(profile)
    validate_spectrum(A, eigs)
    v1 = right_eigenvector(profile)
    _check_eigen_identities(A, acts, v1, eigs[0], profile.exact)
    B = second_moment_matrix(law, acts, v1)
    sigma = covariance(A, B, acts, v1, eigs[0])
    irreducible = irreducibility_check(law)
    if not irreducible:
        raise InternalConsistencyError(
            "the census urn is not irreducible; the model construction is broken"
        )
    return UrnModel(
        profile=profile,
        types=law.types,
        activities=acts,
        law=law,
        A=A,
        eigenvalues=eigs,
        v1=v1,
        B=B,
        Sigma=sigma,
        irreducible=irreducible,
        balanced=profile.balance.balanced,
    )

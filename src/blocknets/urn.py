"""Finite-type urn model of the degree census, with exact spectra and the
limiting covariance of the census vector.

Vertices are encoded as balls: one ball of type k per non-master vertex
of tracked degree k (activity w_k), while every vertex of degree beyond
the tracked range -- and the master vertex -- is carried as w_k balls of
a special overflow type "*" with activity 1.  Drawing a ball and attaching
a block induces a deterministic replacement vector per (type, block) pair;
mixing over blocks gives the intensity matrix A whose dominant eigenpair
describes linear growth and whose remaining spectrum drives fluctuations.

Rational models are computed on Python ints.  Each quantity is cleared of
its denominators once -- chi and rho share one scale, the block
probabilities another, f and g a third, and v1, the activities, A and B
each their own -- and every exact stage (the replacement law, A built two
ways, the eigen-identities, B, and the Lyapunov data M and C) works on
numerators over a known common scale.  The exact checks are therefore
integer equalities, and Fractions are built only for the values a stage
returns.  M and C reach binary64 as one int / int division per entry,
which Python rounds correctly, exactly as ``float(Fraction)`` does.
Decimal models run the same code over floats with the scale 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
Scale = Union[int, float]

EIGEN_VALIDATE_TOL = 1e-8
LYAPUNOV_RESIDUAL_TOL = 1e-10
MAX_TRACKED_TYPES = 64


def _clear(xs: Sequence[Num]) -> tuple[list, Scale]:
    """Numerators of xs over one common denominator d, so xs[i] == ns[i] / d.

    Rationals give Python ints and an int d.  Floats pass through with
    d = 1.0; a float scale marks binary64 arithmetic from there on.
    """
    if isinstance(xs[0], float):
        return list(xs), 1.0
    ratios = [x.as_integer_ratio() for x in xs]
    d = math.lcm(*[b for _, b in ratios])
    return [a * (d // b) for a, b in ratios], d


def _clear_matrix(m: Sequence[Sequence[Num]]) -> tuple[list[list], Scale]:
    q = len(m[0])
    flat, d = _clear([x for row in m for x in row])
    return [flat[i : i + q] for i in range(0, len(flat), q)], d


def _over(ns: Sequence, d: Scale) -> tuple[Num, ...]:
    """The values ns[i] / d: Fractions over an int scale, floats over a
    float one."""
    if isinstance(d, float):
        return tuple(n / d for n in ns)
    return tuple(Fraction(n, d) for n in ns)


def _over_matrix(m: Sequence[Sequence], d: Scale) -> tuple[tuple[Num, ...], ...]:
    """``_over`` of every row.  The rows repeat few distinct numerators (A
    has about one in ten, B is symmetric and mostly zero), so each distinct
    one becomes a Fraction once."""
    if isinstance(d, float):
        return tuple(_over(row, d) for row in m)
    distinct = list({n for row in m for n in row})
    value = dict(zip(distinct, _over(distinct, d))).__getitem__
    return tuple(tuple(map(value, row)) for row in m)


def _mix(outcomes: Sequence[tuple]) -> list:
    """Sum of P * R over the (P, R) outcomes of one urn type."""
    acc = [0] * len(outcomes[0][1])
    for p, vec in outcomes:
        for i, x in enumerate(vec):
            if x:
                acc[i] += p * x
    return acc


@dataclass(frozen=True)
class ReplacementLaw:
    """Deterministic replacement vectors per (urn type, block), mixed by the
    block probabilities.

    ``scaled`` holds the same outcomes on cleared denominators, in the order
    of ``types``: per type, one (P, R) pair per block, where the probability
    is P / prob_scale and the vector is R / vec_scale.
    """

    types: tuple[UrnType, ...]
    # per type: tuple of (block_index, probability, vector of length r+1)
    outcomes: dict[UrnType, tuple[tuple[int, Num, tuple[Num, ...]], ...]]
    scaled: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] = field(repr=False)
    prob_scale: Scale
    vec_scale: Scale

    def expected(self, t: UrnType) -> tuple[Num, ...]:
        outcomes = self.scaled[self.types.index(t)]
        return _over(_mix(outcomes), self.prob_scale * self.vec_scale)


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


def _block_vectors(
    bs: BlockSet, profile: DegreeProfile, block_index: int, chi, rho, one: Scale
) -> list[tuple]:
    """Replacement vectors of one block for every urn type, in the order
    ``profile.essential + (STAR,)``, scaled by ``one``: chi and rho are the
    attachment parameters times that scale."""
    ess = profile.essential
    r = len(ess)
    kr = ess[-1]
    index = {k: i for i, k in enumerate(ess)}
    block = bs.blocks[block_index]
    d = block.latch_increment()

    base = [0] * (r + 1)
    for v in block.new_vertices():
        c = degree_of(block, v)
        if c <= kr:
            if c not in index:
                raise InternalConsistencyError(
                    f"new vertex degree {c} <= {kr} is not a tracked class"
                )
            base[index[c]] += one
        else:
            base[r] += chi * c + rho

    vecs = []
    for t in ess:
        vec = list(base)
        if d > 0:
            vec[index[t]] -= one
            tn = t + d
            if tn <= kr:
                if tn not in index:
                    raise InternalConsistencyError(
                        f"latch moved to untracked degree {tn} <= {kr}"
                    )
                vec[index[tn]] += one
            else:
                vec[r] += chi * tn + rho
        vecs.append(tuple(vec))
    base[r] += chi * d
    vecs.append(tuple(base))
    return vecs


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
    (chi, rho), dw = _clear((profile.chi, profile.rho))
    vecs = _block_vectors(bs, profile, block_index, chi, rho, dw)
    return _over(vecs[(profile.essential + (STAR,)).index(t)], dw)


def build_replacement_law(bs: BlockSet, profile: DegreeProfile) -> ReplacementLaw:
    types: tuple[UrnType, ...] = profile.essential + (STAR,)
    (chi, rho), dw = _clear((profile.chi, profile.rho))
    probs, dp = _clear(bs.probabilities)
    by_block = [
        _block_vectors(bs, profile, i, chi, rho, dw) for i in range(len(bs.blocks))
    ]
    view = _over_matrix([vec for vecs in by_block for vec in vecs], dw)
    q = len(types)
    outcomes = {
        t: tuple(
            (i, b.probability, view[i * q + ti]) for i, b in enumerate(bs.blocks)
        )
        for ti, t in enumerate(types)
    }
    scaled = tuple(
        tuple((p, vecs[ti]) for p, vecs in zip(probs, by_block))
        for ti in range(len(types))
    )
    return ReplacementLaw(
        types=types, outcomes=outcomes, scaled=scaled, prob_scale=dp, vec_scale=dw
    )


def activity_vector(profile: DegreeProfile) -> tuple[Num, ...]:
    one = Fraction(1) if profile.exact else 1.0
    return tuple(profile.w(k) for k in profile.essential) + (one,)


def _closed_form(profile: DegreeProfile) -> tuple[list[list], Scale]:
    """Entrywise closed form of the intensity matrix in terms of f, g and w,
    as numerators over the scale dw^2 * dp (dw clears chi and rho, dp clears
    f and g)."""
    ess = profile.essential
    r = len(ess)
    kr = ess[-1]
    (chi, rho), dw = _clear((profile.chi, profile.rho))
    fg, dp = _clear(list(profile.f.values()) + list(profile.g.values()))
    f = dict(zip(profile.f, fg))
    g = dict(zip(profile.g, fg[len(f) :]))
    g0 = g.get(0, 0)

    def w(k):
        return chi * k + rho

    A = [[0] * (r + 1) for _ in range(r + 1)]
    for i, ki in enumerate(ess):
        fi = f.get(ki, 0)
        row = A[i]
        for j, kj in enumerate(ess):
            if i < j:
                row[j] = w(kj) * fi * dw
            elif i == j:
                row[j] = w(ki) * (fi + g0 - dp) * dw
            else:
                row[j] = w(kj) * (fi + g.get(ki - kj, 0)) * dw
        row[r] = fi * dw * dw

    overflow_f = sum(w(k) * fk for k, fk in f.items() if k > kr)
    for j, kj in enumerate(ess):
        tot = overflow_f
        for m, gm in g.items():
            if kj + m > kr:
                tot += w(kj + m) * gm
        A[r][j] = w(kj) * tot
    A[r][r] = (overflow_f + sum(chi * k * gk for k, gk in g.items() if k >= 1)) * dw
    return A, dw * dw * dp


def intensity_matrix(bs: BlockSet, profile: DegreeProfile, law: ReplacementLaw | None = None):
    """Intensity matrix built two ways: column j as a_j * E(replacement from
    type j), and from the entrywise closed form.  Both must agree -- for
    rational models as integers cross-multiplied onto one scale; a mismatch
    means the replacement law and the profile have diverged."""
    law = law or build_replacement_law(bs, profile)
    acts, da = _clear(activity_vector(profile))
    q = len(law.types)
    cols = [[acts[j] * x for x in _mix(law.scaled[j])] for j in range(q)]
    dm = da * law.prob_scale * law.vec_scale
    closed, dc = _closed_form(profile)
    if isinstance(dc, float):
        same = np.allclose(
            np.array(cols, dtype=np.float64).T / dm,
            np.array(closed, dtype=np.float64) / dc,
            rtol=1e-10,
            atol=1e-12,
        )
    else:
        same = all(
            cols[j][i] * dc == closed[i][j] * dm for i in range(q) for j in range(q)
        )
    if not same:
        raise InternalConsistencyError(
            "intensity matrix mismatch between the replacement-law mixture "
            "and its closed form"
        )
    return _over_matrix(closed, dc)


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
    a, da = _clear(acts)
    v, dv = _clear(v1)
    B = [[0] * q for _ in range(q)]
    for t in range(q):
        scale = v[t] * a[t]
        for p, vec in law.scaled[t]:
            w = scale * p
            nonzero = [(i, x) for i, x in enumerate(vec) if x]
            for i, xi in nonzero:
                row = B[i]
                wi = w * xi
                for j, xj in nonzero:
                    row[j] += wi * xj
    d = dv * da * law.prob_scale * law.vec_scale * law.vec_scale
    return _over_matrix(B, d)


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
    is stable and X is unique.  M and C are formed exactly on integer
    numerators over a common scale each (M over 2 dA dl dv da, C over
    dB dl^2 dv^2, with dA, dB, dl, dv and da the denominators of A, B,
    lam1, v1 and the activities), rounded once into binary64 and solved
    there by Bartels-Stewart.  The solution is certified by its relative
    residual ||M Sigma + Sigma M' + lam1 C||_F / (lam1 ||C||_F).
    """
    q = len(acts)
    An, dA = _clear_matrix(A)
    Bn, dB = _clear_matrix(B)
    a, da = _clear(acts)
    v, dv = _clear(v1)
    (lam,), dl = _clear((lam1,))

    # M = A - lam1 v1 a' - (lam1/2) I over the scale 2 dA dl dv da
    scale_a = 2 * dl * dv * da
    half = lam * dA * dv * da
    sM = dA * scale_a
    M = []
    for i, row in enumerate(An):
        lv = 2 * dA * lam * v[i]
        M.append([(x * scale_a - lv * y) / sM for x, y in zip(row, a)])
        M[i][i] = (row[i] * scale_a - lv * a[i] - half) / sM
    # C = B - lam1^2 v1 v1' over the scale dB dl^2 dv^2
    scale_b = dl * dl * dv * dv
    sC = dB * scale_b
    C = []
    for i, row in enumerate(Bn):
        lv = lam * lam * v[i]
        C.append([(x * scale_b - lv * y * dB) / sC for x, y in zip(row, v)])
    M = np.array(M, dtype=np.float64)
    C = np.array(C, dtype=np.float64)

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
    """Whether every type reaches every other type through positive
    replacement entries.  Informational only: the Lyapunov route to Sigma
    needs a simple dominant eigenvalue and the rest of the spectrum below
    lam1 / 2, which the closed-form spectrum gives for every accepted model,
    reducible or not (Janson 2004)."""
    q = len(law.types)
    succ = [
        {u for _, vec in law.scaled[t] for u, x in enumerate(vec) if x > 0}
        for t in range(q)
    ]
    for start in range(q):
        seen = {start}
        stack = [start]
        while stack:
            for y in succ[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        if len(seen) != q:
            return False
    return True


def _check_eigen_identities(A, acts, v1, lam1, exact: bool) -> None:
    """a'A = lam1 a' (activities form the left eigenvector), A v1 = lam1 v1
    and a'v1 = 1; exact models compare integer numerators on a shared
    scale."""
    q = len(acts)
    if exact:
        An, dA = _clear_matrix(A)
        a, da = _clear(acts)
        v, dv = _clear(v1)
        (lam,), dl = _clear((lam1,))
        for j in range(q):
            if sum(a[i] * An[i][j] for i in range(q)) * dl != lam * a[j] * dA:
                raise InternalConsistencyError(
                    f"activity vector is not a left eigenvector at column {j}"
                )
        for i in range(q):
            if sum(x * y for x, y in zip(An[i], v)) * dl != lam * v[i] * dA:
                raise InternalConsistencyError(
                    f"dominant right eigenvector fails at row {i}"
                )
        if sum(x * y for x, y in zip(a, v)) != da * dv:
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
        irreducible=irreducibility_check(law),
        balanced=profile.balance.balanced,
    )

"""Finite-type urn model of the degree census, with exact spectra and the
limiting covariance of the census vector.

Vertices are encoded as balls: one ball of type k per non-master vertex
of tracked degree k (activity w_k), while every vertex of degree beyond
the tracked range -- and the master vertex -- is carried as w_k balls of
a special overflow type "*" with activity 1.  Drawing a ball and attaching
a block induces a deterministic replacement vector per (type, block) pair;
mixing over blocks gives the intensity matrix A whose dominant eigenpair
describes linear growth and whose remaining spectrum drives fluctuations.

Rational models are computed on Python ints.  Every exact value passes
between the stages as a ``(numerators, scale)`` pair: a list of ints (rows
of ints for a matrix) and one int scale, so that x[i] == ns[i] / scale.
The inputs come from the profile's pairs (``DegreeProfile.pairs``), where
chi and rho, the block probabilities, f, g, lambda1 and the limit vector
were cleared of their denominators once; the activities, v1 and the
claimed spectrum are integer expressions in them.  Every exact stage (the
replacement law, A built two ways, the eigen-identities, the spectrum
certificate, B, and the Lyapunov data M and C with their images T and C~
in a triangular basis) takes and returns such pairs, so the exact checks
are integer equalities.  The ``UrnModel`` holds the pairs, and Fractions
are built only on first access to its views (activities, eigenvalues, v1,
A and B) and by ``replacement_vector`` and ``ReplacementLaw.expected``.
The spectrum is proved, not computed: one change of basis that mixes
only the overflow row and column makes A triangular (see
``validate_spectrum``), and the same basis makes Sigma's Lyapunov
equation solvable by forward substitution (see ``covariance``).  M, C, T and C~ reach binary64 as one
int / int division per entry, which Python rounds correctly, exactly as
``float(Fraction)`` does.
Every model is rational: decimal inputs are read as the rationals they
spell (see ``model_io``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

import numpy as np

from .model_io import BlockSet, InternalConsistencyError, Num
from .profile import Cleared, DegreeProfile, Scale, _over, build_profile

STAR = "*"
UrnType = Union[int, str]
# A matrix as rows of int numerators over one scale: m[i][j] == ns[i][j] / d.
ClearedMatrix = tuple[list[list[int]], Scale]

LYAPUNOV_RESIDUAL_TOL = 1e-10


def _over_matrix(m: Sequence[Sequence[int]], d: Scale) -> tuple[tuple[Num, ...], ...]:
    """``_over`` of every row.  The rows repeat few distinct numerators (A
    has about one in ten, B is symmetric and mostly zero), so each distinct
    one becomes a Fraction once."""
    distinct = list({n for row in m for n in row})
    value = dict(zip(distinct, _over(distinct, d))).__getitem__
    return tuple(tuple(map(value, row)) for row in m)


def _mix(draws: Sequence[tuple]) -> list:
    """Sum of P * R over the (P, R) pairs of one urn type."""
    acc = [0] * len(draws[0][1])
    for p, vec in draws:
        for i, x in enumerate(vec):
            if x:
                acc[i] += p * x
    return acc


@dataclass(frozen=True)
class ReplacementLaw:
    """Deterministic replacement vectors per (urn type, block), mixed by the
    block probabilities.

    ``scaled`` holds them on cleared denominators, in the order of
    ``types``: per type, one (P, R) pair per block, in block order, where the
    probability is P / prob_scale and the vector (of length r+1) is
    R / vec_scale.
    """

    types: tuple[UrnType, ...]
    scaled: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] = field(repr=False)
    prob_scale: Scale
    vec_scale: Scale

    def expected(self, t: UrnType) -> tuple[Num, ...]:
        return _over(_mix(self.scaled[self.types.index(t)]), self.prob_scale * self.vec_scale)


@dataclass
class UrnModel:
    """Intensity matrix, eigenstructure and limit covariance of the census urn.

    The activities, the closed-form spectrum (dominant first), v1, A and B
    are kept as the (numerators, scale) pairs that the stages computed;
    ``activities``, ``eigenvalues``, ``v1``, ``A`` and ``B`` are their
    Fraction views, built on first access."""

    profile: DegreeProfile
    types: tuple[UrnType, ...]
    activities_cleared: Cleared = field(repr=False)
    law: ReplacementLaw
    A_cleared: ClearedMatrix = field(repr=False)
    eigenvalues_cleared: Cleared = field(repr=False)
    v1_cleared: Cleared = field(repr=False)
    B_cleared: ClearedMatrix = field(repr=False)
    Sigma: np.ndarray
    irreducible: bool
    balanced: bool

    @functools.cached_property
    def activities(self) -> tuple[Num, ...]:
        return _over(*self.activities_cleared)

    @functools.cached_property
    def eigenvalues(self) -> tuple[Num, ...]:
        return _over(*self.eigenvalues_cleared)

    @functools.cached_property
    def v1(self) -> tuple[Num, ...]:
        return _over(*self.v1_cleared)

    @functools.cached_property
    def A(self) -> tuple[tuple[Num, ...], ...]:
        return _over_matrix(*self.A_cleared)

    @functools.cached_property
    def B(self) -> tuple[tuple[Num, ...], ...]:
        return _over_matrix(*self.B_cleared)

    @property
    def r(self) -> int:
        return len(self.types) - 1

    @property
    def lambda1(self) -> Num:
        return self.profile.lambda1

    def sigma_census(self) -> np.ndarray:
        """Covariance restricted to the tracked degree coordinates."""
        return self.Sigma[: self.r, : self.r]


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
    for c in block.new_degrees():
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
    x = profile.pairs
    vecs = _block_vectors(bs, profile, block_index, *x.weights, x.dw)
    return _over(vecs[(profile.essential + (STAR,)).index(t)], x.dw)


def build_replacement_law(bs: BlockSet, profile: DegreeProfile) -> ReplacementLaw:
    types: tuple[UrnType, ...] = profile.essential + (STAR,)
    x = profile.pairs
    by_block = [
        _block_vectors(bs, profile, i, *x.weights, x.dw) for i in range(len(bs.blocks))
    ]
    scaled = tuple(
        tuple((p, vecs[ti]) for p, vecs in zip(x.probabilities, by_block))
        for ti in range(len(types))
    )
    return ReplacementLaw(types=types, scaled=scaled, prob_scale=x.dp, vec_scale=x.dw)


def _activities(profile: DegreeProfile) -> Cleared:
    """The activities (w_k per tracked class, then 1 for *) over dw."""
    x = profile.pairs
    return [x.w(k) for k in profile.essential] + [x.dw], x.dw


def _closed_form(profile: DegreeProfile) -> tuple[list[list], Scale]:
    """Entrywise closed form of the intensity matrix in terms of f, g and w,
    as numerators over the scale dw^2 * dp (the profile's pairs: dw clears
    chi and rho, and f and g are over dp, the block probabilities' scale)."""
    ess = profile.essential
    r = len(ess)
    kr = ess[-1]
    x = profile.pairs
    (chi, rho), dw, dp, f, g = x.weights, x.dw, x.dp, x.f, x.g
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


def intensity_matrix(
    profile: DegreeProfile, law: ReplacementLaw, acts: Cleared
) -> ClearedMatrix:
    """Intensity matrix built two ways: column j as a_j * E(replacement from
    type j), and from the entrywise closed form.  Both must agree as
    integers cross-multiplied onto one scale; a mismatch means the
    replacement law and the profile have diverged.  ``acts`` is the
    activity vector as a (numerators, scale) pair; A is returned as the
    closed form's rows of int numerators and their scale."""
    a, da = acts
    q = len(law.types)
    cols = [[a[j] * x for x in _mix(law.scaled[j])] for j in range(q)]
    dm = da * law.prob_scale * law.vec_scale
    closed, dc = _closed_form(profile)
    if any(cols[j][i] * dc != closed[i][j] * dm for i in range(q) for j in range(q)):
        raise InternalConsistencyError(
            "intensity matrix mismatch between the replacement-law mixture "
            "and its closed form"
        )
    return closed, dc


def _eigenvalues(profile: DegreeProfile) -> Cleared:
    """The closed-form spectrum over dw*dp: lambda1, then w_k*(g(0)-1) per
    tracked class."""
    x = profile.pairs
    g0 = x.g.get(0, 0)
    return [x.lambda1] + [x.w(k) * (g0 - x.dp) for k in profile.essential], x.dw * x.dp


def validate_spectrum(A: ClearedMatrix, acts: Cleared, claims: Cleared) -> None:
    """Prove that A's spectrum is the claimed one, exactly.  A, the
    activities and the claimed eigenvalues (dominant first) are each a
    (numerators, scale) pair.

    The types are ordered (k_1 .. k_r, *), so the activities are
    a = (w, a_*); f is A's * column on the tracked rows.  With
    S^-1 = [[I, 0], [w'/a_*, 1]] and a'A = lam1 a' (``_check_eigen_identities``,
    which must pass first), S^-1 A S = [[A_TT - f w'/a_*, f], [0, lam1]].  Its
    * entry is (a'A)_* / a_*, so the spectrum is that value plus the diagonal
    of A_TT - f w'/a_* -- provided this block is lower triangular.  This
    checks, as integer numerators cross-multiplied onto one scale, that the
    block is zero above the diagonal, that its diagonal equals claims[1:], and
    that the * entry equals claims[0].  Defective spectra need nothing extra.
    """
    (An, dA), (a, _), (c, dc) = A, acts, claims
    q = len(a)
    r = q - 1
    if len(c) != q:
        raise InternalConsistencyError(f"{len(c)} claimed eigenvalues for {q} urn types")
    ar = a[r]
    if sum(a[i] * An[i][r] for i in range(q)) * dc != c[0] * dA * ar:
        raise InternalConsistencyError(
            f"claimed dominant eigenvalue {Fraction(c[0], dc)} is not (a'A)_* / a_*"
        )
    for i in range(r):
        row, fi = An[i], An[i][r]
        for j in range(i + 1, r):
            if row[j] * ar != fi * a[j]:
                raise InternalConsistencyError(
                    f"spectrum certificate: A_TT - f w' is nonzero above the "
                    f"diagonal at [{i}][{j}]"
                )
        if (row[i] * ar - fi * a[i]) * dc != c[i + 1] * dA * ar:
            raise InternalConsistencyError(
                f"spectrum certificate: diagonal entry {i} of A_TT - f w' is not "
                f"the claimed eigenvalue {Fraction(c[i + 1], dc)}"
            )


def _right_eigenvector(profile: DegreeProfile) -> Cleared:
    """Dominant right eigenvector, normalized against the activity vector,
    over dw*s where s is the limit vector's scale.

    The first r entries are the limit vector; the overflow entry makes the
    activity-weighted total equal 1.
    """
    x = profile.pairs
    ns, s = x.limit
    tail = x.dw * s - sum(x.w(k) * n for k, n in zip(profile.essential, ns))
    return [n * x.dw for n in ns] + [tail], x.dw * s


def second_moment_matrix(law: ReplacementLaw, acts: Cleared, v1: Cleared) -> ClearedMatrix:
    """B = sum_t v1_t * a_t * E(xi_t xi_t'), an exact finite mixture of outer
    products of the replacement vectors.  The activities and v1 come, and B
    is returned, as (numerators, scale) pairs."""
    q = len(law.types)
    (a, da), (v, dv) = acts, v1
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
    return B, dv * da * law.prob_scale * law.vec_scale * law.vec_scale


def _binary64(name: str, m: Sequence[Sequence[int]], d: Scale) -> np.ndarray:
    """The matrix ``m / d``, each entry rounded once into binary64.  Raises
    FloatingPointError when a nonzero entry rounds below the normal range:
    a subnormal keeps too few digits for the solve, and a residual built
    from such entries underflows, so its certificate would pass vacuously."""
    out = np.array([[x / d for x in row] for row in m], dtype=np.float64)
    for i, j in np.argwhere(np.abs(out) < np.finfo(np.float64).tiny).tolist():
        if m[i][j]:
            raise FloatingPointError(
                f"covariance: {name}[{i}][{j}] is nonzero but rounds to {out[i, j]:.3g} in "
                f"binary64, below its normal range; Sigma cannot be solved there"
            )
    return out


def _lower_lyapunov(T: list[list[float]], Q: list[list[float]]) -> list[list[float]]:
    """The symmetric Y with T Y + Y T' = Q, for lower-triangular T with every
    t_ii + t_jj nonzero and symmetric Q.

    Row i of the equation is (T + t_ii I) y_i = q_i - sum_{k<i} t_ik y_k, a
    triangular system once the rows before it are known: its first i entries
    are the earlier rows' column i, by symmetry, and the rest follow by
    forward substitution (Bartels-Stewart, with T in place of a Schur form).
    Plain float arithmetic: each entry is one division of a sequential sum."""
    q = len(T)
    Y = [[0.0] * q for _ in range(q)]
    for i in range(q):
        Ti, Yi, Qi, tii = T[i][:i], Y[i], Q[i], T[i][i]
        for j in range(i, q):
            Tj = T[j]
            x = Qi[j] - sum(map(mul, Ti, Y[j])) - sum(map(mul, Tj[:j], Yi))
            Yi[j] = Y[j][i] = x / (tii + Tj[j])
    return Y


def covariance(
    A: ClearedMatrix,
    B: ClearedMatrix,
    acts: Cleared,
    v1: Cleared,
    lam1: tuple[int, Scale],
) -> np.ndarray:
    """Limit covariance of the scaled census vector.  A, B, the activities,
    v1 and lam1 are each a (numerators, scale) pair; for lam1 the numerator
    is one int.

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
    M X + X M' = -C with M = Ahat - (lam1/2) I (Janson 2004).  It is solved
    in the basis of ``validate_spectrum``: with the types ordered
    (k_1 .. k_r, *) and S^-1 = [[I, 0], [w'/a_*, 1]], a'S = a_* e_*' and
    S^-1 v1 = (v1_T, 1/a_*), so T = S^-1 M S is
    [[A_TT - f w'/a_* - (lam1/2) I, f - lam1 v1_T a_*], [0, -lam1/2]]: lower
    triangular once * is ordered first.  Then T Y + Y T' = -S^-1 C S^-T is
    solved by ``_lower_lyapunov`` and X = S Y S'.

    M, C, T and C~ = S^-1 C S^-T are formed exactly on integer numerators over
    a common scale each (M over 2 dA dl dv da, C over dB dl^2 dv^2, with dA,
    dB, dl, dv and da the scales of A, B, lam1, v1 and the activities;
    T over a further a_*, and C~ differs from C only in its * row and
    column) and each entry is rounded once into binary64, where no nonzero
    entry may fall below the normal range.  Every t_ii must be negative,
    checked exactly, so every t_ii + t_jj < 0 and Y is unique.  The solution
    is certified by its relative residual
    ||M Sigma + Sigma M' + lam1 C||_F / (lam1 ||C||_F) on M and C.
    """
    (An, dA), (Bn, dB), (a, da), (v, dv), (lam, dl) = A, B, acts, v1, lam1
    q = len(a)
    r = q - 1
    ar = a[r]

    # M = A - lam1 v1 a' - (lam1/2) I over the scale 2 dA dl dv da
    scale_a = 2 * dl * dv * da
    half = lam * dA * dv * da
    Mn = []
    for i, row in enumerate(An):
        lv = 2 * dA * lam * v[i]
        Mn.append([x * scale_a - lv * y for x, y in zip(row, a)])
        Mn[i][i] -= half
    dM = dA * scale_a
    M = _binary64("M", Mn, dM)
    # C = B - lam1^2 v1 v1' over the scale dB dl^2 dv^2
    scale_b = dl * dl * dv * dv
    Cn = []
    for i, row in enumerate(Bn):
        lv = lam * lam * v[i]
        Cn.append([x * scale_b - lv * y * dB for x, y in zip(row, v)])
    dC = dB * scale_b
    C = _binary64("C", Cn, dC)

    # T with * first, on and below its diagonal, over dM a_*: the * column is
    # M's, tracked columns lose w_j/a_* times it, and t_** = (a'M)_* / a_*
    Tn = [[sum(map(mul, a, (row[r] for row in Mn)))] + [0] * r]
    for i, row in enumerate(Mn[:r]):
        m = row[r]
        Tn.append([m * ar] + [x * ar - m * y for x, y in zip(row[: i + 1], a)] + [0] * (r - 1 - i))
    for i in range(q):
        if Tn[i][i] >= 0:
            raise InternalConsistencyError(
                f"covariance: T[{i}][{i}] (* first) is not negative, so the "
                f"Lyapunov equation has no unique solution"
            )
    T = _binary64("T", Tn, dM * ar).tolist()
    # C~'s * column, * first, over dC a_*^2: C S^-T adds C_TT w/a_* to the *
    # column, and S^-1 adds w'/a_* times the tracked rows to the * row
    col = [row[r] * ar + sum(map(mul, row, a[:r])) for row in Cn]
    star = [sum(map(mul, col, a))] + [x * ar for x in col[:r]]
    star = (-_binary64("C~", [star], dC * ar * ar)[0]).tolist()
    Q = [star] + [[x] + row for x, row in zip(star[1:], (-C[:r, :r]).tolist())]

    Y = _lower_lyapunov(T, Q)
    # Sigma = lam1 S Y S' with S = [[I, 0], [-w'/a_*, 1]]: only * moves
    u = [x / ar for x in a[:r]]
    lamf = lam / dl
    sigma = np.empty((q, q))
    sigma[:r, :r] = lamf * np.array(Y)[1:, 1:]
    xs = [row[0] - math.fsum(map(mul, row[1:], u)) for row in Y[1:]]
    sigma[:r, r] = sigma[r, :r] = lamf * np.array(xs)
    sigma[r, r] = lamf * (Y[0][0] - math.fsum((*map(mul, Y[0][1:], u), *map(mul, xs, u))))

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
    pred: list[set[int]] = [set() for _ in range(q)]
    for t, out in enumerate(succ):
        for u in out:
            pred[u].add(t)

    def reaches_all(adj: list[set[int]]) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for y in adj[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        return len(seen) == q

    # strongly connected iff type 0 reaches every type and every type reaches 0
    return reaches_all(succ) and reaches_all(pred)


def _check_eigen_identities(
    A: ClearedMatrix, acts: Cleared, v1: Cleared, lam1: tuple[int, Scale]
) -> None:
    """a'A = lam1 a' (activities form the left eigenvector), A v1 = lam1 v1
    and a'v1 = 1, compared as integer numerators on a shared scale.  Each
    argument is a (numerators, scale) pair."""
    (An, dA), (a, da), (v, dv), (lam, dl) = A, acts, v1, lam1
    q = len(a)
    for j in range(q):
        if sum(a[i] * An[i][j] for i in range(q)) * dl != lam * a[j] * dA:
            raise InternalConsistencyError(
                f"activity vector is not a left eigenvector at column {j}"
            )
    for i in range(q):
        if sum(x * y for x, y in zip(An[i], v)) * dl != lam * v[i] * dA:
            raise InternalConsistencyError(f"dominant right eigenvector fails at row {i}")
    if sum(x * y for x, y in zip(a, v)) != da * dv:
        raise InternalConsistencyError("right eigenvector is not normalized")


def build_urn(bs: BlockSet, profile: DegreeProfile | None = None) -> UrnModel:
    """Assemble the full urn model for a block set, running every internal
    consistency check along the way.  The activities, v1, lam1 and the
    closed-form spectrum come from the profile's pairs, and every stage gets
    them as (numerators, scale) pairs; A and B stay pairs in the returned
    ``UrnModel``."""
    profile = profile or build_profile(bs)
    law = build_replacement_law(bs, profile)
    a, v, eigs = _activities(profile), _right_eigenvector(profile), _eigenvalues(profile)
    lam = eigs[0][0], eigs[1]
    A = intensity_matrix(profile, law, a)
    _check_eigen_identities(A, a, v, lam)
    validate_spectrum(A, a, eigs)
    B = second_moment_matrix(law, a, v)
    sigma = covariance(A, B, a, v, lam)
    return UrnModel(
        profile=profile,
        types=law.types,
        activities_cleared=a,
        law=law,
        A_cleared=A,
        eigenvalues_cleared=eigs,
        v1_cleared=v,
        B_cleared=B,
        Sigma=sigma,
        irreducible=irreducibility_check(law),
        balanced=profile.balance.balanced,
    )

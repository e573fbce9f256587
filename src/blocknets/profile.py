"""Degree-profile analytics for a block set.

Two finite-support maps summarize one growth step:

* ``f(k)``, the expected number of new non-hook (non-pole) vertices of
  tracked degree k added per step;
* ``g(k)``, the probability that the latch's tracked degree grows by
  exactly k (for bipolar sets k may be 0, since replacing an out-arc
  with a block whose source has outdegree 1 leaves the latch unchanged).

From these follow the essential degrees (values attainable by at least
two non-master vertices), the linear growth rate ``lambda1``, the limit
vector of degree-class proportions, and the per-block activity increments
used to flag balanced models.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model_io import HOOKING, BlockSet, BlockSetError, Num

DECIMAL_G_TOL = 1e-12


@dataclass(frozen=True)
class BalanceInfo:
    """Per-block total-activity increments s_i and whether they all agree."""

    s: tuple[Num, ...]
    balanced: bool


@dataclass(frozen=True)
class DegreeProfile:
    """All closed-form degree analytics for one block set."""

    kind: str
    chi: Num
    rho: Num
    exact: bool
    f: Mapping[int, Num]
    g: Mapping[int, Num]
    essential: tuple[int, ...]
    lambda1: Num
    limit: tuple[Num, ...]
    balance: BalanceInfo

    def w(self, k: int) -> Num:
        return self.chi * k + self.rho

    @property
    def r(self) -> int:
        return len(self.essential)

    @property
    def g0(self) -> Num:
        zero = Fraction(0) if self.exact else 0.0
        return self.g.get(0, zero)


def degree_profile(bs: BlockSet) -> tuple[dict[int, Num], dict[int, Num]]:
    """Compute the maps f and g (finite support, rational in exact mode)."""
    zero = Fraction(0) if bs.exact else 0.0
    f: dict[int, Num] = {}
    g: dict[int, Num] = {}
    for b in bs.blocks:
        if bs.kind == HOOKING:
            for v in b.new_vertices():
                k = b.degree(v)
                f[k] = f.get(k, zero) + b.probability
            kh = b.degree(b.hook)
            g[kh] = g.get(kh, zero) + b.probability
        else:
            for v in b.new_vertices():
                k = b.outdegree(v)
                f[k] = f.get(k, zero) + b.probability
            kh = b.outdegree(b.north) - 1
            g[kh] = g.get(kh, zero) + b.probability
    return f, g


def _base_and_increments(bs: BlockSet) -> tuple[set[int], set[int]]:
    """Seed degrees of newly added vertices, and latch-degree increments."""
    base: set[int] = set()
    incs: set[int] = set()
    for b in bs.blocks:
        if bs.kind == HOOKING:
            base.update(b.degree(v) for v in b.new_vertices())
        else:
            base.update(b.outdegree(v) for v in b.new_vertices())
        incs.add(b.latch_increment())
    return base, incs


def essential_degrees(bs: BlockSet, r: int) -> tuple[int, ...]:
    """The r smallest degrees attainable by two or more non-master vertices.

    These form the closure of the seed set under the positive latch
    increments; the closure is generated in ascending order with a heap, so
    exactly the first r members are produced.  Zero increments (a bipolar
    block whose source has outdegree 1 leaves the latch unchanged) add
    nothing and are dropped.
    """
    if r < 1:
        raise BlockSetError("param-domain", f"r must be >= 1, got {r}")
    base, incs = _base_and_increments(bs)
    incs = {d for d in incs if d > 0}
    if not base:
        raise BlockSetError(
            "degree-base-empty",
            "no block adds any new vertex, so no degree class can ever "
            "hold two vertices",
        )
    heap = sorted(base)
    seen: set[int] = set()
    out: list[int] = []
    while heap and len(out) < r:
        k = heapq.heappop(heap)
        if k in seen:
            continue
        seen.add(k)
        out.append(k)
        for d in incs:
            if k + d not in seen:
                heapq.heappush(heap, k + d)
    if len(out) < r:
        raise BlockSetError(
            "degree-closure-exhausted",
            f"only {len(out)} degree classes are attainable, requested r={r}",
        )
    return tuple(out)


def lambda1(f: Mapping[int, Num], g: Mapping[int, Num], chi: Num, rho: Num) -> Num:
    """Expected change per step of the total attachment weight."""
    total = sum((chi * k + rho) * fk for k, fk in f.items())
    total += sum(chi * k * gk for k, gk in g.items() if k >= 1)
    return total


def limit_vector(
    f: Mapping[int, Num],
    g: Mapping[int, Num],
    essential: tuple[int, ...],
    lam: Num,
    chi: Num,
    rho: Num,
) -> tuple[Num, ...]:
    """Limit proportions (up to the factor lambda1) of the tracked degree
    classes, by forward substitution.  The same recursion covers both
    network kinds; hooking sets simply have g(0) = 0."""
    zero = 0 * lam
    g0 = g.get(0, zero)
    out: list[Num] = []
    for i, k in enumerate(essential):
        acc = f.get(k, zero)
        for j in range(i):
            kj = essential[j]
            gjump = g.get(k - kj, zero)
            if gjump:
                acc += (chi * kj + rho) * gjump * out[j]
        out.append(acc / (lam + (chi * k + rho) * (1 - g0)))
    return tuple(out)


def balance_check(bs: BlockSet) -> BalanceInfo:
    """Per-block change of total attachment weight, and whether it is the
    same for every block (a balanced model concentrates the total weight
    on a deterministic line, and the limit law then holds in all moments).

    Hooking: the hook fuses, so a step adds chi*deg(hook) for the latch plus
    the full weight of every other vertex.  Bipolar: both poles fuse and one
    arc is consumed, so a step adds chi*(|E|-1) + rho*(|V|-2).
    """
    s: list[Num] = []
    for b in bs.blocks:
        if bs.kind == HOOKING:
            s.append(2 * bs.chi * b.n_edges + bs.rho * (b.n_vertices - 1))
        else:
            s.append(bs.chi * (b.n_edges - 1) + bs.rho * (b.n_vertices - 2))
    if bs.exact:
        balanced = all(x == s[0] for x in s)
    else:
        scale = max(1.0, max(abs(float(x)) for x in s))
        balanced = all(abs(float(x) - float(s[0])) <= 1e-12 * scale for x in s)
    return BalanceInfo(s=tuple(s), balanced=balanced)


def build_profile(bs: BlockSet, r: int | None = None) -> DegreeProfile:
    """Assemble the full profile and assert its structural invariants."""
    f, g = degree_profile(bs)
    ess = essential_degrees(bs, bs.r if r is None else r)
    lam = lambda1(f, g, bs.chi, bs.rho)
    if not float(lam) > 0:
        raise BlockSetError("param-domain", f"growth rate must be positive, got {lam}")
    limit = limit_vector(f, g, ess, lam, bs.chi, bs.rho)
    balance = balance_check(bs)
    prof = DegreeProfile(
        kind=bs.kind,
        chi=bs.chi,
        rho=bs.rho,
        exact=bs.exact,
        f=dict(sorted(f.items())),
        g=dict(sorted(g.items())),
        essential=ess,
        lambda1=lam,
        limit=limit,
        balance=balance,
    )
    _assert_profile_invariants(prof)
    return prof


def _assert_profile_invariants(p: DegreeProfile) -> None:
    gsum = sum(p.g.values())
    if p.exact:
        ok = gsum == 1
    else:
        ok = math.isclose(float(gsum), 1.0, rel_tol=0.0, abs_tol=DECIMAL_G_TOL)
    if not ok:
        raise InternalProfileError(f"g-mass is {gsum}, expected 1")

    kr = p.essential[-1]
    ess = set(p.essential)
    for k in range(1, kr + 1):
        if k in ess:
            continue
        if p.f.get(k):
            raise InternalProfileError(
                f"f({k}) = {p.f[k]} but {k} is not among the tracked degrees"
            )
        for kj in p.essential:
            if k > kj and p.g.get(k - kj):
                raise InternalProfileError(
                    f"g({k - kj}) > 0 reaches untracked degree {k} from {kj}"
                )

    if any(not float(x) > 0 for x in p.limit):
        raise InternalProfileError(f"limit vector has a non-positive entry: {p.limit}")
    # The tracked classes can absorb at most the whole weight; equality means
    # the overflow type has limit share 0.  That happens when nothing feeds
    # the overflow type: the urn is then reducible, which the analysis
    # reports (``irreducible: false``) without rejecting the model.
    weighted = sum(p.w(k) * x for k, x in zip(p.essential, p.limit))
    if float(weighted) > 1 + 1e-12:
        raise InternalProfileError(
            f"tracked classes absorb weight fraction {weighted} > 1"
        )


class InternalProfileError(AssertionError):
    """A derived profile violated an identity it is guaranteed to satisfy."""

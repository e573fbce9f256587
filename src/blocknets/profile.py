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

Everything is computed on Python ints.  ``build_profile`` clears chi and
rho of their denominators once (one scale dw) and the block probabilities
once (one scale dp); f and g are then numerators over dp, lambda1 over
dw*dp, the activity increments over dw, and the limit vector comes from a
forward substitution with a running scale.  The profile holds only these
``(numerators, scale)`` pairs (``DegreeProfile.pairs`` and
``BalanceInfo.increments``); its chi, rho, f, g, lambda1 and limit, and the
increments s, are Fraction views built from them on first access.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .model_io import BlockSet, BlockSetError, Num

Scale = int
# A vector as int numerators over one scale: x[i] == ns[i] / d.
Cleared = tuple[list[int], Scale]
# The most tracked degree classes any command accepts.
MAX_TRACKED_TYPES = 64


def _clear(xs: Sequence[Num]) -> Cleared:
    """Int numerators of xs over one common denominator d, so
    xs[i] == ns[i] / d."""
    ratios = [x.as_integer_ratio() for x in xs]
    d = math.lcm(*[b for _, b in ratios])
    return [a * (d // b) for a, b in ratios], d


def _over(ns: Sequence[int], d: Scale) -> tuple[Num, ...]:
    """The values ns[i] / d as Fractions."""
    return tuple(Fraction(n, d) for n in ns)


@dataclass(frozen=True)
class BalanceInfo:
    """Per-block total-activity increments s_i, as a (numerators, scale)
    pair, and whether they all agree.  ``s`` is their Fraction view."""

    increments: Cleared
    balanced: bool

    @functools.cached_property
    def s(self) -> tuple[Num, ...]:
        return _over(*self.increments)


@dataclass(frozen=True)
class ProfilePairs:
    """A profile's exact values as int numerators over int scales.

    chi and rho are ``weights`` over ``dw``, and ``w(k)`` is the numerator of
    chi*k + rho over dw; the block probabilities, f and g are over ``dp``;
    ``lambda1`` is over dw*dp; ``limit`` is the limit vector as a
    (numerators, scale) pair.
    """

    weights: tuple[int, int]
    dw: Scale
    probabilities: tuple[int, ...]
    dp: Scale
    f: dict[int, int]
    g: dict[int, int]
    lambda1: int
    limit: Cleared

    def w(self, k: int) -> int:
        chi, rho = self.weights
        return chi * k + rho


@dataclass(frozen=True)
class DegreeProfile:
    """All closed-form degree analytics for one block set.

    The exact values are held once, as the integer ``pairs``; chi, rho, f,
    g, lambda1 and limit are their Fraction views, built on first access."""

    kind: str
    essential: tuple[int, ...]
    balance: BalanceInfo
    pairs: ProfilePairs

    @functools.cached_property
    def chi(self) -> Num:
        return Fraction(self.pairs.weights[0], self.pairs.dw)

    @functools.cached_property
    def rho(self) -> Num:
        return Fraction(self.pairs.weights[1], self.pairs.dw)

    @functools.cached_property
    def f(self) -> Mapping[int, Num]:
        return dict(zip(self.pairs.f, _over(self.pairs.f.values(), self.pairs.dp)))

    @functools.cached_property
    def g(self) -> Mapping[int, Num]:
        return dict(zip(self.pairs.g, _over(self.pairs.g.values(), self.pairs.dp)))

    @functools.cached_property
    def lambda1(self) -> Num:
        return Fraction(self.pairs.lambda1, self.pairs.dw * self.pairs.dp)

    @functools.cached_property
    def limit(self) -> tuple[Num, ...]:
        return _over(*self.pairs.limit)

    def w(self, k: int) -> Num:
        return Fraction(self.pairs.w(k), self.pairs.dw)

    @property
    def r(self) -> int:
        return len(self.essential)


def _degree_numerators(
    bs: BlockSet, probs: Sequence[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """f and g as numerators over the scale of the block probabilities
    ``probs``, keyed in order of first appearance."""
    f: dict[int, int] = {}
    g: dict[int, int] = {}
    for b, p in zip(bs.blocks, probs):
        for k in b.new_degrees():
            f[k] = f.get(k, 0) + p
        d = b.latch_increment()
        g[d] = g.get(d, 0) + p
    return f, g


def _closure(bs: BlockSet) -> Iterator[int]:
    """The degrees attainable by two or more non-master vertices, ascending.

    They form the closure of the seed set under the positive latch
    increments, which a heap generates in ascending order, one degree per
    ``next``.  Zero increments (a bipolar block whose source has outdegree 1
    leaves the latch unchanged) add nothing and are dropped.  The closure
    ends only if no increment is positive.
    """
    base = {k for b in bs.blocks for k in b.new_degrees()}
    incs = {d for d in (b.latch_increment() for b in bs.blocks) if d > 0}
    if not base:
        raise BlockSetError(
            "degree-base-empty",
            "no block adds any new vertex, so no degree class can ever "
            "hold two vertices",
        )
    heap = sorted(base)
    seen: set[int] = set()
    while heap:
        k = heapq.heappop(heap)
        if k in seen:
            continue
        seen.add(k)
        yield k
        for d in incs:
            if k + d not in seen:
                heapq.heappush(heap, k + d)


def essential_degrees(bs: BlockSet, r: int) -> tuple[int, ...]:
    """The r smallest degrees attainable by two or more non-master vertices
    (``_closure``); exactly the first r are generated.  An r past
    MAX_TRACKED_TYPES is refused before any is."""
    if r < 1:
        raise BlockSetError("param-domain", f"r must be >= 1, got {r}")
    if r > MAX_TRACKED_TYPES:
        raise BlockSetError(
            "param-domain",
            f"tracked-class count {r} exceeds the supported maximum {MAX_TRACKED_TYPES}",
        )
    out = tuple(itertools.islice(_closure(bs), r))
    if len(out) < r:
        raise BlockSetError(
            "degree-closure-exhausted",
            f"only {len(out)} degree classes are attainable, requested r={r}",
        )
    return out


def _lambda1(f: Mapping[int, int], g: Mapping[int, int], chi: int, rho: int) -> int:
    """Numerator of lambda1 over dw*dp, for f and g over dp and chi and rho
    over dw."""
    total = sum((chi * k + rho) * fk for k, fk in f.items())
    return total + sum(chi * k * gk for k, gk in g.items() if k >= 1)


def _limit(
    f: Mapping[int, int],
    g: Mapping[int, int],
    dp: Scale,
    essential: tuple[int, ...],
    lam: int,
    chi: int,
    rho: int,
    dw: Scale,
) -> Cleared:
    """The limit vector as a (numerators, scale) pair, for f and g over dp,
    lam over dw*dp and chi and rho over dw.

    Class i solves nu_i = (f_i + sum_j w_j g(k_i - k_j) nu_j) / (lam + w_i (1 - g0))
    over the classes j before it.  With the earlier nu_j = n_j / s, that is
    (f_i dw s + sum_j w_j g(k_i - k_j) n_j) / (s D_i) in numerators, where
    D_i = lam + w_i (dp - g0): the running scale s takes the factor D_i and
    the earlier numerators with it.  One gcd reduces the result."""
    g0 = g.get(0, 0)
    jumps = [(m, gm) for m, gm in g.items() if m > 0]
    index = {k: i for i, k in enumerate(essential)}
    ns: list[int] = []
    s = 1
    for k in essential:
        acc = f.get(k, 0) * dw * s
        for m, gm in jumps:
            j = index.get(k - m)
            if j is not None:
                acc += (chi * (k - m) + rho) * gm * ns[j]
        d = lam + (chi * k + rho) * (dp - g0)
        ns = [n * d for n in ns]
        ns.append(acc)
        s *= d
    c = math.gcd(s, *ns)
    return [n // c for n in ns], s // c


def activity_increments(bs: BlockSet, chi: int, rho: int) -> list[int]:
    """Per-block change of the total attachment weight, for chi and rho
    given as numerators over one scale; the increments are over the same
    scale.  A step adds the full weight chi*c + rho of each new vertex of
    degree c, and chi times the latch increment for the latch.  (Hooking,
    this sums to 2*chi*|E| + rho*(|V|-1); bipolar, where one arc is
    consumed, to chi*(|E|-1) + rho*(|V|-2).)"""
    return [
        chi * b.latch_increment() + sum(chi * c + rho for c in b.new_degrees())
        for b in bs.blocks
    ]


def build_profile(bs: BlockSet, r: int | None = None) -> DegreeProfile:
    """Assemble the full profile and assert its structural invariants.  A
    model is balanced when every block changes the total attachment weight
    alike: the total then lies on a deterministic line, and the limit law
    holds in all moments."""
    (chi, rho), dw = _clear((bs.chi, bs.rho))
    probs, dp = _clear(bs.probabilities)
    f, g = (dict(sorted(m.items())) for m in _degree_numerators(bs, probs))
    ess = essential_degrees(bs, bs.r if r is None else r)
    lam = _lambda1(f, g, chi, rho)
    if not lam > 0:
        raise BlockSetError(
            "param-domain", f"growth rate must be positive, got {Fraction(lam, dw * dp)}"
        )
    pairs = ProfilePairs(
        weights=(chi, rho),
        dw=dw,
        probabilities=tuple(probs),
        dp=dp,
        f=f,
        g=g,
        lambda1=lam,
        limit=_limit(f, g, dp, ess, lam, chi, rho, dw),
    )
    s = activity_increments(bs, chi, rho)
    balance = BalanceInfo(increments=(s, dw), balanced=all(x == s[0] for x in s))
    prof = DegreeProfile(kind=bs.kind, essential=ess, balance=balance, pairs=pairs)
    _assert_profile_invariants(prof)
    return prof


def weight_past(bs: BlockSet, top: int) -> Cleared:
    """The limit law's share of the attachment weight that lies past each
    degree d = 0..top, 1 - sum_{k <= d} w_k nu_k, as a (numerators, scale)
    pair.  Only the attainable degrees carry weight, and every one up to
    ``top`` is tracked, so a model with fewer attainable degrees than ``top``
    is served as well."""
    ess = tuple(itertools.takewhile(lambda k: k <= top, _closure(bs)))
    if not ess:
        return [1] * (top + 1), 1
    x = build_profile(bs, len(ess)).pairs
    ns, s = x.limit
    on = {k: x.w(k) * n for k, n in zip(ess, ns)}
    past, left = [], x.dw * s
    for d in range(top + 1):
        left -= on.get(d, 0)
        past.append(left)
    return past, x.dw * s


def _assert_profile_invariants(p: DegreeProfile) -> None:
    """The identities a profile satisfies, checked on its integer pairs."""
    x = p.pairs
    gsum = sum(x.g.values())
    if gsum != x.dp:
        raise InternalProfileError(f"g-mass is {Fraction(gsum, x.dp)}, expected 1")

    kr = p.essential[-1]
    ess = set(p.essential)
    for k in range(1, kr + 1):
        if k in ess:
            continue
        if x.f.get(k):
            raise InternalProfileError(
                f"f({k}) = {p.f[k]} but {k} is not among the tracked degrees"
            )
        for kj in p.essential:
            if k > kj and x.g.get(k - kj):
                raise InternalProfileError(
                    f"g({k - kj}) > 0 reaches untracked degree {k} from {kj}"
                )

    ns, s = x.limit
    if any(not n > 0 for n in ns):
        raise InternalProfileError(f"limit vector has a non-positive entry: {p.limit}")
    # The tracked classes can absorb at most the whole weight; equality means
    # the overflow type has limit share 0.  That happens when nothing feeds
    # the overflow type: the urn is then reducible, which the analysis
    # reports (``irreducible: false``) without rejecting the model.
    weighted = sum(x.w(k) * n for k, n in zip(p.essential, ns))
    if weighted > x.dw * s:
        raise InternalProfileError(
            f"tracked classes absorb weight fraction {Fraction(weighted, x.dw * s)} > 1"
        )


class InternalProfileError(AssertionError):
    """A derived profile violated an identity it is guaranteed to satisfy."""

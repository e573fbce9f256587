"""Census growth kernels: the one decision procedure of the simulator.

The inner loop of a census-mode simulation is a few hundred integer
operations per step and dominates the runtime of Monte-Carlo
verification.  Two kernels advance it:

* ``census_chunk`` runs one replicate through the scalar loop, in pure
  Python over lists.  ``simulate`` and ``grow_step`` use it in both
  modes.  It advances the counts and returns the latch class it chose at
  each step, from which graph mode replays the steps on the multigraph
  and ``growth._record_rows`` rebuilds a recorded trajectory in numpy.
* ``census_batch`` advances a block of replicates in lock step on one
  degrees-by-replicates array, in numpy; ``verify`` uses it through
  ``simulate_batch``.  Each replicate keeps the state row of the scalar
  loop, [max degree, master degree, S * total activity].  Everything that
  does not depend on the census (the running total activity, the new
  vertices and the maximum degree) is computed once per row block.  Per
  step it only advances each replicate's partial sums over the low degree
  classes, held as exact int64 integers in one sorted array: one
  ``searchsorted`` of the floored targets finds every replicate's class,
  and one gather and one add apply the matching rows of the model's step
  table.  The latches that lie past those classes, and those that reach
  the master, are resolved after the row block, in a few rounds that
  each serve every replicate at once.
  ``growth._scan_prefix`` sizes the prefix per model from its limit law:
  the fewest multiple of 8 degrees past which fewer than 2% of the steps
  are predicted to defer, at most 64.  That is 48 degrees on fig1 and 8
  on fig3.

Both kernels, ``block_choice`` and graph mode's replay read one model
table, ``tab``, which ``growth._build_tables`` builds once per
``simulate`` or ``simulate_batch`` call.  It holds each per-block fact
once: the latch increment, the scaled activity increment, the new-vertex
count and degrees.  The scalar loop reads lists; numpy arrays serve only
numpy code that indexes them by block choices.  The lock-step kernel
also reads its own tables (``LockStep``: the step table, the change that
each block, latching at each low degree class, makes to the partial sums
of those classes, and what it adds past them), which ``lock_step_tables``
builds for a given prefix width.

Both kernels take the block choices precomputed by ``block_choice``
(one compare per block and row block), which is also how the initial
block is drawn; the class scan is the only choice they make.  Both weigh
degree k by the integer ``S * (chi * k + rho)``, where S is the least
common denominator of chi and rho, so every weight, partial sum and
total is an exact integer, and in binary64 too while the scaled total
stays below ``ACTIVITY_LIMIT``.  Exact integers add to the same sum in
any order, so the batched kernel is free to build its partial sums in
whatever order is fastest; both kernels compare the same binary64 target
``u0 * (S * total)`` with the same partial sums and yield bit-identical
states.  The scalar loop picks the first class whose partial sum exceeds
the target; every weight is positive (chi >= 0 and chi + rho > 0), so
the sums never decrease and the lock-step kernel picks the same class as
the count of sums at most the target.  It counts them against the
target's floor, in int64: an integer sum is at most the target exactly
when it is at most its floor.

Step layout of the pre-drawn uniforms (one row per step):

    col 0  latch class selection (the kernels' class scan)
    col 1  index inside the class (graph mode's replay only)
    col 2  block selection (``block_choice``, before the kernels run)
    col 3  out-arc index (bipolar graph mode's replay only)

A latch class is the degree of the latch, or -1 for the master vertex.
Both kernels grow the counts array when a step would reach past its end,
so no caller has to.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Bound on the scaled total activity S * total.  Every partial sum the
# kernels form lies between 0 and the total, and every change made to one
# is an integer, so below 2**52 each is an exact binary64 integer.
ACTIVITY_LIMIT = 2**52
# Each replicate's prefix sums sit in a span of ROW_SPAN int64 values of
# the lock-step kernel's one sorted array, replicate r's from r * ROW_SPAN
# on; every sum and target lies below ACTIVITY_LIMIT, so each span ends
# above them with room for its sentinel.
ROW_SPAN = 2 * ACTIVITY_LIMIT
# The most replicates one ``census_batch`` call holds: every span must fit
# an int64.
MAX_REPLICATES = np.iinfo(np.int64).max // ROW_SPAN


class LockStep(NamedTuple):
    """The lock-step kernel's tables over a prefix of P degrees, for a
    model of m blocks.  Row i * (P + 1) + k of each belongs to block i
    latching at degree k + 1, where k = P stands for any latch past the
    prefix: the rows are block-major, so that a replicate's row is its
    class index plus an offset fixed by its block choice."""

    # int64 (m * (P + 1), P + 1): the change that the row's step makes to
    # the partial sums of degrees 1..P, then a 0 for the kernel's sentinel
    step: np.ndarray
    # int64 (m * (P + 1), A): the vertices that the row's step adds at
    # degree P + 1 + a past the prefix: its new vertices there and, for
    # k < P, a latch that it moves there.  P + A is the highest degree
    # that any row adds to, or A = 0 if none does.
    arrive: np.ndarray


def lock_step_tables(tab, P: int) -> LockStep:
    """The tables ``census_batch`` reads for the model table ``tab``, when
    its step loop scans degrees 1..P."""
    m = len(tab.block_d)
    top = max(P, tab.new_max, P + max(tab.block_d))
    # moves[i, k, c]: the change in the count of degree c when block i
    # latches at degree k + 1; past the prefix (k = P) the latch's move
    # is left to the rounds
    moves = np.zeros((m, P + 1, top + 1), dtype=np.int64)
    for i, new in enumerate(tab.new_degs):
        for c in new:
            moves[i, :, c] += 1
    i, k = np.arange(m)[:, None], np.arange(P)
    moves[i, k, k + 1] -= 1
    moves[i, k, k + 1 + tab.d_a[:, None]] += 1
    # clamped, so that a huge S fits an int64: a row whose step reaches a
    # weight of ACTIVITY_LIMIT would lift the total past it, and such a run
    # is refused before its first step, so no run reads a clamped row
    w = np.array([min(tab.chi_s * c + tab.rho_s, ACTIVITY_LIMIT) for c in range(1, P + 1)])
    step = np.zeros((m * (P + 1), P + 1), dtype=np.int64)
    np.cumsum(moves[:, :, 1 : P + 1] * w, axis=2, out=step.reshape(m, P + 1, P + 1)[:, :, :P])
    arrive = moves[:, :, P + 1 :].reshape(m * (P + 1), top - P).copy()
    return LockStep(step, arrive)


def _grow(counts, weight, tab, need):
    """Double the counts list in place until degree ``need`` fits, and
    extend ``weight`` to its length.  Returns the new length."""
    while need >= len(counts):
        counts.extend([0] * len(counts))
    weight.extend(float(tab.chi_s * k + tab.rho_s) for k in range(len(weight), len(counts)))
    return len(counts)


def census_chunk(counts, state, tab, u0, b_in):
    """The census loop over the class uniforms ``u0`` and block choices
    ``b_in`` of the next steps.  ``state`` is the list [max degree, master
    degree, S * total activity], updated in place.  Returns the counts as a
    new array, grown if a step reached past their end, and each step's
    latch class.  The loop runs on lists: element access on numpy arrays
    costs several times more."""
    counts = counts.tolist()
    weight = []  # float(S * (chi * k + rho)) for k < len(counts)
    max_deg, master_deg, total = state
    block_d, block_s, new_degs = tab.block_d, tab.block_s, tab.new_degs
    cap = _grow(counts, weight, tab, tab.new_max)  # every new vertex fits from here on
    classes = []

    for u, b in zip(u0.tolist(), b_in.tolist()):
        # The partial sums are integers below ACTIVITY_LIMIT, so adding
        # them in binary64 is exact, and faster than on Python ints.
        target = u * total
        cls = -1
        acc = 0.0
        for k in range(1, max_deg + 1):
            acc += weight[k] * counts[k]
            if target < acc:
                cls = k
                break

        d = block_d[b]
        if cls == -1:
            master_deg += d
        elif d > 0:
            k = cls + d
            if k >= cap:
                cap = _grow(counts, weight, tab, k)
            counts[cls] -= 1
            counts[k] += 1
            if k > max_deg:
                max_deg = k
        for c in new_degs[b]:
            counts[c] += 1
            if c > max_deg:
                max_deg = c
        total += block_s[b]
        classes.append(cls)

    state[:] = max_deg, master_deg, total
    return np.array(counts, dtype=np.int64), np.array(classes, dtype=np.int64)


def block_choice(tab, ub):
    """The block index for each uniform in ``ub``: the first i with
    ``ub < p_0 + ... + p_i`` (``tab.cum_p``, summed by ``np.cumsum`` in
    the kernels' order), else the last block.  The sums never decrease, so
    that is the count of sums before the last that are <= ``ub``, one
    compare per block on the whole array."""
    choice = np.zeros(np.shape(ub), dtype=np.int64)
    for p in tab.cum_p[:-1].tolist():
        choice += ub >= p
    return choice


def census_batch(counts, state, tab, lock, u, b):
    """Advance R replicates by ``u.shape[1]`` steps each, in lock step:
    every replicate takes step j before any takes j+1.

    ``counts`` is (R, D) int64, ``state`` (R, 3) int64 holding each
    replicate's [max degree, master degree, S * total activity], the row
    that ``census_chunk`` keeps in its ``state`` list, ``u`` (R, L, ncols)
    the next L rows of each replicate's stream and ``b`` (R, L) their block
    choices (``block_choice``).  Degree k weighs ``tab.chi_s * k +
    tab.rho_s`` and block i adds ``tab.s_a[i]`` to the total, which lies
    below ``ACTIVITY_LIMIT``.  ``lock`` is ``lock_step_tables(tab, P)`` for
    some P >= 1.  ``state`` is updated in place; the counts are returned in
    a new array.  Nothing is recorded.

    The step loop scans only the prefix, degrees 1..P, where P is the
    width of the step table ``lock.step``.  Any P >= 1 yields the same
    states, by the argument below; only the time moves with it.  At most
    ``MAX_REPLICATES`` replicates fit one call.

    Each replicate's P partial sums are exact int64 integers in one flat
    sorted array, ``keys``: replicate r's row holds its sums plus
    r * ``ROW_SPAN``, then the sentinel r * ROW_SPAN + ROW_SPAN - 1, which
    lies above every sum and target of the row and below the next row.
    Each step's class target t = u0 * (S * total) is held floored, as
    floor(t) + r * ROW_SPAN.  One ``keys.searchsorted(targets, "right")``
    over the R targets of a step gives each replicate r * (P + 1) + k,
    where k counts the sums of its own row that are <= floor(t).  For an
    integer sum s and a target t below 2**52, s <= t exactly when
    s <= floor(t), so k also counts the sums <= t.  Every weight is
    positive, since chi >= 0 and chi + rho > 0, so the sums never
    decrease, and k is the index of the first sum > t: the class that the
    scalar loop's strict ``<`` picks, the latch at degree k + 1, or past
    the prefix when k = P.  Adding (i - r) * (P + 1) for the step's block
    choice i gives row i * (P + 1) + k of the block-major step table, the
    exact change that this latch and the block's new vertices make to the
    sums; one gather and one add apply the R rows.  Every sum stays an
    integer below ``ACTIVITY_LIMIT``, so the partial sums are those of the
    scalar loop.  The gather skips numpy's index check (``mode="clip"``);
    after the loop the row block checks the stored rows once, and raises
    ``IndexError`` if any lies outside the step table.

    After the loop the census is held by degree as float64, ``work[k, r]``
    for degree k, sized once.  The rounds below read whole blocks of P
    degrees up to the highest class, which starts at most at ``width``, and
    each round lifts a latch, and so that class, by at most
    dmax = max(``tab.block_d``) degrees, so width + P + dmax * rounds rows
    cover every read and every move.  Each degree k <= P takes the count
    (sum_k - sum_{k-1}) / weight_k from the final sums; the degrees past
    the prefix start from ``counts``.  The vertices that the steps add past
    the prefix, new ones and latches that a prefix hit moves there, are the
    ``arrivals``: per step, the row of ``lock.arrive`` that matches its step
    table row.  The row block's end adds their totals to the census.

    The steps that reached the sentinel are deferred: their latches are
    resolved after the loop, in rounds.  Round t takes every replicate's
    t-th deferred step, in lock step over the replicates.  It continues the
    scan past the prefix from the last prefix sum at its step (``last``,
    the sum before the row block plus the changes of the earlier steps) and
    latches to the master if the target is not below the last sum either,
    adding the block's latch increment to the master degree at once.
    It reads the floored targets, which pick as the targets do against
    integer sums: t < s exactly when floor(t) < s.  It scans in blocks of
    P degrees: one ``matmul`` gives each block's weighted sum, and only the
    first block whose end passes the target is scanned row by row.  This
    is exact:

    * a deferred latch moves only degrees past the prefix, or the master
      degree, and the prefix sums count neither, so every prefix outcome of
      the loop stands;
    * a round sees the degrees past the prefix as they stood at its step.
      The rows hold the row block's start and the replicate's earlier
      deferred latches, applied by the earlier rounds; the round adds the
      arrivals of the steps before its own, cumulated over the row block.
      A deferred latch may take a vertex that arrived earlier in the row
      block, before the end adds it, so a row can go negative between
      rounds; the segment that a round scans, rows plus arrivals, holds
      true counts all the same;
    * so every term past the prefix is a count times a weight, a
      non-negative integer, and every sum, in whatever order ``matmul``
      adds it, an integer below ``ACTIVITY_LIMIT``.  The partial sums
      grow with the degree, so the first block whose end passes the
      target holds the first degree that does.
    """
    R, L = u.shape[0], u.shape[1]
    if R > MAX_REPLICATES:
        raise ValueError(f"census_batch takes at most {MAX_REPLICATES} replicates, got {R}")
    step, arrive = lock
    P = step.shape[1] - 1
    # Total activity before each step, and each step's class target, floored
    # (u0 * total >= 0 casts to its floor) and moved into its replicate's span.
    totals = np.empty((R, L + 1))
    totals[:, 0] = state[:, 2]
    totals[:, 1:] = tab.s_a[b]
    np.cumsum(totals, axis=1, out=totals)
    target = np.empty((L, R), dtype=np.int64)
    np.multiply(u[:, :, 0].T, totals[:, :L].T, out=target, casting="unsafe")
    span = np.arange(R, dtype=np.int64) * ROW_SPAN
    target += span
    state[:, 2] = totals[:, L]
    del totals
    # Each step's offset (i - r) * (P + 1) from its search index to its row
    # i * (P + 1) + k of the step tables, which the loop stores in its place.
    moved = b.T - np.arange(R)
    moved *= P + 1

    # The census of degrees 1..P (zero past the end of ``counts``).
    low = np.zeros((R, P))
    low[:, : counts.shape[1] - 1] = counts[:, 1 : P + 1]
    sums = np.empty((R, P + 1), dtype=np.int64)
    sums[:, :P] = np.cumsum(low * (tab.chi_s * np.arange(1.0, P + 1) + tab.rho_s), axis=1)
    sums[:, P] = ROW_SPAN - 1
    sums += span[:, None]
    first = sums[:, P - 1] - span  # the last prefix sum before the row block
    keys = sums.reshape(-1)
    change = np.empty_like(sums)

    for j in range(L):
        row = moved[j]
        row += keys.searchsorted(target[j], side="right")
        step.take(row, axis=0, out=change, mode="clip")
        sums += change

    # Every gather of the stored rows, in the loop and after it, skips
    # numpy's index check (mode="clip"); this one check covers them all.
    if moved.min() < 0 or moved.max() >= len(step):
        raise IndexError("a lock-step row lies outside the step table")
    # The deferred steps, whose row is the last of its block's (k = P), as
    # flat indices j * R + r in step order.  Round t takes each replicate's
    # t-th deferred step.
    deferred = np.flatnonzero((np.arange(len(step)) % (P + 1) == P)[moved])
    j, r = np.divmod(deferred, R)
    order = np.argsort(r, kind="stable")
    nth = np.arange(len(order)) - np.searchsorted(r[order], r[order])
    order = order[np.argsort(nth, kind="stable")]
    j, r = j[order], r[order]
    sizes = np.bincount(nth)

    # The census by degree, work[k, r].  No class lies above width: it covers
    # every degree that a prefix hit or a new vertex can reach, and at least
    # one past the prefix.  The rounds read whole blocks of P degrees up to
    # width, and each round lifts a latch, and width, by at most dmax.
    dmax = max(tab.block_d)
    width = max(int(state[:, 0].max()), tab.new_max, P + dmax + 1)
    D = max(counts.shape[1], width + P + len(sizes) * dmax)
    work = np.zeros((D, R))
    work[: counts.shape[1]] = counts.T
    weight = tab.chi_s * np.arange(D, dtype=np.float64) + tab.rho_s  # by degree
    # The census of the prefix, exact: each difference of exact integer sums
    # is a count times its weight.
    W = P + 1  # the first degree past the prefix
    sums -= span[:, None]
    work[1:W] = (np.diff(sums[:, :P], axis=1, prepend=0) / weight[1:W]).T
    # arrivals[j, r, a]: what the steps before step j of replicate r add
    # at degree P + 1 + a.  The rounds read it, and the end adds row L to
    # the census.
    A = arrive.shape[1]
    arrivals = np.zeros((L + 1, R, A), dtype=np.min_scalar_type(L * int(arrive.max(initial=0))))
    np.take(arrive.astype(arrivals.dtype), moved, axis=0, out=arrivals[1:], mode="clip")
    np.cumsum(arrivals, axis=0, out=arrivals)
    arrived = arrivals[L].T.copy()

    if len(sizes):
        # Per deferred step, in round order: the arrivals before it, then its
        # target, kept prefix sum and latch increment.
        came = arrivals[j, r]
        del arrivals
        # The last prefix sum before each step.
        last = np.empty((L, R), dtype=np.int64)
        last[0] = first
        np.take(step[:, P - 1], moved[:-1], out=last[1:], mode="clip")
        np.cumsum(last, axis=0, out=last)
        tj = (target[j, r] - span[r]).astype(np.float64)
        kept, lift = last[j, r], tab.d_a[b[r, j]]
        del target, last, moved  # the rounds read none of the step tables
        ends = np.cumsum(sizes)
        for lo, hi in zip(ends - sizes, ends):
            m, rm = slice(lo, hi), r[lo:hi]
            # The counts past the prefix at each one's step, in nb blocks of
            # P degrees (rows past width are zero).
            nb = -(-(width - P) // P)
            seg = work[W : W + nb * P, rm]
            seg[:A] += came[m].T
            seg = seg.reshape(nb, P, -1)
            wb = weight[W : W + nb * P].reshape(nb, 1, -1)
            # Partial sums at each block's start and at the last one's end,
            # then the first block that passes the target, scanned row by row.
            sums = np.empty((nb + 1, hi - lo))
            sums[0] = kept[m]
            np.matmul(wb, seg, out=sums[1:, None])
            np.cumsum(sums, axis=0, out=sums)
            i = (tj[m] < sums[1:]).argmax(axis=0)
            col = np.arange(hi - lo)
            inner = seg[i, :, col] * wb[i, 0]
            inner[:, 0] += sums[i, col]
            hit = tj[m, None] < np.cumsum(inner, axis=1, out=inner)
            # A latch moves up lift[m] degrees; the master gains them.
            latched = hit[:, -1]
            at = W + i * P + hit.argmax(axis=1)
            work[at, rm] -= latched
            at += lift[m]
            work[at, rm] += latched
            state[rm, 1] += np.where(latched, 0, lift[m])
            width = max(width, int(at.max()))

    # Bookkeeping that the scan does not read, for the whole row block.
    work[W : W + A] += arrived
    census = np.ascontiguousarray(work.T, dtype=np.int64)
    occupied = census[:, ::-1] != 0  # the highest degree first
    top = np.where(occupied.any(axis=1), census.shape[1] - 1 - occupied.argmax(axis=1), 0)
    np.maximum(state[:, 0], top, out=state[:, 0])
    return census

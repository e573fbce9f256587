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
  ``simulate_batch``.  Everything that does not depend on the census (the
  running total activity, the new vertices, the master degree and the
  maximum degree) is computed once per row block.  Per step it only
  advances each replicate's partial sums over the low degree classes:
  one compare, one matrix-vector product and one gather-add from the
  model's step table.  The latches that lie past those classes are
  resolved after the row block, in a few rounds that each serve every
  replicate at once.  ``growth._scan_prefix`` sizes the prefix per model
  from its limit law: the fewest multiple of 8 degrees past which fewer
  than 2% of the steps are predicted to defer, at most 64.  That is 48
  degrees on fig1 and 8 on fig3.

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
the count of sums at most the target.

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


class LockStep(NamedTuple):
    """The lock-step kernel's tables over a prefix of P degrees, for a
    model of m blocks.  Row k * m + i of each belongs to block i latching
    at degree k + 1, where k = P stands for any latch past the prefix."""

    # float64 ((P + 1) * m, P + 1): the change that the row's step makes to
    # the partial sums of degrees 1..P, then a 0 for the kernel's sentinel
    step: np.ndarray
    # int64 ((P + 1) * m, A): the vertices that the row's step adds at
    # degree P + 1 + a past the prefix: its new vertices there and, for
    # k < P, a latch that it moves there.  P + A is the highest degree
    # that any row adds to, or A = 0 if none does.
    arrive: np.ndarray


def lock_step_tables(tab, P: int) -> LockStep:
    """The tables ``census_batch`` reads for the model table ``tab``, when
    its step loop scans degrees 1..P."""
    m = len(tab.block_d)
    top = max(P, tab.new_max, P + max(tab.block_d))
    # moves[k, i, c]: the change in the count of degree c when block i
    # latches at degree k + 1; past the prefix (k = P) the latch's move
    # is left to the rounds
    moves = np.zeros((P + 1, m, top + 1))
    for i, new in enumerate(tab.new_degs):
        for c in new:
            moves[:, i, c] += 1
    k, i = np.arange(P)[:, None], np.arange(m)
    moves[k, i, k + 1] -= 1
    moves[k, i, k + 1 + tab.d_a] += 1
    # clamped: a run reaching a weight past ACTIVITY_LIMIT is refused, and
    # a huge S must not overflow the conversion
    w = [min(tab.chi_s * c + tab.rho_s, ACTIVITY_LIMIT) for c in range(1, P + 1)]
    step = np.zeros(((P + 1) * m, P + 1))
    np.cumsum(moves[:, :, 1 : P + 1] * w, axis=2, out=step.reshape(P + 1, m, P + 1)[:, :, :P])
    arrive = moves[:, :, P + 1 :].reshape((P + 1) * m, top - P).astype(np.int64)
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


def census_batch(counts, state_i, state_f, tab, lock, u, b):
    """Advance R replicates by ``u.shape[1]`` steps each, in lock step:
    every replicate takes step j before any takes j+1.

    ``counts`` is (R, D) int64, ``state_i`` (R, 2) int64 holding the max
    degree and the master degree, ``state_f`` (R,) float64 the scaled
    total activity (an exact integer below ``ACTIVITY_LIMIT``), ``u``
    (R, L, ncols) the next L rows of each replicate's stream and ``b``
    (R, L) their block choices (``block_choice``).  Degree k weighs
    ``tab.chi_s * k + tab.rho_s`` and block i adds ``tab.s_a[i]`` to the
    total.  ``lock`` is ``lock_step_tables(tab, P)`` for some P >= 1.
    ``state_i`` and ``state_f`` are updated in place; the counts are
    returned in a new array.  Nothing is recorded.

    The step loop scans only the prefix, degrees 1..P, where P is the
    width of the step table ``lock.step``.  Any P >= 1 yields the same
    states, by the argument below; only the time moves with it.  Each
    replicate's P partial sums, followed by an ``inf`` sentinel that no
    target reaches, are one row of ``sums``.  A step's
    class index k is the count of sums <= its target: the latch at degree
    k + 1, or past the prefix when k = P.  Every weight is positive, since
    chi >= 0 and chi + rho > 0, so the sums never decrease, and the count
    of sums <= the target is the index of the first sum > the target, the
    class the scalar loop's strict ``<`` picks.  With the block choice i
    of the model's m blocks, the step reads row k * m + i of the step
    table, the exact change that this latch and the block's new vertices
    make to the sums, and adds it.  Every sum is an integer below
    ``ACTIVITY_LIMIT`` at every step and every change an integer, so each
    comparison and each addition is exact in binary64, and the partial
    sums are those of the scalar loop.

    Everything past the prefix is held degree-major as float64,
    ``work[row, r]``: the trash rows 0..dmax, where the master's class is
    the first, so its move is the same -1/+1 as any latch's and its degree
    is read off these rows at the end; then the degrees 0, 1, 2, ... from
    row ``base`` on.  The step loop does not touch it.  After the loop each
    degree k <= P takes the count (sum_k - sum_{k-1}) / weight_k from the
    final sums.  The vertices that the steps add past the prefix, new ones
    and latches that a prefix hit moves there, are the ``arrivals``: per
    step, the row of ``lock.arrive`` that matches its step table
    row.  The row block's end adds their totals to the degree rows.

    The steps that reached the sentinel are deferred: their latches are
    resolved after the loop, in rounds.  Round t takes every replicate's
    t-th deferred step, in lock step over the replicates.  It continues the
    scan past the prefix from the last prefix sum at its step (``last``,
    the sum before the row block plus the changes of the earlier steps) and
    latches to the master if the target is not below the last sum either.
    It scans in blocks of P degrees: one ``matmul`` gives each block's
    weighted sum, and only the first block whose end passes the target is
    scanned row by row.  This is exact:

    * a deferred latch moves only degree rows past the prefix, or trash
      rows, and the prefix sums count neither, so every prefix outcome of
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
    step, arrive = lock
    P = step.shape[1] - 1
    blocks = len(tab.block_d)
    # Total activity before each step, and each step's class target.
    totals = np.empty((R, L + 1))
    totals[:, 0] = state_f
    totals[:, 1:] = tab.s_a[b]
    np.cumsum(totals, axis=1, out=totals)
    target = np.empty((L, R))
    np.multiply(u[:, :, 0].T, totals[:, :L].T, out=target)
    state_f[:] = totals[:, L]
    del totals
    # Each step's block choice, and once the step is taken, its row
    # k * m + b of the step tables.
    moved = b.T.copy()

    dmax = max(tab.block_d)
    base = dmax + 1  # row of degree 0, after the trash rows
    # No class lies above width.  It covers every degree a prefix hit or a
    # new vertex can reach, and at least one past the prefix.
    width = max(int(state_i[:, 0].max()), tab.new_max, P + dmax + 1)
    # The rounds read whole blocks of P degrees, up to width.
    D = base + max(counts.shape[1], width + P)
    work = np.zeros((D, R))
    work[base : base + counts.shape[1]] = counts.T
    flat = work.reshape(-1)
    weight = tab.chi_s * np.arange(D - base, dtype=np.float64) + tab.rho_s  # by degree

    W = base + P + 1  # row of the first degree past the prefix
    sums = np.empty((R, P + 1))
    np.cumsum(work[base + 1 : W].T * weight[1 : P + 1], axis=1, out=sums[:, :P])
    sums[:, P] = np.inf
    first = sums[:, P - 1].copy()  # the last prefix sum before the row block
    below = np.empty((R, P + 1))
    k = np.empty(R)
    by_m = np.full(P + 1, float(blocks))
    tcol = target[:, :, None]

    for j in range(L):
        np.less_equal(sums, tcol[j], out=below)
        np.matmul(below, by_m, out=k)
        row = moved[j]
        np.add(row, k, out=row, casting="unsafe")
        sums += step[row]

    # The census of the prefix, exact: each difference of exact integer sums
    # is a count times its weight.
    work[base + 1 : W] = (np.diff(sums[:, :P], axis=1, prepend=0.0) / weight[1 : P + 1]).T
    # arrivals[j, r, a]: what the steps before step j of replicate r add
    # at degree P + 1 + a.  The rounds read it, and the end adds row L to
    # the degree rows.
    A = arrive.shape[1]
    arrivals = np.zeros((L + 1, R, A), dtype=np.min_scalar_type(L * int(arrive.max(initial=0))))
    np.take(arrive.astype(arrivals.dtype), moved, axis=0, out=arrivals[1:])
    np.cumsum(arrivals, axis=0, out=arrivals)
    arrived = arrivals[L].T.copy()

    # The deferred steps as flat indices j * R + r in step order.
    deferred = np.flatnonzero(moved >= P * blocks)
    if len(deferred):
        # Round t takes each replicate's t-th deferred step.
        j, r = np.divmod(deferred, R)
        order = np.argsort(r, kind="stable")
        nth = np.arange(len(order)) - np.searchsorted(r[order], r[order])
        order = order[np.argsort(nth, kind="stable")]
        j, r = j[order], r[order]
        # Per deferred step, in round order: the arrivals before it, then
        # its target, kept prefix sum and latch move.
        came = arrivals[j, r]
        del arrivals
        # The last prefix sum before each step.
        last = np.empty((L, R))
        last[0] = first
        np.take(step[:, P - 1], moved[:-1], out=last[1:])
        np.cumsum(last, axis=0, out=last)
        tj, kept, move = target[j, r], last[j, r], tab.d_a[b[r, j]] * R
        del target, tcol, last, moved  # the rounds read none of the step tables
        sizes = np.bincount(nth)
        ends = np.cumsum(sizes)
        for lo, hi in zip(ends - sizes, ends):
            m, rm = slice(lo, hi), r[lo:hi]
            # The counts past the prefix at each one's step, in nb blocks of
            # P degrees (rows past width are zero).
            nb = -(-(width - P) // P)
            seg = work[W : W + nb * P, rm]
            seg[:A] += came[m].T
            seg = seg.reshape(nb, P, -1)
            wb = weight[P + 1 : P + 1 + nb * P].reshape(nb, 1, -1)
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
            # the degree row of the hit, or the master's class row, 0
            at = np.where(hit[:, -1], W + i * P + hit.argmax(axis=1), 0) * R + rm
            flat[at] -= 1.0
            at += move[m]
            top = int(at.max()) // R - base
            if top > width:
                width = top
                if base + width + P > D:
                    grown = np.zeros((max(base + width + P, 2 * D - base), R))
                    grown[:D] = work
                    work, D = grown, grown.shape[0]
                    flat = work.reshape(-1)
                    weight = tab.chi_s * np.arange(D - base, dtype=np.float64) + tab.rho_s
            flat[at] += 1.0

    # Bookkeeping that the scan does not read, for the whole row block.
    work[W : W + A] += arrived
    state_i[:, 1] += (np.arange(dmax + 1) @ work[:base]).astype(np.int64)
    census = np.ascontiguousarray(work[base:].T, dtype=np.int64)
    occupied = census[:, ::-1] != 0  # the highest degree first
    top = np.where(occupied.any(axis=1), census.shape[1] - 1 - occupied.argmax(axis=1), 0)
    np.maximum(state_i[:, 0], top, out=state_i[:, 0])
    return census

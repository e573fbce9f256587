"""Census growth kernels: the one decision procedure of the simulator.

The inner loop of a census-mode simulation is a few hundred integer
operations per step and dominates the runtime of Monte-Carlo
verification.  Two kernels advance it:

* ``census_chunk`` runs one replicate through ``_census_steps``, the
  scalar loop, in pure Python over lists.  ``simulate`` and ``grow_step``
  use it in both modes.  It only advances the counts and, when asked,
  emits the latch class it chose at each step, from which graph mode
  replays the steps on the multigraph and ``growth._record_rows``
  rebuilds a recorded trajectory in numpy.
* ``census_batch`` advances a block of replicates in lock step on one
  degrees-by-replicates array, in numpy; ``verify`` uses it through
  ``simulate_batch``.  Everything that does not depend on the census (the
  running total activity, the new vertices, the master degree and the
  maximum degree) is computed once per row block.  Only the scan of the
  low degree classes and the latch move run per step; the latches that
  lie past them, a tenth of the steps on fig1, are resolved after the row
  block, in a few rounds that each serve every replicate at once.

Both kernels, ``block_choice`` and graph mode's replay read one model
table, ``tab``, which ``growth._build_tables`` builds once per
``simulate`` or ``simulate_batch`` call.  It holds each per-block fact
once: the latch increment, the scaled activity increment, the new-vertex
count and degrees, and for the lock-step kernel the same new vertices as
counts of their distinct degrees.  The scalar loop reads lists; numpy
arrays serve only numpy code that indexes them by block choices.

Both kernels take the block choices precomputed by ``block_choice``
(one ``searchsorted`` per row block), which is also how the initial
block is drawn; the class scan is the only choice they make.  Both weigh
degree k by the integer ``S * (chi * k + rho)``, where S is the least
common denominator of chi and rho, so every weight, partial sum and
total is an exact integer, and in binary64 too while the scaled total
stays below ``ACTIVITY_LIMIT``.  Exact integers add to the same sum in
any order, so the batched scan is free to add its columns in whatever
order is fastest; both kernels compare the same binary64 target
``u0 * (S * total)`` with the same partial sums and yield bit-identical
states.

Step layout of the pre-drawn uniforms (one row per step):

    col 0  latch class selection (the kernels' class scan)
    col 1  index inside the class (graph mode's replay only)
    col 2  block selection (``block_choice``, before the kernels run)
    col 3  out-arc index (bipolar graph mode's replay only)

The emitted class is the degree of the latch, or -1 for the master
vertex.  Both kernels grow the counts array when a step would reach
past its end, so no caller has to.
"""

from __future__ import annotations

import numpy as np

# Columns of the class scan that census_batch computes for every
# replicate; most latches sit in the low degree classes.
SCAN_PREFIX = 16
# Multiply-adds of one prefix product: OpenBLAS runs a gemm of up to 4 *
# 2**16 on one thread, so each pool worker keeps to its own core.
SERIAL_GEMM = 2**17
# Bound on the scaled total activity S * total.  The lock-step scan adds
# signed terms whose positive part is at most twice the total (see
# census_batch), so below 2**52 every partial sum is an exact binary64
# integer.
ACTIVITY_LIMIT = 2**52


def _grow(counts, tab, need):
    """Double the counts list in place until degree ``need`` fits, and extend
    the table's weights to its length.  Returns the new length."""
    while need >= len(counts):
        counts.extend([0] * len(counts))
    w = tab.weights
    w.extend(float(tab.chi_s * k + tab.rho_s) for k in range(len(w), len(counts)))
    return len(counts)


def _census_steps(counts, state, tab, u0, b_in, cls_out):
    """The census loop over the class uniforms ``u0`` and block choices
    ``b_in`` of the next steps, on lists.  ``state`` is [max degree,
    master degree, S * total activity], updated in place.  It writes each
    step's latch class into ``cls_out`` unless that is empty, and doubles
    ``counts`` in place whenever a step would reach past its end."""
    max_deg, master_deg, total = state
    weight, block_d, block_s, new_degs = tab.weights, tab.block_d, tab.block_s, tab.new_degs
    cap = _grow(counts, tab, tab.new_max)  # every new vertex fits from here on
    emit = len(cls_out) > 0

    for j in range(len(u0)):
        # The partial sums are integers below ACTIVITY_LIMIT, so adding
        # them in binary64 is exact, and faster than on Python ints.
        target = u0[j] * total
        cls = -1
        acc = 0.0
        for k in range(1, max_deg + 1):
            acc += weight[k] * counts[k]
            if target < acc:
                cls = k
                break

        b = b_in[j]
        d = block_d[b]
        if cls == -1:
            master_deg += d
        elif d > 0:
            k = cls + d
            if k >= cap:
                cap = _grow(counts, tab, k)
            counts[cls] -= 1
            counts[k] += 1
            if k > max_deg:
                max_deg = k
        for c in new_degs[b]:
            counts[c] += 1
            if c > max_deg:
                max_deg = c
        total += block_s[b]
        if emit:
            cls_out[j] = cls

    state[:] = max_deg, master_deg, total


def census_chunk(counts, state, tab, u0, b_in, cls_out):
    """Run ``_census_steps`` over list copies of the arrays (element access
    on numpy arrays costs several times more than on lists), then write the
    emitted classes into ``cls_out`` unless it is empty.  ``state`` is the
    list of ``_census_steps``.  Returns the counts as a new array, grown if
    the steps needed it."""
    cl = counts.tolist()
    kl = [0] * cls_out.shape[0]
    _census_steps(cl, state, tab, u0.tolist(), b_in.tolist(), kl)
    if kl:
        cls_out[:] = kl
    return np.array(cl, dtype=np.int64)


def block_choice(tab, ub):
    """The block index for each uniform in ``ub``: the first i with
    ``ub < p_0 + ... + p_i`` (``tab.cum_p``, summed by ``np.cumsum`` in
    the kernels' order), else the last block."""
    return np.minimum(np.searchsorted(tab.cum_p, ub, side="right"), len(tab.cum_p) - 1)


def census_batch(counts, state_i, state_f, tab, u, b):
    """Advance R replicates by ``u.shape[1]`` steps each, in lock step:
    every replicate takes step j before any takes j+1.

    ``counts`` is (R, D) int64, ``state_i`` (R, 2) int64 holding the max
    degree and the master degree, ``state_f`` (R,) float64 the scaled
    total activity (an exact integer below ``ACTIVITY_LIMIT``), ``u``
    (R, L, ncols) the next L rows of each replicate's stream and ``b``
    (R, L) their block choices (``block_choice``).  Degree k weighs
    ``tab.chi_s * k + tab.rho_s`` and block i adds ``tab.s_a[i]`` to the
    total.  ``state_i`` and ``state_f`` are updated in place; the counts
    are returned in a new array.  Nothing is recorded.

    The census is held degree-major as float64, ``work[row, r]``, so a
    column of the scan is one contiguous row.  Its rows are, in order:

    * junk rows 0..dmax, where the step loop moves a deferred latch (see
      below); nothing reads them;
    * one pending row per distinct new-vertex degree c <= SCAN_PREFIX,
      holding the vertices of degree c that the row block's earlier steps
      added.  ``pending`` holds this cumulative term for every new-vertex
      degree, computed once per row block and folded into the counts at
      its end;
    * trash rows 0..dmax: the master's class is the first, so its move is
      the same -1/+1 as any latch's, and the master degree is read off
      these rows at the end of the row block;
    * the degrees 0, 1, 2, ... from row ``base`` on.

    The step loop scans only the prefix.  Its SCAN_PREFIX partial sums are
    one ``matmul`` of a lower-triangular weight matrix with the pending,
    trash and degree rows up to SCAN_PREFIX (a pending row weighs like its
    degree, a trash row nothing), followed by a row of ``inf`` that every
    target is below.  A latch may leave a degree row at -1 while its
    vertex still sits in a pending row, so these sums add signed terms;
    every term and partial sum is an integer of magnitude at most twice
    the scaled total, and exact.  A replicate whose target is not below
    the last prefix sum reaches the ``inf`` row: the loop keeps that sum
    (``last``) and moves the latch in the junk rows, which marks the step
    as deferred.

    After the loop, the deferred latches are resolved in rounds.  Round m
    takes every replicate's m-th deferred step, in lock step over the
    replicates.  It continues the scan past the prefix from the kept sum
    and latches to the master if the target is not below the last sum
    either.  It scans in blocks of SCAN_PREFIX degrees: one ``matmul``
    gives each block's weighted sum, and only the first block whose end
    passes the target is scanned row by row.  This is exact:

    * a deferred latch moves only degree rows past the prefix, or trash
      rows, and the prefix scan reads neither, so every prefix outcome of
      the loop stands;
    * a round sees the degrees past the prefix as they stood at its step.
      The rows hold the row block's start, every addition the step loop
      made past the prefix, and the replicate's earlier deferred latches,
      applied by the earlier rounds.  The round takes away the additions
      made at its step or after: prefix hits that moved a latch past the
      prefix, kept as a per-step cumulative table (``later``).  New
      vertices of a degree past the prefix join the rows only at the end
      of the row block, so the round adds those from the steps before its
      own (``pending``);
    * so every term past the prefix is a count times a weight, a
      non-negative integer, and every sum, in whatever order ``matmul``
      adds it, an integer below ``ACTIVITY_LIMIT``.  The partial sums
      grow with the degree, so the first block whose end passes the
      target holds the first degree that does.
    """
    R, L = u.shape[0], u.shape[1]
    # Total activity before each step, and each step's class target.
    totals = np.empty((R, L + 1))
    totals[:, 0] = state_f
    totals[:, 1:] = tab.s_a[b]
    np.cumsum(totals, axis=1, out=totals)
    target = np.empty((L, R))
    np.multiply(u[:, :, 0].T, totals[:, :L].T, out=target)
    state_f[:] = totals[:, L]
    del totals
    # Each step's block choice, then its latch move d * R, and once the
    # step is taken, the flat index of the row its latch moved to.
    moved = b.T.copy()

    # New vertices of each block as counts of its distinct degrees
    # (``tab.inc``), cumulated over the row block's steps: the low ones are
    # copied into the pending rows per step, the rest are read by the rounds.
    cols, inc = tab.degrees, tab.inc
    nlow = int((cols <= SCAN_PREFIX).sum())
    pending = np.zeros((len(cols), L + 1, R), dtype=np.min_scalar_type(L * int(inc.max(initial=0))))
    np.cumsum(np.take(inc.astype(pending.dtype), moved, axis=1), axis=1, out=pending[:, 1:])
    high = cols[nlow:]
    np.take(tab.d_a, moved, out=moved)
    moved *= R

    dmax = max(tab.block_d)
    pend = dmax + 1  # first pending row, after the junk rows
    trash = pend + nlow  # the master's class row
    base = trash + dmax + 1  # row of degree 0
    # No class lies above width.  It covers every degree a prefix hit or a
    # new vertex can reach, and at least one past the prefix.
    width = max(int(state_i[:, 0].max()), tab.new_max, SCAN_PREFIX + dmax + 1)
    # The rounds read whole blocks of SCAN_PREFIX degrees, up to width.
    D = base + max(counts.shape[1], width + SCAN_PREFIX)
    work = np.zeros((D, R))
    work[base : base + counts.shape[1]] = counts.T
    flat = work.reshape(-1)
    weight = tab.chi_s * np.arange(D - base, dtype=np.float64) + tab.rho_s  # by degree

    # Prefix sums of degrees 1..SCAN_PREFIX, then the sentinel.
    W = base + SCAN_PREFIX + 1  # row of the first degree past the prefix
    tri = np.zeros((SCAN_PREFIX, W - pend))
    tri[:, base + 1 - pend :] = np.tril(np.ones((SCAN_PREFIX, SCAN_PREFIX))) * weight[1 : SCAN_PREFIX + 1]
    tri[:, :nlow] = tri[:, base - pend + cols[:nlow]]
    cum = np.empty((SCAN_PREFIX + 1, R))
    cum[SCAN_PREFIX] = np.inf
    prefix = cum[:SCAN_PREFIX]
    span = max(1, SERIAL_GEMM // tri.size)  # replicates per product
    spans = [slice(s, s + span) for s in range(0, R, span)]
    products = [(work[pend:W, s], prefix[:, s]) for s in spans]
    # Flat index of each prefix hit's row in replicate 0; the sentinel's
    # is the first junk row.
    hit_row = np.append(np.arange(base + 1, W), 0) * R
    reps = np.arange(R)
    last = np.empty((L, R))  # each step's last prefix sum

    for j in range(L):
        work[pend:trash] = pending[:nlow, j]
        for win, out in products:
            np.matmul(tri, win, out=out)
        last[j] = prefix[-1]
        at = hit_row[(target[j] < cum).argmax(axis=0)]
        at += reps
        flat[at] -= 1.0
        moved[j] += at
        flat[moved[j]] += 1.0

    # The deferred steps, whose latch moved in the junk rows, as flat
    # indices j * R + r in step order.
    deferred = np.flatnonzero(moved < pend * R)
    if len(deferred):
        # later[g, j, r]: the prefix hits of replicate r that moved its latch
        # to degree SCAN_PREFIX + 1 + g at step j or after.
        up = np.flatnonzero(moved >= W * R)
        later = None
        if len(up):
            later = np.zeros((dmax, L, R), dtype=np.min_scalar_type(L))
            j, r = np.divmod(up, R)
            later[moved.flat[up] // R - W, j, r] = 1
            np.cumsum(later[:, ::-1], axis=1, out=later[:, ::-1])
        # Round m takes each replicate's m-th deferred step.
        j, r = np.divmod(deferred, R)
        order = np.argsort(r, kind="stable")
        nth = np.arange(len(order)) - np.searchsorted(r[order], r[order])
        order = order[np.argsort(nth, kind="stable")]
        j, r = j[order], r[order]
        # Per deferred step, in round order: its target, kept prefix sum and
        # latch move, the prefix hits past the prefix from it on, and the new
        # vertices past the prefix from before it.
        tj, kept, move = target[j, r], last[j, r], tab.d_a[b[r, j]] * R
        gone = None if later is None else later[:, j, r]
        born = pending[nlow:, j, r]
        del target, last, moved, later  # the rounds read none of the step tables
        sizes = np.bincount(nth)
        ends = np.cumsum(sizes)
        for lo, hi in zip(ends - sizes, ends):
            m, rm = slice(lo, hi), r[lo:hi]
            # The counts past the prefix at each one's step, in nb blocks of
            # SCAN_PREFIX degrees (rows past width are zero).
            nb = -(-(width - SCAN_PREFIX) // SCAN_PREFIX)
            seg = work[W : W + nb * SCAN_PREFIX, rm]
            if gone is not None:
                seg[:dmax] -= gone[:, m]
            if len(high):
                seg[high - SCAN_PREFIX - 1] += born[:, m]
            seg = seg.reshape(nb, SCAN_PREFIX, -1)
            wb = weight[SCAN_PREFIX + 1 : SCAN_PREFIX + 1 + nb * SCAN_PREFIX].reshape(nb, 1, -1)
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
            at = np.where(hit[:, -1], W + i * SCAN_PREFIX + hit.argmax(axis=1), trash) * R + rm
            flat[at] -= 1.0
            at += move[m]
            top = int(at.max()) // R - base
            if top > width:
                width = top
                if base + width + SCAN_PREFIX > D:
                    grown = np.zeros((max(base + width + SCAN_PREFIX, 2 * D - base), R))
                    grown[:D] = work
                    work, D = grown, grown.shape[0]
                    flat = work.reshape(-1)
                    weight = tab.chi_s * np.arange(D - base, dtype=np.float64) + tab.rho_s
            flat[at] += 1.0

    # Bookkeeping that the scan does not read, for the whole row block.
    work[base + cols] += pending[:, L]
    state_i[:, 1] += (np.arange(dmax + 1) @ work[trash:base]).astype(np.int64)
    census = np.ascontiguousarray(work[base:].T, dtype=np.int64)
    occupied = census[:, ::-1] != 0  # the highest degree first
    top = np.where(occupied.any(axis=1), census.shape[1] - 1 - occupied.argmax(axis=1), 0)
    np.maximum(state_i[:, 0], top, out=state_i[:, 0])
    return census

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
  maximum degree) is computed once per row block, and only the class
  scan and the latch move run per step.

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

    * one pending row per distinct new-vertex degree c <= SCAN_PREFIX,
      holding the vertices of degree c that the row block's earlier steps
      added (a cumulative term, computed once per row block and folded
      into the counts at its end);
    * trash rows 0..dmax: the master's class is the first, so its move is
      the same -1/+1 as any latch's, and the master degree is read off
      these rows at the end of the row block;
    * the degrees 0, 1, 2, ... from row ``base`` on.

    The first SCAN_PREFIX partial sums are one ``matmul`` of a
    lower-triangular weight matrix with the leading rows (a pending row
    weighs like its degree), followed by a row of ``inf`` that every
    target is below.  A replicate that reaches it rescans the degrees
    past the prefix, continuing its partial sum, and latches to the
    master if its target is not below the last one either.  A latch may
    leave a degree row at -1 while its vertex still sits in a pending
    row, so the partial sums add signed terms; every term and partial sum
    is an integer of magnitude at most twice the scaled total, and exact.
    """
    R, L = u.shape[0], u.shape[1]
    # Total activity before each step, and each step's class target.
    totals = np.empty((R, L + 1))
    totals[:, 0] = state_f
    totals[:, 1:] = tab.s_a[b]
    np.cumsum(totals, axis=1, out=totals)
    target = np.ascontiguousarray((u[:, :, 0] * totals[:, :L]).T)  # (L, R)
    bT = np.ascontiguousarray(b.T)

    # New vertices of each block as counts of its distinct degrees
    # (``tab.inc``): the low ones go to the pending rows, the rest are added
    # to the census per step.
    cols, inc = tab.degrees, tab.inc
    low = cols <= SCAN_PREFIX
    nlow = int(low.sum())
    pending = np.zeros((nlow, L + 1, R), dtype=np.min_scalar_type(L * int(inc.max(initial=0))))
    np.cumsum(inc[low].astype(pending.dtype)[:, bT], axis=1, out=pending[:, 1:])
    high, inc_high = cols[~low], inc[~low]

    dmax = max(tab.block_d)
    trash = nlow  # the master's class row
    base = nlow + dmax + 1  # row of degree 0
    width = max(int(state_i[:, 0].max()), tab.new_max, 1)  # no class lies above it
    D = base + max(counts.shape[1], width + 2, SCAN_PREFIX + 1)
    work = np.zeros((D, R))
    work[base : base + counts.shape[1]] = counts.T
    flat = work.reshape(-1)
    weight = tab.chi_s * np.arange(D - base, dtype=np.float64) + tab.rho_s  # by degree

    # Prefix sums of degrees 1..SCAN_PREFIX, then the sentinel.
    W = base + SCAN_PREFIX + 1  # leading rows of work that the product reads
    tri = np.zeros((SCAN_PREFIX, W))
    tri[:, base + 1 :] = np.tril(np.ones((SCAN_PREFIX, SCAN_PREFIX))) * weight[1 : SCAN_PREFIX + 1]
    tri[:, :nlow] = tri[:, base + cols[low]]
    cum = np.empty((SCAN_PREFIX + 1, R))
    cum[SCAN_PREFIX] = np.inf
    prefix = cum[:SCAN_PREFIX]
    span = max(1, SERIAL_GEMM // tri.size)  # replicates per product
    spans = [slice(s, s + span) for s in range(0, R, span)]
    products = [(work[:W, s], prefix[:, s]) for s in spans]
    # Flat index of each prefix hit's row in replicate 0; the sentinel's
    # is the master's.
    hit_row = np.append(np.arange(base + 1, W), trash) * R
    reps = np.arange(R)
    moveR = tab.d_a[bT] * R  # (L, R) flat offset of each latch move

    for j in range(L):
        tj = target[j]
        work[:nlow] = pending[:, j]
        for win, out in products:
            np.matmul(tri, win, out=out)
        k = (tj < cum).argmax(axis=0)
        at = hit_row[k]
        if width > SCAN_PREFIX:
            miss = np.flatnonzero(k == SCAN_PREFIX)
            if len(miss):
                seg = work[W : base + width + 1][:, miss]
                seg *= weight[SCAN_PREFIX + 1 : width + 1, None]
                seg[0] += prefix[-1, miss]
                hit = tj[miss] < np.cumsum(seg, axis=0, out=seg)
                found = hit[-1]
                at[miss] = np.where(found, W + hit.argmax(axis=0), trash) * R
        at += reps
        flat[at] -= 1.0
        at += moveR[j]
        top = int(at.max()) // R - base
        if top > width:
            width = top
            if base + top >= D:
                grown = np.zeros((max(base + top + 1, 2 * D - base), R))
                grown[:D] = work
                work, D = grown, grown.shape[0]
                flat = work.reshape(-1)
                products = [(work[:W, s], prefix[:, s]) for s in spans]
                weight = tab.chi_s * np.arange(D - base, dtype=np.float64) + tab.rho_s
        flat[at] += 1.0
        if len(high):
            work[base + high] += inc_high[:, bT[j]]

    # Bookkeeping that the scan does not read, for the whole row block.
    work[base + cols[low]] += pending[:, L]
    state_i[:, 1] += (np.arange(dmax + 1) @ work[trash:base]).astype(np.int64)
    census = np.ascontiguousarray(work[base:].T, dtype=np.int64)
    top = (census != 0) * np.arange(census.shape[1])
    np.maximum(state_i[:, 0], top.max(axis=1), out=state_i[:, 0])
    state_f[:] = totals[:, L]
    return census

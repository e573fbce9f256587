"""Census growth kernels: the one decision procedure of the simulator.

The inner loop of a census-mode simulation is a few hundred integer
operations per step and dominates the runtime of Monte-Carlo
verification.  Two kernels advance it:

* ``census_chunk`` runs one replicate through ``_census_steps``, the
  scalar loop, in pure Python over lists (``ScanTables`` holds the
  model's).  ``simulate`` and ``grow_step`` use it in both modes; it can
  record the tracked census after every step, and it can emit the latch
  class it chose at each step, which graph mode replays on the multigraph.
* ``census_batch`` advances a block of replicates in lock step on one
  degrees-by-replicates array, in numpy; ``verify`` uses it through
  ``simulate_batch``.  Everything that does not depend on the census (the
  running total activity, the new vertices, the master degree and the
  maximum degree) is computed once per row block, and only the class
  scan and the latch move run per step.

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

from typing import NamedTuple

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


class ScanTables(NamedTuple):
    """A model as the scalar kernel reads it: Python ints and lists,
    built once per model.  Weights are scaled by ``scale`` (S)."""

    scale: int  # S, the least common denominator of chi and rho
    chi_s: int  # S * chi
    rho_s: int  # S * rho
    # float(S * (chi * k + rho)) for k < len(weight), exact below
    # ACTIVITY_LIMIT; the kernel fills it as the counts grow
    weight: list
    block_d: list  # latch degree increment per block
    block_s: list  # S * total-activity increment per block
    block_nv: list  # new vertices per block
    nd_flat: list  # new-vertex degrees, all blocks concatenated
    nd_off: list  # block i's new vertices are nd_flat[nd_off[i]:nd_off[i+1]]


def _census_steps(counts, state, tab, u0, b_in, ess, x_out, star_out, cls_out, record):
    """The census loop over the class uniforms ``u0`` and block choices
    ``b_in`` of the next steps, on lists.  ``state`` is [max degree,
    master degree, vertex count, S * total activity], updated in place.
    It records into ``x_out``/``star_out`` when ``record`` is set, writes
    each step's latch class into ``cls_out`` unless that is empty, and
    doubles ``counts`` in place whenever a step would reach past its
    end."""
    max_deg, master_deg, n_vertices, total = state
    chi_s, rho_s, weight, scale = tab.chi_s, tab.rho_s, tab.weight, tab.scale
    block_d, block_s, block_nv = tab.block_d, tab.block_s, tab.block_nv
    nd_flat, nd_off = tab.nd_flat, tab.nd_off
    cap = len(counts)
    if len(weight) < cap:
        weight.extend(float(chi_s * k + rho_s) for k in range(len(weight), cap))
    r = len(ess)
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
        need = 0
        if cls != -1 and cls + d > need:
            need = cls + d
        for t in range(nd_off[b], nd_off[b + 1]):
            if nd_flat[t] > need:
                need = nd_flat[t]
        while need >= cap:
            counts.extend([0] * cap)
            weight.extend(float(chi_s * k + rho_s) for k in range(len(weight), 2 * cap))
            cap = len(counts)

        if cls == -1:
            master_deg += d
        elif d > 0:
            counts[cls] -= 1
            counts[cls + d] += 1
            if cls + d > max_deg:
                max_deg = cls + d
        for t in range(nd_off[b], nd_off[b + 1]):
            c = nd_flat[t]
            counts[c] += 1
            if c > max_deg:
                max_deg = c
        n_vertices += block_nv[b]
        total += block_s[b]
        if emit:
            cls_out[j] = cls

        if record:
            sacc = total - (chi_s * master_deg + rho_s)
            xrow = x_out[j]
            for i in range(r):
                ki = ess[i]
                xrow[i] = counts[ki]
                sacc -= (chi_s * ki + rho_s) * counts[ki]
            star_out[j] = sacc / scale

    state[:] = max_deg, master_deg, n_vertices, total


def census_chunk(counts, state, tab, u0, b_in, ess, x_out, star_out, cls_out, record):
    """Run ``_census_steps`` over list copies of the arrays (element access
    on numpy arrays costs several times more than on lists), then write the
    recorded rows and the emitted classes back.  ``state`` is the list of
    ``_census_steps``.  Returns the counts as a new array, grown if the
    steps needed it."""
    steps = u0.shape[0]
    cl = counts.tolist()
    if record:
        xl = [[0] * ess.shape[0] for _ in range(steps)]
        sl = [0.0] * steps
    else:
        xl, sl = [], []
    kl = [0] * steps if cls_out.shape[0] else []
    _census_steps(cl, state, tab, u0.tolist(), b_in.tolist(), ess.tolist(), xl, sl, kl, record)
    if record:
        x_out[:steps] = xl
        star_out[:steps] = sl
    if kl:
        cls_out[:] = kl
    return np.array(cl, dtype=np.int64)


def block_choice(block_p, ub):
    """The block index for each uniform in ``ub``: the first i with
    ``ub < p_0 + ... + p_i``, else the last block.  ``np.cumsum`` adds
    in the kernels' order, so the choices are theirs."""
    cum = np.cumsum(block_p)
    return np.minimum(np.searchsorted(cum, ub, side="right"), len(block_p) - 1)


def census_batch(
    counts, state_i, state_f, chi_s, rho_s, block_d, block_s, nd_flat, nd_off, u, b,
):  # fmt: skip
    """Advance R replicates by ``u.shape[1]`` steps each, in lock step:
    every replicate takes step j before any takes j+1.

    ``counts`` is (R, D) int64, ``state_i`` (R, 2) int64 holding the max
    degree and the master degree, ``state_f`` (R,) float64 the scaled
    total activity (an exact integer below ``ACTIVITY_LIMIT``), ``u``
    (R, L, ncols) the next L rows of each replicate's stream and ``b``
    (R, L) their block choices (``block_choice``).  Degree k weighs
    ``chi_s * k + rho_s`` and block i adds ``block_s[i]`` (float64) to
    the total.  ``state_i`` and ``state_f`` are updated in place; the
    counts are returned in a new array.  Nothing is recorded.

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
    totals[:, 1:] = block_s[b]
    np.cumsum(totals, axis=1, out=totals)
    target = np.ascontiguousarray((u[:, :, 0] * totals[:, :L]).T)  # (L, R)
    bT = np.ascontiguousarray(b.T)

    # New vertices of each block as counts of its distinct degrees: the low
    # ones go to the pending rows, the rest are added to the census per step.
    cols, inv = np.unique(nd_flat, return_inverse=True)
    inc = np.zeros((len(cols), len(block_d)), dtype=np.int64)
    np.add.at(inc, (inv, np.repeat(np.arange(len(block_d)), np.diff(nd_off))), 1)
    nd_top = int(cols.max(initial=0))
    low = cols <= SCAN_PREFIX
    nlow = int(low.sum())
    pending = np.zeros((nlow, L + 1, R), dtype=np.min_scalar_type(L * int(inc.max(initial=0))))
    np.cumsum(inc[low].astype(pending.dtype)[:, bT], axis=1, out=pending[:, 1:])
    high, inc_high = cols[~low], inc[~low]

    dmax = int(block_d.max())
    trash = nlow  # the master's class row
    base = nlow + dmax + 1  # row of degree 0
    width = max(int(state_i[:, 0].max()), nd_top, 1)  # no class lies above it
    D = base + max(counts.shape[1], width + 2, SCAN_PREFIX + 1)
    work = np.zeros((D, R))
    work[base : base + counts.shape[1]] = counts.T
    flat = work.reshape(-1)
    weight = chi_s * np.arange(D - base, dtype=np.float64) + rho_s  # by degree

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
    moveR = block_d[bT] * R  # (L, R) flat offset of each latch move

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
                weight = chi_s * np.arange(D - base, dtype=np.float64) + rho_s
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

"""Census growth kernels: the one decision procedure of the simulator.

The inner loop of a census-mode simulation is a few hundred float
operations per step and dominates the runtime of Monte-Carlo
verification.  Two kernels advance it:

* ``census_chunk`` runs one replicate through ``_census_steps``, the
  scalar loop, in pure Python over list copies of the arrays.
  ``simulate`` and ``grow_step`` use it in both modes; it can record the
  tracked census after every step, and it can emit the latch class it
  chose at each step, which graph mode replays on the multigraph.
* ``census_batch`` advances a block of replicates in lock step on one
  replicates-by-degrees counts array, in numpy; ``verify`` uses it
  through ``simulate_batch``.  Everything that does not depend on the
  census (the running total activity, the new vertices) is computed once
  per row block, and only the class scan and the latch move run per
  step.

Both kernels take the block choices precomputed by ``block_choice``
(one ``searchsorted`` per row block), which is also how the initial
block is drawn; the class scan is the only choice they make.  Both
yield bit-identical states: the scans add in the same order
(``np.cumsum`` adds sequentially, like the loop) and all comparisons are
the same.

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

# Columns of the class scan that census_batch tries before scanning the
# whole active width; most latches sit in the low degree classes.
SCAN_PREFIX = 16


def _census_steps(
    counts,
    state_i,
    state_f,
    chi,
    rho,
    block_d,
    block_s,
    block_nv,
    nd_flat,
    nd_off,
    u0,
    b_in,
    ess,
    x_out,
    star_out,
    cls_out,
    record,
):
    """The census loop over the class uniforms ``u0`` and block choices
    ``b_in`` of the next steps, on lists.  It records into
    ``x_out``/``star_out`` when ``record`` is set, writes each step's latch
    class into ``cls_out`` unless that is empty, and doubles ``counts`` in
    place whenever a step would reach past its end."""
    max_deg = state_i[0]
    master_deg = state_i[1]
    n_vertices = state_i[2]
    total = state_f[0]
    cap = len(counts)
    r = len(ess)
    emit = len(cls_out) > 0

    for j in range(len(u0)):
        target = u0[j] * total
        cls = -1
        acc = 0.0
        for k in range(1, max_deg + 1):
            acc += (chi * k + rho) * counts[k]
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
            sacc = total - (chi * master_deg + rho)
            xrow = x_out[j]
            for i in range(r):
                ki = ess[i]
                xrow[i] = counts[ki]
                sacc -= (chi * ki + rho) * counts[ki]
            star_out[j] = sacc

    state_i[0] = max_deg
    state_i[1] = master_deg
    state_i[2] = n_vertices
    state_f[0] = total


def census_chunk(
    counts,
    state_i,
    state_f,
    chi,
    rho,
    block_d,
    block_s,
    block_nv,
    nd_flat,
    nd_off,
    u0,
    b_in,
    ess,
    x_out,
    star_out,
    cls_out,
    record,
):
    """Run ``_census_steps`` over list copies of the arrays (element access
    on numpy arrays costs several times more than on lists), then write the
    state, the recorded rows and the emitted classes back.  Returns the
    counts as a new array, grown if the steps needed it."""
    steps = u0.shape[0]
    cl = counts.tolist()
    si = state_i.tolist()
    sf = state_f.tolist()
    if record:
        xl = [[0] * ess.shape[0] for _ in range(steps)]
        sl = [0.0] * steps
    else:
        xl, sl = [], []
    kl = [0] * steps if cls_out.shape[0] else []
    _census_steps(
        cl,
        si,
        sf,
        float(chi),
        float(rho),
        block_d.tolist(),
        block_s.tolist(),
        block_nv.tolist(),
        nd_flat.tolist(),
        nd_off.tolist(),
        u0.tolist(),
        b_in.tolist(),
        ess.tolist(),
        xl,
        sl,
        kl,
        record,
    )
    state_i[:] = si
    state_f[:] = sf
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
    counts, state_i, state_f, chi, rho, block_d, block_s, nd_flat, nd_off, u, b,
):  # fmt: skip
    """Advance R replicates by ``u.shape[1]`` steps each, in lock step:
    every replicate takes step j before any takes j+1.

    ``counts`` is (R, D) int64, ``state_i`` (R, 2) int64 holding the max
    degree and the master degree, ``state_f`` (R,) float64 the total
    activity, ``u`` (R, L, ncols) the next L rows of each replicate's
    stream and ``b`` (R, L) their block choices (``block_choice``).
    ``state_i`` and ``state_f`` are updated in place; the counts are
    returned in a new array.  Nothing is recorded.

    The census is held degree-major, ``work[k, r]``, as float64 (exact for
    counts below 2**53), so a column of the scan is one contiguous row and
    the weighted terms need no integer conversion.
    """
    R, L = u.shape[0], u.shape[1]
    m = len(block_d)
    # Total activity before each step: a sequential running sum, as in
    # the scalar loop, so it carries the same bits.
    totals = np.empty((R, L + 1))
    totals[:, 0] = state_f
    totals[:, 1:] = block_s[b]
    np.cumsum(totals, axis=1, out=totals)
    target = np.ascontiguousarray((u[:, :, 0] * totals[:, :L]).T)  # (L, R)
    bT = np.ascontiguousarray(b.T)
    dT = block_d[bT]  # (L, R)

    # New vertices of each block as increments of its distinct degrees.
    cols = np.unique(nd_flat)
    inc = np.zeros((len(cols), m))
    nd_top = np.zeros(m, dtype=np.int64)
    for i in range(m):
        degs = nd_flat[nd_off[i] : nd_off[i + 1]]
        np.add.at(inc[:, i], np.searchsorted(cols, degs), 1.0)
        nd_top[i] = degs.max(initial=0)

    # Active width of the scan: no replicate has a class above it.
    width = max(int(state_i[:, 0].max()), int(nd_top.max()), 1)
    D = max(counts.shape[1], width + 2)
    work = np.zeros((D, R))
    work[: counts.shape[1]] = counts.T
    flat = work.reshape(-1)
    weight = (chi * np.arange(D, dtype=np.int64) + rho)[:, None]
    reps = np.arange(R)
    cls_all = np.empty((L, R), dtype=np.int64)

    for j in range(L):
        tj = target[j]
        # Weights are positive, so the prefix sums only grow and a replicate
        # whose latch lies within the scanned columns hits in the last one.
        hi = min(SCAN_PREFIX, width)
        cum = np.cumsum(work[1 : hi + 1] * weight[1 : hi + 1], axis=0)
        hit = tj < cum
        k = hit.argmax(axis=0)
        found = hit[-1]
        if hi < width:
            # The replicates that missed rescan the rest of the active
            # width, continuing their running sums.
            miss = np.flatnonzero(~found)
            if len(miss):
                seg = work[hi + 1 : width + 1][:, miss] * weight[hi + 1 : width + 1]
                seg[0] += cum[-1, miss]
                cum = np.cumsum(seg, axis=0)
                hit = tj[miss] < cum
                k[miss] = hi + hit.argmax(axis=0)
                found[miss] = hit[-1]
        dj = dT[j]
        cls = (k + 1) * found  # 0 where the latch is the master vertex
        new = cls + dj
        top = int(new.max())
        if top >= D:
            grown = np.zeros((max(top + 1, 2 * D), R))
            grown[:D] = work
            work, D = grown, grown.shape[0]
            flat = work.reshape(-1)
            weight = (chi * np.arange(D, dtype=np.int64) + rho)[:, None]
        flat[cls * R + reps] -= found
        flat[new * R + reps] += found
        work[cols] += inc[:, bT[j]]
        if top > width:
            width = top
        cls_all[j] = cls

    # Bookkeeping that the scan does not read, for the whole row block.
    master = cls_all == 0
    moved = np.where(master, 0, cls_all + dT).max(axis=0)
    state_i[:, 0] = np.maximum(state_i[:, 0], np.maximum(moved, nd_top[b].max(axis=1)))
    state_i[:, 1] += np.where(master, dT, 0).sum(axis=0)
    state_f[:] = totals[:, L]
    return np.ascontiguousarray(work.T, dtype=np.int64)

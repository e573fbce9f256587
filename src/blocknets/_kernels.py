"""Census growth kernels: the one decision procedure of the simulator.

The inner loop of a census-mode simulation is a few hundred integer
operations per step and dominates the runtime of Monte-Carlo
verification.  Two kernels advance it:

* ``census_chunk`` runs one replicate through the scalar loop, in pure
  Python over lists.  ``simulate`` and ``grow_step`` use it in both
  modes.  It advances the counts and returns the latch class it chose at
  each step, from which graph mode replays the steps on the multigraph
  and ``growth._record_rows`` rebuilds a recorded trajectory in numpy.
* ``LockStepRun`` advances a group of replicates in lock step on one
  degrees-by-replicates array, in numpy; ``verify`` uses it through
  ``simulate_batch``.  Each replicate keeps the state row of the scalar
  loop, [max degree, master degree, S * total activity].  What does not
  depend on the census, the running total activity and the block
  choices, is computed once per row block, and the maximum degree once,
  from the final census.  Per step it only advances each replicate's
  partial sums over the low degree classes, held as exact int64 integers
  in one sorted array that carries over from row block to row block: one
  ``searchsorted`` of the floored targets finds every replicate's class,
  and one gather and one add apply the matching rows of the model's step
  table.  The latches that lie past those classes, and those that reach
  the master, are only logged with the vertices that the steps add past
  them.  ``resolve`` settles the log in a few rounds that each serve every
  replicate at once: at the end of the run, or earlier when the log
  outgrows the run's own arrays.  A round starts its scan past the prefix
  from the step's total activity, less the master's weight and the weight
  past the prefix, which leaves the sum of the prefix: the total is the
  sum of every vertex's weight, as ``growth.census_vector`` and
  ``growth._record_rows`` use it too, and all three are exact integers.
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
The scalar loop grows its counts when a step would reach past their end,
and the lock-step run sizes its census from its log before it resolves
the log, so no caller has to.
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
# The most replicates one ``LockStepRun`` holds: every span must fit an
# int64.
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
    # int64 (m * (P + 1) + 1,): the vertices that row q's step adds past
    # the prefix (its new vertices there and, for k < P, a latch that it
    # moves there) are entries arrive[q] .. arrive[q + 1] - 1 of degree
    # and count
    arrive: np.ndarray
    # int64: each entry's degree past the prefix and its count of vertices
    degree: np.ndarray
    count: np.ndarray


def lock_step_tables(tab, P: int) -> LockStep:
    """The tables ``LockStepRun`` reads for the model table ``tab``, when
    its step loop scans degrees 1..P."""
    m = len(tab.block_d)
    top = max(P, tab.new_max, P + max(tab.block_d))
    # moves[i, k, c]: the change in the count of degree c when block i
    # latches at degree k + 1; past the prefix (k = P) the latch's move
    # is left to ``LockStepRun.resolve``
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
    past = moves.reshape(m * (P + 1), top + 1)[:, P + 1 :]
    q, a = np.nonzero(past)
    return LockStep(step, np.searchsorted(q, np.arange(m * (P + 1) + 1)), P + 1 + a, past[q, a])


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


class LockStepRun:
    """R replicates grown in lock step: every replicate takes step j before
    any takes j + 1.  ``advance`` takes a row block of steps, ``resolve``
    settles what they left past the prefix, and ``census`` resolves the
    rest and returns the census.

    ``counts`` is (R, D) int64 and ``state`` (R, 3) int64 holding each
    replicate's [max degree, master degree, S * total activity], the row
    that ``census_chunk`` keeps in its ``state`` list.  ``state`` is updated
    in place: its total by ``advance``, its master degree by ``resolve`` and
    its max degree by ``census``.  Degree k weighs ``tab.chi_s * k +
    tab.rho_s`` and block i adds ``tab.s_a[i]`` to the total, which lies
    below ``ACTIVITY_LIMIT``.  ``lock`` is ``lock_step_tables(tab, P)`` for
    some P >= 1.  Any P yields the same states, by the arguments of
    ``advance`` and ``resolve``; only the time moves with it.  At most
    ``MAX_REPLICATES`` replicates fit one run.  Nothing is recorded.

    The run holds each replicate's partial sums over degrees 1..P, the
    prefix, and ``work[k, r]``, its census by degree past the prefix as it
    stood at the last resolution, as float64.  Between resolutions the log
    holds what the steps did past the prefix: each deferred step (its step,
    replicate, floored target, the total activity before it and its latch
    increment) and each arrival (its step, replicate, degree past the
    prefix and count of vertices).  ``pending`` counts the log's entries."""

    def __init__(self, counts, state, tab, lock: LockStep):
        R = counts.shape[0]
        if R > MAX_REPLICATES:
            raise ValueError(f"a lock-step run takes at most {MAX_REPLICATES} replicates, got {R}")
        self.state, self.tab, self.lock = state, tab, lock
        P = lock.step.shape[1] - 1
        self.span = np.arange(R, dtype=np.int64) * ROW_SPAN
        # The census of degrees 1..P (zero past the end of ``counts``), as
        # exact partial sums.
        low = np.zeros((R, P))
        low[:, : counts.shape[1] - 1] = counts[:, 1 : P + 1]
        self.sums = np.empty((R, P + 1), dtype=np.int64)
        self.sums[:, :P] = np.cumsum(low * (tab.chi_s * np.arange(1.0, P + 1) + tab.rho_s), axis=1)
        self.sums[:, P] = ROW_SPAN - 1
        self.sums += self.span[:, None]
        # No class lies above width: it covers the census, every degree that
        # a prefix hit or a new vertex can reach, and one past the prefix.
        self.width = max(int(state[:, 0].max()), tab.new_max, P + max(tab.block_d) + 1)
        self.work = np.zeros((max(counts.shape[1], self.width + P), R))
        self.work[: counts.shape[1]] = counts.T
        # The step table rows whose step is logged: deferred (k = P), or
        # adding vertices past the prefix.
        self.logged = (np.arange(len(lock.step)) % (P + 1) == P) | (np.diff(lock.arrive) > 0)
        self.steps = 0  # the steps taken so far
        self.log = []
        self.pending = 0

    def advance(self, u, b):
        """Take the next L steps of every replicate.  ``u`` (R, L, ncols)
        holds the next L rows of each replicate's stream and ``b`` (R, L)
        their block choices (``block_choice``).

        The step loop scans only the prefix.  Replicate r's row of ``sums``
        holds its P partial sums plus r * ``ROW_SPAN``, then the sentinel
        r * ROW_SPAN + ROW_SPAN - 1, which lies above every sum and target
        of the row and below the next row, so that the rows make one sorted
        int64 array.  Each step's class target t = u0 * (S * total) is held
        floored, as floor(t) + r * ROW_SPAN.  One ``searchsorted(targets,
        "right")`` over the R targets of a step gives each replicate
        r * (P + 1) + k, where k counts the sums of its own row that are
        <= floor(t).  For an integer sum s and a target t below 2**52,
        s <= t exactly when s <= floor(t), so k also counts the sums <= t.
        Every weight is positive, since chi >= 0 and chi + rho > 0, so the
        sums never decrease, and k is the index of the first sum > t: the
        class that the scalar loop's strict ``<`` picks, the latch at degree
        k + 1, or past the prefix when k = P.  Adding (i - r) * (P + 1) for
        the step's block choice i gives row i * (P + 1) + k of the
        block-major step table, the exact change that this latch and the
        block's new vertices make to the sums; one gather and one add apply
        the R rows.  Every sum stays an integer below ``ACTIVITY_LIMIT``, so
        the partial sums are those of the scalar loop.  The gather skips
        numpy's index check (``mode="clip"``); after the loop the stored
        rows are checked once, and ``IndexError`` is raised if any lies
        outside the step table.

        The loop reads nothing past the prefix, neither the census there
        nor the master degree.  The steps that reached the sentinel, with
        the total activity before each, and the vertices that the steps add
        past the prefix (new ones, and latches that a prefix hit moves
        there), are logged for ``resolve``."""
        R, L = b.shape
        tab, state, span, sums = self.tab, self.state, self.span, self.sums
        lock = self.lock
        P = lock.step.shape[1] - 1
        # Total activity before each step, and each step's class target,
        # floored (u0 * total >= 0 casts to its floor) and moved into its
        # replicate's span.
        totals = np.empty((R, L + 1))
        totals[:, 0] = state[:, 2]
        totals[:, 1:] = tab.s_a[b]
        np.cumsum(totals, axis=1, out=totals)
        target = np.empty((L, R), dtype=np.int64)
        np.multiply(u[:, :, 0].T, totals[:, :L].T, out=target, casting="unsafe")
        target += span
        state[:, 2] = totals[:, L]
        # Each step's offset (i - r) * (P + 1) from its search index to its
        # row i * (P + 1) + k of the step tables, which the loop stores in
        # its place.
        moved = b.T - np.arange(R)
        moved *= P + 1
        keys = sums.reshape(-1)
        change = np.empty_like(sums)

        for j in range(L):
            row = moved[j]
            row += keys.searchsorted(target[j], side="right")
            lock.step.take(row, axis=0, out=change, mode="clip")
            sums += change

        # Every gather of the stored rows, in the loop and after it, skips
        # numpy's index check (mode="clip"); this one check covers them all.
        if moved.min() < 0 or moved.max() >= len(lock.step):
            raise IndexError("a lock-step row lies outside the step table")
        # The logged steps, as flat indices j * R + r in step order.
        hits = np.flatnonzero(self.logged[moved])
        rows = moved.reshape(-1)[hits]
        j, r = np.divmod(hits, R)
        defer = rows % (P + 1) == P
        dj, dr = j[defer], r[defer]
        deferred = (
            dj + self.steps,
            dr,
            (target[dj, dr] - span[dr]).astype(np.float64),
            totals[dr, dj],
            tab.d_a[rows[defer] // (P + 1)],
        )
        j += self.steps
        self.steps += L
        # Each logged step's entries of ``lock.degree`` and ``lock.count``.
        start = lock.arrive[rows]
        n = lock.arrive[rows + 1] - start
        entry = np.arange(n.sum()) + np.repeat(start - np.cumsum(n) + n, n)
        arrived = (np.repeat(j, n), np.repeat(r, n), lock.degree[entry], lock.count[entry])
        self.log.append(deferred + arrived)
        self.pending += len(dr) + len(entry)

    def resolve(self):
        """Settle every logged step, then empty the log.

        The deferred latches are resolved in rounds.  Round t takes every
        replicate's t-th logged deferred step, in lock step over the
        replicates.  Before it, ``work`` gains the arrivals of each
        replicate's steps before that step; after the last round, the rest.
        The round continues the scan past the prefix from the sum of the
        prefix at its step, which is what the master's weight and the
        weight past the prefix leave of the step's total activity (the
        total is the sum of every vertex's weight), and latches to the
        master if the target is not below the last sum either, adding the
        block's latch increment to the master degree at once.  It reads the
        floored targets, which pick as the targets do against integer sums:
        t < s exactly when floor(t) < s.  It scans in blocks of P degrees:
        one ``matmul`` gives each block's weighted sum, and only the first
        block whose end passes the target is scanned row by row.  This is
        exact, however many row blocks have run since the logged steps:

        * a deferred latch moves only degrees past the prefix, or the master
          degree.  The step loop reads neither, and every target depends on
          the block choices alone, so every prefix outcome of every later
          step stands;
        * a round sees the degrees past the prefix and the master degree as
          they stood at its step: the census at the last resolution, the
          replicate's earlier deferred latches, which the earlier rounds
          applied, and the vertices that its earlier steps added there.  Only
          a deferred latch moves the master degree;
        * so every term past the prefix is a count times a weight, a
          non-negative integer, and every sum, in whatever order ``matmul``
          adds it, an integer below ``ACTIVITY_LIMIT``.  So are the step's
          total, logged by ``advance``, and the master's weight, and the
          start, their difference less the blocks' sums, is the sum of the
          prefix exactly.  The partial sums grow with the degree, so the
          first block whose end passes the target holds the first degree
          that does.

        ``work`` is sized before the rounds.  They read whole blocks of P
        degrees up to the highest class, which starts at most at ``width``,
        and each round lifts one latch of a replicate, and so that
        replicate's highest class, by its latch increment.  So width + P
        rows, plus the largest sum of one replicate's logged increments,
        cover every read and every move."""
        if not self.log:
            return
        log, self.log, self.pending = self.log, [], 0
        j, r, target, total, lift, aj, ar, degree, count = (np.concatenate(c) for c in zip(*log))
        del log
        P = self.lock.step.shape[1] - 1
        W = P + 1  # the first degree past the prefix
        tab, state = self.tab, self.state
        # Round t takes each replicate's t-th deferred step.  The log is in
        # step order, so a stable sort by replicate keeps each one's steps
        # in step order.
        by_r = np.argsort(r, kind="stable")
        rs = r[by_r]
        nth = np.arange(len(rs)) - np.searchsorted(rs, rs)
        order = by_r[np.argsort(nth, kind="stable")]
        sizes = np.bincount(nth)
        # An arrival is due before its replicate's first deferred step after
        # it, whose round is the count of the replicate's deferred steps up
        # to its own step; due[t]:due[t + 1] are those due before round t.
        key = rs * self.steps + j[by_r]
        late = np.searchsorted(key, ar * self.steps + aj, side="right")
        late -= np.searchsorted(key, ar * self.steps)
        a = np.argsort(late, kind="stable")
        ar, degree, count = ar[a], degree[a], count[a]
        due = np.searchsorted(late[a], np.arange(len(sizes) + 2))
        r, target, total, lift = r[order], target[order], total[order], lift[order]

        width = self.width
        D = width + P + int(np.bincount(r, lift).max(initial=0))
        if len(self.work) < D:
            self.work = np.concatenate([self.work, np.zeros((D - len(self.work), len(self.span)))])
        work = self.work
        weight = tab.chi_s * np.arange(len(work), dtype=np.float64) + tab.rho_s
        ends = np.cumsum(sizes)
        for t, (lo, hi) in enumerate(zip(ends - sizes, ends)):
            now = slice(due[t], due[t + 1])
            np.add.at(work, (degree[now], ar[now]), count[now])
            m, rm = slice(lo, hi), r[lo:hi]
            # The counts past the prefix at each one's step, in nb blocks of
            # P degrees (rows past width are zero).
            nb = -(-(width - P) // P)
            seg = work[W : W + nb * P, rm].reshape(nb, P, -1)
            wb = weight[W : W + nb * P].reshape(nb, 1, -1)
            # Partial sums at each block's start and at the last one's end,
            # from the prefix's sum: what the master's weight and the blocks'
            # leave of the step's total.  Then the first block that passes
            # the target, scanned row by row.
            sums = np.empty((nb + 1, hi - lo))
            np.matmul(wb, seg, out=sums[1:, None])
            sums[0] = total[m] - (tab.chi_s * state[rm, 1] + tab.rho_s) - sums[1:].sum(axis=0)
            np.cumsum(sums, axis=0, out=sums)
            i = (target[m] < sums[1:]).argmax(axis=0)
            col = np.arange(hi - lo)
            inner = seg[i, :, col] * wb[i, 0]
            inner[:, 0] += sums[i, col]
            hit = target[m, None] < np.cumsum(inner, axis=1, out=inner)
            # A latch moves up lift[m] degrees; the master gains them.
            latched = hit[:, -1]
            at = W + i * P + hit.argmax(axis=1)
            work[at, rm] -= latched
            at += lift[m]
            work[at, rm] += latched
            state[rm, 1] += np.where(latched, 0, lift[m])
            width = max(width, int(at.max()))
        now = slice(due[-2], None)
        np.add.at(work, (degree[now], ar[now]), count[now])
        self.width = width

    def census(self):
        """Resolve the log and return the census, (R, max degree + 1) int64,
        and raise each replicate's max degree to its highest occupied
        degree."""
        self.resolve()
        P = self.lock.step.shape[1] - 1
        work, state = self.work, self.state
        # The census of the prefix, exact: each difference of exact integer
        # sums is a count times its weight.
        sums = self.sums[:, :P] - self.span[:, None]
        weight = self.tab.chi_s * np.arange(1.0, P + 1) + self.tab.rho_s
        work[1 : P + 1] = (np.diff(sums, axis=1, prepend=0) / weight).T
        occupied = work[::-1] != 0  # the highest degree first
        top = np.where(occupied.any(axis=0), len(work) - 1 - occupied.argmax(axis=0), 0)
        np.maximum(state[:, 0], top, out=state[:, 0])
        return np.ascontiguousarray(work[: state[:, 0].max() + 1].T, dtype=np.int64)

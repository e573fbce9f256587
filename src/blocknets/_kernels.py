"""Census growth kernels: the one decision procedure of the simulator.

The inner loop of a census-mode simulation is a few hundred integer
operations per step and dominates the runtime of Monte-Carlo
verification.  Two kernels advance it:

* ``census_chunk`` runs one replicate through the scalar loop, in pure
  Python over lists.  Its one caller is ``growth._step_rows``, the step
  function that, in both modes, attaches the initial block, each chunk
  of drawn steps and each scripted step.  It advances the counts and
  returns the latch class it chose at each step, from which graph mode
  replays the steps on the multigraph and ``growth._record_rows``
  rebuilds a recorded trajectory in numpy.
* ``LockStepRun`` advances a group of replicates in lock step on one
  replicates-by-degrees array, in numpy; ``verify`` uses it through
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
  them, each deferred step with its round.  ``resolve`` settles the log in
  a few rounds that each serve every replicate at once: at the end of the
  run, or earlier when the log outgrows the run's own arrays.  It holds
  one copy of the log, and its census grows only with the degrees that
  the rounds reach.  A round compares each step's target less its total
  activity with the partial sums less that total, so its scan past the
  prefix starts from minus the master's weight and the weight past the
  prefix: the total is the sum of every vertex's weight, as
  ``growth.census_vector`` and ``growth._record_rows`` use it too, and all
  of these are exact integers.
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

Step layout of the pre-drawn uniforms (one row per step; step j takes
the j-th row of ncols consecutive doubles of its replicate's
``numpy.random.Generator``, whatever the size of the blocks they were
drawn in):

    col 0  latch class selection (the kernels' class scan)
    col 1  index inside the class (graph mode's replay only)
    col 2  block selection (``block_choice``, before the kernels run)
    col 3  out-arc index (bipolar graph mode's replay only)

A latch class is the degree of the latch, or -1 for the master vertex.
The scalar loop grows its counts when a step would reach past their end,
and the lock-step run grows its census in the rounds that resolve its
log, as far as each round can reach, so no caller has to.
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
    # int32: each entry's degree past the prefix and its count of vertices
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
    arrive = np.searchsorted(q, np.arange(m * (P + 1) + 1))
    return LockStep(step, arrive, (P + 1 + a).astype(np.int32), past[q, a].astype(np.int32))


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


def _drain(chunks):
    """One column of a ``LockStepRun`` log as one array; empties ``chunks``."""
    column = np.concatenate(chunks)
    chunks.clear()
    return column


class LockStepRun:
    """R replicates grown in lock step: every replicate takes step j before
    any takes j + 1.  ``advance`` takes a row block of steps, ``resolve``
    settles what they left past the prefix, and ``census`` resolves the
    rest and returns the census.

    ``counts`` is (R, D) int64, zero past each replicate's max degree, and
    ``state`` (R, 3) int64 holding each replicate's [max degree, master
    degree, S * total activity], the row that ``census_chunk`` keeps in its
    ``state`` list.  ``state`` is updated in place: its total by
    ``advance``, its master degree by ``resolve`` and its max degree by
    ``census``.  Degree k weighs ``tab.chi_s * k +
    tab.rho_s`` and block i adds ``tab.s_a[i]`` to the total, which lies
    below ``ACTIVITY_LIMIT``.  ``lock`` is ``lock_step_tables(tab, P)`` for
    some P >= 1.  Any P yields the same states, by the arguments of
    ``advance`` and ``resolve``; only the time moves with it.  At most
    ``MAX_REPLICATES`` replicates fit one run.  Nothing is recorded.

    The run holds each replicate's partial sums over degrees 1..P, the
    prefix, and ``work[r, k]``, its census by degree past the prefix as it
    stood at the last resolution, as float64.  Between resolutions the log
    holds what the steps did past the prefix: each deferred step (its round,
    which counts its replicate's deferred steps before it since the last
    resolution, then its replicate, its floored target less the total
    activity before it, and its latch increment) and each arrival (the round that it
    is due before, its replicate, degree past the prefix and count of
    vertices).  Rounds are int64; replicates, degrees, counts and
    increments are int32, which holds every replicate index below
    ``MAX_REPLICATES`` and every degree and count that one block adds.
    ``pending`` counts the log's entries."""

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
        # ``resolve`` grows the census past the prefix as the rounds need.
        D = min(counts.shape[1], self.width + 1)
        self.work = np.zeros((R, self.width + P))
        self.work[:, :D] = counts[:, :D]
        # The step table rows whose step is logged: deferred (k = P), or
        # adding vertices past the prefix.
        self.logged = (np.arange(len(lock.step)) % (P + 1) == P) | (np.diff(lock.arrive) > 0)
        # Each replicate's deferred steps since the last resolution.
        self.rounds = np.zeros(R, dtype=np.int64)
        # The log, one list of chunks per column: each deferred step's round,
        # replicate, floored target less the total before it and latch
        # increment, then each arrival's round, replicate, degree and count.
        self.log = [[] for _ in range(8)]
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
        their floored targets less the total activity before each (an exact
        integer of magnitude below 2**52), and the vertices that the steps add
        past the prefix (new ones, and latches that a prefix hit moves
        there), are logged for ``resolve``: a deferred step with the round
        that will settle it, and an arrival with the round that it must
        precede."""
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
        # The logged steps, as flat indices r * L + j: each replicate's steps
        # together, in step order.
        hits = np.flatnonzero(self.logged[moved.T])
        r, j = np.divmod(hits, L)
        rows = moved[j, r]
        defer = rows % (P + 1) == P
        dj, dr = j[defer], r[defer]
        # Each logged step's count of its replicate's deferred steps since the
        # last resolution, itself included: the count over the log, less the
        # replicates' before it.  A deferred step's round is one less, and
        # the vertices that a step adds are due before that count's round.
        ndefer = np.bincount(dr, minlength=R)
        nth = np.cumsum(defer) + (self.rounds - np.cumsum(ndefer) + ndefer)[r]
        self.rounds += ndefer
        r = r.astype(np.int32)
        deferred = (
            nth[defer] - 1,
            r[defer],
            (target[dj, dr] - span[dr]) - totals[dr, dj],
            tab.d_a[rows[defer] // (P + 1)].astype(np.int32),
        )
        # Each logged step's entries of ``lock.degree`` and ``lock.count``.
        start = lock.arrive[rows]
        n = lock.arrive[rows + 1] - start
        entry = np.arange(n.sum()) + np.repeat(start - np.cumsum(n) + n, n)
        arrived = (np.repeat(nth, n), np.repeat(r, n), lock.degree[entry], lock.count[entry])
        for column, chunk in zip(self.log, deferred + arrived):
            column.append(chunk)
        self.pending += len(dr) + len(entry)

    def resolve(self):
        """Settle every logged step, then empty the log.

        The deferred latches are resolved in rounds.  Round t takes every
        replicate's t-th logged deferred step, in lock step over the
        replicates.  Before it, ``work`` gains the arrivals of each
        replicate's steps before that step; after the last round, the rest.
        The round compares the step's target less its total activity with
        the partial sums less that total.  So it continues the scan past
        the prefix from the sum of the prefix less the total, which is
        minus the master's weight and the weight past the prefix (the total
        is the sum of every vertex's weight), and latches to the master if
        the target is not below the last sum either, adding the block's
        latch increment to the master degree at once.  It reads the floored
        targets, which pick as the targets do against integer sums: t < s
        exactly when floor(t) < s.  It scans in blocks of P degrees: one
        ``einsum`` gives each block's weighted sum, and only the first block
        whose end passes the target is scanned degree by degree.  This is
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
          non-negative integer, and every sum, in whatever order ``einsum``
          adds it, an integer below ``ACTIVITY_LIMIT``.  So is the master's
          weight, and the start, minus it and the blocks' sums, is the sum
          of the prefix less the step's total exactly, as is the floored
          target less that total, which ``advance`` logs: the two compare
          as the target and the sum do.  The partial sums grow with the
          degree, so the first block whose end passes the target holds the
          first degree that does.

        ``work`` grows between rounds, only as far as the next round can
        reach.  No class lies above ``width``, which each round raises to
        the degrees that it moves latches to, and no arrival does from the
        start.  A round reads whole blocks of P degrees, from the first past
        the prefix through the one that holds ``width``, so degrees below
        width + P, and moves a latch that it finds there up by at most the
        log's largest latch increment.  So width + P + that
        increment degrees cover every read and move of the round.  When
        ``work`` has fewer, it grows to P more than that, zero past its old
        end, and ``weight`` with it.  No vertex has reached a grown degree,
        so zero is its count at the round's step and at every earlier one:
        every read and move, and so every state, is the one that a ``work``
        sized before the rounds would give.

        ``advance`` logs each step's round, so the rounds need one sort of
        the log by round.  Their order among the replicates does not matter:
        a round takes each replicate at most once, and the arrivals add
        exact integers.  The log is concatenated one column at a time, each
        column's chunks released as it goes, so a resolution holds one copy
        of it."""
        if not self.log[0]:
            return
        # ``target`` holds each deferred step's floored target less its total.
        rnd, r, target, lift, late, ar, degree, count = (_drain(c) for c in self.log)
        self.rounds[:] = 0
        self.pending = 0
        P = self.lock.step.shape[1] - 1
        W = P + 1  # the first degree past the prefix
        tab, state = self.tab, self.state
        # The deferred steps by round, and the arrivals by the round that they
        # are due before: due[t]:due[t + 1] are those due before round t.
        sizes = np.bincount(rnd)
        order = np.argsort(rnd, kind="stable")
        due = np.zeros(len(sizes) + 2, dtype=np.int64)
        np.cumsum(np.bincount(late, minlength=len(sizes) + 1), out=due[1:])
        arrivals = np.argsort(late, kind="stable")
        del rnd, late
        reach = P + int(lift.max(initial=0))

        width, work = self.width, self.work
        weight = tab.chi_s * np.arange(work.shape[1], dtype=np.float64) + tab.rho_s
        ends = np.cumsum(sizes)
        for t, (lo, hi) in enumerate(zip(ends - sizes, ends)):
            now = arrivals[due[t] : due[t + 1]]
            np.add.at(work, (ar[now], degree[now]), count[now])
            if width + reach > work.shape[1]:
                grown = np.zeros((len(work), width + reach + P))
                grown[:, : work.shape[1]] = work
                self.work = work = grown
                weight = tab.chi_s * np.arange(work.shape[1], dtype=np.float64) + tab.rho_s
            m = order[lo:hi]
            rm, tm, lm = r[m], target[m], lift[m]
            # The counts past the prefix at each one's step, in nb blocks of
            # P degrees (zero past width).
            nb = -(-(width - P) // P)
            seg = work[rm, W : W + nb * P].reshape(-1, nb, P)
            wb = weight[W : W + nb * P].reshape(nb, P)
            # Partial sums less the step's total at each block's start and
            # at the last one's end, from the prefix's: minus the master's
            # weight and the blocks'.  Then the first block that passes the
            # target, scanned degree by degree.
            sums = np.empty((nb + 1, hi - lo))
            np.einsum("mbp,bp->bm", seg, wb, out=sums[1:])
            sums[0] = -(tab.chi_s * state[rm, 1] + tab.rho_s) - sums[1:].sum(axis=0)
            np.cumsum(sums, axis=0, out=sums)
            i = (tm < sums[1:]).argmax(axis=0)
            col = np.arange(hi - lo)
            inner = seg[col, i] * wb[i]
            inner[:, 0] += sums[i, col]
            hit = tm[:, None] < np.cumsum(inner, axis=1, out=inner)
            # A latch moves up lm degrees; the master gains them.
            latched = hit[:, -1]
            at = W + i * P + hit.argmax(axis=1)
            work[rm, at] -= latched
            at += lm
            work[rm, at] += latched
            state[rm, 1] += np.where(latched, 0, lm)
            width = max(width, int(at.max()))
        now = arrivals[due[-2] :]
        np.add.at(work, (ar[now], degree[now]), count[now])
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
        work[:, 1 : P + 1] = np.diff(sums, axis=1, prepend=0) / weight
        occupied = work[:, ::-1] != 0  # the highest degree first
        top = np.where(occupied.any(axis=1), work.shape[1] - 1 - occupied.argmax(axis=1), 0)
        np.maximum(state[:, 0], top, out=state[:, 0])
        return work[:, : state[:, 0].max() + 1].astype(np.int64)

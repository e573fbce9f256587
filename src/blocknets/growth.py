"""Network growth simulation.

Two modes share one random stream and one decision procedure, so they
produce identical census trajectories from the same seed:

* census mode tracks only the degree census (one int64 counter per degree
  value, exact also above the tracked range) plus the master vertex's
  degree and the running total attachment weight, as an exact integer
  scaled by S, the least common denominator of chi and rho;
* graph mode additionally materializes the multigraph.  It runs the same
  census kernel, which also returns the latch class of each step, and
  then replays the vertex-level picks on the graph: the member of that
  class from the step's intra-class uniform and, for bipolar networks,
  the out-arc from its arc uniform.  The census, the master degree, the
  vertex count and the total activity all come from the kernel, so the
  modes agree by construction; a recount of the census from the graph
  every ``SPOT_CHECK_INTERVAL`` steps guards the replay.

One step function, ``_step_rows``, attaches every block: the initial
block, each drawn chunk and each scripted step.  A recorded trajectory is
rebuilt after each chunk from the latch classes that the kernel returns
and the chunk's block choices, in a few numpy operations on whole columns
(``_record_rows``), in either mode.

Both rules of growth change the census through three facts of each block:
the latch's degree increment, the degrees of its new vertices and its
activity increment.  ``_build_tables`` puts them, with the block
probabilities and the replay's edge codes, in one ``_Tables`` per
``simulate`` or ``simulate_batch`` call, which every kernel reads.  Only
``simulate_batch`` builds the lock-step kernel's tables from it, once per
call, for the prefix width that ``_scan_prefix`` derives from the model's
limit law before any draw.

The graph store is flat.  Vertex ids are 0..n-1 in creation order: the
master (hook or north pole) is vertex 0, the initial block's new vertices
follow in their listed order, a south pole comes next, and each later
step's new vertices follow in their block's listed order.  A vertex's
tracked degree, its position in its degree class and (bipolar) its
out-arcs sit in lists indexed by id; each degree class is a list of its
members.  A chunk's new vertices and their degrees at creation follow from
its block choices alone, so the replay extends the degree and position
columns once per chunk, and sets each new vertex's position as it joins
its class.  Column 1 picks a class member and column 3 an out-arc by
position, and both lists change by swap-remove and append, so their order
is part of the decision procedure.  Hooking edges are never read while the
network grows: each chunk appends its edges to an int64 edge log in one
vectorised pass.  The writers sort the edges only at export, hooking
edges as (min, max) pairs and bipolar arcs as (tail, head).  Each block of
lines they write is one byte table (``_formatted``): the template's text
broadcast into its columns and the integers' digits from a few whole-column
divisions.  A ``%.12g`` block whose values are all whole, non-negative and
below 10**12 (the star column of fig1 and fig3, whose S is 1) takes the
same digits, as ``%.12g`` prints those values as ``%d`` does.

The stream is ``numpy.random.default_rng(seed)``.  Step j consumes its
j-th row of ncols consecutive doubles (class, intra-class index, block
and, bipolar, arc index), whatever the size of the blocks they were drawn
in (PCG64 doubles come out one after another, so ``random((4096, 3))``
equals eight ``random((512, 3))``), by ``random(out=...)`` straight into
the driver's array.  When the initial block is chosen at random, a
single extra uniform is drawn before the step loop.  Every block choice,
the initial one included, is ``_kernels.block_choice``.  Replicate
streams are derived as ``SeedSequence((seed, replicate))``.
``grow_step`` is the same driver for one step; ``simulate_batch`` grows
many replicates at once and leaves each in the state ``simulate`` would.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .model_io import BIPOLAR, HOOKING, BlockSet
from .profile import _clear, activity_increments, essential_degrees, weight_past

CHUNK_ROWS = 4096
# Rows per replicate drawn at a time by simulate_batch; small, so that a
# batch of a hundred replicates holds well under a megabyte of draws.
BATCH_ROWS = 256
SPOT_CHECK_INTERVAL = 1 << 16
# Rows the writers format per table, to bound their temporaries.
WRITE_ROWS = 1 << 16
DEFAULT_MAX_VERTICES = 10_000_000
# The lock-step kernel scans degrees 1..P in its step loop and defers the
# latches past them to slower rounds.  P is the least multiple of
# PREFIX_STEP, up to MAX_PREFIX, past which the limit law puts less than
# DEFERRED_SHARE of the attachment weight (``_scan_prefix``).
PREFIX_STEP = 8
MAX_PREFIX = 64
DEFERRED_SHARE = Fraction(1, 50)
# The master (hook or north pole) is vertex 0 of every graph.
MASTER = 0

GRAPH = "graph"
CENSUS = "census"


class ResourceLimitError(RuntimeError):
    """The simulated network outgrew the configured vertex budget."""


def backend_name() -> str:
    """The census kernels in use, always those of ``_kernels``: the scalar
    Python loop (``simulate``) and the numpy lock-step kernel (``verify``)."""
    return "python"


@dataclass(frozen=True)
class _Tables:
    """One model's growth constants, read by both census kernels,
    ``block_choice`` and the graph replay.  Each per-block fact is held
    once: as a list where the scalar loops read it, as a numpy array where
    numpy code indexes it with arrays of block choices, and as both (the
    ``*_a`` copies) where both do.  Activities are integers scaled by S."""

    ncols: int  # uniforms per step
    scale: int  # S, the least common denominator of chi and rho
    chi_s: int  # S * chi
    rho_s: int  # S * rho
    cum_p: np.ndarray  # float64[m], cumulative block probabilities
    block_d: list  # latch degree increment per block
    block_s: list  # S * total-activity increment per block
    block_nv: np.ndarray  # int64[m], new vertices per block
    new_degs: list  # block -> [degree of each new vertex]
    new_max: int  # the largest new-vertex degree, 0 if none
    new_hist: np.ndarray  # int64 (m, new_max + 1), new vertices per block and degree
    # block -> [(degree, float S-scaled weight of its new vertices of that
    # degree)], for each degree it adds, and its highest new degree (0 if none)
    new_adds: list
    new_top: list
    d_a: np.ndarray  # int64 block_d
    s_a: np.ndarray  # float64 block_s
    # Edge endpoints of the replay, coded 0 for the latch (hook or north
    # pole), 1 for the head of the replaced arc (south pole) and 2 + j for
    # the block's j-th new vertex.  bipolar: block -> (heads, north, spans):
    # the heads of the north pole's arcs, then of each new vertex's, in
    # block-edge order, the slice of the north pole's and one slice per new
    # vertex; hooking: block -> its edges, padded with rows of -1 to the
    # longest.
    heads: list
    ends: np.ndarray  # int64 (m, max edges, 2)

    def weight(self, k: int) -> int:
        """S * (chi * k + rho), the scaled attachment weight of degree k."""
        return self.chi_s * k + self.rho_s


def _build_tables(bs: BlockSet) -> _Tables:
    (chi_s, rho_s), scale = _clear((bs.chi, bs.rho))
    d = [b.latch_increment() for b in bs.blocks]
    new_degs = [b.new_degrees() for b in bs.blocks]
    block_s = activity_increments(bs, chi_s, rho_s)
    new_max = max((c for nd in new_degs for c in nd), default=0)
    hist = np.zeros((len(d), new_max + 1), dtype=np.int64)
    for i, nd in enumerate(new_degs):
        for c in nd:
            hist[i, c] += 1
    adds = [[(c, n * float(chi_s * c + rho_s)) for c, n in enumerate(h) if n] for h in hist.tolist()]
    heads = []
    ends = np.full((len(d), max(len(b.edges) for b in bs.blocks), 2), -1, dtype=np.int64)
    for i, b in enumerate(bs.blocks):
        code = {v: 2 + j for j, v in enumerate(b.new_vertices())}
        code.update({b.hook: 0} if b.kind == HOOKING else {b.north: 0, b.south: 1})
        ends[i, : len(b.edges)] = [(code[x], code[y]) for x, y in b.edges]
        if b.kind == BIPOLAR:
            out: dict[str, list] = {v: [] for v in b.vertices}
            for x, y in b.edges:
                out[x].append(code[y])
            lists = [out[b.north]] + [out[v] for v in b.new_vertices()]
            ends_at = list(accumulate(map(len, lists), initial=0))
            spans = [slice(a, z) for a, z in zip(ends_at, ends_at[1:])]
            heads.append((list(chain.from_iterable(lists)), spans[0], spans[1:]))
    return _Tables(
        ncols=4 if bs.kind == BIPOLAR else 3,
        scale=scale,
        chi_s=chi_s,
        rho_s=rho_s,
        cum_p=np.cumsum([float(b.probability) for b in bs.blocks]),
        block_d=d,
        block_s=block_s,
        block_nv=np.array([len(nd) for nd in new_degs], dtype=np.int64),
        new_degs=new_degs,
        new_max=new_max,
        new_hist=hist,
        new_adds=adds,
        new_top=[max(nd, default=0) for nd in new_degs],
        d_a=np.array(d, dtype=np.int64),
        # clamped: _check_activity_limit refuses a larger increment before
        # any step, and a huge S must not overflow the conversion
        s_a=np.array([min(x, _kernels.ACTIVITY_LIMIT) for x in block_s], dtype=np.float64),
        heads=heads,
        ends=ends,
    )


def _check_activity_limit(t: _Tables, activity: int, n: int) -> None:
    """Raise ResourceLimitError unless the scaled total activity stays
    below ``_kernels.ACTIVITY_LIMIT`` for n more steps from ``activity``,
    which keeps every class scan exact in binary64."""
    bound = activity + n * max(t.block_s)
    if bound >= _kernels.ACTIVITY_LIMIT:
        raise ResourceLimitError(
            f"total activity scaled by S, the least common denominator of chi "
            f"and rho, could reach 2**{bound.bit_length() - 1} in {n} steps; "
            f"exact latch weights need it below 2**{_kernels.ACTIVITY_LIMIT.bit_length() - 1}"
        )


@dataclass
class _GraphData:
    """Materialized multigraph (graph mode only).  Vertex ids are 0..n-1 in
    creation order, and every per-vertex field is a list indexed by id.
    The master is vertex ``MASTER``, 0, and a south pole is the last vertex
    of the initial block."""

    kind: str
    master_sink: Optional[int] = None
    deg: list = field(default_factory=list)  # tracked degree
    mpos: list = field(default_factory=list)  # index in its class list; -1 for a pole
    # degree -> [non-pole vertices]
    members: defaultdict = field(default_factory=lambda: defaultdict(list))
    out: list = field(default_factory=list)  # bipolar: [heads], in replay order
    ends: array = field(default_factory=lambda: array("q"))  # hooking: x0, y0, x1, ...

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The two endpoint columns of every edge: hooking edges as logged,
        bipolar arcs as (tail, head)."""
        if self.kind == HOOKING:
            e = np.array(self.ends, dtype=np.int64).reshape(-1, 2)
            return e[:, 0], e[:, 1]
        tails = np.repeat(np.arange(len(self.out)), self.recount_degrees())
        heads = np.fromiter(chain.from_iterable(self.out), np.int64, tails.shape[0])
        return tails, heads

    def recount_degrees(self) -> np.ndarray:
        """Tracked degree of every vertex, counted from the edges: both
        endpoints for hooking (a self-loop counts 2), tails for bipolar."""
        if self.kind == HOOKING:
            return np.bincount(np.concatenate(self.edges()), minlength=len(self.deg))
        return np.fromiter(map(len, self.out), np.int64, len(self.out))

    def census(self) -> dict[int, int]:
        """Degree census of the non-pole vertices, counted from ``deg``."""
        deg = np.array(self.deg, dtype=np.int64)
        deg[[v for v in (MASTER, self.master_sink) if v is not None]] = -1
        counts = np.bincount(deg[deg >= 0])
        return {int(k): int(counts[k]) for k in np.flatnonzero(counts)}


@dataclass
class GrowthState:
    """Evolving simulation state; mutated in place by grow_step."""

    bs: BlockSet
    mode: str
    step: int
    counts: np.ndarray  # int64, counts[k] = non-master vertices of degree k
    max_deg: int
    master_degree: int
    activity: int  # S * total attachment weight, S = tables.scale
    n_vertices: int
    tables: _Tables
    stream: np.random.Generator
    graph: Optional[_GraphData] = None
    track: Optional[tuple[int, ...]] = None
    trajectory_x: Optional[np.ndarray] = None
    trajectory_star: Optional[np.ndarray] = None
    max_vertices: int = DEFAULT_MAX_VERTICES

    @property
    def kind(self) -> str:
        return self.bs.kind

    def census(self) -> dict[int, int]:
        """Degree census of the non-master vertices as a plain dict."""
        return {
            k: int(self.counts[k])
            for k in range(1, self.max_deg + 1)
            if self.counts[k]
        }

    def recount_activity(self) -> int:
        """``activity`` recounted from the census and the master degree."""
        w = self.tables.weight
        counts = self.counts.tolist()
        return w(self.master_degree) + sum(w(k) * counts[k] for k in range(1, self.max_deg + 1))


def init_state(
    bs: BlockSet,
    mode: str = CENSUS,
    seed=0,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> GrowthState:
    """State holding a copy of the initial block, master vertices marked and
    excluded from the census."""
    if mode not in (GRAPH, CENSUS):
        raise ValueError(f"mode must be 'graph' or 'census', got {mode!r}")
    tables = _build_tables(bs)
    stream = np.random.default_rng(seed)
    return _new_state(bs, tables, mode, stream, _initial_block(bs, tables, stream), max_vertices)


def _initial_block(bs: BlockSet, tables: _Tables, stream: np.random.Generator) -> int:
    """The index of the initial block; a random one takes the stream's one
    pre-loop uniform."""
    if bs.initial_block == "random":
        return int(_kernels.block_choice(tables, np.array([stream.random()]))[0])
    return bs.initial_block


def _new_state(
    bs: BlockSet,
    tables: _Tables,
    mode: str,
    stream: Optional[np.random.Generator],
    block: int,
    max_vertices: int,
) -> GrowthState:
    """``init_state`` on the model table ``tables`` of ``bs``, which states
    grown together share, with the stream ``stream`` (None for a state that
    is only copied) and the initial block ``block``.

    The initial block is attached like any later block, by ``_step_rows``
    on a state one step before step 0 that holds the master alone: a hook
    vertex of degree 0, or a north pole with one arc to the south pole,
    which the block replaces.  With an empty census the class scan finds no
    class, so the master is the latch whatever the class uniform.  The
    master is vertex 0, the block's new vertices follow in their listed
    order, and a south pole comes last."""
    b = np.array([block])
    bipolar = bs.kind == BIPOLAR
    _check_vertex_limit(_vertex_counts(1 + bipolar, tables, b), 0, max_vertices)
    graph = None
    if mode == GRAPH:
        graph = _GraphData(kind=bs.kind, deg=[int(bipolar)], mpos=[-1])
        if bipolar:
            graph.master_sink = 1 + int(tables.block_nv[block])
            graph.out = [[graph.master_sink]]
    state = GrowthState(
        bs=bs,
        mode=mode,
        step=-1,
        counts=np.zeros(64, dtype=np.int64),
        max_deg=0,
        master_degree=int(bipolar),
        activity=tables.weight(int(bipolar)),
        n_vertices=1,
        tables=tables,
        stream=stream,
        graph=graph,
        max_vertices=max_vertices,
    )
    _step_rows(state, np.zeros((1, tables.ncols)), b, record=False)
    if bipolar:  # the south pole
        state.n_vertices += 1
        if graph is not None:
            graph.deg.append(0)
            graph.mpos.append(-1)
            graph.out.append([])
    return state


def _replay(
    g: _GraphData, t: _Tables, rows: np.ndarray, b: np.ndarray, cls: np.ndarray, before: np.ndarray
) -> None:
    """Apply the census kernel's choices for ``rows`` to the graph: block
    ``b[j]`` at the member of class ``cls[j]`` picked by column 1 (the
    master when the class is -1) and, bipolar, in place of the latch's
    out-arc picked by column 3.  ``before[j]`` is the vertex count before
    step j.

    The chunk's new vertices, and their degrees at creation, follow from
    the block choices alone, so ``deg`` and ``mpos`` are extended once, before
    the loop; each new vertex's ``mpos`` is set as it joins its class.  In
    each step the new vertices join their classes first, then the latch
    moves to its new class; both lists change by swap-remove and append, so
    member positions are those column 1 indexes.  Bipolar arcs go to the
    out-arc lists as each step is applied (column 3 indexes them): the
    step's heads are one list, cut into the north pole's arcs and each new
    vertex's by the block's slices.  Hooking edges go to the edge log in one
    pass after the loop."""
    deg, mpos, members, out = g.deg, g.mpos, g.members, g.out
    new_degs, block_d, heads = t.new_degs, t.block_d, t.heads
    bipolar = g.kind == BIPOLAR
    blocks = b.tolist()
    v = len(deg)
    deg.extend(chain.from_iterable(map(new_degs.__getitem__, blocks)))
    mpos.extend([-1] * (len(deg) - v))
    picks = rows[:, 1].tolist()
    arc_picks = rows[:, 3].tolist() if bipolar else picks  # unused by hooking
    latches = []
    for u, ua, bj, c in zip(picks, arc_picks, blocks, cls.tolist()):
        if c == -1:
            latch = MASTER
        else:
            lst = members[c]
            n = len(lst)
            i = int(u * n)
            latch = lst[i] if i < n else lst[-1]
        old = deg[latch]
        if bipolar:
            arcs = out[latch]
            i = int(ua * old)
            if i >= old:
                i = old - 1
            vm = [latch, arcs[i]]
            last = arcs.pop()
            if i < old - 1:
                arcs[i] = last
        for k in new_degs[bj]:
            lst = members[k]
            mpos[v] = len(lst)
            lst.append(v)
            if bipolar:
                vm.append(v)
            v += 1
        if bipolar:
            codes, north, spans = heads[bj]
            hv = [vm[h] for h in codes]
            arcs += hv[north]
            out.extend(map(hv.__getitem__, spans))
        else:
            latches.append(latch)
        d = block_d[bj]
        if d:
            deg[latch] = old + d
            if latch != MASTER:
                lst = members[old]
                i = mpos[latch]
                last = lst.pop()
                if i < len(lst):
                    lst[i] = last
                    mpos[last] = i
                lst = members[old + d]
                mpos[latch] = len(lst)
                lst.append(latch)
    if not bipolar:
        code = t.ends[b]  # (step, edge, endpoint)
        ends = np.where(
            code == 0, np.array(latches)[:, None, None], code + (before[:, None, None] - 2)
        )
        ends = ends[code[:, :, 0] >= 0]  # without the padding rows
        g.ends.frombytes(ends.astype(np.int64, copy=False).tobytes())


def _spot_check(state: GrowthState) -> None:
    """Census must equal a recount from the graph."""
    recount = state.graph.census()
    if recount != state.census():
        raise AssertionError(
            f"census diverged from the graph at step {state.step}: "
            f"{state.census()} vs recount {recount}"
        )


def grow_step(state: GrowthState) -> GrowthState:
    """Advance one step, consuming one row of the shared random stream.
    Nothing is recorded.

    It serves tests and stepping by hand.  Each call is one chunk of
    ``_advance``, so it pays the chunk's numpy set-up (a draw, a block
    choice, the vertex-limit check and list copies of the counts) for a
    single step: many times the cost of a step inside ``simulate``."""
    _advance(state, 1, record=False)
    return state


def grow_step_scripted(
    state: GrowthState, latch: int, block_index: int, arc_index: int = 0
) -> GrowthState:
    """Deterministic step with explicit choices (graph mode; consumes no
    randomness).  Intended for building reference networks in tests.

    The choices go through ``_step_rows``, like a drawn step, as the
    uniforms that pick them.  Column 0 is the midpoint of the latch class's
    share of the total weight (the master's share for the master), moved
    by ``math.nextafter`` until the kernel's binary64 target lies inside
    the share; column 1 is member position i of L as (i + 1/2) / L, whose
    product with L floors back to i, and column 3 the out-arc likewise."""
    if state.mode != GRAPH:
        raise ValueError("scripted growth needs graph mode")
    t, g = state.tables, state.graph
    if not 0 <= latch < len(g.deg) or latch == g.master_sink:
        raise IndexError(f"vertex {latch} cannot be a latch")
    if not 0 <= block_index < len(t.block_d):
        raise IndexError(f"block {block_index} is not one of blocks 0..{len(t.block_d) - 1}")
    _check_activity_limit(t, state.activity, 1)
    row = np.zeros((1, t.ncols))
    c = -1 if latch == MASTER else g.deg[latch]
    if c != -1:
        row[0, 1] = (g.mpos[latch] + 0.5) / len(g.members[c])
    if state.kind == BIPOLAR:
        if not 0 <= arc_index < g.deg[latch]:
            raise IndexError(f"vertex {latch} has no out-arc {arc_index}")
        row[0, 3] = (arc_index + 0.5) / g.deg[latch]
    # each class's share of the scaled total, in scan order, the master's last
    counts, total = state.counts[: state.max_deg + 1].tolist(), state.activity
    shares = [t.weight(k) * n for k, n in enumerate(counts)]
    shares.append(total - sum(shares))
    lo = sum(shares[:c])
    hi = lo + shares[c]
    u0 = (lo + hi) / (2 * total)
    while not lo <= u0 * total < hi:  # the kernel's target, as it forms it
        u0 = math.nextafter(u0, 1.0 if u0 * total < lo else 0.0)
    row[0, 0] = u0
    _step_rows(state, row, np.array([block_index]), record=False)
    return state


def _vertex_counts(n_vertices, tables: _Tables, b) -> np.ndarray:
    """The vertex count after each step of the block choices ``b`` (steps
    along the last axis; a leading axis holds replicates).  It depends only
    on the block choices, so it is known before the census is grown."""
    return np.asarray(n_vertices)[..., None] + np.cumsum(tables.block_nv[b], axis=-1)


def _check_vertex_limit(nv, first: int, limit: int) -> None:
    """Raise ResourceLimitError at the first step whose vertex count in
    ``nv`` (steps ``first, first + 1, ...`` along the last axis, as from
    ``_vertex_counts``) exceeds limit."""
    over = nv > limit
    if over.any():
        j = int(over.reshape(-1, over.shape[-1]).any(axis=0).argmax())
        count = int(nv[..., j].max())
        raise ResourceLimitError(
            f"vertex count {count} exceeds limit {limit} at step {first + j}"
        )


def _advance(state: GrowthState, n: int, record: bool) -> None:
    """Advance ``state`` by n steps, drawn in chunks of at most CHUNK_ROWS
    rows, each taken by ``_step_rows``; if ``record``, store the tracked
    census after each step.  Graph-mode chunks end at every multiple of
    ``SPOT_CHECK_INTERVAL``, where ``_spot_check`` runs."""
    t, g = state.tables, state.graph
    _check_activity_limit(t, state.activity, n)
    draws = np.empty((min(n, CHUNK_ROWS), t.ncols))
    end = state.step + n
    while state.step < end:
        want = min(end - state.step, CHUNK_ROWS)
        if g is not None:
            want = min(want, SPOT_CHECK_INTERVAL - state.step % SPOT_CHECK_INTERVAL)
        rows = state.stream.random(out=draws[:want])
        _step_rows(state, rows, _kernels.block_choice(t, rows[:, 2]), record)
        if g is not None and state.step % SPOT_CHECK_INTERVAL == 0:
            _spot_check(state)


def _step_rows(state: GrowthState, rows: np.ndarray, b: np.ndarray, record: bool) -> None:
    """Take the steps of the uniform ``rows`` with block choices ``b``:
    the vertex limit, the census kernel and, in graph mode, the replay of
    the latch class that the kernel returns for each step; if ``record``,
    ``_record_rows`` writes their trajectory rows."""
    t, g = state.tables, state.graph
    nv = _vertex_counts(state.n_vertices, t, b)
    _check_vertex_limit(nv, state.step + 1, state.max_vertices)
    si = [state.max_deg, state.master_degree, state.activity]
    state.counts, cls = _kernels.census_chunk(state.counts, si, t, rows[:, 0], b)
    if g is not None:
        _replay(g, t, rows, b, cls, nv - t.block_nv[b])
    if record:
        _record_rows(state, cls, b)
    state.step += rows.shape[0]
    state.max_deg, state.master_degree, state.activity = si
    state.n_vertices = int(nv[-1])


def _record_rows(state: GrowthState, cls: np.ndarray, b: np.ndarray) -> None:
    """Write the trajectory rows of the chunk of steps after ``state.step``,
    whose latch classes are ``cls`` and block choices ``b``; ``state`` still
    holds the master degree and activity from before the chunk.

    The tracked census changes only by a latch's move from ``cls`` to
    ``cls + d`` and by the block's new vertices, so each row is the
    previous one plus a cumulative sum of those events; the master degree
    moves by d whenever the class is -1.  The star activity is the exact
    total less the master's and the tracked classes' weights.  Each of
    these is an integer below ACTIVITY_LIMIT (an unoccupied class's weight
    is multiplied by 0), exact in binary64, so the numerator is exact and
    each row is rounded once, by the division."""
    t, s = state.tables, state.step
    ess = np.array(state.track, dtype=np.int64)
    new_x = np.zeros((len(t.block_d), len(ess)), dtype=np.int64)
    fits = ess <= t.new_max
    new_x[:, fits] = t.new_hist[:, ess[fits]]
    w_ess = np.array([t.weight(k) for k in state.track], dtype=np.float64)
    d = t.d_a[b]
    x = state.trajectory_x[s + 1 : s + 1 + b.shape[0]]
    events = new_x[b]
    events -= cls[:, None] == ess
    events += np.where(cls >= 0, cls + d, -1)[:, None] == ess
    np.cumsum(events, axis=0, out=x)
    x += state.trajectory_x[s]
    master = state.master_degree + np.cumsum(np.where(cls < 0, d, 0))
    total = state.activity + np.cumsum(t.s_a[b])
    num = total - (t.chi_s * master + t.rho_s) - x @ w_ess
    star = state.trajectory_star[s + 1 : s + 1 + b.shape[0]]
    if t.scale < 2**53:  # exact in binary64, so num / S rounds like int / int
        np.divide(num, t.scale, out=star)
    else:
        star[:] = [v / t.scale for v in num.astype(np.int64).tolist()]


def census_vector(state: GrowthState, essential: Sequence[int]) -> tuple[np.ndarray, float]:
    """Counts of the tracked degree classes plus the star: the aggregate
    attachment weight of the census's other vertices, those of the overflow
    degrees.  The master's weight is left out, as in the trajectory's
    ``star_activity`` and ``blocknets simulate``'s overflow activity."""
    x = np.array([int(state.counts[k]) if k <= state.max_deg else 0 for k in essential])
    w = state.tables.weight
    star = state.activity - w(state.master_degree)
    for k, xi in zip(essential, x.tolist()):
        star -= w(k) * xi
    return x, star / state.tables.scale


def simulate(
    bs: BlockSet,
    n: int,
    mode: str = CENSUS,
    seed=0,
    record: bool = False,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> GrowthState:
    """Run n growth steps; deterministic given (bs, n, mode, seed).

    With record=True the census vector of the tracked classes, the model's
    r essential degrees, is stored after every step.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    state = init_state(bs, mode, seed, max_vertices=max_vertices)
    if record:
        ess = essential_degrees(bs, bs.r)
        state.track = ess
        state.trajectory_x = np.zeros((n + 1, len(ess)), dtype=np.int64)
        state.trajectory_star = np.zeros(n + 1, dtype=np.float64)
        x0, star0 = census_vector(state, ess)
        state.trajectory_x[0] = x0
        state.trajectory_star[0] = star0
    _advance(state, n, record)
    return state


def simulate_batch(
    bs: BlockSet,
    n: int,
    seeds: Sequence,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> list[GrowthState]:
    """Census-mode ``simulate`` for several seeds at once.

    Each returned state equals ``simulate(bs, n, seed=s)`` for its seed:
    the same census, degrees, vertex count, total activity and stream
    position.  Nothing is recorded.  The replicates grow in lock step
    through ``_kernels.LockStepRun``, over the tables of the prefix width
    that ``_scan_prefix`` picks for ``bs``, in groups of at most
    ``_kernels.MAX_REPLICATES``, the most that one run holds.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    t = _build_tables(bs)
    # Each distinct initial block is attached once, and its state copied:
    # the states share its census until ``_grow_in_lock_step`` replaces it.
    streams = [np.random.default_rng(s) for s in seeds]
    blocks = [_initial_block(bs, t, s) for s in streams]
    attached = {b: _new_state(bs, t, CENSUS, None, b, max_vertices) for b in dict.fromkeys(blocks)}
    states = [replace(attached[b], stream=s) for s, b in zip(streams, blocks)]
    if not states:
        return states
    _check_activity_limit(t, max(s.activity for s in states), n)
    lock = _kernels.lock_step_tables(t, _scan_prefix(bs))
    group = _kernels.MAX_REPLICATES
    for lo in range(0, len(states), group):
        _grow_in_lock_step(states[lo : lo + group], t, lock, n, max_vertices)
    return states


def _grow_in_lock_step(
    states: list, t: _Tables, lock: _kernels.LockStep, n: int, max_vertices: int
) -> None:
    """Advance each census state by n steps in one ``_kernels.LockStepRun``,
    one row block of BATCH_ROWS steps at a time.  Replicate r is row r of
    the census ``counts`` and of ``state``, its [max degree, master degree,
    S * total activity] in int64, the list that ``census_chunk`` keeps.

    The run logs the latches that it defers past its prefix, and resolves
    them when the run ends, or at the end of the first row block after
    which its log holds more entries than the row block's R x BATCH_ROWS
    arrays, so that the log stays as small as those.  The vertex counts
    follow from the block choices alone, and never decrease, so a row
    block's end count bounds each of its steps'."""
    counts = np.zeros((len(states), max(s.counts.shape[0] for s in states)), dtype=np.int64)
    for r, s in enumerate(states):
        counts[r, : s.counts.shape[0]] = s.counts
    state = np.array([[s.max_deg, s.master_degree, s.activity] for s in states], dtype=np.int64)
    n_vertices = np.array([s.n_vertices for s in states], dtype=np.int64)
    run = _kernels.LockStepRun(counts, state, t, lock)

    draws = np.empty((len(states), min(n, BATCH_ROWS), t.ncols))
    for step in range(0, n, BATCH_ROWS):
        u = draws[:, : min(BATCH_ROWS, n - step)]
        for r, s in enumerate(states):
            s.stream.random(out=u[r])
        b = _kernels.block_choice(t, u[:, :, 2])
        end = n_vertices + t.block_nv[b].sum(axis=1)
        if end.max() > max_vertices:
            _check_vertex_limit(_vertex_counts(n_vertices, t, b), step + 1, max_vertices)
        run.advance(u, b)
        if run.pending > len(states) * BATCH_ROWS:
            run.resolve()
        n_vertices = end

    draws = u = b = None  # spent: released before the last resolution
    counts = run.census()
    for r, s in enumerate(states):
        s.counts = counts[r].copy()
        s.max_deg, s.master_degree, s.activity = (int(v) for v in state[r])
        s.n_vertices = int(n_vertices[r])
        s.step = n


def _scan_prefix(bs: BlockSet) -> int:
    """The width P of the lock-step kernel's prefix for ``bs``: the least
    multiple of PREFIX_STEP below MAX_PREFIX past which the limit law puts
    less than DEFERRED_SHARE of the attachment weight, else MAX_PREFIX.

    That share, 1 - sum_{k <= P} w_k nu_k, is the share of steps whose latch
    the kernel defers past P in a long run.  It depends on the model alone,
    so P is fixed before any draw.  Any P gives the same states; only the
    time moves."""
    past, scale = weight_past(bs, MAX_PREFIX)
    widths = range(PREFIX_STEP, MAX_PREFIX, PREFIX_STEP)
    return next((P for P in widths if past[P] < DEFERRED_SHARE * scale), MAX_PREFIX)


def _formatted(fmt: str, *cols: np.ndarray) -> Iterator[str]:
    """``fmt`` % row for each row of the equal-length columns ``cols``, one
    string per ``WRITE_ROWS`` rows.

    Each block is one uint8 table, assembled with a column per row and
    turned to a line per row: the template's literal text broadcast across,
    each ``%d`` field from ``_digits`` and any other field from
    ``_rendered``, except a ``%.12g`` field whose block is whole: ``%.12g``
    prints a whole number that is non-negative, not -0.0 and below 10**12
    as ``%d`` does, so such a block goes to ``_digits`` too.  Fields are
    padded to their widest value with NUL, which the text leaves out."""
    pieces = re.split(r"(%[^a-zA-Z]*[a-zA-Z])", fmt)  # text, field, ..., field, text
    text = [np.frombuffer(s.encode("ascii"), np.uint8)[:, None] for s in pieces[::2]]
    n = cols[0].shape[0]
    for i in range(0, n, WRITE_ROWS):
        m = min(WRITE_ROWS, n - i)
        parts = [np.broadcast_to(text[0], (text[0].shape[0], m))]
        for spec, c, t in zip(pieces[1::2], cols, text[1:]):
            c = c[i : i + WRITE_ROWS]
            if spec == "%d" or spec == "%.12g" and _whole(c):
                parts.append(_digits(c.astype(np.int64, copy=False)))
            else:
                parts.append(_rendered(spec, c))
            parts.append(np.broadcast_to(t, (t.shape[0], m)))
        rows = np.concatenate(parts).T.copy()
        yield rows[rows != 0].tobytes().decode("ascii")


def _whole(v: np.ndarray) -> bool:
    """Whether every float of ``v`` is a whole number in [0, 10**12) and
    none is -0.0 (NaN is none of these)."""
    return bool(np.all((v < 1e12) & (np.floor(v) == v) & ~np.signbit(v)))


def _digits(v: np.ndarray) -> np.ndarray:
    """The decimal digits of the integers ``v`` in ASCII, one column per
    value, right-aligned in the width of the largest, with NUL in each
    position above a value's first digit.  A negative value raises
    ValueError."""
    if v.min() < 0:
        raise ValueError(f"%d fields take values >= 0, got {v.min()}")
    # floor division by a scalar is several times faster in 32 bits than in 64
    v = v.astype(np.promote_types(np.min_scalar_type(v.max()), np.uint32))
    w = len(str(v.max()))
    out = np.empty((w, v.shape[0]), np.uint8)
    for j in range(w - 1, -1, -1):  # v holds the digits of positions 0..j
        q = v // 10
        out[j] = v - 10 * q + 48
        if j < w - 1:
            out[j] *= v > 0
        v = q
    return out


def _rendered(spec: str, v: np.ndarray) -> np.ndarray:
    """``spec`` % x for each x of ``v`` in ASCII, one column per value,
    left-aligned in the width of the longest and padded with NUL; ``%``
    renders the whole column as one string of lines."""
    text = np.frombuffer(((spec + "\n") * v.shape[0] % tuple(v.tolist())).encode("ascii"), np.uint8)
    lens = np.diff(np.flatnonzero(text == 10), prepend=-1) - 1
    out = np.zeros((v.shape[0], lens.max()), np.uint8)
    out[np.arange(out.shape[1]) < lens[:, None]] = text[text != 10]
    return out.T


def write_trajectory_csv(path, state: GrowthState) -> None:
    """CSV with columns step,k<1>,...,k<r>,star_activity."""
    if state.trajectory_x is None:
        raise ValueError("simulate with record=True before exporting a trajectory")
    ess = state.track
    x, star = state.trajectory_x, state.trajectory_star
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step," + ",".join(f"k{k}" for k in ess) + ",star_activity\n")
        row = "%d," + ",".join(["%d"] * len(ess)) + ",%.12g\n"
        fh.writelines(_formatted(row, np.arange(x.shape[0]), *x.T, star))


def _edge_lines(g: _GraphData, line: str) -> str:
    """``line`` % (x, y) for every edge, sorted by x then y: hooking edges
    as (min, max) pairs, bipolar arcs as (tail, head)."""
    x, y = g.edges()
    if g.kind == HOOKING:
        x, y = np.minimum(x, y), np.maximum(x, y)
    n = len(g.deg)
    key = np.sort(x * n + y)  # ascending (x, y), as 0 <= y < n
    return "".join(_formatted(line, *np.divmod(key, n)))


def export_dot(state: GrowthState) -> str:
    """DOT rendering of a graph-mode state (multi-edges repeated)."""
    g = state.graph
    if g is None:
        raise ValueError("DOT export needs graph mode")
    if state.kind == HOOKING:
        head, labels, edge = "graph G {\n", {MASTER: "H"}, "  v%d -- v%d;\n"
    else:
        head, labels, edge = "digraph G {\n", {MASTER: "N", g.master_sink: "S"}, "  v%d -> v%d;\n"
    parts, start = [head], 0
    for v in sorted(labels) + [len(g.deg)]:
        parts.extend(_formatted("  v%d;\n", np.arange(start, v)))
        if v in labels:
            parts.append(f'  v{v} [label="{labels[v]}"];\n')
        start = v + 1
    parts += [_edge_lines(g, edge), "}\n"]
    return "".join(parts)


def export_edge_list(state: GrowthState) -> str:
    """Plain text edge list of a graph-mode state, one edge per line."""
    g = state.graph
    if g is None:
        raise ValueError("edge-list export needs graph mode")
    return _edge_lines(g, "%d %d\n") or "\n"

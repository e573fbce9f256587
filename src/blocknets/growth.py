"""Network growth simulation.

Two modes share one random stream and one decision procedure, so they
produce identical census trajectories from the same seed:

* census mode tracks only the degree census (one int64 counter per degree
  value, exact also above the tracked range) plus the master vertex's
  degree and the running total attachment weight;
* graph mode additionally materializes the multigraph.  It runs the same
  census kernel, which also emits the latch class of each step, and then
  replays the vertex-level picks on the graph: the member of that class
  from the step's intra-class uniform and, for bipolar networks, the
  out-arc from its arc uniform.  The census, the master degree, the
  vertex count, the total activity and the recorded trajectory all come
  from the kernel, so the modes agree by construction; a recount of the
  census from the graph every ``SPOT_CHECK_INTERVAL`` steps guards the
  replay.

Per step the stream supplies one row of uniforms: class, intra-class
index, block, and (bipolar) arc index.  When the initial block is chosen
at random, a single extra uniform is drawn before the step loop.  Every
block choice, the initial one included, is ``_kernels.block_choice``.
Replicate streams are derived as ``SeedSequence((seed, replicate))``.
``grow_step`` is the same driver for one step; ``simulate_batch`` grows
many replicates at once and leaves each in the state ``simulate`` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _kernels
from .model_io import BIPOLAR, HOOKING, Block, BlockSet, degree_of
from .profile import essential_degrees

CHUNK_ROWS = 4096
# Rows per replicate drawn at a time by simulate_batch; small, so that a
# batch of a hundred replicates holds well under a megabyte of draws.
BATCH_ROWS = 256
SPOT_CHECK_INTERVAL = 1 << 16
DEFAULT_MAX_VERTICES = 10_000_000

GRAPH = "graph"
CENSUS = "census"


class ResourceLimitError(RuntimeError):
    """The simulated network outgrew the configured vertex budget."""


def backend_name() -> str:
    return _kernels.backend_name()


@dataclass
class _Tables:
    """Per-model constants consumed by the step kernels."""

    kind: str
    chi: float
    rho: float
    block_p: np.ndarray  # float64[m]
    block_d: np.ndarray  # int64[m], latch degree increment
    block_s: np.ndarray  # float64[m], total-activity increment
    block_nv: np.ndarray  # int64[m], new vertices per attachment
    nd_flat: np.ndarray  # int64, new-vertex degrees, all blocks concatenated
    nd_off: np.ndarray  # int64[m+1]
    ncols: int


def _build_tables(bs: BlockSet) -> _Tables:
    m = len(bs.blocks)
    block_p = np.array([float(b.probability) for b in bs.blocks], dtype=np.float64)
    block_d = np.array([b.latch_increment() for b in bs.blocks], dtype=np.int64)
    block_nv = np.array([len(b.new_vertices()) for b in bs.blocks], dtype=np.int64)
    chi, rho = float(bs.chi), float(bs.rho)
    degs: list[int] = []
    off = [0]
    s = np.empty(m, dtype=np.float64)
    for i, b in enumerate(bs.blocks):
        new_degs = [degree_of(b, v) for v in b.new_vertices()]
        degs.extend(new_degs)
        off.append(len(degs))
        # activity gained per attachment: full weight of each new vertex
        # plus chi * (latch increment) for the relabelled latch
        s[i] = chi * int(block_d[i])
        for c in new_degs:
            s[i] += chi * c + rho
    return _Tables(
        kind=bs.kind,
        chi=chi,
        rho=rho,
        block_p=block_p,
        block_d=block_d,
        block_s=s,
        block_nv=block_nv,
        nd_flat=np.array(degs, dtype=np.int64),
        nd_off=np.array(off, dtype=np.int64),
        ncols=4 if bs.kind == BIPOLAR else 3,
    )


class _Stream:
    """Block-buffered uniform stream with a documented draw order.

    The contract is the row order: step j consumes the j-th row of ncols
    consecutive doubles from the generator, whatever the size of the
    blocks they were drawn in (PCG64 doubles come out one after another,
    so ``random((4096, 3))`` equals eight ``random((512, 3))``).  Both
    modes refill whole (CHUNK_ROWS x ncols) blocks; ``simulate_batch``
    draws its rows straight into its own array with ``fill``.
    """

    def __init__(self, seed, ncols: int):
        if isinstance(seed, np.random.SeedSequence):
            ss = seed
        else:
            ss = np.random.SeedSequence(seed)
        self.gen = np.random.Generator(np.random.PCG64(ss))
        self.ncols = ncols
        self._buf = np.empty((0, ncols))
        self._pos = 0

    def initial_uniform(self) -> float:
        """The single pre-loop draw for a random initial block."""
        return float(self.gen.random())

    def take(self, max_rows: int) -> np.ndarray:
        """A view of up to max_rows consecutive unconsumed rows."""
        if self._pos >= self._buf.shape[0]:
            self._buf = self.gen.random((CHUNK_ROWS, self.ncols))
            self._pos = 0
        end = min(self._buf.shape[0], self._pos + max_rows)
        view = self._buf[self._pos : end]
        self._pos = end
        return view

    def fill(self, out: np.ndarray) -> None:
        """Draw the next out.shape[0] rows into ``out``, past the buffer."""
        if self._pos < self._buf.shape[0]:
            raise RuntimeError("fill() needs a stream with no buffered rows")
        self.gen.random(out=out)


@dataclass
class _GraphData:
    """Materialized multigraph (graph mode only)."""

    kind: str
    next_id: int = 0
    master: int = 0
    master_sink: Optional[int] = None
    deg: dict = field(default_factory=dict)  # vertex -> tracked degree
    adj: dict = field(default_factory=dict)  # hooking: v -> {u: multiplicity}
    out_adj: dict = field(default_factory=dict)  # bipolar: v -> [heads]
    in_deg: dict = field(default_factory=dict)  # bipolar only
    members: dict = field(default_factory=dict)  # degree -> [non-master vertices]
    mpos: dict = field(default_factory=dict)  # vertex -> index in its class list

    def new_vertex(self) -> int:
        vid = self.next_id
        self.next_id += 1
        return vid

    def class_add(self, v: int, c: int) -> None:
        lst = self.members.setdefault(c, [])
        self.mpos[v] = len(lst)
        lst.append(v)

    def class_move(self, v: int, old: int, new: int) -> None:
        lst = self.members[old]
        i = self.mpos[v]
        last = lst[-1]
        lst[i] = last
        self.mpos[last] = i
        lst.pop()
        self.class_add(v, new)

    def add_edge(self, x: int, y: int) -> None:
        if self.kind == HOOKING:
            self.adj.setdefault(x, {})[y] = self.adj.setdefault(x, {}).get(y, 0) + 1
            if x != y:
                self.adj.setdefault(y, {})[x] = self.adj.setdefault(y, {}).get(x, 0) + 1
        else:
            self.out_adj.setdefault(x, []).append(y)
            self.in_deg[y] = self.in_deg.get(y, 0) + 1

    def recount_degree(self, v: int) -> int:
        if self.kind == HOOKING:
            nbrs = self.adj.get(v, {})
            return sum(m for u, m in nbrs.items() if u != v) + 2 * nbrs.get(v, 0)
        return len(self.out_adj.get(v, []))

    def census(self) -> dict[int, int]:
        """Degree census of the non-pole vertices, counted from ``deg``."""
        out: dict[int, int] = {}
        for v, c in self.deg.items():
            if v != self.master and v != self.master_sink:
                out[c] = out.get(c, 0) + 1
        return out

    def attach(self, block: Block, new, d: int, latch: int, arc_index: int) -> None:
        """Fuse ``block`` in at ``latch``, whose degree grows by d; ``new``
        pairs each new vertex of the block with its degree.  A bipolar
        block replaces the latch's ``arc_index``-th out-arc."""
        old = self.deg[latch]
        if self.kind == HOOKING:
            vmap = {block.hook: latch}
        else:
            arcs = self.out_adj[latch]
            head = arcs[arc_index]
            last = arcs.pop()
            if arc_index < len(arcs):
                arcs[arc_index] = last
            self.in_deg[head] -= 1
            vmap = {block.north: latch, block.south: head}

        for v, c in new:
            vid = self.new_vertex()
            vmap[v] = vid
            self.deg[vid] = c
            if self.kind == BIPOLAR:
                self.in_deg.setdefault(vid, 0)
            self.class_add(vid, c)
        for x, y in block.edges:
            self.add_edge(vmap[x], vmap[y])

        self.deg[latch] = old + d
        if latch != self.master and d > 0:
            self.class_move(latch, old, old + d)


@dataclass
class GrowthState:
    """Evolving simulation state; mutated in place by grow_step."""

    bs: BlockSet
    mode: str
    step: int
    counts: np.ndarray  # int64, counts[k] = non-master vertices of degree k
    max_deg: int
    master_degree: int
    total_activity: float
    n_vertices: int
    tables: _Tables
    stream: _Stream
    graph: Optional[_GraphData] = None
    track: Optional[tuple[int, ...]] = None
    trajectory_x: Optional[np.ndarray] = None
    trajectory_star: Optional[np.ndarray] = None
    max_vertices: int = DEFAULT_MAX_VERTICES
    backend: Optional[str] = None

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

    def recount_total_activity(self) -> float:
        t = self.tables
        total = t.chi * self.master_degree + t.rho
        for k in range(1, self.max_deg + 1):
            total += (t.chi * k + t.rho) * int(self.counts[k])
        return total


def _census_counts_of_block(block: Block, exclude: Iterable[str]) -> dict[int, int]:
    out: dict[int, int] = {}
    skip = set(exclude)
    for v in block.vertices:
        if v in skip:
            continue
        c = degree_of(block, v)
        out[c] = out.get(c, 0) + 1
    return out


def _counts_array(census: dict[int, int]) -> tuple[np.ndarray, int]:
    """The kernels' counts array for a census, and its maximum degree."""
    max_deg = max(census) if census else 0
    counts = np.zeros(max(64, max_deg + 2), dtype=np.int64)
    for k, c in census.items():
        counts[k] = c
    return counts, max_deg


def init_state(
    bs: BlockSet,
    mode: str = CENSUS,
    seed=0,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    backend: Optional[str] = None,
) -> GrowthState:
    """State holding a copy of the initial block, master vertices marked and
    excluded from the census."""
    if mode not in (GRAPH, CENSUS):
        raise ValueError(f"mode must be 'graph' or 'census', got {mode!r}")
    tables = _build_tables(bs)
    stream = _Stream(seed, tables.ncols)

    if bs.initial_block == "random":
        b0 = int(_kernels.block_choice(tables.block_p, stream.initial_uniform()))
    else:
        b0 = int(bs.initial_block)
    block = bs.blocks[b0]

    if bs.kind == HOOKING:
        excluded = [block.hook]
        master_degree = block.degree(block.hook)
    else:
        excluded = [block.north, block.south]
        master_degree = block.outdegree(block.north)

    counts, max_deg = _counts_array(_census_counts_of_block(block, excluded))

    graph = None
    if mode == GRAPH:
        graph = _GraphData(kind=bs.kind)
        vmap = {v: graph.new_vertex() for v in block.vertices}
        for x, y in block.edges:
            graph.add_edge(vmap[x], vmap[y])
        for v in block.vertices:
            vid = vmap[v]
            graph.deg[vid] = degree_of(block, v)
            if bs.kind == BIPOLAR:
                graph.in_deg.setdefault(vid, 0)
        if bs.kind == HOOKING:
            graph.master = vmap[block.hook]
        else:
            graph.master = vmap[block.north]
            graph.master_sink = vmap[block.south]
        skip = {graph.master, graph.master_sink}
        for v in block.vertices:
            vid = vmap[v]
            if vid not in skip:
                graph.class_add(vid, graph.deg[vid])

    state = GrowthState(
        bs=bs,
        mode=mode,
        step=0,
        counts=counts,
        max_deg=max_deg,
        master_degree=master_degree,
        total_activity=0.0,
        n_vertices=len(block.vertices),
        tables=tables,
        stream=stream,
        graph=graph,
        max_vertices=max_vertices,
        backend=backend,
    )
    state.total_activity = state.recount_total_activity()
    return state


def _fusion(state: GrowthState, b: int) -> tuple:
    """``_GraphData.attach``'s block, new vertices with their degrees (from
    the kernels' tables) and latch increment for block b."""
    t = state.tables
    block = state.bs.blocks[b]
    degs = t.nd_flat[t.nd_off[b] : t.nd_off[b + 1]].tolist()
    return block, list(zip(block.new_vertices(), degs)), int(t.block_d[b])


def _replay(state: GrowthState, u: np.ndarray, b: np.ndarray, cls: np.ndarray) -> None:
    """Apply the census kernel's choices for the rows ``u`` to the graph:
    block ``b[j]`` at the member of class ``cls[j]`` picked by column 1 (the
    master when the class is -1) and, bipolar, at the out-arc picked by
    column 3."""
    g = state.graph
    fuse = [_fusion(state, i) for i in range(len(state.bs.blocks))]
    bipolar = state.kind == BIPOLAR
    for row, bj, c in zip(u.tolist(), b.tolist(), cls.tolist()):
        if c == -1:
            latch = g.master
        else:
            members = g.members[c]
            latch = members[min(int(row[1] * len(members)), len(members) - 1)]
        arc_index = 0
        if bipolar:
            outd = g.deg[latch]
            arc_index = min(int(row[3] * outd), outd - 1)
        g.attach(*fuse[bj], latch, arc_index)


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
    Nothing is recorded."""
    _advance(state, 1, record=False)
    return state


def grow_step_scripted(
    state: GrowthState, latch: int, block_index: int, arc_index: int = 0
) -> GrowthState:
    """Deterministic step with explicit choices (graph mode; consumes no
    randomness).  Intended for building reference networks in tests."""
    if state.mode != GRAPH:
        raise ValueError("scripted growth needs graph mode")
    t, g = state.tables, state.graph
    _check_vertex_limit(
        _vertex_counts(state.n_vertices, t, [block_index]), state.step, state.max_vertices
    )
    g.attach(*_fusion(state, block_index), latch, arc_index)
    state.counts, state.max_deg = _counts_array(g.census())
    state.master_degree = g.deg[g.master]
    state.n_vertices = len(g.deg)
    state.total_activity += float(t.block_s[block_index])
    state.step += 1
    return state


def _vertex_counts(n_vertices, tables: _Tables, b) -> np.ndarray:
    """The vertex count after each step of the block choices ``b`` (steps
    along the last axis; a leading axis holds replicates).  It depends only
    on the block choices, so it is known before the census is grown."""
    return np.asarray(n_vertices)[..., None] + np.cumsum(tables.block_nv[b], axis=-1)


def _check_vertex_limit(nv, step: int, limit: int) -> None:
    """Raise ResourceLimitError at the first step whose vertex count in
    ``nv`` (from ``_vertex_counts``, steps ``step + 1, ...``) exceeds limit."""
    over = nv > limit
    if over.any():
        j = int(over.reshape(-1, over.shape[-1]).any(axis=0).argmax())
        count = int(nv[..., j].max())
        raise ResourceLimitError(
            f"vertex count {count} exceeds limit {limit} at step {step + j + 1}"
        )


def _advance(state: GrowthState, n: int, record: bool) -> None:
    """Advance ``state`` by n steps through the chunked census kernel and,
    if ``record``, store the tracked census after each step.

    In graph mode the kernel also emits each step's latch class and
    ``_replay`` applies the steps to the graph.  Its chunks end at every
    multiple of ``SPOT_CHECK_INTERVAL``, where ``_spot_check`` runs."""
    t, g = state.tables, state.graph
    ess = np.array(state.track if record else (), dtype=np.int64)
    no_x = np.empty((0, ess.shape[0]), dtype=np.int64)
    no_star = np.empty(0, dtype=np.float64)
    state_i = np.array(
        [state.max_deg, state.master_degree, state.n_vertices], dtype=np.int64
    )
    state_f = np.array([state.total_activity], dtype=np.float64)

    end = state.step + n
    while state.step < end:
        want = end - state.step
        if g is not None:
            want = min(want, SPOT_CHECK_INTERVAL - state.step % SPOT_CHECK_INTERVAL)
        rows = state.stream.take(want)
        b = _kernels.block_choice(t.block_p, rows[:, 2])
        _check_vertex_limit(
            _vertex_counts(state_i[2], t, b), state.step, state.max_vertices
        )
        cls = np.empty(rows.shape[0] if g is not None else 0, dtype=np.int64)
        offset = 0
        while offset < rows.shape[0]:
            if record:
                x_out = state.trajectory_x[state.step + 1 + offset :]
                star_out = state.trajectory_star[state.step + 1 + offset :]
            else:
                x_out, star_out = no_x, no_star
            done, status = _kernels.census_chunk(
                state.counts,
                state_i,
                state_f,
                t.chi,
                t.rho,
                t.block_d,
                t.block_s,
                t.block_nv,
                t.nd_flat,
                t.nd_off,
                rows[offset:, 0],
                b[offset:],
                ess,
                x_out,
                star_out,
                cls[offset:],
                record,
                backend=state.backend,
            )
            offset += done
            if status == _kernels.STATUS_GROW:
                state.counts = np.concatenate(
                    [state.counts, np.zeros(state.counts.shape[0], dtype=np.int64)]
                )
        if g is not None:
            _replay(state, rows, b, cls)
        state.step += rows.shape[0]
        state.max_deg, state.master_degree, state.n_vertices = (int(v) for v in state_i)
        state.total_activity = float(state_f[0])
        if g is not None and state.step % SPOT_CHECK_INTERVAL == 0:
            _spot_check(state)


def census_vector(state: GrowthState, essential: Sequence[int]) -> tuple[np.ndarray, float]:
    """Counts of the tracked degree classes plus the aggregate attachment
    weight carried by everything else (overflow degrees and the master)."""
    x = np.array([int(state.counts[k]) if k <= state.max_deg else 0 for k in essential])
    t = state.tables
    star = state.total_activity - (t.chi * state.master_degree + t.rho)
    for k, xi in zip(essential, x):
        star -= (t.chi * k + t.rho) * int(xi)
    return x, star


def simulate(
    bs: BlockSet,
    n: int,
    mode: str = CENSUS,
    seed=0,
    record: bool = False,
    track: Optional[Sequence[int]] = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    backend: Optional[str] = None,
) -> GrowthState:
    """Run n growth steps; deterministic given (bs, n, mode, seed).

    With record=True the census vector of the tracked classes (by default
    the model's r essential degrees) is stored after every step.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    state = init_state(bs, mode, seed, max_vertices=max_vertices, backend=backend)
    if record:
        ess = tuple(track) if track is not None else essential_degrees(bs, bs.r)
        state.track = ess
        # the kernel reads each tracked class straight from the counts
        top = max(ess, default=0)
        if top >= state.counts.shape[0]:
            state.counts = np.pad(state.counts, (0, top + 1 - state.counts.shape[0]))
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
    the same census, degrees, vertex count, total activity (to the bit)
    and stream position.  Nothing is recorded.  Without numba the
    replicates grow in lock step through ``_kernels.census_batch``; with
    numba, one compiled ``simulate`` per seed is faster.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if _kernels.backend_name() == "numba":
        return [simulate(bs, n, seed=s, max_vertices=max_vertices) for s in seeds]
    states = [init_state(bs, CENSUS, s, max_vertices) for s in seeds]
    if not states:
        return states
    t = states[0].tables
    counts = np.zeros((len(states), max(s.counts.shape[0] for s in states)), dtype=np.int64)
    for r, s in enumerate(states):
        counts[r, : s.counts.shape[0]] = s.counts
    state_i = np.array([[s.max_deg, s.master_degree] for s in states], dtype=np.int64)
    state_f = np.array([s.total_activity for s in states], dtype=np.float64)
    n_vertices = np.array([s.n_vertices for s in states], dtype=np.int64)

    draws = np.empty((len(states), min(n, BATCH_ROWS), t.ncols))
    for step in range(0, n, BATCH_ROWS):
        u = draws[:, : min(BATCH_ROWS, n - step)]
        for r, s in enumerate(states):
            s.stream.fill(u[r])
        b = _kernels.block_choice(t.block_p, u[:, :, 2])
        nv = _vertex_counts(n_vertices, t, b)
        _check_vertex_limit(nv, step, max_vertices)
        counts = _kernels.census_batch(
            counts, state_i, state_f, t.chi, t.rho, t.block_d, t.block_s,
            t.nd_flat, t.nd_off, u, b,
        )  # fmt: skip
        n_vertices = nv[:, -1]

    for r, s in enumerate(states):
        s.counts = counts[r].copy()
        s.max_deg, s.master_degree = (int(v) for v in state_i[r])
        s.n_vertices = int(n_vertices[r])
        s.total_activity = float(state_f[r])
        s.step = n
    return states


def write_trajectory_csv(path, state: GrowthState) -> None:
    """CSV with columns step,k<1>,...,k<r>,star_activity."""
    if state.trajectory_x is None:
        raise ValueError("simulate with record=True before exporting a trajectory")
    ess = state.track
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step," + ",".join(f"k{k}" for k in ess) + ",star_activity\n")
        for i in range(state.trajectory_x.shape[0]):
            row = ",".join(str(int(x)) for x in state.trajectory_x[i])
            fh.write(f"{i},{row},{state.trajectory_star[i]:.12g}\n")


def export_dot(state: GrowthState) -> str:
    """DOT rendering of a graph-mode state (multi-edges repeated)."""
    g = state.graph
    if g is None:
        raise ValueError("DOT export needs graph mode")
    lines = []
    if state.kind == HOOKING:
        lines.append("graph G {")
        for v in sorted(g.deg):
            label = ' [label="H"]' if v == g.master else ""
            lines.append(f"  v{v}{label};")
        for v in sorted(g.adj):
            for u, mult in sorted(g.adj[v].items()):
                if u < v:
                    continue
                for _ in range(mult):
                    lines.append(f"  v{v} -- v{u};")
    else:
        lines.append("digraph G {")
        for v in sorted(g.deg):
            label = ""
            if v == g.master:
                label = ' [label="N"]'
            elif v == g.master_sink:
                label = ' [label="S"]'
            lines.append(f"  v{v}{label};")
        for v in sorted(g.out_adj):
            for u in sorted(g.out_adj[v]):
                lines.append(f"  v{v} -> v{u};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_edge_list(state: GrowthState) -> str:
    """Plain text edge list of a graph-mode state, one edge per line."""
    g = state.graph
    if g is None:
        raise ValueError("edge-list export needs graph mode")
    lines = []
    if state.kind == HOOKING:
        for v in sorted(g.adj):
            for u, mult in sorted(g.adj[v].items()):
                if u < v:
                    continue
                for _ in range(mult):
                    lines.append(f"{v} {u}")
    else:
        for v in sorted(g.out_adj):
            for u in sorted(g.out_adj[v]):
                lines.append(f"{v} {u}")
    return "\n".join(lines) + "\n"

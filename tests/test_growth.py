"""Growth simulation: init states, coupling, determinism, graph exports."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocknets import (
    BlockSetError,
    ResourceLimitError,
    build_profile,
    build_urn,
    census_vector,
    export_dot,
    export_edge_list,
    grow_step,
    grow_step_scripted,
    init_state,
    reverse_bipolar,
    simulate,
    simulate_batch,
    write_trajectory_csv,
)
from blocknets import _kernels
from blocknets import growth as growth_mod
from blocknets.growth import BATCH_ROWS, CHUNK_ROWS
from blocknets.model_io import blockset_from_dict
from blocknets.profile import essential_degrees

from conftest import random_blockset


def test_init_census_fig1(fig1):
    st = init_state(fig1, "census", seed=0)
    assert st.census() == {1: 2, 3: 2}
    assert st.master_degree == 2
    assert st.n_vertices == 5
    assert st.total_activity == st.recount_total_activity() == 10.0


def test_init_census_fig3(fig3):
    st = init_state(fig3, "census", seed=0)
    assert st.census() == {1: 2, 3: 1}
    assert st.master_degree == 1  # master source outdegree
    assert st.n_vertices == 5


def test_init_census_k2(k2):
    st = init_state(k2, "census", seed=0)
    assert st.census() == {1: 1}
    assert st.master_degree == 1


def test_k2_adds_one_vertex_per_step(k2):
    st = simulate(k2, 250, mode="census", seed=3)
    assert st.n_vertices == 252
    assert st.step == 250


def test_step_activity_increment_is_a_balance_constant(fig1):
    prof = build_profile(fig1)
    s_values = {float(x) for x in prof.balance.s}
    st = init_state(fig1, "census", seed=11)
    for _ in range(200):
        before = st.total_activity
        grow_step(st)
        delta = st.total_activity - before
        assert any(abs(delta - s) < 1e-9 for s in s_values)


def test_zero_steps_is_initial_state(fig1):
    a = init_state(fig1, "census", seed=5)
    b = simulate(fig1, 0, mode="census", seed=5)
    assert a.census() == b.census() and b.step == 0


def _assert_census_is_graph_recount(st):
    """The census and the master degree of a graph-mode state equal a
    recount from the edges, independent of the kernel and of ``deg``."""
    g = st.graph
    deg = g.recount_degrees()
    assert deg.shape[0] == st.n_vertices
    recount = {}
    for v, c in enumerate(deg.tolist()):
        if v not in (growth_mod.MASTER, g.master_sink):
            recount[c] = recount.get(c, 0) + 1
    assert recount == st.census()
    assert deg[growth_mod.MASTER] == st.master_degree


@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_graph_census_coupling(name, request):
    bs = request.getfixturevalue(name)
    a = simulate(bs, 2500, mode="census", seed=321, record=True)
    b = simulate(bs, 2500, mode="graph", seed=321, record=True)
    assert np.array_equal(a.trajectory_x, b.trajectory_x)
    assert np.array_equal(a.trajectory_star, b.trajectory_star)
    assert a.census() == b.census()
    assert a.master_degree == b.master_degree
    assert a.n_vertices == b.n_vertices
    _assert_census_is_graph_recount(b)


def test_track_beyond_counts_capacity(k2):
    # at r = 64 the top class, 64, lies past the initial 64 counters
    # (degrees 0..63) and is never reached
    bs = replace(k2, r=64)
    a = simulate(bs, 100, mode="census", seed=0, record=True)
    b = simulate(bs, 100, mode="graph", seed=0, record=True)
    assert a.track[-1] == len(a.counts) == 64
    assert np.array_equal(a.trajectory_x, b.trajectory_x)
    assert np.array_equal(a.trajectory_star, b.trajectory_star)
    assert not a.trajectory_x[:, -1].any()


@pytest.mark.parametrize("mode", ["census", "graph"])
@pytest.mark.parametrize(
    "name, chi, rho",
    [("fig1", F(1, 3), F(1, 7)), ("fig3", F(1, 3), F(1, 7)), ("fig1", F(1, 2**53 + 1), F(0))],
    ids=["hooking", "bipolar", "hooking-S-past-2**53"],
)
def test_recorded_trajectory_across_chunks(name, chi, rho, mode, request):
    """The trajectory rows rebuilt after each chunk from the emitted latch
    classes continue across chunk boundaries: a shorter run's trajectory is
    a prefix of a longer one's, and each last row is ``census_vector`` of
    the final state, whose star activity divides the exact integer once.
    S = 21 makes that division inexact; S past 2**53 is not a binary64
    integer.  The run tracks r = 64 classes: the model's own three are
    reached, and the top one (127 on fig1, 64 on fig3) never is."""
    base = request.getfixturevalue(name)
    bs = replace(base, chi=chi, rho=rho, r=64)
    track = essential_degrees(bs, bs.r)
    n1, n2 = CHUNK_ROWS + 1000, 2 * CHUNK_ROWS + 300
    a = simulate(bs, n1, mode=mode, seed=17, record=True)
    b = simulate(bs, n2, mode=mode, seed=17, record=True)
    assert np.array_equal(a.trajectory_x, b.trajectory_x[: n1 + 1])
    assert np.array_equal(a.trajectory_star, b.trajectory_star[: n1 + 1])
    for st in (a, b):
        x, star = census_vector(st, track)
        assert np.array_equal(st.trajectory_x[-1], x)
        assert st.trajectory_star[-1] == star
    assert not b.trajectory_x[:, -1].any()
    assert b.trajectory_x[:, : base.r].any(axis=0).all()


def test_capacity_growth_mid_run(k2, tmp_path):
    """Degree-proportional latching pushes the maximum degree well past the
    64 initial counters, so the kernel doubles its counts mid-chunk; the
    pinned trajectory and the graph recount check the grown census."""
    pa = replace(k2, chi=F(1), rho=F(0))
    st = simulate(pa, 20_000, mode="census", seed=5, record=True)
    assert st.max_deg > 64
    assert st.counts.shape[0] == 512  # doubled from 64, three times
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, st)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "f1282a2bc4c9d90f"
    g = simulate(pa, 20_000, mode="graph", seed=5)
    assert g.census() == st.census()
    _assert_census_is_graph_recount(g)


def test_determinism(fig3):
    a = simulate(fig3, 3000, mode="census", seed=9, record=True)
    b = simulate(fig3, 3000, mode="census", seed=9, record=True)
    assert np.array_equal(a.trajectory_x, b.trajectory_x)
    assert a.total_activity == b.total_activity
    assert a.census() == b.census()
    c = simulate(fig3, 3000, mode="census", seed=10, record=True)
    assert not np.array_equal(a.trajectory_x, c.trajectory_x)


@pytest.mark.parametrize("mode", ["census", "graph"])
def test_stepwise_equals_bulk(mode, fig1):
    bulk = simulate(fig1, 300, mode=mode, seed=4)
    st = init_state(fig1, mode, seed=4)
    for _ in range(300):
        grow_step(st)
    assert st.step == 300
    assert st.census() == bulk.census()
    assert st.total_activity.hex() == bulk.total_activity.hex()
    if mode == "graph":
        assert export_edge_list(st) == export_edge_list(bulk)


def test_scripted_reference_sequence(fig1):
    """The documented 3-step example: a 5-cycle-like base block, then the
    8-edge block on the right leaf, the star block on the left leaf, and
    the path block back on the first latch."""
    st = init_state(fig1, "graph", seed=0)
    # ids follow block vertex order: 0=h3 (master), 1..4 = a..d
    grow_step_scripted(st, latch=4, block_index=3)  # G4 at the right leaf
    grow_step_scripted(st, latch=1, block_index=1)  # G2 at the left leaf
    grow_step_scripted(st, latch=4, block_index=0)  # G1 at the same latch
    assert st.n_vertices == 15
    assert st.census() == {1: 6, 3: 6, 5: 1, 7: 1}
    x, star = census_vector(st, (1, 3, 5))
    assert x.tolist() == [6, 6, 1]
    assert star == pytest.approx(7.0)  # one vertex of degree 7 past the tracked range
    dot = export_dot(st)
    assert dot.count(" -- ") == 19
    assert dot.count('label="H"') == 1
    edges = export_edge_list(st).strip().splitlines()
    assert len(edges) == 19


def test_scripted_bipolar_arc_choice(fig3):
    """Which out-arc a bipolar block replaces.  Ids 0-4 are n1, m, t, b, s1
    of the initial block B1, so m (1) starts with the arcs to t, b, s1."""
    st = init_state(fig3, "graph", seed=0)
    grow_step_scripted(st, latch=1, block_index=1, arc_index=1)  # B2 for m -> b
    grow_step_scripted(st, latch=0, block_index=0, arc_index=0)  # B1 for n1 -> m
    # m's arcs are now t, s1 (swap-removed into place), 5, 6: B1 for m -> 6
    grow_step_scripted(st, latch=1, block_index=0, arc_index=3)
    assert export_edge_list(st) == (
        "0 7\n1 2\n1 4\n1 5\n1 10\n2 4\n3 4\n5 3\n5 6\n6 3\n6 5\n"
        "7 1\n7 8\n7 9\n8 1\n9 1\n10 6\n10 11\n10 12\n11 6\n12 6\n"
    )
    assert st.census() == {1: 6, 2: 2, 3: 2, 4: 1}
    assert (st.master_degree, st.n_vertices) == (1, 13)
    with pytest.raises(IndexError):
        grow_step_scripted(st, latch=1, block_index=0, arc_index=4)


@pytest.mark.parametrize("block_index", [-1, 2])
def test_scripted_step_refuses_a_block_outside_the_model(fig3, block_index):
    """fig3 has blocks 0 and 1; any other index, a negative one included,
    is refused before the network changes."""
    st = init_state(fig3, "graph", seed=0)
    before = (export_edge_list(st), st.census(), st.step, st.n_vertices, st.activity)
    with pytest.raises(IndexError, match=f"block {block_index} "):
        grow_step_scripted(st, latch=1, block_index=block_index)
    assert (export_edge_list(st), st.census(), st.step, st.n_vertices, st.activity) == before


@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_scripted_and_drawn_steps_interleave(name, request):
    """Scripted steps go through the census kernel like drawn ones: the
    kernel's class scan must land on the scripted latch's class, so after
    every step the census equals the recount from the graph, and the
    scripted latch has moved by its block's increment."""
    bs = request.getfixturevalue(name)
    st = init_state(bs, "graph", seed=6)
    g, pick = st.graph, random.Random(6)
    for step in range(400):
        if step % 3:
            grow_step(st)
        else:
            latch = pick.choice([v for v in range(st.n_vertices) if v != g.master_sink])
            block = pick.randrange(len(bs.blocks))
            old = g.deg[latch]
            grow_step_scripted(st, latch, block, arc_index=pick.randrange(old))
            assert g.deg[latch] == old + bs.blocks[block].latch_increment()
        _assert_census_is_graph_recount(st)
        assert st.activity == st.recount_activity()
    assert st.step == 400


def test_census_vector_identity(fig1, fig3):
    for bs in (fig1, fig3):
        prof = build_profile(bs)
        st = simulate(bs, 5000, mode="census", seed=13)
        x, star = census_vector(st, prof.essential)
        w = lambda k: float(prof.w(k))
        total = sum(w(k) * int(c) for k, c in zip(prof.essential, x))
        total += star + w(st.master_degree)
        assert total == pytest.approx(st.total_activity, rel=1e-9)
        assert star == pytest.approx(
            sum(w(k) * c for k, c in st.census().items() if k > prof.essential[-1]),
            rel=1e-9,
        )


def test_hooking_graph_degree_sum(fig1):
    st = simulate(fig1, 400, mode="graph", seed=21)
    g = st.graph
    x, y = g.edges()
    assert len(g.deg) == st.n_vertices
    assert sum(g.deg) == 2 * len(x) == 2 * len(y)
    assert g.recount_degrees().tolist() == g.deg
    # the recount reads the edge log, not deg: a logged self-loop counts 2
    g.ends.extend([0, 0])
    assert g.recount_degrees()[0] == g.deg[0] + 2


def test_bipolar_graph_invariants(fig3):
    st = simulate(fig3, 400, mode="graph", seed=22)
    g = st.graph
    sinks = [v for v, d in enumerate(g.deg) if d == 0]
    assert sinks == [g.master_sink]
    tails, heads = g.edges()
    assert np.bincount(heads, minlength=len(g.deg))[growth_mod.MASTER] == 0
    assert g.recount_degrees().tolist() == g.deg
    assert len(tails) == sum(len(a) for a in g.out) == sum(g.deg)


@pytest.mark.parametrize("chi, rho, agrees", [(1, 0, True), (0, 1, False)], ids=["rho0", "fig3"])
def test_reverse_bipolar_predicts_indegrees_only_at_rho_0(fig3, chi, rho, agrees):
    """Over 12 graph-mode runs of 2000 steps, the count of non-pole
    vertices of each tracked indegree k, per step, is lambda1 * nu_k of
    ``reverse_bipolar(bs)`` to within 4 standard errors, each taken from
    the reversed model's limit covariance, when rho = 0: the latch step
    picks an arc uniformly.  fig3's own chi = 0, rho = 1 misses the same
    gate by far (|z| reaches 46 here): ``reverse_bipolar`` refuses it, so
    its prediction is taken from the reversal of its rho = 0 twin, with
    fig3's chi and rho put back."""
    bs = replace(fig3, chi=F(chi), rho=F(rho))
    if rho != 0:
        with pytest.raises(BlockSetError, match="param-domain"):
            reverse_bipolar(bs)
    twin = reverse_bipolar(replace(bs, chi=F(1), rho=F(0)))
    urn = build_urn(replace(twin, chi=bs.chi, rho=bs.rho))
    n, runs = 2000, 12
    counts = np.zeros(urn.r)
    for seed in range(runs):
        g = simulate(bs, n, mode="graph", seed=seed).graph
        indeg = np.bincount(g.edges()[1], minlength=len(g.deg))
        indeg[[growth_mod.MASTER, g.master_sink]] = 0
        counts += [np.count_nonzero(indeg == k) for k in urn.profile.essential]
    predicted = np.array([float(urn.profile.lambda1 * v) for v in urn.profile.limit])
    z = (counts / (n * runs) - predicted) / np.sqrt(np.diag(urn.sigma_census()) / (n * runs))
    assert (np.abs(z).max() < 4) == agrees, z


def test_bipolar_dot_export(fig3):
    st = simulate(fig3, 10, mode="graph", seed=2)
    dot = export_dot(st)
    assert dot.startswith("digraph")
    assert dot.count(" -> ") == sum(len(a) for a in st.graph.out)
    assert 'label="N"' in dot and 'label="S"' in dot


@pytest.mark.parametrize(
    "name, digest",
    [
        ("fig1", "a2537622455757fe"),
        ("fig3", "748377977857fb2c"),
        ("k2", "486a88c0620285ce"),
        ("fig1-random-initial", "14eca469deb56cf2"),
    ],
)
def test_graph_edge_list_is_pinned(name, digest, fig1, fig3, k2):
    """The census does not see which member of a class is the latch, or
    which out-arc a bipolar block replaces; these pinned edge lists do."""
    bs = _batch_models(fig1, fig3, k2)[name]
    edges = export_edge_list(simulate(bs, 200, mode="graph", seed=3))
    assert hashlib.sha256(edges.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "name, digest",
    [
        ("fig1", "741656e48608e54c"),
        ("fig3", "ea92f692a64da3f6"),
        ("k2", "f07291a21e8055d4"),
    ],
)
def test_graph_dot_is_pinned(name, digest, fig1, fig3, k2):
    """Vertex lines, pole labels and the sorted edges of the DOT export."""
    bs = _batch_models(fig1, fig3, k2)[name]
    dot = export_dot(simulate(bs, 200, mode="graph", seed=3))
    assert hashlib.sha256(dot.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("name, digest", [("fig1", "a2c3497454c5b8e2"), ("fig3", "3afbd6e08f3f30d2")])
def test_trajectory_csv_is_pinned(name, digest, tmp_path, request):
    st = simulate(request.getfixturevalue(name), 2000, mode="census", seed=3, record=True)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, st)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_writers_do_not_depend_on_write_rows(name, monkeypatch, tmp_path, request):
    """The writers format WRITE_ROWS rows per template; the bytes must not
    depend on where those blocks end."""
    st = simulate(request.getfixturevalue(name), 50, mode="graph", seed=5, record=True)

    def outputs(path):
        write_trajectory_csv(path, st)
        return path.read_bytes(), export_dot(st), export_edge_list(st)

    whole = outputs(tmp_path / "whole.csv")
    monkeypatch.setattr(growth_mod, "WRITE_ROWS", 7)
    assert outputs(tmp_path / "blocks.csv") == whole


def test_trajectory_csv(tmp_path, fig1):
    st = simulate(fig1, 100, mode="census", seed=6, record=True)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, st)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,k1,k3,k5,star_activity"
    assert len(lines) == 102  # header + 101 states
    assert lines[1].startswith("0,2,2,0,")


def test_graph_spot_check_runs(monkeypatch, fig3):
    checked = []

    def counting_check(state):
        checked.append(state.step)
        spot_check(state)

    spot_check = growth_mod._spot_check
    monkeypatch.setattr(growth_mod, "SPOT_CHECK_INTERVAL", 64)
    monkeypatch.setattr(growth_mod, "_spot_check", counting_check)
    st = simulate(fig3, 300, mode="graph", seed=14)
    assert st.step == 300
    assert checked == [64, 128, 192, 256]

    # a vertex the census does not know about: the next recount catches it
    st = simulate(fig3, 60, mode="graph", seed=14)
    g = st.graph
    g.deg.append(1)
    g.mpos.append(-1)
    g.out.append([])
    for _ in range(3):
        grow_step(st)
    with pytest.raises(AssertionError, match="census diverged"):
        grow_step(st)
    assert checked[4:] == [64]


def test_resource_limit(k2):
    # k2 starts with 2 vertices and adds one per step: step 99 makes 101
    for mode in ("census", "graph"):
        with pytest.raises(ResourceLimitError, match="vertex count 101 exceeds limit 100 at step 99$"):
            simulate(k2, 1000, mode=mode, seed=0, max_vertices=100)
    seeds = [np.random.SeedSequence((0, k)) for k in range(3)]
    with pytest.raises(ResourceLimitError, match="vertex count 101 exceeds limit 100 at step 99$"):
        simulate_batch(k2, 1000, seeds, max_vertices=100)
    assert simulate_batch(k2, 98, seeds, max_vertices=100)[0].n_vertices == 100


def test_initial_block_is_held_to_the_vertex_limit(k2, fig3):
    """The initial block is the network at step 0: a limit below its size
    is refused before any step, whatever the number of steps."""
    seeds = [np.random.SeedSequence((0, k)) for k in range(3)]
    for bs, size in ((k2, 2), (fig3, 5)):
        message = f"vertex count {size} exceeds limit {size - 1} at step 0$"
        with pytest.raises(ResourceLimitError, match=message):
            init_state(bs, max_vertices=size - 1)
        for n in (0, 3):
            for mode in ("census", "graph"):
                with pytest.raises(ResourceLimitError, match=message):
                    simulate(bs, n, mode=mode, max_vertices=size - 1)
            with pytest.raises(ResourceLimitError, match=message):
                simulate_batch(bs, n, seeds, max_vertices=size - 1)
        assert simulate(bs, 0, max_vertices=size).n_vertices == size


def test_batch_names_the_step_that_crosses_the_vertex_limit(fig1):
    """fig1's blocks add different numbers of vertices, so its replicates
    reach different counts.  Under a limit that one replicate in the
    middle of the batch crosses, in the third row block, ``simulate_batch``
    raises the message that ``simulate`` raises for that replicate, which
    names the step."""
    seeds = [np.random.SeedSequence((47, k)) for k in range(4)]
    n = 3 * BATCH_ROWS
    ends = [simulate(fig1, n, seed=s).n_vertices for s in seeds]
    limit = sorted(ends)[-2]
    over = ends.index(max(ends))
    assert 0 < over < len(seeds) - 1 and ends.count(limit) == 1
    with pytest.raises(ResourceLimitError) as raised:
        simulate(fig1, n, seed=seeds[over], max_vertices=limit)
    message = str(raised.value)
    assert 2 * BATCH_ROWS < int(message.rsplit(" ", 1)[1]) <= n
    with pytest.raises(ResourceLimitError) as raised:
        simulate_batch(fig1, n, seeds, max_vertices=limit)
    assert str(raised.value) == message


def test_fractional_weights_do_not_drift(fig1):
    """With chi = 1/3 and rho = 1/7 the kernel weighs degree k by the
    integer 21 * (chi * k + rho), so its running total is exactly the
    recount from the census; a binary64 running total had drifted by
    -1.07e-6 from it at this point."""
    bs = replace(fig1, chi=F(1, 3), rho=F(1, 7))
    st = simulate(bs, 200_000, seed=0)
    S = 21
    w = lambda k: S * (bs.chi * k + bs.rho)
    recount = w(st.master_degree) + sum(w(k) * c for k, c in st.census().items())
    assert recount.denominator == 1
    assert st.activity == recount
    assert st.total_activity == float(recount / S)


class _NoDraws:
    """A stream that refuses every draw."""

    def random(self, *args, **kwargs):
        raise AssertionError("a step was drawn")


def _forbid_draws(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _NoDraws())


def test_activity_limit_rejects_before_drawing(fig1, monkeypatch):
    """rho = 10^-300 makes S = 10^300, and with chi = 1 the scaled weights
    are about 10^300 * k: far past the 2**52 that keeps the scans exact."""
    bs = replace(fig1, rho=F(1, 10**300))
    message = (
        "total activity scaled by S, the least common denominator of chi and rho, "
        "could reach 2**1007 in 100 steps; exact latch weights need it below 2**52"
    )
    st, sg = init_state(bs, seed=0), init_state(bs, "graph", seed=0)
    _forbid_draws(monkeypatch)
    for run in (
        lambda: simulate(bs, 100, seed=0),
        lambda: simulate(bs, 100, mode="graph", seed=0),
        lambda: simulate_batch(bs, 100, [0, 1]),
    ):
        with pytest.raises(ResourceLimitError) as err:
            run()
        assert str(err.value) == message
    before = st.stream.bit_generator.state
    with pytest.raises(ResourceLimitError, match="in 1 steps"):
        grow_step(st)
    assert st.step == 0
    assert st.stream.bit_generator.state == before
    edges = export_edge_list(sg)
    with pytest.raises(ResourceLimitError, match="in 1 steps"):
        grow_step_scripted(sg, latch=0, block_index=0)
    assert (sg.step, export_edge_list(sg)) == (0, edges)


def test_activity_limit_counts_scaled_weights(k2):
    """chi = 0 and rho = 10^-300 also make S = 10^300, but every scaled
    weight is 1: the run is exact, and grows exactly like k2."""
    tiny = replace(k2, rho=F(1, 10**300))
    a, b = simulate(tiny, 2000, seed=1), simulate(k2, 2000, seed=1)
    assert a.census() == b.census() and a.activity == b.activity == 2002
    assert a.total_activity == 2002 / 10**300


def test_random_initial_block():
    bs = random_blockset(5, kind="hooking")
    if len(bs.blocks) > 1:
        from dataclasses import replace

        bsr = replace(bs, initial_block="random")
        a = simulate(bsr, 50, mode="census", seed=8, record=True)
        b = simulate(bsr, 50, mode="graph", seed=8, record=True)
        assert np.array_equal(a.trajectory_x, b.trajectory_x)


@pytest.mark.parametrize("seed", range(6))
def test_random_models_couple(seed):
    bs = random_blockset(seed + 400)
    a = simulate(bs, 800, mode="census", seed=seed, record=True)
    b = simulate(bs, 800, mode="graph", seed=seed, record=True)
    assert np.array_equal(a.trajectory_x, b.trajectory_x)
    assert np.array_equal(a.trajectory_star, b.trajectory_star)
    _assert_census_is_graph_recount(b)


# a hooking block that lists its hook last, and a bipolar block that lists
# its south pole before its new vertices
HOOK_LAST = {
    "kind": "hooking",
    "chi": 1,
    "rho": 1,
    "r": 3,
    "blocks": [
        {"name": "P", "probability": "1/2", "vertices": ["a", "b", "h"],
         "edges": [["h", "a"], ["a", "b"], ["b", "h"], ["a", "a"]], "hook": "h"},
        {"name": "Q", "probability": "1/2", "vertices": ["x", "h"],
         "edges": [["x", "h"]], "hook": "h"},
    ],
}  # fmt: skip
SOUTH_FIRST = {
    "kind": "bipolar",
    "chi": 0,
    "rho": 1,
    "r": 3,
    "blocks": [
        {"name": "B", "probability": "1/2", "vertices": ["s", "m", "n", "t"],
         "edges": [["n", "m"], ["m", "t"], ["m", "s"], ["t", "s"], ["n", "t"]],
         "north": "n", "south": "s"},
        {"name": "C", "probability": "1/2", "vertices": ["n", "s"],
         "edges": [["n", "s"], ["n", "s"]], "north": "n", "south": "s"},
    ],
}  # fmt: skip


@pytest.mark.parametrize(
    "doc, poles, edges",
    [
        # h = 0, then a = 1 and b = 2
        (HOOK_LAST, '  v0 [label="H"];\n  v1;\n  v2;\n', "0 1\n0 2\n1 1\n1 2\n"),
        # n = 0, then m = 1 and t = 2, then s = 3
        (SOUTH_FIRST, '  v0 [label="N"];\n  v1;\n  v2;\n  v3 [label="S"];\n',
         "0 1\n0 2\n1 2\n1 3\n2 3\n"),
    ],
    ids=["hook-last", "south-first"],
)  # fmt: skip
def test_initial_block_numbering(doc, poles, edges):
    """The initial block is attached at the master, so the master is
    vertex 0, the block's new vertices follow in their listed order and a
    south pole is the block's last vertex, wherever the block lists them."""
    bs = blockset_from_dict(doc)
    st = init_state(bs, "graph")
    assert export_dot(st).split("\n", 1)[1].startswith(poles)
    assert export_edge_list(st) == edges
    assert st.census() == init_state(bs, "census").census()
    a = simulate(bs, 600, mode="census", seed=4, record=True)
    b = simulate(bs, 600, mode="graph", seed=4, record=True)
    assert np.array_equal(a.trajectory_x, b.trajectory_x)
    assert np.array_equal(a.trajectory_star, b.trajectory_star)
    _assert_census_is_graph_recount(b)
    # the labels stay on the master and the initial block's last vertex
    labels = [line for line in export_dot(b).splitlines() if "label" in line]
    assert labels == [line for line in poles.splitlines() if "label" in line]


# ------------------------------------------------ batched = scalar kernel


def _batch_models(fig1, fig3, k2):
    return {
        "fig1": fig1,
        "fig3": fig3,
        "k2": k2,
        # degree-proportional latching outgrows the initial 64 columns
        "k2-preferential": replace(k2, chi=F(1), rho=F(0)),
        # one extra pre-loop uniform picks the initial block
        "fig1-random-initial": replace(fig1, initial_block="random"),
        # fractional weights, scaled to integers by S = 21, 2 and 6
        "fig1-fractional": replace(fig1, chi=F(1, 3), rho=F(1, 7)),
        "k2-half": replace(k2, chi=F(1), rho=F(-1, 2)),
        "random-fractional": random_blockset(504),
        # a star of 17 leaves hooked at a leaf adds a vertex of degree 17,
        # past a 16-column prefix
        "star-17": _star_model(17),
        # every latch increment is 0: degree 1 is the one attainable class
        "path": blockset_from_dict(PATH),
    }


PATH = {
    "kind": "bipolar",
    "chi": 1,
    "rho": 0,
    "r": 1,
    "blocks": [{"name": "P", "probability": 1, "vertices": ["n", "a", "s"],
                "edges": [["n", "a"], ["a", "s"]], "north": "n", "south": "s"}],
}  # fmt: skip


def _star_model(leaves):
    """K2 hooked by a leaf (p = 1/2) and a star of ``leaves`` leaves hooked
    at a leaf (p = 1/2), with chi = 1 and rho = 0."""
    star = [f"v{i}" for i in range(1, leaves)]
    return blockset_from_dict({
        "kind": "hooking",
        "chi": 1,
        "rho": 0,
        "r": 2,
        "blocks": [
            {"name": "K2", "probability": "1/2", "vertices": ["h", "a"],
             "edges": [["h", "a"]], "hook": "h"},
            {"name": "star", "probability": "1/2", "vertices": ["h", "c", *star],
             "edges": [["c", "h"], *(["c", v] for v in star)], "hook": "h"},
        ],
    })  # fmt: skip


def _assert_same_state(a, b):
    """Full census state, to the bit of the total activity, and the
    position of the random stream."""
    assert a.max_deg == b.max_deg
    assert np.array_equal(a.counts[: a.max_deg + 1], b.counts[: b.max_deg + 1])
    assert not b.counts[b.max_deg + 1 :].any()
    assert a.master_degree == b.master_degree
    assert a.n_vertices == b.n_vertices
    assert a.activity == b.activity
    assert a.total_activity.hex() == b.total_activity.hex()
    assert a.step == b.step
    rows_a, rows_b = np.empty((5, a.tables.ncols)), np.empty((5, b.tables.ncols))
    a.stream.random(out=rows_a)
    b.stream.random(out=rows_b)
    assert np.array_equal(rows_a, rows_b)


@pytest.mark.parametrize(
    "name",
    [
        "fig1",
        "fig3",
        "k2",
        "k2-preferential",
        "fig1-random-initial",
        "fig1-fractional",
        "k2-half",
        "random-fractional",
        "star-17",
        "path",
    ],
)
@pytest.mark.parametrize("n", [0, 1, BATCH_ROWS + 44, 10_000])
def test_batch_matches_scalar(name, n, fig1, fig3, k2):
    bs = _batch_models(fig1, fig3, k2)[name]
    if name == "random-fractional":
        assert (bs.chi, bs.rho) == (F(1, 2), F(1, 3))
    seeds = [np.random.SeedSequence((31, k)) for k in range(5)]
    batch = simulate_batch(bs, n, seeds)
    assert len(batch) == len(seeds)
    for seed, b in zip(seeds, batch):
        _assert_same_state(simulate(bs, n, seed=seed), b)


def _built_tables(mp):
    """The list of the lock-step tables that ``simulate_batch`` builds from
    now on, from which a test reads the width that its kernel ran at."""
    built = []
    build = _kernels.lock_step_tables
    mp.setattr(_kernels, "lock_step_tables", lambda tab, P: built.append(build(tab, P)) or built[-1])
    return built


def _force_prefix(mp, prefix):
    """Make ``simulate_batch`` scan ``prefix`` degrees in place of the width
    that its rule picks; returns ``_built_tables``."""
    mp.setattr(growth_mod, "_scan_prefix", lambda bs: prefix)
    return _built_tables(mp)


def _step_table_shapes(bs, prefix):
    """The one step-table shape of a ``simulate_batch`` run at ``prefix``."""
    return [((prefix + 1) * len(bs.blocks), prefix + 1)]


@pytest.mark.parametrize("name", ["fig1", "fig3", "fig1-fractional"])
def test_batch_matches_scalar_past_a_short_prefix(name, monkeypatch, fig1, fig3, k2):
    """With a 2-column prefix most latches are deferred past it to the
    rounds, which read the new vertices of degree 3 from the pending table,
    while the step table adds those of degrees 1 and 2 to the prefix sums."""
    built = _force_prefix(monkeypatch, 2)
    bs = _batch_models(fig1, fig3, k2)[name]
    seeds = [np.random.SeedSequence((37, k)) for k in range(4)]
    for seed, b in zip(seeds, simulate_batch(bs, BATCH_ROWS + 44, seeds)):
        _assert_same_state(simulate(bs, BATCH_ROWS + 44, seed=seed), b)
    assert [t.step.shape for t in built] == _step_table_shapes(bs, 2)


@pytest.mark.parametrize("name", ["k2", "fig3", "fig1"])
def test_batch_matches_scalar_inside_a_wide_prefix(name, monkeypatch, fig1, fig3, k2):
    """With a prefix wider than every degree the run reaches, every latch
    of a tracked class is taken in the step loop; only the master's picks
    reach the rounds, whose scan past the prefix finds no vertex."""
    prefix = 64
    built = _force_prefix(monkeypatch, prefix)
    bs = _batch_models(fig1, fig3, k2)[name]
    seeds = [np.random.SeedSequence((41, k)) for k in range(4)]
    batch = simulate_batch(bs, BATCH_ROWS + 44, seeds)
    assert [t.step.shape for t in built] == _step_table_shapes(bs, prefix)
    assert max(b.max_deg for b in batch) < prefix
    for seed, b in zip(seeds, batch):
        _assert_same_state(simulate(bs, BATCH_ROWS + 44, seed=seed), b)


@pytest.mark.parametrize("prefix", [1, 2, 3, 4, 16])
def test_prefix_step_table_is_the_change_of_one_step(prefix, fig1, fig3, k2):
    """Row i * (P + 1) + k of ``lock_step_tables(tab, P).step`` is the
    change in the partial sums of degrees 1..P when block i latches at
    degree k + 1 (k = P: past the prefix), recounted from a census before
    and after that one step of the scalar loop, and 0 in the sentinel's
    column."""
    models = _batch_models(fig1, fig3, k2)
    named = [models[k] for k in ("fig1", "fig3", "k2", "star-17", "fig1-fractional", "k2-half")]
    for bs in named + [random_blockset(seed) for seed in (3, 11, 504, 7001)]:
        tab = growth_mod._build_tables(bs)
        lock = _kernels.lock_step_tables(tab, prefix)
        m, w = len(bs.blocks), tab.weight
        assert lock.step.shape == (m * (prefix + 1), prefix + 1)
        # one vertex of each degree 1..P + 1 and a master of degree 2
        counts0 = np.zeros(64, dtype=np.int64)
        counts0[1 : prefix + 2] = 1
        total = w(2) + sum(w(c) for c in range(1, prefix + 2))
        weights = np.array([w(c) for c in range(1, prefix + 1)])
        before = np.cumsum(counts0[1 : prefix + 1] * weights)
        for i in range(m):
            # the class each target picks: the one it lies inside, and the
            # master past the last one
            for c in range(1, prefix + 3):
                below = sum(w(x) for x in range(1, c))
                target = below + (w(c) if c <= prefix + 1 else w(2)) / 2
                state = [prefix + 1, 2, total]
                after, cls = _kernels.census_chunk(counts0, state, tab, np.array([target / total]), np.array([i]))
                assert cls[0] == (c if c <= prefix + 1 else -1), (bs, i, c)
                row = lock.step[i * (prefix + 1) + min(c - 1, prefix)]
                assert np.array_equal(row[:prefix], np.cumsum(after[1 : prefix + 1] * weights) - before), (bs, i, c)
                assert row[prefix] == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    prefix=st.integers(1, 4),
    replicates=st.integers(1, 6),
    n=st.integers(0, BATCH_ROWS + 44),
)
def test_batch_matches_scalar_on_random_models(seed, prefix, replicates, n):
    """Over random models, with a prefix of 1 to 4 columns so that most
    latches are deferred past it, the lock-step kernel grows each replicate
    exactly as ``simulate`` does."""
    bs = random_blockset(seed)
    seeds = [np.random.SeedSequence((seed, k)) for k in range(replicates)]
    with pytest.MonkeyPatch.context() as mp:
        built = _force_prefix(mp, prefix)
        batch = simulate_batch(bs, n, seeds)
    assert [t.step.shape for t in built] == _step_table_shapes(bs, prefix)
    for s, b in zip(seeds, batch):
        _assert_same_state(simulate(bs, n, seed=s), b)


@pytest.mark.parametrize("every_block", [False, True], ids=["at-the-bound", "every-row-block"])
@pytest.mark.parametrize("prefix", [1, 2])
@pytest.mark.parametrize("name", ["fig1", "k2-preferential", "star-17", "star-100-uniform"])
def test_batch_defers_latches_across_row_blocks(name, prefix, every_block, monkeypatch, fig1, fig3, k2):
    """With a prefix of 1 or 2 columns most latches are deferred, and they
    wait in the run's log over several row blocks: until the run ends, or
    until the log holds more than R x BATCH_ROWS entries.  Each
    resolution starts from the census of the one before.  Every state
    equals ``simulate``'s, with the bound as it is and with a resolution
    after every row block.  At these prefixes every model's log outgrows
    the bound; the uniform star of 100 leaves adds a vertex of degree 100,
    past the prefix, at half of its steps."""
    bs = _grow_models(fig1, fig3, k2)[name]
    built = _force_prefix(monkeypatch, prefix)
    pending = []  # the log's size at each resolution
    resolve = _kernels.LockStepRun.resolve
    monkeypatch.setattr(_kernels.LockStepRun, "resolve", lambda run: pending.append(run.pending) or resolve(run))
    if every_block:
        advance = _kernels.LockStepRun.advance
        monkeypatch.setattr(
            _kernels.LockStepRun, "advance", lambda run, u, b: advance(run, u, b) or run.resolve()
        )
    seeds = [np.random.SeedSequence((53, k)) for k in range(4)]
    n = 3 * BATCH_ROWS + 7
    for seed, b in zip(seeds, simulate_batch(bs, n, seeds)):
        _assert_same_state(simulate(bs, n, seed=seed), b)
    assert [t.step.shape for t in built] == _step_table_shapes(bs, prefix)
    if every_block:
        assert len(pending) == 4 + 1 and all(pending[:4])  # one per row block, then the end's
    else:
        assert len(pending) > 1  # the bound is crossed before the end
        assert all(p > len(seeds) * BATCH_ROWS for p in pending[:-1])


@pytest.mark.parametrize(
    "name, width", [("fig1", 48), ("fig3", 8), ("k2", 8), ("k2-preferential", 64), ("path", 8)]
)
def test_scan_prefix_follows_the_limit_law(name, width, fig1, fig3, k2, monkeypatch):
    """The lock-step prefix is the least multiple of 8 past which the limit
    law puts under 2% of the attachment weight, at most 64, and
    ``simulate_batch`` runs its kernel at that width.  fig1's degrees decay
    polynomially (10.1% of the weight lies past 16, 1.66% past 48); fig3's
    and k2's sit low.  Degree-proportional k2 keeps 3.03% past 64, so it
    takes the cap; the path model attains degree 1 alone."""
    bs = _batch_models(fig1, fig3, k2)[name]
    assert growth_mod._scan_prefix(bs) == width
    built = _built_tables(monkeypatch)
    simulate_batch(bs, 1, [0])
    assert [t.step.shape for t in built] == _step_table_shapes(bs, width)


def test_batch_random_initial_blocks_differ(fig1):
    bs = replace(fig1, initial_block="random")
    seeds = [np.random.SeedSequence((31, k)) for k in range(12)]
    starts = {init_state(bs, seed=s).n_vertices for s in seeds}
    assert len(starts) > 1  # the batch really starts from different blocks
    for seed, b in zip(seeds, simulate_batch(bs, 2 * BATCH_ROWS, seeds)):
        _assert_same_state(simulate(bs, 2 * BATCH_ROWS, seed=seed), b)


def test_batch_grows_past_the_replicate_bound_in_groups(fig1, monkeypatch):
    """One ``LockStepRun`` holds at most ``MAX_REPLICATES`` replicates,
    since replicate r's prefix sums sit at r * 2**53 in one int64 array,
    and it refuses more.  ``simulate_batch`` grows a longer seed list in
    groups under the bound, here patched to 3 over 7 seeds, and every state
    still equals ``simulate``'s."""
    assert _kernels.ROW_SPAN == 2 * _kernels.ACTIVITY_LIMIT == 2**53
    assert _kernels.MAX_REPLICATES == 1023
    monkeypatch.setattr(_kernels, "MAX_REPLICATES", 3)
    sizes = []
    advance = _kernels.LockStepRun.advance
    monkeypatch.setattr(
        _kernels.LockStepRun, "advance", lambda run, u, b: sizes.append(len(b)) or advance(run, u, b)
    )
    seeds = [np.random.SeedSequence((43, k)) for k in range(7)]
    n = BATCH_ROWS + 44
    for seed, b in zip(seeds, simulate_batch(fig1, n, seeds)):
        _assert_same_state(simulate(fig1, n, seed=seed), b)
    assert sizes == [3, 3, 3, 3, 1, 1]  # two row blocks per group

    tab = growth_mod._build_tables(fig1)
    lock = _kernels.lock_step_tables(tab, 8)
    R = 4
    state = np.ones((R, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="at most 3 replicates, got 4"):
        _kernels.LockStepRun(np.zeros((R, 8), dtype=np.int64), state, tab, lock)


def test_batch_capacity_growth_mid_run(k2):
    pa = replace(k2, chi=F(1), rho=F(0))
    seeds = [np.random.SeedSequence((5, k)) for k in range(3)]
    batch = simulate_batch(pa, 20_000, seeds)
    assert max(b.max_deg for b in batch) > 64  # initial capacity
    for seed, b in zip(seeds, batch):
        _assert_same_state(simulate(pa, 20_000, seed=seed), b)


def _grow_models(fig1, fig3, k2):
    """``_batch_models`` and the star of 100 leaves, uniform and
    degree-proportional, whose vertices of degree 100 lie far past a short
    prefix."""
    models = _batch_models(fig1, fig3, k2)
    models["star-100-uniform"] = replace(_star_model(100), chi=F(0), rho=F(1))
    models["star-100"] = _star_model(100)
    return models


@pytest.mark.parametrize("name", ["star-100-uniform", "star-100", "k2-preferential"])
def test_batch_grows_work_between_rounds(name, monkeypatch, fig1, fig3, k2):
    """With a prefix of 1, the rounds of a resolution lift latches past
    every degree that ``work`` held when it began, and ``work`` grows
    between rounds, only as far as the next round can reach.  On the
    uniform star it grows at the first round; on the degree-proportional
    models after a resolution's first round too, which grows ``work`` to at
    most width + 2P + the largest latch increment.  Every state equals
    ``simulate``'s, and ``work`` ends within 2P + the largest latch
    increment of the highest degree reached.  ``width`` never passes that
    degree: each of these runs reaches the degrees that ``width`` starts
    from, its largest new vertex and P + 2 (every latch increment is 1)."""
    bs = _grow_models(fig1, fig3, k2)[name]
    prefix = 1
    _force_prefix(monkeypatch, prefix)
    runs, sizes = [], []  # each resolution's width and degrees of work before it, and degrees after
    resolve = _kernels.LockStepRun.resolve

    def spy(run):
        before = (run.width, run.work.shape[1])
        resolve(run)
        runs.append(run)
        sizes.append(before + (run.work.shape[1],))

    monkeypatch.setattr(_kernels.LockStepRun, "resolve", spy)
    seeds = [np.random.SeedSequence((53, k)) for k in range(4)]
    n = 3 * BATCH_ROWS + 7
    batch = simulate_batch(bs, n, seeds)
    for seed, b in zip(seeds, batch):
        _assert_same_state(simulate(bs, n, seed=seed), b)
    lift = max(growth_mod._build_tables(bs).block_d)
    assert any(after > before for _, before, after in sizes)
    after_first = [after > max(before, width + 2 * prefix + lift) for width, before, after in sizes]
    assert any(after_first) == (name != "star-100-uniform")
    top = max(b.max_deg for b in batch)
    assert runs[-1].work.shape[1] <= top + 2 * prefix + lift


@pytest.mark.parametrize("name", ["star-100", "k2-preferential"])
def test_batch_census_between_row_blocks(name, monkeypatch, fig1, fig3, k2):
    """``LockStepRun.census`` can be taken after any row block, and the run
    goes on from it: advance, census, advance, census gives the final
    census and states that advance, advance, census gives, and each census
    and state row is the scalar loop's at its step.  With a prefix of 1,
    ``work`` grows after the first census."""
    bs = _grow_models(fig1, fig3, k2)[name]
    _force_prefix(monkeypatch, 1)
    seeds = [np.random.SeedSequence((59, k)) for k in range(4)]
    n = 3 * BATCH_ROWS + 7
    plain = simulate_batch(bs, n, seeds)
    taken, degrees = [], []  # each census with its state rows, and the degrees of work after it
    advance = _kernels.LockStepRun.advance

    def advance_then_census(run, u, b):
        advance(run, u, b)
        taken.append((run.census(), run.state.copy()))
        degrees.append(run.work.shape[1])

    monkeypatch.setattr(_kernels.LockStepRun, "advance", advance_then_census)
    for a, b in zip(plain, simulate_batch(bs, n, seeds)):
        _assert_same_state(a, b)
    assert degrees[-1] > degrees[0]
    assert len(taken) == 4
    for k, (counts, state) in enumerate(taken):
        for r, seed in enumerate(seeds):
            ref = simulate(bs, min((k + 1) * BATCH_ROWS, n), seed=seed)
            top = ref.max_deg
            assert np.array_equal(counts[r, : top + 1], ref.counts[: top + 1]), (k, r)
            assert not counts[r, top + 1 :].any()
            assert state[r].tolist() == [top, ref.master_degree, ref.activity], (k, r)


def test_batch_memory_peak_is_bounded(fig1):
    """A lock-step run holds its row block's arrays, one copy of its log
    and a census as wide as the degrees reached.  The tracemalloc peak of
    100 replicates of fig1 over 10^4 steps reads 2.24 MiB (CPython 3.11,
    numpy 2.4), and read 3.72 MiB when ``work`` was sized from the sum of
    the logged latch increments and the log was held twice; the bound
    leaves 0.76 MiB of headroom over the first."""
    seeds = [np.random.SeedSequence((42, k)) for k in range(100)]
    simulate_batch(fig1, BATCH_ROWS, seeds[:2])  # one-time allocations
    tracemalloc.start()
    try:
        simulate_batch(fig1, 10_000, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * 2**20, peak / 2**20


def test_batch_builds_the_model_table_once(fig1, monkeypatch):
    """Every replicate of ``simulate_batch`` reads one model table."""
    calls = []
    build = growth_mod._build_tables
    monkeypatch.setattr(growth_mod, "_build_tables", lambda bs: calls.append(bs) or build(bs))
    built = []
    lock_step = _kernels.lock_step_tables
    monkeypatch.setattr(_kernels, "lock_step_tables", lambda tab, P: built.append(tab) or lock_step(tab, P))
    states = simulate_batch(fig1, 10, list(range(8)))
    assert len(calls) == 1
    assert all(s.tables is states[0].tables for s in states)
    assert built == [states[0].tables]


def test_batch_attaches_each_initial_block_once(fig1, monkeypatch):
    """``simulate_batch`` attaches each distinct initial block by one step
    of the scalar kernel and copies the state to every seed that starts
    from it; each returned state holds its own census."""
    calls = []
    chunk = _kernels.census_chunk
    monkeypatch.setattr(_kernels, "census_chunk", lambda *a: calls.append(a[-1][0]) or chunk(*a))
    states = simulate_batch(fig1, 0, list(range(8)))
    assert calls == [fig1.initial_block]
    assert len({id(s.counts) for s in states}) == len(states)
    calls.clear()
    seeds = [np.random.SeedSequence((31, k)) for k in range(12)]
    simulate_batch(replace(fig1, initial_block="random"), 0, seeds)
    assert 1 < len(calls) == len(set(calls)) < len(seeds)


def test_only_the_lock_step_kernel_builds_its_tables(fig1, fig3, monkeypatch):
    """``simulate`` in either mode and ``init_state`` neither size the
    lock-step prefix nor build its tables: only ``LockStepRun`` reads them."""
    built = []
    lock_step = _kernels.lock_step_tables
    monkeypatch.setattr(_kernels, "lock_step_tables", lambda tab, P: built.append(tab) or lock_step(tab, P))
    rule = growth_mod._scan_prefix
    monkeypatch.setattr(growth_mod, "_scan_prefix", lambda bs: built.append(bs) or rule(bs))
    for bs in (fig1, fig3):
        init_state(bs)
        simulate(bs, 300, mode="census", record=True)
        simulate(bs, 300, mode="graph")
        assert built == []


# (S, S * chi, S * rho, census, master degree, targets, classes the targets pick)
_TIES = [
    # chi=1, rho=0: classes 1, 2 and 20 weigh 2, 2 and 20 and the master
    # (degree 8) 8, total 32.  Partial sum 4 is the last column of a
    # 16-column prefix; 24 is the sum of every class, reached by the scan
    # past the prefix.
    (1, 1, 0, {1: 2, 2: 1, 20: 1}, 8, [0, 2, 4, 22, 24], [1, 2, 20, 20, -1]),
    # a target on a partial sum past the prefix: classes 20 and 22 weigh
    # 20 and 22, so 24 picks class 22; the master weighs 18
    (1, 1, 0, {1: 2, 2: 1, 20: 1, 22: 1}, 18, [24, 45, 46], [22, 22, -1]),
    # every class inside the prefix: a target on the sum of every class (14)
    # reaches the sentinel row and picks the master
    (1, 1, 0, {1: 2, 2: 1, 5: 2}, 2, [14, 4, 13, 15], [-1, 5, 5, -1]),
    # chi = 1/3, rho = 1/7, S = 21: degree k weighs 7k + 3, so classes 1, 2
    # and 3 weigh 20, 17 and 24 and the master (degree 5) 38
    (21, 7, 3, {1: 2, 2: 1, 3: 1}, 5, [20, 37, 61, 0], [2, 3, -1, 1]),
    # The same weights: classes 1, 2, 16 and 20 weigh 20, 17, 115 and 143
    # and the master (degree 5) 38.  Half a unit each side of the partial
    # sum 37, 36.5 picks class 2 and 37.5, as 37 does, the next occupied
    # class, 16.  152 is the last column of a 16-column prefix: 151.5 picks
    # class 16, while 152 and 152.5 defer past the prefix and pick 20, as
    # 294.5 does; 295, the sum of every class, picks the master.
    (21, 7, 3, {1: 2, 2: 1, 16: 1, 20: 1}, 5,
     [36.5, 37, 37.5, 151.5, 152, 152.5, 294.5, 295], [2, 16, 16, 16, 20, 20, 20, -1]),
]  # fmt: skip


def _ties_model(scale, chi_s, rho_s):
    """K2 hooked by its leaf (p = 1/4) and a cherry hooked by its centre
    (p = 3/4), with chi = chi_s / S and rho = rho_s / S."""
    k2 = {"name": "K2", "probability": "1/4", "hook": "h"}
    cherry = {"name": "cherry", "probability": "3/4", "hook": "c"}
    return blockset_from_dict({
        "kind": "hooking",
        "chi": f"{chi_s}/{scale}",
        "rho": f"{rho_s}/{scale}",
        "r": 2,
        "blocks": [
            {**k2, "vertices": ["h", "a"], "edges": [["h", "a"]]},
            {**cherry, "vertices": ["c", "a", "b"], "edges": [["c", "a"], ["c", "b"]]},
        ],
    })  # fmt: skip


def _run_lock_step(counts, state, tab, lock, u, b):
    """The census after one row block of a ``LockStepRun``, which resolves
    its log at the end."""
    run = _kernels.LockStepRun(counts, state, tab, lock)
    run.advance(u, b)
    return run.census()


def test_batch_breaks_ties_like_scalar_loop():
    """A uniform whose target lands exactly on a partial sum picks the next
    class, or the master past the last one, and a uniform on a block
    probability sum picks the next block: the lock-step scan compares the
    same integer partial sums with the strict ``<`` of the scalar loop, and
    ``block_choice``, whose choices both kernels take, does the same on the
    block probability sums.  A target between two integers picks what the
    scalar loop picks, though the lock-step scan reads its floor.

    The tables are ``_ties_model``'s: block 0 adds one vertex of degree 1
    and moves the latch up 1, block 1 adds two and moves it up 2.  Each
    replicate's first step has one of the targets of ``_TIES``; its block
    uniform alternates between 1/4, on the block probability sum, and 0.
    """
    for scale, chi_s, rho_s, census, master, targets, classes in _TIES:
        tab = growth_mod._build_tables(_ties_model(scale, chi_s, rho_s))
        assert (tab.scale, tab.chi_s, tab.rho_s) == (scale, chi_s, rho_s)
        assert (tab.block_d, tab.new_degs) == ([1, 2], [(1,), (1, 1)])
        w = tab.weight
        total = w(master) + sum(w(k) * c for k, c in census.items())
        first = [t / total for t in targets]
        assert [u * total for u in first] == targets  # the targets are exact
        counts0 = np.zeros(64, dtype=np.int64)
        counts0[list(census)] = list(census.values())
        top, R = max(census), len(targets)
        u = np.array([[[u0, 0.5, ub], [0.3, 0.5, 0.6]] for u0, ub in zip(first, [0.25, 0.0] * R)])

        b = _kernels.block_choice(tab, u[:, :, 2])
        assert b[:, 0].tolist() == ([1, 0] * R)[:R]
        state = np.tile([top, master, total], (R, 1))
        lock = _kernels.lock_step_tables(tab, 16)
        counts = _run_lock_step(np.tile(counts0, (R, 1)), state, tab, lock, u, b)

        for r in range(R):
            ref_state = [top, master, total]
            ref, cls = _kernels.census_chunk(counts0, ref_state, tab, u[r, :, 0], b[r])
            assert cls[0] == classes[r], (census, r)
            assert np.array_equal(counts[r], ref[: counts.shape[1]]), (census, r)
            assert not ref[counts.shape[1] :].any()
            assert state[r].tolist() == ref_state, (census, r)


# (census, master degree, [(target, block) per step], classes the targets pick),
# under chi = 1, rho = 0 (degree k weighs k) and ``_ties_model``'s blocks:
# block 0 moves the latch up 1 and adds one vertex of degree 1, block 1
# moves it up 2 and adds two.
_DEFERRED = [
    # Step 0 lands past a 16-column prefix, on the partial sum through
    # degree 17 (18 + 17 = 35): degree 18 is empty at step 0, so it picks
    # degree 20, but step 1's prefix hit moves the vertex of degree 16 to
    # 18, and against the row block's end it would pick 18.  Step 2 lands
    # on the partial sum through 17 again (5 + 17 = 22), which only that
    # vertex of degree 18 passes.
    ({1: 2, 16: 1, 17: 1, 20: 1}, 4, [(35, 0), (10, 1), (22, 0)], [20, 16, 18]),
    # No degree past the prefix is occupied: targets on the sum of every
    # class pick the master, before and after a prefix hit.
    ({1: 2, 2: 1, 5: 2}, 2, [(14, 1), (5, 0), (18, 0)], [-1, 2, -1]),
]


@pytest.mark.parametrize("cases", [[0, 1], [1]], ids=["both", "master-only"])
def test_batch_resolves_deferred_latches_in_step_order(cases):
    """A latch past the prefix is resolved after the row block's steps,
    against the degrees past the prefix as they stood at its own step: the
    prefix hits of later steps are taken away, and the replicate's earlier
    deferred latches are applied.  Each replicate's steps are taken with the
    exact targets of ``_DEFERRED`` and compared with the scalar loop."""
    tab = growth_mod._build_tables(_ties_model(1, 1, 0))
    R, L = len(cases), 3
    counts0 = np.zeros((R, 64), dtype=np.int64)
    state = np.zeros((R, 3), dtype=np.int64)
    u = np.zeros((R, L, 3))
    start = []
    for r, case in enumerate(cases):
        census, master, steps, _ = _DEFERRED[case]
        counts0[r, list(census)] = list(census.values())
        total = tab.weight(master) + sum(tab.weight(k) * c for k, c in census.items())
        start.append([max(census), master, total])
        state[r] = start[r]
        for j, (t, block) in enumerate(steps):
            u[r, j] = t / total, 0.5, [0.1, 0.5][block]
            assert u[r, j, 0] * total == t  # the target is exact
            total += tab.block_s[block]
    b = _kernels.block_choice(tab, u[:, :, 2])
    assert b.tolist() == [[block for _, block in _DEFERRED[c][2]] for c in cases]
    lock = _kernels.lock_step_tables(tab, 16)
    counts = _run_lock_step(counts0, state, tab, lock, u, b)

    for r, case in enumerate(cases):
        ref_state = start[r]
        ref, cls = _kernels.census_chunk(counts0[r], ref_state, tab, u[r, :, 0], b[r])
        assert cls.tolist() == _DEFERRED[case][3]
        assert np.array_equal(counts[r], ref[: counts.shape[1]]), case
        assert not ref[counts.shape[1] :].any()
        assert state[r].tolist() == ref_state, case

"""Ingestion, validation, degree conventions, serialization, reversal."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocknets import (
    BlockSetError,
    degree_of,
    load_example,
    parse_blockset,
    reverse_bipolar,
)
from blocknets.cli import main
from blocknets.model_io import blockset_from_dict, format_json, format_number, format_ratio

from conftest import random_blockset


def test_fig1_parses_as_four_hooking_blocks(fig1):
    assert fig1.kind == "hooking"
    assert len(fig1.blocks) == 4
    assert fig1.probabilities == (F(1, 6), F(1, 3), F(1, 6), F(1, 3))
    assert fig1.chi == 1 and fig1.rho == 0


def test_fig3_parses_as_two_bipolar_blocks(fig3):
    assert fig3.kind == "bipolar"
    assert len(fig3.blocks) == 2
    assert fig3.probabilities == (F(1, 2), F(1, 2))
    assert fig3.chi == 0 and fig3.rho == 1


def test_k2_is_a_valid_minimal_model(k2):
    assert k2.kind == "hooking"
    (b,) = k2.blocks
    assert b.n_vertices == 2 and b.n_edges == 1
    assert b.probability == 1


def test_degree_conventions(fig1, fig3):
    g1 = fig1.block_named("G1")
    assert degree_of(g1, "h1") == 2
    g4 = fig1.block_named("G4")
    assert degree_of(g4, "a") == 3  # endpoint of the extra curved edge
    assert degree_of(g4, "h4") == 4
    b2 = fig3.block_named("B2")
    assert degree_of(b2, "n2") == 2
    b1 = fig3.block_named("B1")
    assert b1.outdegree("m") == 3 and b1.indegree("m") == 1


def test_self_loop_counts_twice_undirected():
    doc = {
        "kind": "hooking",
        "chi": 0,
        "rho": 1,
        "r": 1,
        "blocks": [
            {
                "name": "loop",
                "probability": 1,
                "vertices": ["h", "a"],
                "edges": [["h", "a"], ["a", "a"]],
                "hook": "h",
            }
        ],
    }
    bs = blockset_from_dict(doc)
    assert degree_of(bs.blocks[0], "a") == 3
    assert degree_of(bs.blocks[0], "h") == 1


def test_unknown_vertex_raises(fig1):
    with pytest.raises(BlockSetError, match="unknown-vertex"):
        degree_of(fig1.blocks[0], "nope")


def _bipolar(edges=(("h", "a"),), **poles):
    """A mutation that makes k2 bipolar: its block h, a gets the arcs
    ``edges`` and the poles north h and south a, or those in ``poles``."""

    def mutate(d):
        d["kind"] = "bipolar"
        block = d["blocks"][0]
        del block["hook"]
        block.update(edges=[list(e) for e in edges], north="h", south="a")
        block.update(poles)

    return mutate


def test_bipolar_mutation_base_is_valid(k2):
    doc = json.loads(k2.to_json())
    _bipolar()(doc)
    assert blockset_from_dict(doc).blocks[0].south == "a"


@pytest.mark.parametrize(
    "mutate, rule",
    [
        (lambda d: d["blocks"][0].__setitem__("probability", "1/2"), "prob-sum"),
        (lambda d: d["blocks"][0]["edges"].append(["a", "zz"]), "edge-endpoint"),
        (lambda d: d.__setitem__("chi", -1), "param-domain"),
        (lambda d: d.__setitem__("rho", 0), "param-domain"),  # chi=0 needs rho>0
        (lambda d: d.__setitem__("r", 0), "param-domain"),
        # bool is an int subclass, but true is not 1 here
        (lambda d: d.__setitem__("r", True), "schema"),
        (lambda d: d.__setitem__("initial_block", True), "param-domain"),
        (lambda d: d.__setitem__("initial_block", False), "param-domain"),
        (lambda d: d["blocks"][0].__delitem__("hook"), "schema"),
        (lambda d: d.__setitem__("kind", "stellar"), "schema"),
        (lambda d: d["blocks"][0]["vertices"].append("h"), "schema"),  # duplicate vertex id
        (lambda d: d["blocks"][0].update(vertices=["h"], edges=[]), "schema"),  # one vertex
        (lambda d: d["blocks"][0].__setitem__("probability", 0), "param-domain"),
        (lambda d: d["blocks"][0].__setitem__("probability", "3/2"), "param-domain"),
        (_bipolar(north="x"), "schema"),
        (_bipolar(south="x"), "schema"),
        (_bipolar(south="h"), "pole-count"),
        # a self-loop on a pole breaks the unique source, or the unique sink
        (_bipolar(edges=[("h", "a"), ("h", "h")]), "pole-count"),
        (_bipolar(edges=[("h", "a"), ("a", "a")]), "pole-count"),
        (lambda d: d["blocks"].append(dict(d["blocks"][0])), "schema"),  # duplicate name
        (lambda d: [d], "schema"),
        (lambda d: d.__delitem__("blocks"), "schema"),
        (lambda d: d["blocks"][0].__delitem__("probability"), "schema"),
        (lambda d: json.dumps(d)[:-1], "schema"),  # invalid JSON
    ],
)
def test_validation_rules(k2, mutate, rule):
    """Each mutation of k2's document edits it in place, or returns the
    document to read in its place: a JSON value, or a text to parse."""
    doc = json.loads(k2.to_json())
    new = mutate(doc)
    doc = doc if new is None else new
    with pytest.raises(BlockSetError) as err:
        if isinstance(doc, str):
            parse_blockset(doc)
        else:
            blockset_from_dict(doc)
    assert err.value.rule == rule


@pytest.mark.parametrize(
    "kind, ends", [("hooking", {"hook": 0}), ("bipolar", {"north": 0, "south": 2})]
)
def test_integer_hook_and_pole_ids_are_vertex_ids(kind, ends):
    """Hook and pole ids are read like the vertex ids they name: an integer
    id is its decimal string, and None stays None."""

    def doc(ident):
        block = {
            "name": "B",
            "probability": 1,
            "vertices": [ident(v) for v in (0, 1, 2)],
            "edges": [[ident(0), ident(1)], [ident(1), ident(2)]],
        }
        return {"kind": kind, "r": 1, "blocks": [{**block, **{k: ident(v) for k, v in ends.items()}}]}

    bs = blockset_from_dict(doc(int))
    assert bs == blockset_from_dict(doc(str))
    b = bs.blocks[0]
    assert (b.hook, b.north, b.south) == (("0", None, None) if kind == "hooking" else (None, "0", "2"))
    assert parse_blockset(bs.to_json()) == bs


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("vertices", "hab", "'vertices'"),
        ("edges", "ha", "'edges'"),
        ("edges", ["ha", "hb"], "edge 0"),
        ("edges", [["h", "a"], "hb"], "edge 1"),
    ],
)
def test_string_where_a_list_is_required_is_a_schema_error(field, value, named, tmp_path, capsys):
    """A JSON string iterates one character per item; where the schema asks
    for a list, it is refused with a schema error that names the field,
    and the command line exits 1."""
    block = {"name": "B", "probability": 1, "vertices": ["h", "a", "b"],
             "edges": [["h", "a"], ["h", "b"]], "hook": "h"}  # fmt: skip
    doc = {"kind": "hooking", "r": 1, "blocks": [{**block, field: value}]}
    assert blockset_from_dict({**doc, "blocks": [block]}).blocks[0].vertices == ("h", "a", "b")
    with pytest.raises(BlockSetError) as err:
        blockset_from_dict(doc)
    assert err.value.rule == "schema"
    assert f"{named} must be a list" in str(err.value)
    path = tmp_path / "string.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--input", str(path)]) == 1
    assert f"schema [block 'B']: {named} must be a list" in capsys.readouterr().err


def test_disconnected_block_rejected():
    doc = {
        "kind": "hooking",
        "chi": 0,
        "rho": 1,
        "r": 1,
        "blocks": [
            {
                "name": "twoparts",
                "probability": 1,
                "vertices": ["h", "a", "b", "c"],
                "edges": [["h", "a"], ["b", "c"]],
                "hook": "h",
            }
        ],
    }
    with pytest.raises(BlockSetError, match="connectivity"):
        blockset_from_dict(doc)


def test_bipolar_pole_rules():
    base = {
        "kind": "bipolar",
        "chi": 0,
        "rho": 1,
        "r": 1,
        "blocks": [
            {
                "name": "bad",
                "probability": 1,
                "vertices": ["n", "x", "s"],
                "edges": [["n", "x"], ["x", "s"], ["n", "s"]],
                "north": "n",
                "south": "s",
            }
        ],
    }
    blockset_from_dict(base)  # valid as given
    twosources = json.loads(json.dumps(base))
    twosources["blocks"][0]["edges"] = [["n", "s"], ["x", "s"]]
    with pytest.raises(BlockSetError, match="pole-count"):
        blockset_from_dict(twosources)
    loop_on_pole = json.loads(json.dumps(base))
    loop_on_pole["blocks"][0]["edges"].append(["s", "s"])
    with pytest.raises(BlockSetError, match="pole-count"):
        blockset_from_dict(loop_on_pole)


DECIMAL_K2 = {
    "kind": "hooking",
    "chi": 0.5,
    "rho": 0.1,
    "r": 2,
    "blocks": [
        {
            "name": "K2",
            "probability": 1.0,
            "vertices": ["h", "a"],
            "edges": [["h", "a"]],
            "hook": "h",
        }
    ],
}


def _with_probabilities(bs, probs) -> dict:
    doc = bs.to_dict()
    for entry, p in zip(doc["blocks"], probs):
        entry["probability"] = p
    return doc


def test_decimal_inputs_are_read_as_written(fig1):
    bs = blockset_from_dict(DECIMAL_K2)
    assert bs.chi == F(1, 2) and bs.rho == F(1, 10)
    assert bs.blocks[0].probability == 1
    assert all(type(x) is F for x in (bs.chi, bs.rho, bs.blocks[0].probability))

    # fig1's probabilities as binary64 decimals miss 1 by a rounding step
    # and are divided by their sum
    floats = [float(p) for p in fig1.probabilities]
    written = [F(repr(p)) for p in floats]
    assert sum(written) == F("0.99999999999999992")
    rescaled = blockset_from_dict(_with_probabilities(fig1, floats))
    assert sum(rescaled.probabilities) == 1
    assert rescaled.probabilities == tuple(p / sum(written) for p in written)

    # a sum that is off by more than the tolerance is still an error
    off = [floats[0] - 1e-6] + floats[1:]
    with pytest.raises(BlockSetError, match="prob-sum"):
        blockset_from_dict(_with_probabilities(fig1, off))


def test_roundtrip_identity(fig1, fig3, k2):
    for bs in (fig1, fig3, k2, blockset_from_dict(DECIMAL_K2)):
        # written by format_json, the package's one JSON writer
        assert bs.to_json() == json.dumps(bs.to_dict(), indent=2)
        again = parse_blockset(bs.to_json())
        assert again == bs
        assert parse_blockset(again.to_json()) == again


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_handshake_and_arc_balance(seed):
    bs = random_blockset(seed)
    for b in bs.blocks:
        if bs.kind == "hooking":
            assert sum(b.degree(v) for v in b.vertices) == 2 * b.n_edges
        else:
            outs = sum(b.outdegree(v) for v in b.vertices)
            ins = sum(b.indegree(v) for v in b.vertices)
            assert outs == b.n_edges == ins


def test_reverse_bipolar_is_involution(fig3):
    bs = replace(fig3, chi=F(1), rho=F(0))
    assert reverse_bipolar(reverse_bipolar(bs)) == bs


def test_reverse_bipolar_swaps_poles_and_degrees(fig3):
    rev = reverse_bipolar(replace(fig3, chi=F(1), rho=F(0)))
    b2 = rev.block_named("B2")
    assert b2.north == "s2" and b2.south == "n2"
    # the old sink's indegree becomes the new source's outdegree
    assert b2.outdegree("s2") == fig3.block_named("B2").indegree("s2") == 2


def test_reverse_single_arc_block():
    doc = {
        "kind": "bipolar",
        "chi": 0,
        "rho": 1,
        "r": 1,
        "blocks": [
            {
                "name": "arc",
                "probability": 1,
                "vertices": ["n", "s"],
                "edges": [["n", "s"]],
                "north": "n",
                "south": "s",
            }
        ],
    }
    bs = blockset_from_dict(doc)
    rev = reverse_bipolar(replace(bs, chi=F(1), rho=F(0)))
    assert rev.blocks[0].edges == (("s", "n"),)
    assert rev.blocks[0].north == "s"


def test_reverse_rejects_hooking(fig1):
    with pytest.raises(BlockSetError):
        reverse_bipolar(fig1)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and the infinities included
    | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")])
    | st.text()  # non-ASCII and control characters included
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example({})
@example([])
@example({"": [[], {}, [[]]], "\u00e9\x00\n\"": [-0.0, float("nan"), float("-inf"), None]})
@example([1, True, 1.0, "1", [1, [True, [None]]], {"1": {}}])
def test_format_json_is_json_dumps_with_indent_2(obj):
    assert format_json(obj) == json.dumps(obj, indent=2)


@settings(max_examples=200, deadline=None)
@given(st.integers(), st.integers(1, 10**30))
@example(0, 7)
@example(-6, 4)
@example(12, 4)
def test_format_ratio_is_format_number_of_the_fraction(n, d):
    got = format_ratio(n, d)
    assert got == format_number(F(n, d)) and type(got) is type(format_number(F(n, d)))


"""Block-set definition, ingestion, validation and degree conventions.

A block set is the complete model definition: a list of blocks (small
multigraphs with a hook, or small directed multigraphs with two poles),
their selection probabilities, and the linear attachment parameters
chi and rho giving vertex weights w(k) = chi*k + rho.

Numbers may be given as integers, as exact fraction strings "a/b", or as
decimals.  Every number is read as an exact rational: a decimal is taken
as written (``0.1`` is 1/10), so every model is analyzed in rational
arithmetic and reported values are exact.  Probabilities that sum to 1
within ``PROB_SUM_TOL`` are divided by their sum, so that they sum to 1
exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence, Union

Num = Fraction

HOOKING = "hooking"
BIPOLAR = "bipolar"

PROB_SUM_TOL = 1e-9


class BlockSetError(ValueError):
    """Invalid block-set input.  Carries the violated rule id and block name."""

    def __init__(self, rule: str, message: str, block: str | None = None):
        self.rule = rule
        self.message = message
        self.block = block
        where = f" [block {block!r}]" if block else ""
        super().__init__(f"{rule}{where}: {message}")


class InternalConsistencyError(RuntimeError):
    """Two independent constructions of the same quantity disagree."""


def parse_number(value) -> Num:
    """Parse a JSON scalar into an exact rational.

    Integers and "a/b" strings are read exactly.  A JSON decimal is read
    through its shortest round-trip repr, so 0.1 is 1/10, as written; the
    reprs of NaN, the infinities and booleans are not numbers and fail.
    """
    text = value if isinstance(value, str) else repr(value)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise BlockSetError(
            "schema", f"expected a finite number or an 'a/b' string, got {value!r}"
        ) from None


def format_number(x: Num):
    """JSON-friendly form: 'a/b' strings, with integers as ints."""
    return int(x) if x.denominator == 1 else str(x)


def format_ratio(n: int, d: int):
    """``format_number`` of n / d for ints n and d > 0, without building a
    Fraction."""
    c = math.gcd(n, d)
    return n // c if c == d else f"{n // c}/{d // c}"


def _json_scalar(x) -> str:
    """``json.dumps`` of one value that is not a list, tuple or dict; those
    raise TypeError, like any other type JSON cannot hold.  Floats are tried
    first: no other type the encoder accepts is one."""
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json_key(k) -> str:
    return encode_basestring_ascii(k if isinstance(k, str) else _json_scalar(k))


def format_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.  With an indent the
    standard library encodes in pure Python, one generator step per
    fragment; here a list of scalars is one join, and only a list that
    holds a container is written one value at a time."""
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_json_key(k)}: {format_json(v, inner)}" for k, v in obj.items()]
        return "{" + inner + sep.join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            body = sep.join(map(_json_scalar, obj))
        except TypeError:
            body = sep.join([format_json(x, inner) for x in obj])
        return "[" + inner + body + pad + "]"
    return _json_scalar(obj)


@dataclass(frozen=True)
class Block:
    """One growth unit: a connected multigraph with a hook, or a connected
    directed multigraph with a unique source (north) and sink (south).

    Edges are stored with multiplicity; for bipolar blocks each pair is an
    ordered arc (tail, head).  A self-loop contributes 2 to an undirected
    degree and 1 to each of outdegree and indegree.
    """

    name: str
    kind: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    probability: Num
    hook: str | None = None
    north: str | None = None
    south: str | None = None

    def degree(self, v: str) -> int:
        """Undirected degree of v (self-loops count twice)."""
        if v not in self.vertices:
            raise BlockSetError("unknown-vertex", f"no vertex {v!r}", self.name)
        d = 0
        for a, b in self.edges:
            if a == v:
                d += 1
            if b == v:
                d += 1
        return d

    def outdegree(self, v: str) -> int:
        if v not in self.vertices:
            raise BlockSetError("unknown-vertex", f"no vertex {v!r}", self.name)
        return sum(1 for a, _ in self.edges if a == v)

    def indegree(self, v: str) -> int:
        if v not in self.vertices:
            raise BlockSetError("unknown-vertex", f"no vertex {v!r}", self.name)
        return sum(1 for _, b in self.edges if b == v)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def new_vertices(self) -> tuple[str, ...]:
        """Vertices that enter the network when this block is attached
        (everything except the hook, or except both poles)."""
        if self.kind == HOOKING:
            return tuple(v for v in self.vertices if v != self.hook)
        return tuple(v for v in self.vertices if v not in (self.north, self.south))

    def new_degrees(self) -> tuple[int, ...]:
        """``degree_of`` each of ``new_vertices()``, in that order."""
        return tuple(degree_of(self, v) for v in self.new_vertices())

    def latch_increment(self) -> int:
        """How much the latch's tracked degree grows on attachment."""
        if self.kind == HOOKING:
            return self.degree(self.hook)
        return self.outdegree(self.north) - 1


@dataclass(frozen=True)
class BlockSet:
    """A validated model: blocks, probabilities, and attachment weights."""

    kind: str
    blocks: tuple[Block, ...]
    chi: Num
    rho: Num
    r: int
    initial_block: Union[int, str] = 0  # index, or "random"

    @property
    def probabilities(self) -> tuple[Num, ...]:
        return tuple(b.probability for b in self.blocks)

    def block_named(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; parse(serialize(bs)) == bs."""
        doc = {
            "kind": self.kind,
            "chi": format_number(self.chi),
            "rho": format_number(self.rho),
            "r": self.r,
            "initial_block": self.initial_block,
            "blocks": [],
        }
        for b in self.blocks:
            entry = {
                "name": b.name,
                "probability": format_number(b.probability),
                "vertices": list(b.vertices),
                "edges": [list(e) for e in b.edges],
            }
            if self.kind == HOOKING:
                entry["hook"] = b.hook
            else:
                entry["north"] = b.north
                entry["south"] = b.south
            doc["blocks"].append(entry)
        return doc

    def to_json(self) -> str:
        return format_json(self.to_dict())


def _check_connected(block: Block) -> None:
    """Underlying undirected multigraph must be connected."""
    adj: dict[str, set[str]] = {v: set() for v in block.vertices}
    for a, b in block.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {block.vertices[0]}
    stack = [block.vertices[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(block.vertices):
        raise BlockSetError("connectivity", "block is not connected", block.name)


def _validate_block(block: Block) -> None:
    if len(block.vertices) != len(set(block.vertices)):
        raise BlockSetError("schema", "duplicate vertex ids", block.name)
    if len(block.vertices) < 2:
        raise BlockSetError("schema", "a block needs at least 2 vertices", block.name)
    for a, b in block.edges:
        if a not in block.vertices or b not in block.vertices:
            raise BlockSetError(
                "edge-endpoint", f"edge ({a!r},{b!r}) uses an unlisted vertex", block.name
            )
    if not (0 < block.probability <= 1):
        raise BlockSetError("param-domain", "probability must lie in (0,1]", block.name)
    _check_connected(block)

    if block.kind == HOOKING:
        if block.hook is None or block.hook not in block.vertices:
            raise BlockSetError("schema", "hook must be a listed vertex", block.name)
    else:
        if block.north is None or block.north not in block.vertices:
            raise BlockSetError("schema", "north pole must be a listed vertex", block.name)
        if block.south is None or block.south not in block.vertices:
            raise BlockSetError("schema", "south pole must be a listed vertex", block.name)
        if block.north == block.south:
            raise BlockSetError("pole-count", "poles must be distinct", block.name)
        sources = [v for v in block.vertices if block.indegree(v) == 0]
        sinks = [v for v in block.vertices if block.outdegree(v) == 0]
        if sources != [block.north]:
            raise BlockSetError(
                "pole-count",
                f"the north pole must be the unique source (sources: {sources})",
                block.name,
            )
        if set(sinks) != {block.south}:
            raise BlockSetError(
                "pole-count",
                f"the south pole must be the unique sink (sinks: {sinks})",
                block.name,
            )


def validate_blockset(bs: BlockSet) -> BlockSet:
    if bs.kind not in (HOOKING, BIPOLAR):
        raise BlockSetError("schema", f"kind must be 'hooking' or 'bipolar', got {bs.kind!r}")
    if not bs.blocks:
        raise BlockSetError("schema", "at least one block is required")
    names = [b.name for b in bs.blocks]
    if len(names) != len(set(names)):
        raise BlockSetError("schema", "duplicate block names")
    for b in bs.blocks:
        if b.kind != bs.kind:
            raise BlockSetError("schema", "block kind does not match set kind", b.name)
        _validate_block(b)
    total = sum(b.probability for b in bs.blocks)
    if total != 1:
        raise BlockSetError("prob-sum", f"probabilities sum to {total}, expected 1")
    if not (bs.chi >= 0 and bs.chi + bs.rho > 0):
        raise BlockSetError(
            "param-domain", f"need chi >= 0 and chi + rho > 0 (chi={bs.chi}, rho={bs.rho})"
        )
    if bs.r < 1:
        raise BlockSetError("param-domain", f"r must be >= 1, got {bs.r}")
    ib = bs.initial_block
    if ib != "random":
        # bool is an int, but ``true`` is not a block index
        if isinstance(ib, bool) or not isinstance(ib, int) or not 0 <= ib < len(bs.blocks):
            raise BlockSetError("param-domain", f"bad initial_block {ib!r}")
    return bs


def _listed(value, field: str) -> Sequence:
    """``value`` if it is a list; a string, which would iterate one
    character per item, is not."""
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise BlockSetError("schema", f"{field} must be a list, got {value!r}")
    return value


def blockset_from_dict(doc: Mapping) -> BlockSet:
    """Build and validate a BlockSet from a parsed JSON document."""
    if not isinstance(doc, Mapping):
        raise BlockSetError("schema", "top-level JSON value must be an object")
    try:
        kind = doc["kind"]
        blocks_doc = doc["blocks"]
    except KeyError as exc:
        raise BlockSetError("schema", f"missing required field {exc}")
    if kind not in (HOOKING, BIPOLAR):
        raise BlockSetError("schema", f"kind must be 'hooking' or 'bipolar', got {kind!r}")

    chi = parse_number(doc.get("chi", 0))
    rho = parse_number(doc.get("rho", 1))

    blocks = []
    for i, bdoc in enumerate(_listed(blocks_doc, "'blocks'")):
        if not isinstance(bdoc, Mapping):
            raise BlockSetError("schema", f"block {i} must be an object, got {bdoc!r}")
        name = bdoc.get("name", f"block{i}")
        try:
            prob = parse_number(bdoc["probability"])
            vertices = tuple(str(v) for v in _listed(bdoc["vertices"], "'vertices'"))
            pairs = [_listed(e, f"edge {j}") for j, e in enumerate(_listed(bdoc["edges"], "'edges'"))]
            edges = tuple((str(a), str(b)) for a, b in pairs)
            # hook and poles name vertices, so they are read as vertex ids
            hook, north, south = (
                None if bdoc.get(k) is None else str(bdoc[k]) for k in ("hook", "north", "south")
            )
        except BlockSetError as exc:
            raise BlockSetError(exc.rule, exc.message, name) from None
        except (KeyError, TypeError, ValueError) as exc:
            raise BlockSetError("schema", f"bad block entry: {exc!r}", name)
        blocks.append(
            Block(
                name=str(name),
                kind=kind,
                vertices=vertices,
                edges=edges,
                probability=prob,
                hook=hook,
                north=north,
                south=south,
            )
        )

    r = doc.get("r", 3)
    # bool is an int, but ``true`` is not a class count
    if isinstance(r, bool) or not isinstance(r, int):
        raise BlockSetError("schema", f"r must be an integer, got {r!r}")
    initial = doc.get("initial_block", 0)

    # Rounded decimals (three times 0.3333333333333333) miss 1 by the digits
    # left off; the rational identities downstream (the g-mass summing to 1)
    # need an exact sum.
    total = sum(b.probability for b in blocks)
    if total != 1 and abs(total - 1) <= PROB_SUM_TOL:
        blocks = [replace(b, probability=b.probability / total) for b in blocks]

    bs = BlockSet(
        kind=kind,
        blocks=tuple(blocks),
        chi=chi,
        rho=rho,
        r=r,
        initial_block=initial,
    )
    return validate_blockset(bs)


def parse_blockset(text: str) -> BlockSet:
    """Parse a UTF-8 JSON document into a validated BlockSet."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BlockSetError("schema", f"invalid JSON: {exc}")
    return blockset_from_dict(doc)


def load_blockset(path) -> BlockSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blockset(fh.read())


def load_example(name: str) -> BlockSet:
    """Load one of the bundled example block sets: fig1, fig3 or k2."""
    # imported here, its only use, so that no command pays for it
    from importlib import resources

    fname = name if name.endswith(".json") else f"{name}.json"
    data = resources.files("blocknets.data").joinpath(fname).read_text("utf-8")
    return parse_blockset(data)


def degree_of(block: Block, v: str) -> int:
    """Tracked degree of v in its block: undirected degree for hooking
    blocks, outdegree for bipolar blocks."""
    if block.kind == HOOKING:
        return block.degree(v)
    return block.outdegree(v)


def reverse_bipolar(bs: BlockSet) -> BlockSet:
    """Reverse every arc and swap the poles of each block of a bipolar
    block set with rho = 0; any other block set is refused with a
    param-domain ``BlockSetError``.

    The outdegree law of the reversed model is the indegree law of the
    original only when rho = 0.  Then the latch step picks a vertex with
    weight chi * outdegree and one of its out-arcs uniformly, which picks an
    arc uniformly, and an arc picked uniformly stays so when every arc is
    reversed.  With rho != 0 a vertex's chance to gain an in-arc depends on
    the outdegrees of its in-neighbours, so its indegree census follows no
    urn over indegree classes, and the reversed model would mispredict it;
    fig3, with chi = 0 and rho = 1, is such a model.
    """
    if bs.kind != BIPOLAR:
        raise BlockSetError("param-domain", "reverse_bipolar needs a bipolar block set")
    if bs.rho != 0:
        raise BlockSetError("param-domain", f"reverse_bipolar needs rho = 0, got rho = {bs.rho}")
    blocks = tuple(
        replace(
            b,
            edges=tuple((y, x) for x, y in b.edges),
            north=b.south,
            south=b.north,
        )
        for b in bs.blocks
    )
    return validate_blockset(replace(bs, blocks=blocks))

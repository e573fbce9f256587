"""Seeded family of random block sets for the analyze workload.

The family is a pure function of the workload seed.  Its shape is fixed so
that the amount of work hardly depends on the seed: ``SHAPES`` gives each
model's kind, whether chi > 0 (preferential attachment: both routes to Sigma
run) or chi = 0 (uniform attachment: only the quadrature runs), and its
tracked-class count r.  Blocks, probabilities and the attachment parameters
are drawn from the seed, all as exact rationals.

Models with chi > 0 stop at r = 4.  Beyond that the eigenbasis route to Sigma
loses accuracy with the condition number of the eigenvector matrix, and on
some seeds ``analyze`` then fails or publishes a Sigma that misses the
Lyapunov check (see the README); chi = 0 models carry r up to 16.
"""

from __future__ import annotations

import json
import os

import numpy as np

SHAPES = (
    ("hooking", True, 2),
    ("bipolar", True, 2),
    ("hooking", True, 3),
    ("bipolar", True, 3),
    ("hooking", True, 4),
    ("bipolar", True, 4),
    ("hooking", False, 4),
    ("bipolar", False, 6),
    ("hooking", False, 8),
    ("bipolar", False, 10),
    ("hooking", False, 12),
    ("bipolar", False, 14),
    ("hooking", False, 16),
    ("bipolar", False, 16),
)
# How long the quadrature for Sigma runs depends on the model's spectrum and
# varies about fourfold between draws; several draws per shape keep the cost
# of the whole family close to the same from one seed to the next.
DRAWS_PER_SHAPE = 8
CHI_POSITIVE = (("1", "0"), ("1", "1"), ("2", "1"), ("1/2", "1/3"), ("1/3", "1"))
CHI_ZERO = (("0", "1"), ("0", "2"), ("0", "1/2"))


def _probabilities(rng: np.random.Generator, m: int) -> list[str]:
    weights = [int(rng.integers(1, 5)) for _ in range(m)]
    total = sum(weights)
    return [f"{w}/{total}" for w in weights]


def _hooking_block(rng: np.random.Generator, name: str, prob: str) -> dict:
    nv = int(rng.integers(2, 6))
    verts = [f"v{i}" for i in range(nv)]
    edges = [[verts[int(rng.integers(0, i))], verts[i]] for i in range(1, nv)]
    for _ in range(int(rng.integers(0, 3))):
        edges.append([verts[int(rng.integers(0, nv))], verts[int(rng.integers(0, nv))]])
    return {
        "name": name,
        "probability": prob,
        "vertices": verts,
        "edges": edges,
        "hook": verts[int(rng.integers(0, nv))],
    }


def _bipolar_block(rng: np.random.Generator, name: str, prob: str, fan_out: bool) -> dict:
    """A chain north -> ... -> south plus forward arcs, so the north pole is
    the unique source and the south pole the unique sink.  ``fan_out`` adds a
    second arc out of the north pole, which makes the latch degree grow."""
    nv = int(rng.integers(3, 6))
    verts = [f"v{i}" for i in range(nv)]
    edges = [[verts[i], verts[i + 1]] for i in range(nv - 1)]
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(0, nv - 1))
        edges.append([verts[i], verts[int(rng.integers(i + 1, nv))]])
    if fan_out:
        edges.append([verts[0], verts[int(rng.integers(1, nv))]])
    return {
        "name": name,
        "probability": prob,
        "vertices": verts,
        "edges": edges,
        "north": verts[0],
        "south": verts[-1],
    }


def model_doc(rng: np.random.Generator, kind: str, chi_positive: bool, r: int) -> dict:
    menu = CHI_POSITIVE if chi_positive else CHI_ZERO
    chi, rho = menu[int(rng.integers(0, len(menu)))]
    m = int(rng.integers(1, 4))
    probs = _probabilities(rng, m)
    if kind == "hooking":
        blocks = [_hooking_block(rng, f"b{i}", probs[i]) for i in range(m)]
    else:
        blocks = [_bipolar_block(rng, f"b{i}", probs[i], i == 0) for i in range(m)]
    return {
        "kind": kind,
        "chi": chi,
        "rho": rho,
        "r": r,
        "initial_block": 0,
        "blocks": blocks,
    }


def write_family(seed: int, outdir: str) -> list[str]:
    """Write the family as block-set JSON files and return their paths.

    A draw that the package rejects as invalid input (a validation error,
    exit code 1 on the command line) is replaced by the next draw; every
    written model parses and has a profile.
    """
    from blocknets import BlockSetError, build_profile
    from blocknets.model_io import blockset_from_dict

    rng = np.random.default_rng([seed, 0xB10C])
    paths = []
    for i, shape in enumerate(SHAPES * DRAWS_PER_SHAPE):
        while True:
            doc = model_doc(rng, *shape)
            try:
                build_profile(blockset_from_dict(doc))
                break
            except BlockSetError:
                continue
        path = os.path.join(outdir, f"family{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        paths.append(path)
    return paths

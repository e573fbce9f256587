"""Shared fixtures and random model generators for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from blocknets import BlockSetError, InternalConsistencyError, load_example
from blocknets.model_io import BIPOLAR, HOOKING, blockset_from_dict
from blocknets.profile import _clear


@pytest.fixture(scope="session")
def fig1():
    return load_example("fig1")


@pytest.fixture(scope="session")
def fig3():
    return load_example("fig3")


@pytest.fixture(scope="session")
def k2():
    return load_example("k2")


def _random_probabilities(rng: np.random.Generator, m: int) -> list[str]:
    weights = [int(rng.integers(1, 5)) for _ in range(m)]
    total = sum(weights)
    return [f"{w}/{total}" for w in weights]


def _random_hooking_block(rng: np.random.Generator, name: str, prob: str) -> dict:
    nv = int(rng.integers(2, 6))
    verts = [f"v{i}" for i in range(nv)]
    edges = []
    for i in range(1, nv):
        j = int(rng.integers(0, i))
        edges.append([verts[j], verts[i]])
    for _ in range(int(rng.integers(0, 3))):
        i, j = int(rng.integers(0, nv)), int(rng.integers(0, nv))
        edges.append([verts[i], verts[j]])  # may duplicate or self-loop
    hook = verts[int(rng.integers(0, nv))]
    return {
        "name": name,
        "probability": prob,
        "vertices": verts,
        "edges": edges,
        "hook": hook,
    }


def _random_bipolar_block(rng: np.random.Generator, name: str, prob: str) -> dict:
    nv = int(rng.integers(2, 6))
    verts = [f"v{i}" for i in range(nv)]
    edges = [[verts[i], verts[i + 1]] for i in range(nv - 1)]
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(0, nv - 1))
        j = int(rng.integers(i + 1, nv))
        edges.append([verts[i], verts[j]])
    if nv >= 4 and rng.random() < 0.3:
        # a backward arc between interior vertices keeps the poles unique
        j = int(rng.integers(2, nv - 1))
        i = int(rng.integers(1, j))
        edges.append([verts[j], verts[i]])
    if nv >= 3 and rng.random() < 0.2:
        k = int(rng.integers(1, nv - 1))
        edges.append([verts[k], verts[k]])
    return {
        "name": name,
        "probability": prob,
        "vertices": verts,
        "edges": edges,
        "north": verts[0],
        "south": verts[-1],
    }


_PARAM_MENU = [("0", "1"), ("1", "0"), ("1", "1"), ("1/2", "1/3"), ("2", "1"), ("1", "-1/2")]


def random_blockset(seed: int, kind: str | None = None, r: int | None = None):
    """A random valid model with <= 3 blocks of <= 5 vertices each.

    Deterministic in the seed; rejection-samples until the whole pipeline
    (validation, profile, urn) accepts the model, so property tests can use
    the result unconditionally.  Only a rejection (``BlockSetError`` or
    ``InternalConsistencyError``) draws again; any other error propagates.
    """
    from blocknets import build_profile, build_urn

    rng = np.random.default_rng(seed)
    if kind is None:
        kind = BIPOLAR if rng.random() < 0.5 else HOOKING
    while True:
        m = int(rng.integers(1, 4))
        probs = _random_probabilities(rng, m)
        make = _random_hooking_block if kind == HOOKING else _random_bipolar_block
        blocks = [make(rng, f"b{i}", probs[i]) for i in range(m)]
        chi, rho = _PARAM_MENU[int(rng.integers(0, len(_PARAM_MENU)))]
        doc = {
            "kind": kind,
            "chi": chi,
            "rho": rho,
            "r": int(r if r is not None else rng.integers(1, 5)),
            "initial_block": 0,
            "blocks": blocks,
        }
        try:
            bs = blockset_from_dict(doc)
            build_urn(bs, build_profile(bs))
            return bs
        except (BlockSetError, InternalConsistencyError):
            seed = int(rng.integers(0, 2**31))
            rng = np.random.default_rng(seed)


def clear_matrix(m) -> tuple[list[list[int]], int]:
    """A rational matrix as the (rows of int numerators, scale) pair that the
    urn's exact stages take, cleared with ``profile._clear``."""
    q = len(m[0])
    flat, d = _clear([x for row in m for x in row])
    return [flat[i : i + q] for i in range(0, len(flat), q)], d


def sigma_exact(urn) -> list[list[Fraction]]:
    """Exact rational Sigma of an urn, and a proof that it is the one.

    Runs ``urn.covariance``'s forward substitution on Fractions: in the
    basis S^-1 = [[I, 0], [w'/a_*, 1]] with * ordered first,
    T = S^-1 M S is lower triangular and T Y + Y T' = -lam1 S^-1 C S^-T is
    solved entry by entry, then Sigma = S Y S'.  The exact residual
    M Sigma + Sigma M' + lam1 C is then asserted to be zero, so the result
    is the unique solution whatever basis produced it."""
    q = len(urn.types)
    r = q - 1
    lam, a, v, A, B = urn.lambda1, urn.activities, urn.v1, urn.A, urn.B
    M = [[A[i][j] - lam * v[i] * a[j] - (lam / 2 if i == j else 0) for j in range(q)]
         for i in range(q)]
    C = [[B[i][j] - lam * lam * v[i] * v[j] for j in range(q)] for i in range(q)]
    u = [x / a[r] for x in a[:r]]
    eye = [[Fraction(int(i == j)) for j in range(q)] for i in range(q)]
    S, S_inv = eye[:r] + [[-x for x in u] + [Fraction(1)]], eye[:r] + [u + [Fraction(1)]]

    def mul(X, Y):
        out = []
        for row in X:
            acc = [Fraction(0)] * q
            for k, x in enumerate(row):
                if x:
                    for j, y in enumerate(Y[k]):
                        if y:
                            acc[j] += x * y
            out.append(acc)
        return out

    def transpose(X):
        return [list(col) for col in zip(*X)]

    order = [r] + list(range(r))
    T = mul(S_inv, mul(M, S))
    K = mul(S_inv, mul(C, transpose(S_inv)))
    T = [[T[i][j] for j in order] for i in order]
    K = [[lam * K[i][j] for j in order] for i in order]
    assert all(T[i][j] == 0 for i in range(q) for j in range(i + 1, q)), "T not triangular"
    Y = [[Fraction(0)] * q for _ in range(q)]
    for i in range(q):
        for j in range(q):
            acc = -K[i][j]
            acc -= sum(T[i][k] * Y[k][j] for k in range(i) if T[i][k])
            acc -= sum(T[j][k] * Y[i][k] for k in range(j) if T[j][k])
            Y[i][j] = acc / (T[i][i] + T[j][j])
    Y = [[Y[order.index(i)][order.index(j)] for j in range(q)] for i in range(q)]
    sigma = mul(S, mul(Y, transpose(S)))
    assert sigma == transpose(sigma), "Sigma not symmetric"
    MS = mul(M, sigma)  # (Sigma M')[i][j] = MS[j][i] for symmetric Sigma
    for i in range(q):
        for j in range(q):
            res = MS[i][j] + MS[j][i] + lam * C[i][j]
            assert res == 0, f"exact Lyapunov residual is {res} at [{i}][{j}]"
    return sigma


def sigma_relative_error(sigma: np.ndarray, exact) -> float:
    """max |Sigma - exact| / max |exact| (0 when both are zero)."""
    big = max(abs(x) for row in exact for x in row)
    gap = max(abs(Fraction(float(sigma[i][j])) - x)
              for i, row in enumerate(exact) for j, x in enumerate(row))
    return float(gap / big) if big else float(gap)


def brute_force_essential(bs, r: int, depth: int = 6) -> tuple[int, ...]:
    """Independent oracle: breadth-first enumeration of every census
    reachable within `depth` attachments, marking a degree essential once
    two non-master vertices hold it simultaneously in some state."""
    from blocknets.model_io import degree_of

    blocks = []
    for b in bs.blocks:
        new_degs = tuple(sorted(degree_of(b, v) for v in b.new_vertices()))
        blocks.append((b.latch_increment(), new_degs))

    init = bs.blocks[0 if bs.initial_block == "random" else int(bs.initial_block)]
    if bs.kind == HOOKING:
        master0 = init.degree(init.hook)
        excl = {init.hook}
    else:
        master0 = init.outdegree(init.north)
        excl = {init.north, init.south}
    census0: dict[int, int] = {}
    for v in init.vertices:
        if v not in excl:
            c = degree_of(init, v)
            census0[c] = census0.get(c, 0) + 1

    def freeze(master, census):
        return master, tuple(sorted(census.items()))

    essential_found: set[int] = set()

    def scan(census):
        for k, c in census.items():
            if c >= 2:
                essential_found.add(k)

    frontier = {freeze(master0, census0)}
    seen = set(frontier)
    scan(census0)
    for _ in range(depth):
        nxt = set()
        for master, items in frontier:
            census = dict(items)
            latches = [("m", master)] + [("c", k) for k in census]
            for kind_tag, latch_deg in latches:
                for d, new_degs in blocks:
                    c2 = dict(census)
                    m2 = master
                    if kind_tag == "m":
                        m2 = master + d
                    else:
                        c2[latch_deg] -= 1
                        if not c2[latch_deg]:
                            del c2[latch_deg]
                        c2[latch_deg + d] = c2.get(latch_deg + d, 0) + 1
                    for c in new_degs:
                        c2[c] = c2.get(c, 0) + 1
                    key = freeze(m2, c2)
                    if key not in seen:
                        seen.add(key)
                        nxt.add(key)
                        scan(c2)
        frontier = nxt
    found = sorted(essential_found)
    if len(found) < r:
        raise AssertionError(f"oracle found only {found} within depth {depth}")
    return tuple(found[:r])

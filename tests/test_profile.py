"""Degree-profile analytics: f/g, essential degrees, growth rate, limits."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocknets import (
    BlockSetError,
    build_profile,
    build_urn,
    degree_profile,
    essential_degrees,
    lambda1,
    limit_vector,
)
from blocknets.model_io import blockset_from_dict

from conftest import brute_force_essential, random_blockset


def test_fig1_f_and_g(fig1):
    f, g = degree_profile(fig1)
    assert f == {1: F(2), 3: F(5, 3)}
    assert g == {2: F(1, 3), 4: F(2, 3)}


def test_fig3_f_and_g(fig3):
    f, g = degree_profile(fig3)
    assert f == {1: F(1), 2: F(1), 3: F(1, 2)}
    assert g == {0: F(1, 2), 1: F(1, 2)}


def test_k2_f_and_g(k2):
    f, g = degree_profile(k2)
    assert f == {1: F(1)} and g == {1: F(1)}


def test_essential_degrees_examples(fig1, fig3, k2):
    assert essential_degrees(fig1, 3) == (1, 3, 5)
    assert essential_degrees(fig1, 6) == (1, 3, 5, 7, 9, 11)  # odd values only
    assert essential_degrees(fig3, 3) == (1, 2, 3)
    assert essential_degrees(k2, 5) == (1, 2, 3, 4, 5)


def test_lambda1_goldens(fig1, fig3):
    p1 = build_profile(fig1)
    assert p1.lambda1 == F(31, 3)
    p3 = build_profile(fig3)
    assert p3.lambda1 == F(5, 2)


@pytest.mark.parametrize("chi,rho", [(F(0), F(1)), (F(1), F(0)), (F(1), F(2)), (F(2), F(3))])
def test_k2_lambda1_is_w2(k2, chi, rho):
    f, g = degree_profile(k2)
    lam = lambda1(f, g, chi, rho)
    assert lam == chi + rho + chi  # w_1 + chi = w_2


def test_limit_vector_goldens(fig1, fig3):
    assert build_profile(fig1).limit == (F(6, 34), F(11, 85), F(63, 3910))
    assert build_profile(fig3).limit == (F(1, 3), F(7, 18), F(25, 108))


def test_k2_uniform_limit_is_geometric(k2):
    p = build_profile(k2, r=8)
    assert p.limit == tuple(F(1, 2**i) for i in range(1, 9))


def test_k2_preferential_limit_formula(k2):
    f, g = degree_profile(k2)
    ess = essential_degrees(k2, 8)
    lam = lambda1(f, g, F(1), F(0))
    nu = limit_vector(f, g, ess, lam, F(1), F(0))
    for i, x in enumerate(nu, start=1):
        assert lam * x == F(4, i * (i + 1) * (i + 2))


def test_balance_examples(fig1, fig3, k2):
    assert build_profile(k2).balance.balanced  # single block
    p1 = build_profile(fig1)
    assert p1.balance.s == (F(4), F(8), F(10), F(16))
    assert not p1.balance.balanced
    p3 = build_profile(fig3)
    assert p3.balance.s == (F(3), F(2))
    assert not p3.balance.balanced


def test_chi_zero_equal_vertex_counts_is_balanced():
    doc = {
        "kind": "hooking",
        "chi": 0,
        "rho": 1,
        "r": 2,
        "blocks": [
            {
                "name": "path",
                "probability": "1/2",
                "vertices": ["h", "a", "b"],
                "edges": [["h", "a"], ["a", "b"]],
                "hook": "h",
            },
            {
                "name": "tri",
                "probability": "1/2",
                "vertices": ["h", "a", "b"],
                "edges": [["h", "a"], ["a", "b"], ["b", "h"]],
                "hook": "h",
            },
        ],
    }
    p = build_profile(blockset_from_dict(doc))
    assert p.balance.balanced and p.balance.s == (F(2), F(2))


def test_mean_activity_increment_equals_lambda1(fig1, fig3):
    for bs in (fig1, fig3):
        p = build_profile(bs)
        assert sum(b.probability * s for b, s in zip(bs.blocks, p.balance.s)) == p.lambda1


def test_all_single_arc_bipolar_rejected():
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
    with pytest.raises(BlockSetError, match="degree-base-empty"):
        essential_degrees(bs, 1)


def test_finite_closure_exhaustion():
    # one bipolar block whose source has outdegree 1: latch degrees never
    # change, so only the seed degrees are attainable
    doc = {
        "kind": "bipolar",
        "chi": 0,
        "rho": 1,
        "r": 3,
        "blocks": [
            {
                "name": "B",
                "probability": 1,
                "vertices": ["n", "m", "t", "b", "s"],
                "edges": [["n", "m"], ["m", "t"], ["m", "b"], ["m", "s"], ["t", "s"], ["b", "s"]],
                "north": "n",
                "south": "s",
            }
        ],
    }
    bs = blockset_from_dict(doc)
    assert essential_degrees(bs, 2) == (1, 3)
    with pytest.raises(BlockSetError, match="degree-closure-exhausted"):
        essential_degrees(bs, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_g_mass_and_support_properties(seed):
    bs = random_blockset(seed)
    p = build_profile(bs)
    assert sum(p.g.values()) == 1
    kr = p.essential[-1]
    ess = set(p.essential)
    for k in range(1, kr + 1):
        if k not in ess:
            assert p.f.get(k, 0) == 0
            for kj in p.essential:
                if k > kj:
                    assert p.g.get(k - kj, 0) == 0
    assert all(x > 0 for x in p.limit)
    weighted = sum(p.w(k) * x for k, x in zip(p.essential, p.limit))
    assert weighted <= 1
    if weighted == 1:
        # the overflow type has limit share 0, so nothing feeds it; an
        # irreducible urn would have a strictly positive dominant vector
        assert not build_urn(bs, p).irreducible


@pytest.mark.parametrize("seed", range(12))
def test_essential_closure_matches_brute_force(seed):
    bs = random_blockset(seed * 7919 + 1, r=3)
    assert essential_degrees(bs, 3) == brute_force_essential(bs, 3)


def test_brute_force_agrees_on_bundled_models(fig1, fig3, k2):
    assert brute_force_essential(fig1, 3) == (1, 3, 5)
    assert brute_force_essential(fig3, 3) == (1, 2, 3)
    assert brute_force_essential(k2, 3) == (1, 2, 3)

"""Acceptance suite: every release gate in one module, one test per gate,
each printing a PASS/FAIL line with its headline statistic.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction as F

import numpy as np
import pytest

from blocknets import (
    build_profile,
    build_urn,
    essential_degrees,
    run_replicates,
    simulate,
)
from blocknets.model_io import blockset_from_dict
from blocknets.profile import _clear
from blocknets.urn import validate_spectrum
from blocknets.verify import gate_checks

from conftest import (
    brute_force_essential,
    clear_matrix,
    random_blockset,
    sigma_exact,
    sigma_relative_error,
)

JOBS = min(4, os.cpu_count() or 1)


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name} failed {tail}"


def test_golden_analytics_hooking(fig1):
    t0 = time.time()
    urn = build_urn(fig1)
    p = urn.profile
    ok = (
        p.lambda1 == F(31, 3)
        and p.essential == (1, 3, 5)
        and p.limit == (F(6, 34), F(11, 85), F(63, 3910))
        and [list(r) for r in urn.A]
        == [[F(c, 6) for c in row] for row in
            [[6, 36, 60, 12], [12, 12, 50, 10], [4, 6, -30, 0], [0, 84, 250, 20]]]
        and sorted(urn.eigenvalues) == [F(-5), F(-3), F(-1), F(31, 3)]
        and urn.v1 == (F(6, 34), F(11, 85), F(63, 3910), F(1387, 3910))
    )
    _report("golden-analytics-hooking", ok and time.time() - t0 < 1.0,
            f"{time.time() - t0:.2f}s, exact rational equality")


def test_golden_analytics_bipolar(fig3):
    t0 = time.time()
    urn = build_urn(fig3)
    p = urn.profile
    ok = (
        p.lambda1 == F(5, 2)
        and p.essential == (1, 2, 3)
        and p.limit == (F(1, 3), F(7, 18), F(25, 108))
        and [list(r) for r in urn.A]
        == [[F(c, 2) for c in row] for row in
            [[1, 2, 2, 2], [3, 1, 2, 2], [1, 2, 0, 1], [0, 0, 1, 0]]]
        and urn.eigenvalues == (F(5, 2), F(-1, 2), F(-1, 2), F(-1, 2))
        and urn.v1 == (F(1, 3), F(7, 18), F(25, 108), F(5, 108))
    )
    _report("golden-analytics-bipolar", ok and time.time() - t0 < 1.0,
            f"{time.time() - t0:.2f}s, exact rational equality")


def test_classical_tree_reductions(k2):
    t0 = time.time()
    p_uniform = build_profile(k2, r=8)
    geometric = p_uniform.limit == tuple(F(1, 2**i) for i in range(1, 9))

    from dataclasses import replace

    k2_pa = replace(k2, chi=F(1), rho=F(0))
    p_pa = build_profile(k2_pa, r=8)
    harmonic = all(
        p_pa.lambda1 * x == F(4, i * (i + 1) * (i + 2))
        for i, x in enumerate(p_pa.limit, start=1)
    )
    _report("classical-reductions", geometric and harmonic and time.time() - t0 < 1.0,
            "uniform: 2^-i; degree-proportional: 4/(i(i+1)(i+2)), i <= 8")


def test_structural_invariants_random_models():
    t0 = time.time()
    n_models = 100
    for seed in range(n_models):
        bs = random_blockset(seed + 10_000)
        urn = build_urn(bs)
        q = len(urn.types)
        lam = urn.lambda1

        for j in range(q):
            col = sum(urn.activities[i] * urn.A[i][j] for i in range(q))
            assert col == lam * urn.activities[j], f"seed {seed}: left eigen identity"
        for i in range(q):
            row = sum(urn.A[i][j] * urn.v1[j] for j in range(q))
            assert row == lam * urn.v1[i], f"seed {seed}: right eigen identity"

        validate_spectrum(clear_matrix(urn.A), _clear(urn.activities), _clear(urn.eigenvalues))

        sym = float(np.max(np.abs(urn.Sigma - urn.Sigma.T)))
        assert sym == 0.0, f"seed {seed}: Sigma not symmetric"
        assert np.linalg.eigvalsh(urn.Sigma).min() >= -1e-9, f"seed {seed}: Sigma not PSD"

        err = sigma_relative_error(urn.Sigma, sigma_exact(urn))
        assert err < 1e-13, f"seed {seed}: Sigma is {err:.3g} relative off exact"

        assert sum(urn.profile.g.values()) == 1, f"seed {seed}: g-mass"
    dt = time.time() - t0
    _report("structural-invariants", dt < 60.0, f"{n_models} random models in {dt:.1f}s")


def test_essential_degree_oracle():
    t0 = time.time()
    n_models = 50
    for seed in range(n_models):
        bs = random_blockset(seed + 77_000, r=3)
        got = essential_degrees(bs, 3)
        want = brute_force_essential(bs, 3, depth=6)
        assert got == want, f"seed {seed}: closure {got} vs oracle {want}"
    dt = time.time() - t0
    _report("essential-degree-oracle", dt < 120.0, f"{n_models} random models in {dt:.1f}s")


def test_mode_coupling_at_ten_thousand_steps(fig1, fig3):
    t0 = time.time()
    for bs, label in ((fig1, "hooking"), (fig3, "bipolar")):
        a = simulate(bs, 10_000, mode="census", seed=2024, record=True)
        b = simulate(bs, 10_000, mode="graph", seed=2024, record=True)
        assert np.array_equal(a.trajectory_x, b.trajectory_x), label
        assert np.array_equal(a.trajectory_star, b.trajectory_star), label
    dt = time.time() - t0
    _report("mode-coupling", dt < 10.0, f"n=10^4 exact equality, both kinds, {dt:.1f}s")


@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_monte_carlo_clt(name, request):
    bs = request.getfixturevalue(name)
    t0 = time.time()
    n, R, seed = 100_000, 400, 42
    urn = build_urn(bs)
    prof = urn.profile
    predicted = float(prof.lambda1) * np.array([float(x) for x in prof.limit])
    sigma = urn.sigma_census()

    samples = run_replicates(bs, n, R, seed, track=prof.essential, jobs=JOBS)

    max_w = max([float(prof.w(k)) for k in prof.essential] + [1.0])
    max_b = max(b.n_vertices for b in bs.blocks)
    (mres, cres, *nres), _ = gate_checks(samples, predicted, n, sigma, max_w, max_b)
    all_ok = bool(mres.passed and cres.passed and all(r.passed for r in nres))

    # negative controls on the same samples: each fault must trip its gate
    (bad_mean, *_), _ = gate_checks(samples, predicted * 1.05, n, sigma, max_w, max_b)
    (_, bad_cov, *_), _ = gate_checks(samples, predicted, n, sigma * 2.0, max_w, max_b)
    controls_fail = (bad_mean.passed is False) and (bad_cov.passed is False)

    dt = time.time() - t0
    detail = (
        f"{name}: mean ratio {mres.statistic:.2f}, cov frob {cres.statistic:.3f}, "
        f"skew {nres[0].statistic:.2f}, kurt {nres[1].statistic:.2f}, "
        f"ks {nres[2].statistic:.3f} (gate {nres[2].threshold:.3f}), "
        f"controls fail: {controls_fail}, {dt:.0f}s"
    )
    _report(f"monte-carlo-clt-{name}", all_ok and controls_fail and dt < 300.0, detail)


def test_balanced_flag_reporting(fig1, k2):
    single = build_urn(k2)
    chi0 = blockset_from_dict({
        "kind": "hooking",
        "chi": 0,
        "rho": 1,
        "r": 2,
        "blocks": [
            {"name": "path", "probability": "1/2", "vertices": ["h", "a", "b"],
             "edges": [["h", "a"], ["a", "b"]], "hook": "h"},
            {"name": "tri", "probability": "1/2", "vertices": ["h", "a", "b"],
             "edges": [["h", "a"], ["a", "b"], ["b", "h"]], "hook": "h"},
        ],
    })
    equal_sizes = build_urn(chi0)
    fig1_urn = build_urn(fig1)
    ok = single.balanced and equal_sizes.balanced and not fig1_urn.balanced
    _report("balanced-flag", ok,
            f"single-block: {single.balanced}, chi=0 equal sizes: {equal_sizes.balanced}, "
            f"mixed: {fig1_urn.balanced}")


def test_balanced_flag_stated_s_vector(fig1):
    s = build_profile(fig1).balance.s
    stated = (F(4), F(8), F(10), F(14))
    _report(
        "balanced-flag-s-vector",
        s == stated,
        f"stated {tuple(map(str, stated))} vs computed {tuple(map(str, s))}; "
        "the computed values satisfy sum(p_i*s_i) = lambda1 = 31/3, the stated "
        "tuple gives 29/3",
    )

"""Monte-Carlo verification harness: checks, controls, reproducibility."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from blocknets import (
    Tolerances,
    build_profile,
    build_urn,
    census_vector,
    covariance_check,
    mean_check,
    normality_check,
    run_replicates,
    simulate,
    verify_model,
    whiten_scores,
)
from blocknets import verify as verify_mod
from blocknets.verify import _jackknife_cov_se, _ks_statistic


@pytest.fixture(scope="module")
def fig1_small_run(fig1):
    """One moderate run shared by several checks (n and R chosen so that
    every gate's precondition holds but the test stays fast)."""
    return verify_model(fig1, n=20_000, replicates=240, seed=99, jobs=2)


def test_replicates_are_reproducible_and_schedule_free(k2):
    track = (1, 2, 3)
    a = run_replicates(k2, 500, 8, seed=5, track=track, jobs=1)
    b = run_replicates(k2, 500, 8, seed=5, track=track, jobs=1)
    c = run_replicates(k2, 500, 8, seed=5, track=track, jobs=4)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    d = run_replicates(k2, 500, 8, seed=6, track=track, jobs=1)
    assert not np.array_equal(a, d)


def test_replicates_match_scalar_runs_for_any_jobs(fig3):
    """Replicate k equals a lone simulate() on SeedSequence((seed, k)), however
    the replicates are split into batches (7 = 4 + 3, and 3 + 3 + 1 where
    the process may use 3 CPUs or more)."""
    track = build_profile(fig3).essential
    ref = np.array([
        census_vector(simulate(fig3, 300, seed=np.random.SeedSequence((3, k))), track)[0]
        for k in range(7)
    ])  # fmt: skip
    for jobs in (1, 2, 3):
        got = run_replicates(fig3, 300, 7, seed=3, track=track, jobs=jobs)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref), jobs


@pytest.mark.parametrize("affinity", [True, False], ids=["sched_getaffinity", "cpu_count"])
def test_jobs_are_capped_at_the_usable_cpus(affinity, fig3, monkeypatch):
    """However many jobs it is given, ``run_replicates`` splits the
    replicates into at most one batch per CPU that the process may use:
    its affinity set, or every CPU where the platform has none.  Here that
    is 3 CPUs, so 400 jobs over 7 replicates run as 3 + 3 + 1, and the
    samples are those of one job.  The pool is a stand-in that records its
    size and each batch, and maps in this process."""
    pools, batches = [], []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            args = list(args)
            batches.append([len(a[3]) for a in args])
            return map(fn, args)

    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", Pool)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert verify_mod._usable_cpus() == 3
    track = build_profile(fig3).essential
    ref = run_replicates(fig3, 300, 7, seed=3, track=track, jobs=1)
    for jobs in (2, 3, 400):
        assert np.array_equal(run_replicates(fig3, 300, 7, seed=3, track=track, jobs=jobs), ref), jobs
    assert pools == [2, 3, 3]
    assert batches == [[4, 3], [3, 3, 1], [3, 3, 1]]


def test_replicates_differ_across_indices(k2):
    x = run_replicates(k2, 300, 4, seed=1, track=(1, 2), jobs=1)
    assert len({tuple(row) for row in x.tolist()}) > 1


def test_k2_mean_tracks_one_half(k2):
    prof = build_profile(k2)
    x = run_replicates(k2, 20_000, 40, seed=7, track=prof.essential, jobs=2)
    assert abs(x[:, 0].mean() / 20_000 - 0.5) < 0.01


def test_full_verification_passes(fig1_small_run):
    report = fig1_small_run
    assert report.passed, report.to_table()
    names = [c.name for c in report.checks]
    assert names == ["mean", "covariance", "normality-skew", "normality-kurtosis", "normality-ks"]
    assert all(c.passed for c in report.checks)


def test_report_serialization(fig1_small_run, tmp_path):
    report = fig1_small_run
    doc = json.loads(report.to_json())
    assert doc["schema"] == "blocknets-report/1"
    assert doc["passed"] is True
    assert len(doc["checks"]) == 5
    assert len(doc["standardized_scores"]) == report.replicates
    table = report.to_table()
    assert "PASS" in table and "overall" in table


def test_negative_control_mean(fig1):
    report = verify_model(fig1, n=8_000, replicates=60, seed=11, jobs=2, perturb_mean=0.05)
    mean = next(c for c in report.checks if c.name == "mean")
    assert mean.passed is False
    assert not report.passed


def test_negative_control_covariance(fig1):
    report = verify_model(fig1, n=8_000, replicates=150, seed=12, jobs=2, perturb_cov=2.0)
    cov = next(c for c in report.checks if c.name == "covariance")
    assert cov.passed is False


def test_small_replicate_counts_skip_checks(fig1):
    report = verify_model(fig1, n=2_000, replicates=20, seed=13, jobs=1)
    verdicts = {c.name: c.verdict() for c in report.checks}
    assert verdicts["mean"] == "SKIP"
    assert verdicts["covariance"] == "SKIP"
    assert verdicts["normality"] == "SKIP"


def test_mean_check_fallback_for_zero_variance():
    samples = np.full((40, 1), 50, dtype=np.int64)
    res = mean_check(samples, np.array([0.5]), 100, np.zeros((1, 1)), 1.0, 2)
    assert res.passed


def test_covariance_check_flags_scaled_sigma():
    rng = np.random.default_rng(0)
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    n = 1000
    x = rng.multivariate_normal([0, 0], sigma * n, size=300)
    ok = covariance_check(x, sigma, n)
    bad = covariance_check(x, sigma * 2.0, n)
    assert ok.passed and not bad.passed


def test_normality_check_on_synthetic_data():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((400, 2))
    results = normality_check(z)
    assert all(r.passed for r in results)
    shifted = z + 0.75
    results = normality_check(shifted)
    ks = next(r for r in results if r.name == "normality-ks")
    assert not ks.passed


def _jackknife_loop(samples: np.ndarray) -> np.ndarray:
    """The delete-one jackknife written out: all R covariances with one
    replicate left out, from the raw second moments, then their spread."""
    x = samples.astype(np.float64)
    R, r = x.shape
    s1 = x.sum(axis=0)
    s2 = x.T @ x
    covs = np.zeros((R, r, r))
    for l in range(R):
        xl = x[l]
        mean_l = (s1 - xl) / (R - 1)
        m2 = s2 - np.outer(xl, xl)
        covs[l] = (m2 - (R - 1) * np.outer(mean_l, mean_l)) / (R - 2)
    bar = covs.mean(axis=0)
    return np.sqrt((R - 1) / R * ((covs - bar) ** 2).sum(axis=0))


@pytest.mark.parametrize("d", [1, 8, 64])
def test_jackknife_cov_se_matches_the_delete_one_loop(d):
    """The closed form equals the loop over delete-one covariances.  The
    counts are correlated and near 100: the loop's raw second moments lose
    digits to cancellation as the counts grow (see the exact test below)."""
    rng = np.random.default_rng(d)
    x = rng.poisson(60, (200, 1)) + rng.poisson(40, (200, d))
    np.testing.assert_allclose(_jackknife_cov_se(x), _jackknife_loop(x), rtol=1e-12, atol=0)


def test_jackknife_cov_se_is_exact_for_large_counts():
    """Against the jackknife in rational arithmetic, on counts near 10^4."""
    rng = np.random.default_rng(1)
    x = rng.poisson(10**4, (30, 1)) + rng.poisson(50, (30, 3))
    R, d = x.shape
    rows = [[Fraction(int(v)) for v in row] for row in x.tolist()]
    exact = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            covs = []
            for l in range(R):
                rest = rows[:l] + rows[l + 1 :]
                mi = sum(row[i] for row in rest) / (R - 1)
                mj = sum(row[j] for row in rest) / (R - 1)
                covs.append(sum((row[i] - mi) * (row[j] - mj) for row in rest) / (R - 2))
            bar = sum(covs) / R
            exact[i, j] = math.sqrt(Fraction(R - 1, R) * sum((c - bar) ** 2 for c in covs))
    np.testing.assert_allclose(_jackknife_cov_se(x), exact, rtol=1e-13, atol=0)


def test_ks_statistic_matches_definition():
    z = np.array([-1.0, 0.0, 1.0])
    d = _ks_statistic(z)
    from math import erf, sqrt

    phi = lambda x: 0.5 * (1 + erf(x / sqrt(2)))
    grid = []
    for i, v in enumerate(sorted(z), start=1):
        grid.append(abs(i / 3 - phi(v)))
        grid.append(abs((i - 1) / 3 - phi(v)))
    assert d == pytest.approx(max(grid))


def test_whitening_handles_singular_sigma():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((200, 1))
    samples = np.hstack([base, -base])  # rank-1 fluctuations
    sigma = np.array([[1.0, -1.0], [-1.0, 1.0]])
    z = whiten_scores(samples * 10, np.zeros(2), 100, sigma)
    assert z.shape == (200, 1)
    assert np.std(z[:, 0]) == pytest.approx(1.0, rel=0.2)


def test_balanced_model_has_deterministic_activity_direction(k2):
    urn = build_urn(k2, build_profile(k2, r=3))
    prof = urn.profile
    n, R = 4_000, 64
    x = run_replicates(k2, n, R, seed=3, track=prof.essential, jobs=2)
    w = np.array([float(prof.w(k)) for k in prof.essential])
    # the tracked-weight total plus overflow is deterministic for balanced
    # models; its empirical variance only reflects the overflow classes
    totals = x @ w
    assert np.var(totals) <= np.var(x[:, 0]) * np.sum(w**2)


def test_tolerances_from_dict():
    t = Tolerances.from_dict({"mean_z": 6.0})
    assert t.mean_z == 6.0 and t.cov_frobenius == 0.20
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.mean_z = 1.0  # one default instance is shared by every gate's signature
    with pytest.raises(ValueError):
        Tolerances.from_dict({"nope": 1})
    for doc, message in [
        ({"mean_z": "x"}, "tolerance 'mean_z' must be a number, got 'x'"),
        ({"skew_limit": True}, "tolerance 'skew_limit' must be a number, got True"),
        ({"kurt_limit": None}, "tolerance 'kurt_limit' must be a number, got None"),
        ({"mean_z": float("nan")}, "tolerance 'mean_z' must be a number, got nan"),
        ({"mean_z": float("inf")}, "tolerance 'mean_z' must be a number, got inf"),
        ({"cov_frobenius": -float("inf")}, "tolerance 'cov_frobenius' must be a number, got -inf"),
        ([1], "tolerances must be a JSON object, got list"),
    ]:
        with pytest.raises(ValueError) as err:
            Tolerances.from_dict(doc)
        assert str(err.value) == message

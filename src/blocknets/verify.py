"""Monte-Carlo confrontation of the analytic limit law.

Replicated census-mode simulations are compared against the urn model's
predictions: the mean census should track n * lambda1 * nu, the scaled
fluctuations should match the limit covariance, and the whitened scores
should look normal.  The mean gate (z standard errors sqrt(Sigma_ii/(nR))
plus an O(1/n) bias allowance), the covariance's per-entry gate (z
jackknife standard errors) and the KS gate (c/sqrt(R)) scale with Sigma,
R and n.  Fixed numbers that do not shrink as R or n grow: the relative
Frobenius error of the covariance (``cov_frobenius``), the skewness and
excess-kurtosis limits, and the least R each gate runs at (30, 100 and
200, the only thresholds outside ``Tolerances``).
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .growth import DEFAULT_MAX_VERTICES, census_vector, simulate_batch
from .model_io import BlockSet, format_json
from .urn import build_urn


@dataclass(frozen=True)
class Tolerances:
    """Gate constants; defaults are deliberately loose because the limit
    theorems come without convergence rates."""

    mean_z: float = 4.0
    mean_bias_factor: float = 2.0
    mean_abs_fallback: float = 5.0
    cov_frobenius: float = 0.20
    cov_entry_z: float = 5.0
    skew_limit: float = 0.5
    kurt_limit: float = 1.0
    ks_coefficient: float = 1.63
    whiten_floor: float = 1e-10

    @classmethod
    def from_dict(cls, doc: dict) -> "Tolerances":
        """Defaults overridden by the numbers of a JSON object ``doc``."""
        if not isinstance(doc, dict):
            raise ValueError(f"tolerances must be a JSON object, got {type(doc).__name__}")
        base = cls()
        bad = set(doc) - set(base.__dataclass_fields__)
        if bad:
            raise ValueError(f"unknown tolerance keys: {sorted(bad)}")
        for key, value in doc.items():
            # a NaN gate passes every comparison and an infinite one every
            # error, and neither is valid JSON in a report, so both are refused
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and math.isfinite(value)):
                raise ValueError(f"tolerance {key!r} must be a number, got {value!r}")
        return cls(**{**asdict(base), **doc})


@dataclass
class CheckResult:
    name: str
    passed: Optional[bool]  # None = skipped (precondition unmet)
    statistic: float
    threshold: float
    detail: str = ""

    def verdict(self) -> str:
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


@dataclass
class VerificationReport:
    config: dict
    n: int
    replicates: int
    seed: int
    predicted_mean: np.ndarray  # lambda1 * nu (per-step slope)
    empirical_mean: np.ndarray  # mean(X)/n
    sigma: np.ndarray  # limit covariance of the tracked coordinates
    standardized_scores: np.ndarray  # whitened per-replicate fluctuations
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def to_dict(self) -> dict:
        return {
            "schema": "blocknets-report/1",
            "config": self.config,
            "n": self.n,
            "replicates": self.replicates,
            "seed": self.seed,
            "predicted_mean": self.predicted_mean.tolist(),
            "empirical_mean": self.empirical_mean.tolist(),
            "sigma": self.sigma.tolist(),
            "standardized_scores": self.standardized_scores.tolist(),
            "checks": [
                {
                    "name": c.name,
                    "verdict": c.verdict(),
                    "statistic": c.statistic,
                    "threshold": c.threshold,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return format_json(self.to_dict())

    def to_table(self) -> str:
        return render_table(self.to_dict())


def render_table(doc: dict) -> str:
    """Plain-text table of a report in its ``to_dict`` form, as printed by
    ``verify`` and re-rendered from a saved report by ``report``."""
    lines = [
        f"verification: n={doc['n']} R={doc['replicates']} seed={doc['seed']}",
        f"{'check':<28} {'statistic':>12} {'threshold':>12}  verdict",
    ]
    for c in doc["checks"]:
        lines.append(
            f"{c['name']:<28} {c['statistic']:>12.5g} {c['threshold']:>12.5g}  {c['verdict']}"
        )
    lines.append(f"overall: {'PASS' if doc['passed'] else 'FAIL'}")
    return "\n".join(lines)


def _replicate_batch(args) -> np.ndarray:
    bs, n, seed, reps, track, max_vertices = args
    seeds = [np.random.SeedSequence((seed, rep)) for rep in reps]
    states = simulate_batch(bs, n, seeds, max_vertices=max_vertices)
    return np.array([census_vector(s, track)[0] for s in states], dtype=np.int64)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ProcessPoolExecutor(max_workers: int):
    """``concurrent.futures.ProcessPoolExecutor(max_workers)``, imported at
    the first call.  Only a run that forks needs the pool module, which
    loads ``multiprocessing`` with it, so no other command imports either."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def run_replicates(
    bs: BlockSet,
    n: int,
    replicates: int,
    seed: int,
    track: Sequence[int],
    jobs: int = 1,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> np.ndarray:
    """R independent census simulations; replicate k uses the stream seeded
    by SeedSequence((seed, k)), so results do not depend on scheduling.
    The replicates are split into ``jobs`` >= 1 contiguous batches, at most
    one per CPU that this process may use, each grown in lock step by one
    process.  One batch is grown in this process; two or more fork a
    process pool, whose module is imported at the first fork."""
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    size = -(-replicates // min(jobs, _usable_cpus()))
    args = [
        (bs, n, seed, range(lo, min(lo + size, replicates)), tuple(track), max_vertices)
        for lo in range(0, replicates, size)
    ]
    if len(args) == 1:
        return _replicate_batch(args[0])
    with ProcessPoolExecutor(max_workers=len(args)) as pool:
        return np.concatenate(list(pool.map(_replicate_batch, args)))


def mean_check(
    samples: np.ndarray,
    predicted: np.ndarray,
    n: int,
    sigma: np.ndarray,
    max_weight: float,
    max_block_size: int,
    tol: Tolerances = Tolerances(),
) -> CheckResult:
    """Per-coordinate gate: |mean/n - lambda1*nu_i| within z standard errors
    of the replicate mean plus an O(1/n) allowance for initial-configuration
    bias."""
    R = samples.shape[0]
    if R < 30:
        return CheckResult("mean", None, 0.0, 0.0, "needs R >= 30")
    emp = samples.mean(axis=0) / n
    bias = tol.mean_bias_factor * max_weight * max_block_size / n
    sii = np.diagonal(sigma).astype(np.float64)
    gate = np.full_like(sii, tol.mean_abs_fallback / math.sqrt(n * R))
    spread = sii > 0
    gate[spread] = tol.mean_z * np.sqrt(sii[spread] / (n * R)) + bias
    err = np.abs(emp - predicted)
    ratio = np.divide(err, gate, out=np.full_like(err, math.inf), where=gate > 0)
    fails = np.flatnonzero(err > gate)
    detail = "; ".join(
        f"coord {i}: |{emp[i]:.6g} - {predicted[i]:.6g}| > {gate[i]:.3g}" for i in fails
    )
    worst_ratio = float(ratio.max(initial=0.0))
    return CheckResult("mean", len(fails) == 0, worst_ratio, 1.0, detail or "max |err|/gate")


def _jackknife_cov_se(samples: np.ndarray) -> np.ndarray:
    """Delete-one jackknife standard error of each sample-covariance entry.

    With the centred samples z_l and c = Z'Z / (R-1), deleting replicate l
    leaves the covariance (R-1)/(R-2) c - R/((R-1)(R-2)) z_l z_l', so the
    spread of the R delete-one covariances needs only Z'Z and the squares'
    (Z*Z)'(Z*Z), never the R x d x d stack of them."""
    x = samples.astype(np.float64)
    R = x.shape[0]
    z = x - x.mean(axis=0)
    g = z.T @ z
    z *= z
    h = z.T @ z  # sum over l of z_li^2 z_lj^2
    a = R / ((R - 1) * (R - 2))
    return a * np.sqrt((R - 1) / R * np.maximum(h - g * g / R, 0.0))


def covariance_check(
    samples: np.ndarray,
    sigma: np.ndarray,
    n: int,
    tol: Tolerances = Tolerances(),
) -> CheckResult:
    """Empirical covariance of the sqrt(n)-scaled census against the limit
    Sigma: relative Frobenius error plus a per-entry jackknife gate."""
    R = samples.shape[0]
    if R < 100:
        return CheckResult("covariance", None, 0.0, 0.0, "needs R >= 100")
    x = samples.astype(np.float64)
    emp = np.atleast_2d(np.cov(x, rowvar=False, ddof=1)) / n
    denom = float(np.linalg.norm(sigma, "fro"))
    frob = float(np.linalg.norm(emp - sigma, "fro")) / denom if denom > 0 else math.inf
    se = _jackknife_cov_se(x) / n
    entry_excess = np.abs(emp - sigma) - tol.cov_entry_z * se - 1e-12
    entries_ok = bool(np.all(entry_excess <= 0))
    passed = frob <= tol.cov_frobenius and entries_ok
    detail = f"frobenius {frob:.4g}; per-entry gate {'ok' if entries_ok else 'exceeded'}"
    eigs = np.linalg.eigvalsh((emp + emp.T) / 2)
    if eigs.min() <= 1e-12 * max(1.0, eigs.max()):
        detail += "; empirical covariance is (near) singular"
    return CheckResult("covariance", passed, frob, tol.cov_frobenius, detail)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))


def _ks_statistic(z: np.ndarray) -> float:
    zs = np.sort(z)
    R = zs.shape[0]
    cdf = _norm_cdf(zs)
    upper = np.max(np.arange(1, R + 1) / R - cdf)
    lower = np.max(cdf - np.arange(0, R) / R)
    return float(max(upper, lower))


def whiten_scores(
    samples: np.ndarray,
    predicted: np.ndarray,
    n: int,
    sigma: np.ndarray,
    floor_factor: float = Tolerances.whiten_floor,
) -> np.ndarray:
    """Project the scaled fluctuations on sigma's numerically nonzero
    eigenspace and rescale to unit variance.  Balanced models make sigma
    singular along the activity direction, hence the eigenvalue floor."""
    d = (samples - n * predicted) / math.sqrt(n)
    w, q = np.linalg.eigh((sigma + sigma.T) / 2)
    floor = floor_factor * max(float(np.trace(sigma)), 1e-300) / sigma.shape[0]
    keep = w > floor
    if not np.any(keep):
        raise ValueError("limit covariance is numerically zero; nothing to whiten")
    return (d @ q[:, keep]) / np.sqrt(w[keep])


def normality_check(
    scores: np.ndarray,
    tol: Tolerances = Tolerances(),
) -> list[CheckResult]:
    """Moment gates and a Kolmogorov-Smirnov gate on each whitened coordinate."""
    R = scores.shape[0]
    if R < 200:
        skip = CheckResult("normality", None, 0.0, 0.0, "needs R >= 200")
        return [skip]
    skews, kurts, kss = [], [], []
    for j in range(scores.shape[1]):
        z = scores[:, j]
        z = z - z.mean()
        m2 = float(np.mean(z**2))
        m3 = float(np.mean(z**3))
        m4 = float(np.mean(z**4))
        skews.append(abs(m3 / m2**1.5))
        kurts.append(abs(m4 / m2**2 - 3.0))
        kss.append(_ks_statistic(scores[:, j]))
    ks_gate = tol.ks_coefficient / math.sqrt(R)
    return [
        CheckResult("normality-skew", max(skews) <= tol.skew_limit, max(skews), tol.skew_limit),
        CheckResult("normality-kurtosis", max(kurts) <= tol.kurt_limit, max(kurts), tol.kurt_limit),
        CheckResult("normality-ks", max(kss) <= ks_gate, max(kss), ks_gate),
    ]


def gate_checks(
    samples: np.ndarray,
    predicted: np.ndarray,
    n: int,
    sigma: np.ndarray,
    max_weight: float,
    max_block_size: int,
    tol: Tolerances = Tolerances(),
) -> tuple[list[CheckResult], np.ndarray]:
    """Every gate of a verification run on the census ``samples`` after n
    steps, and the whitened scores: the mean gate, then the covariance,
    whitening and normality gates, or two SKIPs when the limit covariance
    is zero."""
    checks = [mean_check(samples, predicted, n, sigma, max_weight, max_block_size, tol)]
    if np.any(sigma):
        checks.append(covariance_check(samples, sigma, n, tol))
        scores = whiten_scores(samples, predicted, n, sigma, tol.whiten_floor)
        checks.extend(normality_check(scores, tol))
    else:
        # a deterministic census: the limit law is a point mass at the mean
        why = "limit covariance is zero: no fluctuations to compare"
        checks.append(CheckResult("covariance", None, 0.0, 0.0, why))
        checks.append(CheckResult("normality", None, 0.0, 0.0, why))
        scores = np.empty((samples.shape[0], 0))
    return checks, scores


def verify_model(
    bs: BlockSet,
    n: int,
    replicates: int,
    seed: int,
    jobs: int = 1,
    tol: Tolerances = Tolerances(),
    perturb_mean: float = 0.0,
    perturb_cov: float = 1.0,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> VerificationReport:
    """End-to-end verification run.

    perturb_mean / perturb_cov inject deliberate faults into the predictions
    (negative controls: a healthy pipeline must then fail the corresponding
    checks).
    """
    if n < 1:
        raise ValueError(f"verify needs at least 1 step, got {n}")
    # A NaN mean error passes every gate, and a covariance scaled by 0, inf
    # or NaN skips its gate or breaks the whitening: refuse them up front.
    if not math.isfinite(perturb_mean):
        raise ValueError(f"--perturb-mean must be finite, got {perturb_mean}")
    if not (math.isfinite(perturb_cov) and perturb_cov > 0):
        raise ValueError(f"--perturb-cov must be finite and > 0, got {perturb_cov}")
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    urn = build_urn(bs)
    prof = urn.profile
    track = prof.essential
    lam1 = float(prof.lambda1)
    predicted = lam1 * np.array([float(x) for x in prof.limit])
    sigma = urn.sigma_census().copy()
    if perturb_mean:
        predicted = predicted * (1.0 + perturb_mean)
    if perturb_cov != 1.0:
        sigma = sigma * perturb_cov

    samples = run_replicates(
        bs, n, replicates, seed, track, jobs=jobs, max_vertices=max_vertices
    )

    max_weight = max([float(prof.w(k)) for k in track] + [1.0])
    max_block = max(b.n_vertices for b in bs.blocks)
    checks, scores = gate_checks(samples, predicted, n, sigma, max_weight, max_block, tol)
    return VerificationReport(
        config=bs.to_dict(),
        n=n,
        replicates=replicates,
        seed=seed,
        predicted_mean=predicted,
        empirical_mean=samples.mean(axis=0) / n,
        sigma=sigma,
        standardized_scores=scores,
        checks=checks,
    )

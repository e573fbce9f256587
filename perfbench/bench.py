"""One workload of the blocknets benchmark, in a process of its own.

    PYTHONPATH=src python3 perfbench/bench.py --workload verify --seed 1 \
        --seconds 20 --trace 0 --outdir perfbench/out/run1

Runs whole rounds of the workload's ``blocknets`` commands through
``blocknets.cli.main`` until ``--seconds`` have passed, checks every output,
and prints one JSON object as its last line.  With ``--setup-only`` it only
imports blocknets and prepares the inputs, and prints how long that took.
``perfbench/run.py`` is the command that drives it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

import blocknets  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from blocknets import cli, verify  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import family  # noqa: E402
import tracing  # noqa: E402

DATA = os.path.join("src", "blocknets", "data")
MODELS = ("fig1", "fig3")

# Sizes; the README says why these.
VERIFY_STEPS = {"fig1": 10000, "fig3": 10000}
VERIFY_REPLICATES = 200
VERIFY_SEED = 42
VERIFY_JOBS = 2
SIMULATE_STEPS = {"fig1": 8000, "fig3": 8000}
SIMULATE_SEEDS = 2
BYTES_PASS_STEPS = 5000


class Session:
    """Runs ``blocknets`` commands in-process, times them, and keeps count of
    attempted and failed commands and of the problems the checks found in
    the outputs of the commands that did not fail."""

    def __init__(self, outdir: str, cpus):
        self.outdir = outdir
        self.cpus = cpus
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.host: list[float] = []

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def command(self, argv: list[str], model: str, completed=(0,), timed: bool = True):
        """(ok, seconds, stdout) of ``blocknets <argv>``.  An exit code outside
        ``completed`` (or an exception) counts as a failed command."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        code = None
        span = (
            self.tracer.span("cli." + argv[0], model=model, timed=timed)
            if self.tracer
            else contextlib.nullcontext()
        )
        with calibrate.Sampler(self.cpus) as host:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    with span:
                        code = cli.main(argv)
                except Exception:
                    err.write(traceback.format_exc())
            dt = time.perf_counter() - t0
        if timed:
            self.host.append(host.reference())
        if code not in completed:
            self.failed += 1
            self.errors.append(
                f"blocknets {' '.join(argv)}: exit {code}: "
                f"{err.getvalue().strip()[-500:]}"
            )
            return False, dt, out.getvalue()
        return True, dt, out.getvalue()

    def check(self, what: str, problems: list[str]) -> None:
        self.problems += [f"{what}: {p}" for p in problems]


class SampleReuse:
    """Stands in for ``blocknets.verify.run_replicates``.  It records the
    samples of each call and, while ``replay`` is set, answers an identical
    call with the recorded samples instead of simulating again.  Replicate k
    is seeded by SeedSequence((seed, k)), so these are the samples a fresh
    simulation would return; the negative controls thus run on the same
    samples as the passing run, at the cost of the gates alone."""

    def __init__(self, fn):
        self.fn = fn
        self.replay = False
        self.last = None

    def __call__(self, *args, **kwargs):
        key = (args, sorted(kwargs.items()))
        if self.replay:
            if self.last is None or self.last[0] != key:
                raise RuntimeError("no recorded samples for this replicate call")
            return self.last[1].copy()
        samples = self.fn(*args, **kwargs)
        self.last = (key, samples.copy())
        return samples


# ---------------------------------------------------------------- verify


def setup_verify(seed: int, outdir: str) -> dict:
    paths = {m: os.path.join(DATA, f"{m}.json") for m in MODELS}
    for p in paths.values():
        blocknets.load_blockset(p)
    reuse = verify.run_replicates = SampleReuse(verify.run_replicates)
    return {"paths": paths, "reuse": reuse}


def round_verify(s: Session, inputs: dict, k: int) -> dict:
    times = {}
    for m, path in inputs["paths"].items():
        base = [
            "verify", "--input", path,
            "--steps", str(VERIFY_STEPS[m]),
            "--replicates", str(VERIFY_REPLICATES),
            "--seed", str(VERIFY_SEED),
            "--jobs", str(VERIFY_JOBS),
        ]  # fmt: skip
        # Exit code 2 is a verification that ran and found the law violated;
        # the report checks below tell a passing run from a failing one.
        report = s.path(f"verify-{m}.json")
        ok, dt, _ = s.command(base + ["--out", report], m, completed=(0, 2))
        times[m] = dt
        if not ok:
            continue
        s.check(f"verify {m}", checks.check_verify_report(checks.load_json(report)))
        reuse = inputs["reuse"]
        reuse.replay = True
        try:
            for flag, value, gate in (
                ("--perturb-mean", "0.05", "mean"),
                ("--perturb-cov", "2.0", "covariance"),
            ):
                bad = s.path(f"verify-{m}-{gate}-control.json")
                if s.command(base + [flag, value, "--out", bad], m, (0, 2), timed=False)[0]:
                    s.check(f"verify {m} {flag}", checks.check_negative_control(checks.load_json(bad), gate))
        finally:
            reuse.replay = False
    return times


def verify_extra(inputs: dict, metrics: dict) -> None:
    """The largest degree a census replicate reaches (replicate 0), which
    bounds the width of the class scan."""
    for m, path in inputs["paths"].items():
        bs = blocknets.load_blockset(path)
        state = blocknets.simulate(
            bs, VERIFY_STEPS[m], seed=np.random.SeedSequence((VERIFY_SEED, 0))
        )
        metrics[f"census.max_deg.{m}"] = float(state.max_deg)


# --------------------------------------------------------------- analyze


def setup_analyze(seed: int, outdir: str) -> dict:
    famdir = os.path.join(outdir, "family")
    os.makedirs(famdir, exist_ok=True)
    paths = {m: os.path.join(DATA, f"{m}.json") for m in ("fig1", "fig3", "k2")}
    for i, p in enumerate(family.write_family(seed, famdir)):
        paths[f"family{i:02d}"] = p
    for p in paths.values():
        blocknets.load_blockset(p)
    return {"paths": paths}


def round_analyze(s: Session, inputs: dict, k: int) -> dict:
    times = {}
    for m, path in inputs["paths"].items():
        out = s.path(f"analysis-{m}.json")
        ok, dt, _ = s.command(["analyze", "--input", path, "--out", out], m)
        times[m] = dt
        if ok:
            s.check(f"analyze {m}", checks.check_analysis(checks.load_json(out)))
    return times


# -------------------------------------------------------------- simulate


def setup_simulate(seed: int, outdir: str) -> dict:
    paths = {m: os.path.join(DATA, f"{m}.json") for m in MODELS}
    models = {m: blocknets.load_blockset(p) for m, p in paths.items()}
    seeds = [1000 * seed + j for j in range(SIMULATE_SEEDS)]
    return {"paths": paths, "models": models, "seeds": seeds}


def round_simulate(s: Session, inputs: dict, k: int) -> dict:
    times = {}
    for m, path in inputs["paths"].items():
        n = SIMULATE_STEPS[m]
        for seed in inputs["seeds"]:
            times.update(simulate_pair(s, inputs, m, path, n, seed))
    return times


def simulate_pair(s: Session, inputs: dict, m: str, path: str, n: int, seed: int) -> dict:
    """Census mode and graph mode on the same (model, n, seed), checked
    against each other."""
    base = ["simulate", "--input", path, "--steps", str(n), "--seed", str(seed)]
    csv_c, csv_g, dot = s.path(f"{m}-census.csv"), s.path(f"{m}-graph.csv"), s.path(f"{m}.dot")
    ok_c, dt_c, out_c = s.command(base + ["--mode", "census", "--out", csv_c], m)
    ok_g, dt_g, _ = s.command(base + ["--mode", "graph", "--out", csv_g, "--export-dot", dot], m)
    times = {f"{m} seed {seed} census": dt_c, f"{m} seed {seed} graph": dt_g}
    if not (ok_c and ok_g):
        return times
    with open(csv_c, "rb") as fc, open(csv_g, "rb") as fg:
        census_csv, graph_csv = fc.read(), fg.read()
    s.check(f"simulate {m} seed {seed}", checks.check_trajectories_equal(census_csv, graph_csv, n))
    vertices = int(out_c.rsplit("vertices:", 1)[1].split()[0])
    bs = inputs["models"][m]
    with open(dot, "r", encoding="utf-8") as fh:
        s.check(
            f"simulate {m} seed {seed} DOT",
            checks.check_dot(fh.read(), bs.kind, bs.chi, bs.rho, census_csv.decode(), vertices),
        )
    return times


def simulate_extra(inputs: dict, metrics: dict) -> None:
    """Bytes the graph store holds per vertex, by tracemalloc in a pass of
    its own (tracemalloc slows graph mode several times over)."""
    held = vertices = 0
    for m in MODELS:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = blocknets.simulate(
                inputs["models"][m], BYTES_PASS_STEPS, mode="graph", seed=inputs["seeds"][0]
            )
            held += tracemalloc.get_traced_memory()[0] - before
            vertices += state.n_vertices
            del state
        finally:
            tracemalloc.stop()
    metrics["graph.bytes_per_vertex"] = held / vertices


# workload: (set-up, one round, extra traced pass, cores its commands use)
WORKLOADS = {
    "verify": (setup_verify, round_verify, verify_extra, VERIFY_JOBS),
    "analyze": (setup_analyze, round_analyze, None, 1),
    "simulate": (setup_simulate, round_simulate, simulate_extra, 1),
}


def environment() -> dict:
    return {
        "blocknets": blocknets.__version__,
        "backend": blocknets.backend_name(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
    }


def peak_rss_mib() -> float:
    """Largest resident set of this process or of any child it waited for
    (the verify process pool), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_rounds(s: Session, run_round, inputs: dict, until: float, log: list, tracer=None) -> list:
    """Whole rounds until the deadline, at least one, logged with their raw
    times and host references.  Returns each untraced round's command times
    relative to the host reference.  With a tracer, each round runs a second
    time on the same inputs, traced."""

    def one_round(k: int, traced: bool) -> dict:
        times = run_round(s, inputs, k)
        host, s.host = s.host, []
        log.append({"round": k, "traced": traced, "times": times, "host": host})
        return {c: dt / h for (c, dt), h in zip(times.items(), host)}

    rounds = []
    while not rounds or time.perf_counter() < until:
        k = len(rounds)
        rounds.append(one_round(k, False))
        if tracer is None:
            continue
        tracer.round = len(log)
        s.tracer = tracer
        try:
            with tracing.patched(tracer):
                one_round(k, True)
        finally:
            s.tracer = None
    return rounds


def relative_round(relative: list[dict]) -> float:
    """The sum over the round's commands of the median over rounds of each
    command's time relative to the host reference."""
    return sum(statistics.median(r[c] for r in relative) for c in relative[0])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    setup, run_round, extra, cores = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.outdir)
    setup_s = time.perf_counter() - _T0
    calibrate.work()  # the first call pays one-time costs, such as starting BLAS
    if args.setup_only:
        host = statistics.median(calibrate.seconds() for _ in range(3))
        print(json.dumps({"setup_s": setup_s, "host_s": host}))
        return 0

    env = environment()
    print("environment: " + json.dumps(env), flush=True)

    # A single-process workload is held on one core, so that the host
    # reference is sampled on the core that does the work.
    cpus = sorted(os.sched_getaffinity(0))[:cores]
    if cores == 1:
        os.sched_setaffinity(0, cpus)
    start = time.perf_counter()
    s = Session(args.outdir, cpus)
    log: list[dict] = []
    if args.trace:
        tracer = tracing.Tracer()
        run_rounds(s, run_round, inputs, start + args.seconds, log, tracer)
        metrics = tracing.per_layer(tracer, [i for i, r in enumerate(log) if r["traced"]])
        metrics["trace.overhead_s"] = statistics.median(
            sum(traced["times"].values()) - sum(plain["times"].values())
            for plain, traced in zip(log[0::2], log[1::2])
        )
        if extra:
            extra(inputs, metrics)
        tracer.write(s.path("spans.json"))
        units = tracing.PER_LAYER
    else:
        rounds = run_rounds(s, run_round, inputs, start + args.seconds, log)
        metrics = {"command_ref": relative_round(rounds), "peak_rss_mb": peak_rss_mib()}
        units = {"command_ref": "ref", "peak_rss_mb": "MiB"}

    for name in os.listdir(args.outdir):
        if name.endswith((".csv", ".dot")):
            os.remove(s.path(name))
    result = {
        "correct": not s.problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(s.path("result.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
             "environment": env, "child_setup_s": setup_s, "rounds": log,
             "errors": s.errors, "problems": s.problems},
            fh, indent=1,
        )  # fmt: skip
    for p in s.errors + s.problems:
        print(p, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

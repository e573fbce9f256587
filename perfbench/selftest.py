"""Shows that the benchmark's output checks can fail.

    PYTHONPATH=src python3 perfbench/selftest.py

Each check first gets a correct output from a real ``blocknets`` command and
must accept it, then gets a wrong answer and must reject it:

* analyze:  Sigma scaled by 1.01;
* simulate: the graph trajectory CSV of another seed, and the census of
  another seed against the DOT snapshot;
* verify:   the replicate mean perturbed by 5%, and the report of
  ``--perturb-mean 0.05`` on the same samples.

Exits 0 when every check behaved, 1 otherwise.  Takes about half a minute.
"""

import contextlib
import copy
import io
import os
import sys
import tempfile

from blocknets import cli, load_blockset

import bench
import checks

FIG1 = os.path.join(bench.DATA, "fig1.json")
FIG3 = os.path.join(bench.DATA, "fig3.json")


def blocknets(*argv: str) -> tuple[int, str]:
    """Exit code and standard output of ``blocknets <argv>``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()


def main() -> int:
    results = []

    def expect(what: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        results.append(ok)
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'BAD '} {what}: {verdict}" + (f" ({problems[0]})" if problems else ""))

    with tempfile.TemporaryDirectory() as tmp:

        def path(name: str) -> str:
            return os.path.join(tmp, name)

        assert blocknets("analyze", "--input", FIG1, "--out", path("a.json"))[0] == 0
        doc = checks.load_json(path("a.json"))
        expect("analysis of fig1", checks.check_analysis(doc), False)
        bad = copy.deepcopy(doc)
        bad["urn"]["sigma"] = [[1.01 * x for x in row] for row in bad["urn"]["sigma"]]
        expect("analysis with Sigma * 1.01", checks.check_analysis(bad), True)

        n = "2000"
        code, out = blocknets("simulate", "--input", FIG1, "--steps", n, "--seed", "1",
                              "--mode", "census", "--out", path("c1.csv"))  # fmt: skip
        assert code == 0
        vertices = int(out.rsplit("vertices:", 1)[1].split()[0])
        for seed in ("1", "2"):
            assert blocknets("simulate", "--input", FIG1, "--steps", n, "--seed", seed,
                             "--mode", "graph", "--out", path(f"g{seed}.csv"),
                             "--export-dot", path(f"g{seed}.dot"))[0] == 0  # fmt: skip
        csv = {name: open(path(name), "rb").read() for name in ("c1.csv", "g1.csv", "g2.csv")}
        expect("census vs graph CSV, same seed",
               checks.check_trajectories_equal(csv["c1.csv"], csv["g1.csv"], int(n)), False)  # fmt: skip
        expect("census vs graph CSV of another seed",
               checks.check_trajectories_equal(csv["c1.csv"], csv["g2.csv"], int(n)), True)  # fmt: skip
        bs = load_blockset(FIG1)
        for seed, should_fail in (("1", False), ("2", True)):
            dot = open(path(f"g{seed}.dot"), encoding="utf-8").read()
            expect(f"DOT of seed {seed} vs census of seed 1",
                   checks.check_dot(dot, bs.kind, bs.chi, bs.rho, csv["c1.csv"].decode(), vertices),
                   should_fail)  # fmt: skip

        base = ["verify", "--input", FIG3, "--steps", str(bench.VERIFY_STEPS["fig3"]),
                "--replicates", str(bench.VERIFY_REPLICATES), "--seed", str(bench.VERIFY_SEED),
                "--jobs", str(bench.VERIFY_JOBS)]  # fmt: skip
        assert blocknets(*base, "--out", path("v.json"))[0] == 0
        report = checks.load_json(path("v.json"))
        expect("verify report of fig3", checks.check_verify_report(report), False)
        expect("passing report as a negative control",
               checks.check_negative_control(report, "mean"), True)  # fmt: skip
        bad = copy.deepcopy(report)
        bad["empirical_mean"] = [1.05 * x for x in bad["empirical_mean"]]
        expect("verify report with the mean * 1.05", checks.check_verify_report(bad), True)
        assert blocknets(*base, "--perturb-mean", "0.05", "--out", path("vm.json"))[0] == 2
        expect("verify report of --perturb-mean 0.05",
               checks.check_verify_report(checks.load_json(path("vm.json"))), True)  # fmt: skip

    print(f"{sum(results)}/{len(results)} checks behaved")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

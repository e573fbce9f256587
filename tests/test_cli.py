"""End-to-end command-line behaviour and exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blocknets
from blocknets import _kernels, build_profile, census_vector, cli, load_blockset, simulate
from blocknets import urn as urn_module
from blocknets import verify as verify_mod
from blocknets.cli import main
from blocknets.model_io import format_number

from conftest import random_blockset


@pytest.fixture(scope="module")
def example_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("examples")
    out = {}
    for name in ("fig1", "fig3", "k2"):
        data = resources.files("blocknets.data").joinpath(f"{name}.json").read_text("utf-8")
        p = root / f"{name}.json"
        p.write_text(data)
        out[name] = str(p)
    return out


def test_analyze_fig1(example_paths, tmp_path, capsys):
    out = tmp_path / "analysis.json"
    code = main(["analyze", "--input", example_paths["fig1"], "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "lambda1 = 31/3" in printed
    doc = json.loads(out.read_text())
    assert doc["lambda1"] == "31/3"
    assert doc["limit_vector"] == ["3/17", "11/85", "63/3910"]
    assert doc["urn"]["eigenvalues"] == ["31/3", -1, -3, -5]
    assert doc["urn"]["v1"] == ["3/17", "11/85", "63/3910", "1387/3910"]
    assert doc["balance"]["balanced"] is False


def test_analyze_fig3(example_paths, tmp_path):
    out = tmp_path / "a3.json"
    assert main(["analyze", "--input", example_paths["fig3"], "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["lambda1"] == "5/2"
    assert doc["limit_vector"] == ["1/3", "7/18", "25/108"]
    assert doc["urn"]["intensity_matrix"][0] == ["1/2", 1, 1, 1]


def test_analyze_k2_geometric(example_paths, tmp_path):
    out = tmp_path / "k.json"
    assert main(["analyze", "--input", example_paths["k2"], "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["limit_vector"] == [
        "1/2", "1/4", "1/8", "1/16", "1/32", "1/64", "1/128", "1/256"
    ]
    assert doc["balance"]["balanced"] is True
    assert "note" in doc["balance"]


def test_analyze_r_override(example_paths, tmp_path):
    out = tmp_path / "r5.json"
    assert main(["analyze", "--input", example_paths["fig1"], "--r", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["essential_degrees"] == [1, 3, 5, 7, 9]
    assert len(doc["urn"]["v1"]) == 6


def test_analyze_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "hooking", "blocks": []}')
    assert main(["analyze", "--input", str(bad)]) == 1
    assert "validation error" in capsys.readouterr().err


def test_analyze_missing_file():
    assert main(["analyze", "--input", "/nonexistent/x.json"]) == 1


def test_simulate_trajectory_rows(example_paths, tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "simulate", "--input", example_paths["fig1"], "--steps", "1000",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1002  # header + 1001 census states


def test_simulate_modes_couple_via_cli(example_paths, tmp_path):
    a = tmp_path / "census.csv"
    b = tmp_path / "graph.csv"
    for mode, path in (("census", a), ("graph", b)):
        code = main([
            "simulate", "--input", example_paths["fig3"], "--steps", "500",
            "--seed", "3", "--mode", mode, "--out", str(path),
        ])
        assert code == 0
    assert a.read_text() == b.read_text()


def test_simulate_dot_export(example_paths, tmp_path):
    dot = tmp_path / "net.dot"
    code = main([
        "simulate", "--input", example_paths["fig1"], "--steps", "3",
        "--seed", "1", "--mode", "graph", "--export-dot", str(dot),
    ])
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph G {") and " -- " in text


def test_simulate_dot_needs_graph_mode(example_paths, tmp_path):
    out = tmp_path / "x.csv"
    code = main([
        "simulate", "--input", example_paths["fig1"], "--steps", "3",
        "--out", str(out), "--export-dot", str(tmp_path / "x.dot"),
    ])
    assert code == 1
    # rejected before simulating: nothing is written
    assert not out.exists()
    assert not (tmp_path / "x.dot").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--steps", "1000"],
        ["simulate", "--steps", "1000", "--mode", "graph"],
        ["verify", "--steps", "1000", "--replicates", "4", "--jobs", "2"],
    ],
)
def test_vertex_limit_is_an_error_message(example_paths, capsys, command):
    code = main(command + ["--input", example_paths["k2"], "--max-vertices", "100"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: vertex count 101 exceeds limit 100 at step 99\n"


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--steps", "1000"],
        ["verify", "--steps", "1000", "--replicates", "4", "--jobs", "2"],
    ],
)
def test_activity_limit_is_an_error_message(tmp_path, capsys, command):
    """fig1 with rho = 1e-300 scales its weights by S = 10^300, past the
    exact range of the census kernels."""
    model = _write_model(tmp_path / "fig1.json", _example_doc("fig1"), rho=1e-300)
    assert main(command + ["--input", model]) == 1
    assert capsys.readouterr().err == (
        "error: total activity scaled by S, the least common denominator of chi "
        "and rho, could reach 2**1010 in 1000 steps; exact latch weights need it "
        "below 2**52\n"
    )


def test_verify_small_run_passes(example_paths, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "verify", "--input", example_paths["fig1"], "--steps", "15000",
        "--replicates", "220", "--seed", "42", "--jobs", "2",
        "--out", str(report),
    ])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "overall: PASS" in printed
    doc = json.loads(report.read_text())
    assert doc["passed"] is True

    # re-render the saved report: the same table verify printed
    code = main(["report", "--input", str(report)])
    assert code == 0
    table = printed.split("report written to")[0]
    assert capsys.readouterr().out == table


def test_verify_negative_control_exit_code(example_paths, tmp_path):
    report = tmp_path / "bad.json"
    code = main([
        "verify", "--input", example_paths["fig1"], "--steps", "4000",
        "--replicates", "40", "--seed", "1", "--perturb-mean", "0.05",
        "--out", str(report),
    ])
    assert code == 2
    assert main(["report", "--input", str(report)]) == 2


def test_verify_tolerance_override(example_paths, tmp_path):
    tolfile = tmp_path / "tol.json"
    tolfile.write_text('{"mean_z": 0.0001, "mean_bias_factor": 0.0}')
    code = main([
        "verify", "--input", example_paths["k2"], "--steps", "2000",
        "--replicates", "40", "--seed", "2", "--tolerances", str(tolfile),
    ])
    assert code == 2  # unreasonably tight gate must fail


def test_report_rejects_other_json(example_paths, tmp_path, capsys):
    head = '{"schema": "blocknets-report/1", "n": 1, "replicates": 2, "seed": 0, "passed": true, '
    malformed = (
        '"checks": [{}]}',
        '"checks": [{"name": "mean", "passed": "yes"}]}',
        '"checks": [{"name": "mean", "verdict": "PASS", "statistic": "x", "threshold": 1}]}',
        # "passed" must be what the verdicts give: false once a check fails
        '"checks": [{"name": "mean", "verdict": "FAIL", "statistic": 3, "threshold": 1}]}',
        '"checks": [{"name": "mean", "verdict": "MAYBE", "statistic": 0, "threshold": 1}]}',
    )
    texts = ["[]", '"x"', '{"schema": "blocknets-report/1"}', *(head + m for m in malformed)]
    # "passed" must be a bool, not a string
    texts.append(
        head.replace("true", '"false"')
        + '"checks": [{"name": "mean", "verdict": "PASS", "statistic": 0, "threshold": 1}]}'
    )
    paths = [example_paths["fig1"]]
    for i, text in enumerate(texts):
        paths.append(str(tmp_path / f"other{i}.json"))
        (tmp_path / f"other{i}.json").write_text(text)
    for path in paths:
        assert main(["report", "--input", path]) == 1, path
        assert capsys.readouterr().err == f"not a verification report: {path}\n"


def test_verify_refuses_zero_steps(example_paths, capsys, monkeypatch):
    """``--steps 0`` is refused before any replicate is grown."""
    monkeypatch.setattr(verify_mod, "run_replicates", None)  # not reached
    assert main(["verify", "--input", example_paths["k2"], "--steps", "0"]) == 1
    assert capsys.readouterr().err == "error: verify needs at least 1 step, got 0\n"


def _no_replicates(*args, **kwargs):
    raise AssertionError("no replicate may be simulated")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--perturb-mean", "nan", "--perturb-mean must be finite, got nan"),
        ("--perturb-mean", "inf", "--perturb-mean must be finite, got inf"),
        ("--perturb-cov", "0", "--perturb-cov must be finite and > 0, got 0.0"),
        ("--perturb-cov", "-2", "--perturb-cov must be finite and > 0, got -2.0"),
        ("--perturb-cov", "inf", "--perturb-cov must be finite and > 0, got inf"),
        ("--perturb-cov", "nan", "--perturb-cov must be finite and > 0, got nan"),
    ],
)
def test_verify_refuses_bad_perturbations(example_paths, capsys, monkeypatch, flag, value, message):
    """A negative control that could not fail its gate is refused before
    any replicate is grown: a NaN mean error passed the mean gate, a zero
    scale skipped the covariance gate, and an infinite or NaN one died in
    the whitening after every replicate had run."""
    monkeypatch.setattr(verify_mod, "run_replicates", _no_replicates)
    assert main(["verify", "--input", example_paths["fig1"], flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_refuses_jobs_below_one(example_paths, capsys, monkeypatch, jobs):
    """``--jobs`` below 1 used to run as one job without a word.  It is
    refused before any replicate is grown or any worker is started."""
    monkeypatch.setattr(verify_mod, "run_replicates", _no_replicates)
    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", None)  # not reached
    assert main(["verify", "--input", example_paths["fig1"], "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"


def test_closed_stdout_ends_quietly(example_paths):
    """A reader that closes stdout early, as ``blocknets analyze ... | head
    -1`` does, ends the command with exit 141 and nothing on stderr: no
    ``error:`` line and no traceback.  Here the read end of the pipe is
    closed before the command writes anything."""
    src = os.path.dirname(os.path.dirname(blocknets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "blocknets.cli", "analyze", "--input", example_paths["fig1"]]
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (141, "")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"mean_z": "x"}', "tolerance 'mean_z' must be a number, got 'x'"),
        ('{"mean_z": 1e999}', "tolerance 'mean_z' must be a number, got inf"),
        ('{"cov_frobenius": Infinity}', "tolerance 'cov_frobenius' must be a number, got inf"),
        ("[1]", "tolerances must be a JSON object, got list"),
    ],
)
def test_verify_rejects_bad_tolerances(example_paths, tmp_path, capsys, monkeypatch, text, message):
    """A bad ``--tolerances`` file is refused before any replicate is grown."""
    monkeypatch.setattr(verify_mod, "run_replicates", None)  # not reached
    tolfile = tmp_path / "tol.json"
    tolfile.write_text(text)
    args = ["verify", "--input", example_paths["k2"], "--tolerances", str(tolfile)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_internal_consistency_exit_code(example_paths, capsys, monkeypatch):
    # more tracked classes than the urn supports is a validation error
    assert main(["analyze", "--input", example_paths["k2"], "--r", "65"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: param-domain: ")
    assert "exceeds the supported maximum 64" in err

    # two constructions of the right eigenvector that disagree
    right = urn_module._right_eigenvector

    def perturbed(p):
        (n0, *rest), d = right(p)
        return [n0 + 1, *rest], d

    monkeypatch.setattr(urn_module, "_right_eigenvector", perturbed)
    assert main(["analyze", "--input", example_paths["k2"]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal consistency error: ")


# one unit-source block tracked at r = 1: every replicate has the same
# census, Sigma = 0 and the limit law is a point mass at the mean
POINT_MASS = {
    "kind": "bipolar",
    "chi": 0,
    "rho": 1,
    "r": 1,
    "blocks": [
        {
            "name": "B",
            "probability": 1,
            "vertices": ["n", "m", "t", "b", "s"],
            "edges": [["n", "m"], ["m", "t"], ["m", "b"], ["m", "s"],
                      ["t", "s"], ["b", "s"]],
            "north": "n",
            "south": "s",
        }
    ],
}


def _example_doc(name: str) -> dict:
    data = resources.files("blocknets.data").joinpath(f"{name}.json").read_text("utf-8")
    return json.loads(data)


def _write_model(path, doc, **fields):
    path.write_text(json.dumps({**doc, **fields}))
    return str(path)


def test_verify_deterministic_model(tmp_path, capsys):
    p = _write_model(tmp_path / "point-mass.json", POINT_MASS)
    report = tmp_path / "report.json"
    code = main([
        "verify", "--input", p, "--steps", "2000", "--replicates", "200",
        "--out", str(report),
    ])
    printed = capsys.readouterr().out
    assert code == 0, printed
    doc = json.loads(report.read_text())
    assert doc["sigma"] == [[0.0]]
    verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
    assert verdicts == {"mean": "PASS", "covariance": "SKIP", "normality": "SKIP"}
    assert all("covariance is zero" in c["detail"] for c in doc["checks"][1:])
    assert doc["passed"] is True
    assert main(["report", "--input", str(report)]) == 0  # SKIP entries render


def test_verify_single_class_model(tmp_path, capsys):
    """A bipolar path north -> a -> south attains degree 1 alone, since
    every latch increment is 0.  Sizing the lock-step prefix reads the
    classes that the model attains, so verify runs."""
    path = {
        "kind": "bipolar",
        "chi": 1,
        "rho": 0,
        "r": 1,
        "blocks": [{"name": "P", "probability": 1, "vertices": ["n", "a", "s"],
                    "edges": [["n", "a"], ["a", "s"]], "north": "n", "south": "s"}],
    }  # fmt: skip
    p = _write_model(tmp_path / "path.json", path)
    args = ["verify", "--input", p, "--steps", "2000", "--replicates", "20", "--jobs", "1"]
    assert main(args) == 0, capsys.readouterr()


def test_verify_grows_more_replicates_than_one_kernel_call_holds(
    example_paths, monkeypatch, capsys
):
    """``verify --replicates 1100 --jobs 1`` grows all its replicates in one
    process, more than the 1023 that one ``LockStepRun`` holds, so
    ``simulate_batch`` grows them in two groups; each sample is still the
    census of one ``simulate`` per seed."""
    sizes, samples = [], []
    advance = _kernels.LockStepRun.advance
    run = verify_mod.run_replicates
    monkeypatch.setattr(
        _kernels.LockStepRun, "advance", lambda kernel, u, b: sizes.append(len(b)) or advance(kernel, u, b)
    )
    monkeypatch.setattr(
        verify_mod, "run_replicates", lambda *a, **k: samples.append(run(*a, **k)) or samples[-1]
    )
    n, R, seed = 20, 1100, 9
    args = ["verify", "--input", example_paths["fig3"], "--steps", str(n), "--replicates", str(R)]
    assert main([*args, "--seed", str(seed), "--jobs", "1"]) == 2, capsys.readouterr()
    assert sizes == [1023, R - 1023]
    bs = load_blockset(example_paths["fig3"])
    track = build_profile(bs).essential
    seeds = [np.random.SeedSequence((seed, k)) for k in range(R)]
    assert np.array_equal(samples[0], [census_vector(simulate(bs, n, seed=s), track)[0] for s in seeds])


def test_decimal_point_mass_analyzes_as_its_fraction_twin(tmp_path):
    """Binary64 cannot hold 0.3 and 0.7, but they are read as 3/10 and 7/10:
    Sigma is exactly 0 and the analysis is the twin's, byte for byte."""
    outs = []
    for tag, chi, rho in (("decimal", 0.3, 0.7), ("fraction", "3/10", "7/10")):
        model = _write_model(tmp_path / f"{tag}.json", POINT_MASS, chi=chi, rho=rho)
        out = tmp_path / f"{tag}.out.json"
        assert main(["analyze", "--input", model, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["urn"]["sigma"] == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("field", ["chi", "rho", "probability"])
def test_non_finite_input_is_a_schema_error(field, value, tmp_path, capsys):
    doc = _example_doc("k2")
    if field == "probability":
        doc["blocks"][0]["probability"] = value
    else:
        doc[field] = value
    model = _write_model(tmp_path / "k2.json", doc)
    assert main(["analyze", "--input", model]) == 1
    assert "validation error: schema" in capsys.readouterr().err


def test_subnormal_decimal_is_an_exact_rational(tmp_path, capsys):
    """rho = 1e-320 is read as exactly 1/10^320, but M's entries then round
    to subnormals, where the Lyapunov residual would certify any Sigma."""
    model = _write_model(tmp_path / "k2.json", _example_doc("k2"), rho=1e-320)
    assert load_blockset(model).rho == Fraction(1, 10**320)
    assert main(["analyze", "--input", model]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: covariance: M[0][0] is nonzero but rounds to")
    assert "below its normal range" in err and len(err.splitlines()) == 1


def test_non_object_block_is_a_schema_error(tmp_path, capsys):
    model = _write_model(tmp_path / "k2.json", _example_doc("k2"), blocks=["oops"])
    assert main(["analyze", "--input", model]) == 1
    assert capsys.readouterr().err == (
        "validation error: schema: block 0 must be an object, got 'oops'\n"
    )


def test_bad_block_number_names_the_block_once(tmp_path, capsys):
    doc = _example_doc("k2")
    doc["blocks"][0]["probability"] = float("nan")
    model = _write_model(tmp_path / "k2.json", doc)
    assert main(["analyze", "--input", model]) == 1
    assert capsys.readouterr().err == (
        "validation error: schema [block 'K2']: "
        "expected a finite number or an 'a/b' string, got nan\n"
    )


def test_binary64_overflow_is_an_error_message(tmp_path, capsys):
    """chi = 10^300 is a valid rational, but the urn's M and C overflow
    binary64 on their way to the Lyapunov solve."""
    model = _write_model(tmp_path / "k2.json", _example_doc("k2"), chi="1e300", r=3)
    assert main(["analyze", "--input", model]) == 1
    assert capsys.readouterr().err.startswith("error: integer division result too large")


@pytest.mark.parametrize("r", [47, 64])
def test_fig1_analyzes_beyond_a_float_eigensolve(r, example_paths, capsys):
    """fig1's A is so far from normal that a float eigensolve misses its
    claimed eigenvalues from r = 47 on; the exact spectrum certificate does
    not, so every r up to the cap analyzes."""
    assert main(["analyze", "--input", example_paths["fig1"], "--r", str(r)]) == 0
    assert "lambda1 = 31/3" in capsys.readouterr().out


K2_PREFERENTIAL_R12 = {
    "kind": "hooking",
    "chi": "1/3",
    "rho": "1",
    "r": 12,
    "blocks": [
        {"name": "K2", "probability": "1", "vertices": ["h", "a"],
         "edges": [["h", "a"]], "hook": "h"},
    ],
}


@pytest.mark.parametrize(
    "name, digest",
    [
        ("fig1", "381e8e7fcfb30649"),
        ("fig3", "d4f89ddd5754d422"),
        ("k2", "589d031054c40511"),
        ("k2-preferential-r12", "5b08a3f86407f159"),
    ],
    ids=["fig1", "fig3", "k2", "k2-preferential-r12"],
)
def test_analysis_json_is_pinned(name, digest, example_paths, tmp_path):
    """The whole analysis: every exact rational in its printed form and the
    binary64 bits of Sigma.  Sigma is a forward substitution in Python
    floats, whose sums another Python version may round differently (3.12
    compensates ``sum``); the digests were taken with CPython 3.11 on
    x86-64.  Each pinned Sigma is within a few units in the last place of
    the exact rational Sigma (``test_urn.test_sigma_is_exact_to_rounding``)."""
    if name in example_paths:
        model = example_paths[name]
    else:
        model = tmp_path / "model.json"
        model.write_text(json.dumps(K2_PREFERENTIAL_R12))
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--input", str(model), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "name, digest",
    [("fig1", "2cce02df1868164f"), ("fig3", "3c52ab1ea4d99841")],
    ids=["fig1", "fig3"],
)
def test_verify_report_is_pinned(name, digest, example_paths, tmp_path):
    """Every byte of a verification report: the census of 200 replicates
    grown in lock step over two processes, the gates' statistics and the
    whitened scores.  The digests were taken with CPython 3.11 on x86-64
    (see test_analysis_json_is_pinned), whose Sigma the report holds."""
    out = tmp_path / "report.json"
    args = ["verify", "--input", example_paths[name], "--steps", "10000", "--replicates", "200"]
    assert main([*args, "--seed", "42", "--jobs", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


# SHA-256 over the analysis JSON of random_blockset(10_000 + s), s < 100,
# taken with CPython 3.11 on x86-64 (see test_analysis_json_is_pinned)
RANDOM_ANALYSES_SHA256 = "a967d4d7c139111f312873e2c3729e22e379ef274115d3533c39a1a5e632048e"


def test_random_model_analyses_are_pinned(tmp_path, capsys):
    """Every byte of 100 analyses, Sigma's bits included, as written before
    the exact stages moved onto integer pairs and the JSON writer replaced
    ``json.dumps``."""
    model, out = tmp_path / "model.json", tmp_path / "analysis.json"
    digest = hashlib.sha256()
    for s in range(100):
        model.write_text(random_blockset(10_000 + s).to_json())
        assert main(["analyze", "--input", str(model), "--out", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == RANDOM_ANALYSES_SHA256


def test_analyze_builds_no_fraction_matrices(example_paths, monkeypatch, capsys):
    """analyze writes A and B from their integer rows: the urn's Fraction
    views stay unbuilt, and once built they are the values written."""
    urns = []

    def keep(*args):
        urns.append(blocknets.build_urn(*args))
        return urns[-1]

    monkeypatch.setattr(cli, "build_urn", keep)
    assert main(["analyze", "--input", example_paths["fig3"]]) == 0
    (urn,) = urns
    assert "A" not in vars(urn) and "B" not in vars(urn)
    doc = cli.analyze_dict(urn)
    assert "A" not in vars(urn) and "B" not in vars(urn)
    for key, m in (("intensity_matrix", urn.A), ("second_moment", urn.B)):
        assert doc["urn"][key] == [[blocknets.model_io.format_number(x) for x in row] for row in m]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
@example(2)  # rho = -1/2
@example(3)  # a zero eigenvalue (g(0) = 1)
def test_analysis_rationals_are_their_fraction_views(seed):
    """Every rational of the analysis is written from its integer pair, with
    no Fraction view built, and reads as ``format_number`` of that view:
    negative entries (rho, the spectrum's w_k (g(0) - 1), A's diagonal)
    and zeros included."""
    urn = blocknets.build_urn(random_blockset(seed))
    p = urn.profile
    doc = cli.analyze_dict(urn)
    assert not {"activities", "eigenvalues", "v1", "A", "B"} & vars(urn).keys()
    assert not {"chi", "rho", "f", "g", "lambda1", "limit"} & vars(p).keys()
    assert "s" not in vars(p.balance)

    def vec(xs):
        return [format_number(x) for x in xs]

    u = doc["urn"]
    assert (doc["chi"], doc["rho"], doc["lambda1"]) == tuple(vec((p.chi, p.rho, p.lambda1)))
    assert doc["f"] == {str(k): format_number(x) for k, x in p.f.items()}
    assert doc["g"] == {str(k): format_number(x) for k, x in p.g.items()}
    assert doc["limit_vector"] == vec(p.limit)
    assert doc["balance"]["s"] == vec(p.balance.s)
    assert (u["activities"], u["eigenvalues"], u["v1"]) == tuple(
        map(vec, (urn.activities, urn.eigenvalues, urn.v1))
    )
    assert u["intensity_matrix"] == [vec(row) for row in urn.A]
    assert u["second_moment"] == [vec(row) for row in urn.B]


def test_main_reuses_one_parser(example_paths, tmp_path, capsys, monkeypatch):
    """Calls in one process share the parser but not their arguments, and
    a replaced command function takes effect."""
    a = tmp_path / "a.json"
    assert main(["analyze", "--input", example_paths["fig3"], "--out", str(a)]) == 0
    csv = tmp_path / "t.csv"
    code = main(["simulate", "--input", example_paths["k2"], "--steps", "50", "--out", str(csv)])
    assert code == 0
    assert json.loads(a.read_text())["lambda1"] == "5/2"
    assert csv.read_text().splitlines()[-1].startswith("50,")
    b = tmp_path / "b.json"
    assert main(["analyze", "--input", example_paths["k2"], "--out", str(b)]) == 0
    assert json.loads(b.read_text())["essential_degrees"] == [1, 2, 3, 4, 5, 6, 7, 8]
    capsys.readouterr()

    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("blocknets ")

    monkeypatch.setattr("blocknets.cli.cmd_report", lambda args: 7)
    assert main(["report", "--input", str(a)]) == 7


def test_import_loads_no_scipy():
    """The package and its command line load no scipy module: scipy.linalg
    used to be most of every command's start-up time and memory."""
    code = (
        "import sys, blocknets, blocknets.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    src = os.path.dirname(os.path.dirname(blocknets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_commands_load_no_process_pool(example_paths, tmp_path):
    """With no ``.pth`` file preloading anything (``python -S``, numpy found
    through ``PYTHONPATH``), ``analyze`` leaves ``numpy.random`` unloaded,
    which costs about 5.8 MiB and 10 ms, and ``analyze``, graph-mode
    ``simulate`` and ``verify --jobs 1`` never load the process pool
    (``concurrent.futures``, ``multiprocessing``) or ``importlib.resources``:
    only a ``verify`` that forks imports the pool, and only ``load_example``
    reads the bundled files."""
    analyze, *rest = _footprint_commands(example_paths, tmp_path)
    code = """if True:
        import json, sys
        seen = set()
        class Seen:  # records every module imported from here on
            def find_spec(self, name, path=None, target=None):
                seen.add(name)
        sys.meta_path.insert(0, Seen())
        import blocknets, blocknets.cli
        analyze, rest = json.loads(sys.argv[1])
        codes = [blocknets.cli.main(analyze)]
        random = "numpy.random" in sys.modules
        codes += [blocknets.cli.main(c) for c in rest]
        roots = ("concurrent", "multiprocessing", "importlib.resources")
        pool = sorted(m for m in seen | set(sys.modules) if m.startswith(roots))
        print(json.dumps([codes, random, pool]))
    """
    src = os.path.dirname(os.path.dirname(blocknets.__file__))
    site = os.path.dirname(os.path.dirname(np.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, site]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps([analyze, rest])],
        capture_output=True, text=True, check=True, env=env,
    )  # fmt: skip
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, 0, 0], False, []]


def _footprint_commands(example_paths, tmp_path):
    """``analyze``, graph-mode ``simulate`` and one-job ``verify``, small."""
    fig1, fig3 = example_paths["fig1"], example_paths["fig3"]
    return [
        ["analyze", "--input", fig1, "--out", str(tmp_path / "a.json")],
        ["simulate", "--input", fig3, "--steps", "500", "--mode", "graph",
         "--out", str(tmp_path / "t.csv"), "--export-dot", str(tmp_path / "g.dot")],
        ["verify", "--input", fig3, "--steps", "500", "--replicates", "8", "--jobs", "1",
         "--out", str(tmp_path / "v.json")],
    ]  # fmt: skip


def test_commands_load_no_numpy_ma(example_paths, tmp_path):
    """``analyze``, graph-mode ``simulate`` and ``verify`` leave ``numpy.ma``
    unloaded: numpy's first ``np.unique`` or ``np.union1d`` imports it, which
    adds about 2.4 MiB to a command's peak memory."""
    commands = _footprint_commands(example_paths, tmp_path)
    code = (
        "import json, sys; from blocknets import cli; "
        "print(json.dumps([cli.main(c) for c in json.loads(sys.argv[1])])); "
        "print('numpy.ma' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(blocknets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True, text=True, check=True, env=env,
    )  # fmt: skip
    codes, loaded = out.stdout.splitlines()[-2:]
    assert json.loads(codes) == [0, 0, 0]
    assert loaded == "False"


def test_public_names_resolve():
    """Every exported name resolves, and the Fraction re-derivations of
    values that ``build_profile`` and ``build_urn`` hold are gone."""
    from blocknets import profile, urn

    assert all(getattr(blocknets, name, None) is not None for name in blocknets.__all__)
    gone = {
        blocknets: ("degree_profile", "lambda1", "limit_vector", "eigen_closed_form",
                    "right_eigenvector", "activity_vector"),
        profile: ("degree_profile", "lambda1", "limit_vector", "_split"),
        urn: ("activity_vector", "eigen_closed_form", "right_eigenvector"),
        profile.DegreeProfile: ("g0",),
        urn.UrnModel: ("A_float", "v1_float", "activities_float"),
    }
    assert not [(owner, n) for owner, names in gone.items() for n in names if hasattr(owner, n)]


def _load_benchmark_tracing():
    """The benchmark's ``perfbench/tracing.py``, compiled from its text into a
    fresh module, so that nothing is written beside it."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    mod = types.ModuleType("perfbench_tracing")
    exec(code, mod.__dict__)
    return mod


def test_benchmark_trace_sites_resolve_and_record_every_stage(example_paths, capsys):
    """The benchmark times each layer by wrapping the functions that one
    module looks up in another, by name.  A stage that is renamed, or called
    around its module global, would read 0 there without any error.  So
    every site must resolve, and one analyze of fig1 under the wrappers must
    record a span at each layer it passes through."""
    tracing = _load_benchmark_tracing()
    for mod, attr, _, _ in tracing._sites():
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} is gone"
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert main(["analyze", "--input", example_paths["fig1"]]) == 0
    names = {s["name"] for s in tracer.spans}
    want = {
        "model_io.load",
        "profile.build",
        "urn.build",
        "urn.law",
        "urn.intensity",
        "urn.spectrum",
        "urn.second_moment",
        "urn.sigma",
    }
    assert want <= names, f"no span for {sorted(want - names)}"

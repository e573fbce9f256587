"""End-to-end command-line behaviour and exit codes."""

from __future__ import annotations

import hashlib
import json
from importlib import resources

import pytest

from blocknets.cli import main


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


def test_report_rejects_other_json(example_paths):
    assert main(["report", "--input", example_paths["fig1"]]) == 1


def test_internal_consistency_exit_code(example_paths, capsys):
    # more tracked classes than the urn supports is reported by the urn
    # build as an internal consistency error
    assert main(["analyze", "--input", example_paths["k2"], "--r", "65"]) == 3
    err = capsys.readouterr().err
    assert "internal consistency" in err
    assert "exceeds the supported maximum 64" in err


def test_verify_deterministic_model(tmp_path, capsys):
    # one unit-source block tracked at r = 1: every replicate has the same
    # census, Sigma = 0 and the limit law is a point mass at the mean
    doc = {
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
    p = tmp_path / "point-mass.json"
    p.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    code = main([
        "verify", "--input", str(p), "--steps", "2000", "--replicates", "200",
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
        ("fig1", "9e03e8238216a8d7"),
        ("fig3", "e9df218a3906bb9b"),
        ("k2", "be0df0864c9910f1"),
        ("k2-preferential-r12", "303cb2b0262cfdd0"),
    ],
)
def test_analysis_json_is_pinned(name, digest, example_paths, tmp_path):
    """The whole analysis: every exact rational in its printed form and the
    binary64 bits of Sigma.  Sigma comes from a LAPACK solve, so another
    numpy/scipy build may round it differently; the digests were taken with
    numpy 2.4 and scipy 1.17 on x86-64."""
    if name in example_paths:
        model = example_paths[name]
    else:
        model = tmp_path / "model.json"
        model.write_text(json.dumps(K2_PREFERENTIAL_R12))
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--input", str(model), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


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

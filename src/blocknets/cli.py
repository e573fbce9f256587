"""Command-line interface.

Subcommands:
  analyze   closed-form analytics of a block-set file (JSON + table)
  simulate  one growth run; census trajectory CSV, optional DOT snapshot
  verify    replicated Monte-Carlo run against the analytic predictions
  report    re-render a saved verification report

Exit codes: 0 ok, 1 validation error (also unreadable files, a network
outgrowing --max-vertices and a model whose urn matrices overflow
binary64), 2 verification failure, 3 internal consistency error, 141
when the reader of stdout closed it early (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .growth import (
    CENSUS,
    DEFAULT_MAX_VERTICES,
    GRAPH,
    ResourceLimitError,
    export_dot,
    simulate,
    write_trajectory_csv,
)
from .model_io import (
    BlockSetError,
    InternalConsistencyError,
    format_json,
    format_ratio,
    load_blockset,
)
from .profile import build_profile
from .urn import build_urn
from .verify import Tolerances, render_table, verify_model

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_INTERNAL = 3
# 128 + SIGPIPE, the status a shell reports for a writer that SIGPIPE ends
EXIT_BROKEN_PIPE = 141


def _fmt_matrix(m) -> list[list]:
    """Rows of int numerators over one scale, in ``format_number``'s form.
    The rows repeat few distinct numerators, so each is formatted once."""
    rows, d = m
    text = {n: format_ratio(n, d) for n in {n for row in rows for n in row}}.__getitem__
    return [list(map(text, row)) for row in rows]


def _fmt_vector(v) -> list:
    """Int numerators over one scale, in ``format_number``'s form."""
    ns, d = v
    return [format_ratio(n, d) for n in ns]


def analyze_dict(urn) -> dict:
    """The analysis document.  Every rational is written from its integer
    pair; no Fraction view is built."""
    p, x = urn.profile, urn.profile.pairs
    (chi, rho), dw, dp = x.weights, x.dw, x.dp
    doc = {
        "schema": "blocknets-analysis/1",
        "kind": p.kind,
        "exact": True,
        "chi": format_ratio(chi, dw),
        "rho": format_ratio(rho, dw),
        "f": {str(k): format_ratio(n, dp) for k, n in x.f.items()},
        "g": {str(k): format_ratio(n, dp) for k, n in x.g.items()},
        "essential_degrees": list(p.essential),
        "lambda1": format_ratio(x.lambda1, dw * dp),
        "limit_vector": _fmt_vector(x.limit),
        "balance": {
            "s": _fmt_vector(p.balance.increments),
            "balanced": p.balance.balanced,
        },
        "urn": {
            "types": [t if isinstance(t, str) else int(t) for t in urn.types],
            "activities": _fmt_vector(urn.activities_cleared),
            "intensity_matrix": _fmt_matrix(urn.A_cleared),
            "eigenvalues": _fmt_vector(urn.eigenvalues_cleared),
            "v1": _fmt_vector(urn.v1_cleared),
            "second_moment": _fmt_matrix(urn.B_cleared),
            "sigma": np.asarray(urn.Sigma).tolist(),
            "irreducible": urn.irreducible,
            "balanced": urn.balanced,
        },
    }
    if urn.balanced:
        doc["balance"]["note"] = (
            "balanced model: every attachment changes the total weight by the "
            "same constant, and the limit law holds in all moments"
        )
    return doc


def _analysis_table(doc: dict) -> str:
    lines = [
        f"kind: {doc['kind']}   chi={doc['chi']} rho={doc['rho']}   (exact arithmetic)",
        f"f: {doc['f']}",
        f"g: {doc['g']}",
        f"essential degrees: {doc['essential_degrees']}",
        f"lambda1 = {doc['lambda1']}",
        f"limit vector: {doc['limit_vector']}",
        f"balance constants s: {doc['balance']['s']}  balanced: {doc['balance']['balanced']}",
    ]
    if "note" in doc["balance"]:
        lines.append(f"  note: {doc['balance']['note']}")
    lines.append(f"urn types: {doc['urn']['types']}  activities: {doc['urn']['activities']}")
    lines.append("intensity matrix A:")
    for row in doc["urn"]["intensity_matrix"]:
        lines.append("  [" + ", ".join(str(x) for x in row) + "]")
    lines.append(f"eigenvalues: {doc['urn']['eigenvalues']}")
    lines.append(f"v1: {doc['urn']['v1']}")
    lines.append("sigma (limit covariance):")
    for row in doc["urn"]["sigma"]:
        lines.append("  [" + ", ".join(f"{x:.6g}" for x in row) + "]")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    bs = load_blockset(args.input)
    urn = build_urn(bs, build_profile(bs, args.r))
    doc = analyze_dict(urn)
    print(_analysis_table(doc))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_json(doc))
        print(f"analysis written to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    mode = args.mode
    if args.export_dot and mode != GRAPH:
        print("--export-dot needs --mode graph", file=sys.stderr)
        return EXIT_VALIDATION
    bs = load_blockset(args.input)
    state = simulate(
        bs,
        args.steps,
        mode=mode,
        seed=args.seed,
        record=True,
        max_vertices=args.max_vertices,
    )
    x, star = state.trajectory_x[-1], state.trajectory_star[-1]
    print(
        f"{mode} simulation: n={args.steps} seed={args.seed}\n"
        f"final census over {list(state.track)}: {x.tolist()}  "
        f"overflow activity: {star:.6g}  vertices: {state.n_vertices}"
    )
    if args.out:
        write_trajectory_csv(args.out, state)
        print(f"trajectory written to {args.out}")
    if args.export_dot:
        with open(args.export_dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(state))
        print(f"DOT snapshot written to {args.export_dot}")
    return EXIT_OK


def cmd_verify(args) -> int:
    bs = load_blockset(args.input)
    tol = Tolerances()
    if args.tolerances:
        with open(args.tolerances, "r", encoding="utf-8") as fh:
            tol = Tolerances.from_dict(json.load(fh))
    report = verify_model(
        bs,
        n=args.steps,
        replicates=args.replicates,
        seed=args.seed,
        jobs=args.jobs,
        tol=tol,
        perturb_mean=args.perturb_mean,
        perturb_cov=args.perturb_cov,
        max_vertices=args.max_vertices,
    )
    print(report.to_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.out}")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _is_check(c) -> bool:
    """Whether ``c`` is a ``checks`` entry as ``VerificationReport.to_dict``
    writes it and ``render_table`` reads it."""
    return (
        isinstance(c, dict)
        and isinstance(c.get("name"), str)
        and c.get("verdict") in ("PASS", "FAIL", "SKIP")
        and all(
            isinstance(c.get(k), (int, float)) and not isinstance(c.get(k), bool)
            for k in ("statistic", "threshold")
        )
    )


def cmd_report(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not (
        isinstance(doc, dict)
        and doc.get("schema") == "blocknets-report/1"
        and {"n", "replicates", "seed", "checks", "passed"} <= doc.keys()  # what it renders
        and isinstance(doc["checks"], list)
        and all(map(_is_check, doc["checks"]))
        # what VerificationReport.passed computes
        and doc["passed"] is all(c["verdict"] != "FAIL" for c in doc["checks"])
    ):
        print(f"not a verification report: {args.input}", file=sys.stderr)
        return EXIT_VALIDATION
    print(render_table(doc))
    return EXIT_OK if doc["passed"] else EXIT_VERIFICATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only parses."""
    ap = argparse.ArgumentParser(
        prog="blocknets",
        description="Grow block networks and verify their degree-census limit laws.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="closed-form analytics for a block-set file")
    pa.add_argument("--input", required=True)
    pa.add_argument("--r", type=int, default=None, help="override tracked class count")
    pa.add_argument("--out", default=None, help="write analysis JSON here")

    ps = sub.add_parser("simulate", help="run one growth simulation")
    ps.add_argument("--input", required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--mode", choices=[GRAPH, CENSUS], default=CENSUS)
    ps.add_argument("--out", default=None, help="trajectory CSV path")
    ps.add_argument("--export-dot", default=None, help="DOT snapshot path (graph mode)")
    ps.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)

    pv = sub.add_parser("verify", help="Monte-Carlo verification of the limit law")
    pv.add_argument("--input", required=True)
    pv.add_argument("--steps", type=int, default=100_000)
    pv.add_argument("--replicates", type=int, default=400)
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, at most the usable CPUs; the process pool module "
        "is imported at the first fork",
    )
    pv.add_argument("--out", default=None, help="report JSON path")
    pv.add_argument("--tolerances", default=None, help="JSON file overriding gates")
    pv.add_argument(
        "--perturb-mean",
        type=float,
        default=0.0,
        help="negative control: scale the predicted mean by (1+x)",
    )
    pv.add_argument(
        "--perturb-cov",
        type=float,
        default=1.0,
        help="negative control: scale the predicted covariance by x",
    )
    pv.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)

    pr = sub.add_parser("report", help="render a saved verification report")
    pr.add_argument("--input", required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so that a replaced cmd_* function takes effect
    command = {
        "analyze": cmd_analyze,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "report": cmd_report,
    }[args.command]
    try:
        status = command(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader has gone: stop without a message.  stdout is pointed at
        # the null device, so that the interpreter's last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except BlockSetError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError, OverflowError, FloatingPointError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the calls into each blocknets module, and the per-layer
metrics derived from them.

The spans are recorded from the benchmark's own files: ``patched`` swaps the
public functions that one module calls in another for timing wrappers, at the
names the caller looks them up by, and puts the originals back afterwards.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time


class Tracer:
    """Spans (name, start, end, parent, round, attributes) of the main
    thread, kept in memory; ``round`` tags the spans of one round."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.round = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if describe is not None:
                    rec["attrs"].update(describe(args, kwargs, out))
                return out

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _urn(args, kwargs, out):
    return {"types": len(out.types)}


def _simulate(args, kwargs, out):
    return {
        "mode": kwargs.get("mode", "census"),
        "steps": int(args[1]),
        "vertices": int(out.n_vertices),
        "max_deg": int(out.max_deg),
    }


def _csv(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _replicates(args, kwargs, out):
    return {"steps": int(args[1]) * int(args[2])}


def _sites():
    """(module, attribute, span name, describe) for every layer boundary."""
    from blocknets import cli, urn, verify

    return [
        (cli, "load_blockset", "model_io.load", None),
        (cli, "build_profile", "profile.build", None),
        (urn, "build_profile", "profile.build", None),
        (cli, "build_urn", "urn.build", _urn),
        (verify, "build_urn", "urn.build", _urn),
        (urn, "build_replacement_law", "urn.law", None),
        (urn, "intensity_matrix", "urn.intensity", None),
        (urn, "validate_spectrum", "urn.spectrum", None),
        (urn, "second_moment_matrix", "urn.second_moment", None),
        (urn, "covariance", "urn.sigma", None),
        (cli, "simulate", "growth.simulate", _simulate),
        (cli, "write_trajectory_csv", "growth.csv_write", _csv),
        (cli, "export_dot", "graph.export_dot", None),
        (verify, "run_replicates", "census.replicates", _replicates),
        (verify, "mean_check", "verify.gate", None),
        (verify, "covariance_check", "verify.gate", None),
        (verify, "whiten_scores", "verify.gate", None),
        (verify, "normality_check", "verify.gate", None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer):
    saved = []
    try:
        for mod, attr, name, describe in _sites():
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn, describe))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# Per-layer metrics: name -> unit.  Every run reports all of them; a layer
# that the workload never calls reads 0.
PER_LAYER = {
    "model_io.parse_s": "s",
    "model_io.models": "count",
    "profile.build_s": "s",
    "urn.law_s": "s",
    "urn.intensity_s": "s",
    "urn.spectrum_s": "s",
    "urn.second_moment_s": "s",
    "urn.sigma_s": "s",
    "urn.build_s": "s",
    "urn.self_s": "s",
    "urn.types": "count",
    "census.replicates_s.fig1": "s",
    "census.replicates_s.fig3": "s",
    "census.replicate_steps_per_s.fig1": "steps/s",
    "census.replicate_steps_per_s.fig3": "steps/s",
    "census.max_deg.fig1": "count",
    "census.max_deg.fig3": "count",
    "census.record_steps_per_s": "steps/s",
    "graph.steps_per_s.fig1": "steps/s",
    "graph.steps_per_s.fig3": "steps/s",
    "graph.vertices": "count",
    "graph.export_dot_s": "s",
    "graph.bytes_per_vertex": "B",
    "growth.csv_write_s": "s",
    "growth.csv_bytes": "B",
    "verify.gates_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def self_time(span: dict, children: list[dict]) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = 0.0
    cursor = span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], cursor), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span["end"] - span["start"]) - covered


def round_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced round.  Only spans below a timed
    command count; negative controls and other untimed commands are left out."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def command_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    m = {k: 0.0 for k in PER_LAYER if k != "trace.overhead_s"}
    steps: dict[str, float] = {}
    secs: dict[str, float] = {}

    def rate(key, n, dt):
        steps[key] = steps.get(key, 0.0) + n
        secs[key] = secs.get(key, 0.0) + dt

    for s in spans:
        top = command_of(s)
        if not top["attrs"].get("timed"):
            continue
        model = top["attrs"].get("model")
        dt = s["end"] - s["start"]
        a = s["attrs"]
        name = s["name"]
        if s is top:
            m["cli.self_s"] += self_time(s, children.get(s["id"], []))
        elif name == "model_io.load":
            m["model_io.parse_s"] += dt
            m["model_io.models"] += 1
        elif name == "profile.build":
            m["profile.build_s"] += dt
        elif name == "urn.build":
            m["urn.build_s"] += dt
            m["urn.self_s"] += self_time(s, children.get(s["id"], []))
            m["urn.types"] += a["types"]
        elif name in ("urn.law", "urn.intensity", "urn.spectrum", "urn.second_moment", "urn.sigma"):
            m[name + "_s"] += dt
        elif name == "census.replicates":
            if model in ("fig1", "fig3"):
                m[f"census.replicates_s.{model}"] += dt
                rate(f"census.replicate_steps_per_s.{model}", a["steps"], dt)
        elif name == "growth.simulate":
            if a["mode"] == "census":
                rate("census.record_steps_per_s", a["steps"], dt)
                if model in ("fig1", "fig3"):
                    key = f"census.max_deg.{model}"
                    m[key] = max(m[key], a["max_deg"])
            else:
                m["graph.vertices"] += a["vertices"]
                if model in ("fig1", "fig3"):
                    rate(f"graph.steps_per_s.{model}", a["steps"], dt)
        elif name == "graph.export_dot":
            m["graph.export_dot_s"] += dt
        elif name == "growth.csv_write":
            m["growth.csv_write_s"] += dt
            m["growth.csv_bytes"] += a["bytes"]
        elif name == "verify.gate":
            m["verify.gates_s"] += dt
    for key, n in steps.items():
        m[key] = n / secs[key] if secs[key] > 0 else 0.0
    return m


def per_layer(tracer: Tracer, rounds: list[int]) -> dict[str, float]:
    """Median over the traced rounds of each per-layer metric."""
    per_round = [round_metrics([s for s in tracer.spans if s["round"] == r]) for r in rounds]
    return {k: statistics.median(pr[k] for pr in per_round) for k in per_round[0]}

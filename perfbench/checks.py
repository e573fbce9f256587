"""Output checks for the three workloads.

Each check reads what a command wrote and tests a property the method must
have; none compares against a stored copy of earlier output.  Every function
returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from fractions import Fraction

import numpy as np

LYAPUNOV_REL_TOL = 1e-9
GATES = ("mean", "covariance", "normality-skew", "normality-kurtosis", "normality-ks")
MIN_REPLICATES = 200
# Relative distance of the replicate mean from lambda1 * nu that a correct
# run stays within at the benchmark's sizes (measured: at most 0.24%, on
# fig1), while a 5% perturbation cannot.
MEAN_REL_TOL = 0.02


def _exact(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError(f"expected an exact rational, got the float {x!r}")
    return Fraction(x)


def _exact_urn(doc: dict):
    """lambda1, a, v1, A and B of an analysis JSON as exact rationals."""
    u = doc["urn"]
    lam = _exact(doc["lambda1"])
    a = [_exact(x) for x in u["activities"]]
    v1 = [_exact(x) for x in u["v1"]]
    A = [[_exact(x) for x in row] for row in u["intensity_matrix"]]
    B = [[_exact(x) for x in row] for row in u["second_moment"]]
    return lam, a, v1, A, B


def lyapunov_residual(doc: dict) -> float:
    """Relative residual of M Sigma + Sigma M' = -lambda1 C in the analysis
    JSON, with M = Ahat - (lambda1/2) I, Ahat = A - lambda1 v1 a' and
    C = B - lambda1^2 v1 v1', built exactly and compared in binary64.

    The limit covariance lambda1 * int e^{s Ahat} C e^{s Ahat'} e^{-lambda1 s} ds
    solves this equation (Janson 2004), whichever way it was computed.
    """
    lam, a, v1, A, B = _exact_urn(doc)
    q = len(a)
    M = np.array(
        [
            [float(A[i][j] - lam * v1[i] * a[j] - (lam / 2 if i == j else 0)) for j in range(q)]
            for i in range(q)
        ]
    )
    C = np.array([[float(B[i][j] - lam * lam * v1[i] * v1[j]) for j in range(q)] for i in range(q)])
    S = np.array(doc["urn"]["sigma"], dtype=np.float64)
    lamf = float(lam)
    resid = M @ S + S @ M.T + lamf * C
    return float(np.linalg.norm(resid) / (lamf * np.linalg.norm(C)))


def check_analysis(doc: dict) -> list[str]:
    """Exact eigen-identities and the Lyapunov equation for Sigma."""
    problems = []
    if doc.get("schema") != "blocknets-analysis/1":
        return [f"unexpected schema {doc.get('schema')!r}"]
    if doc.get("exact") is not True:
        return ["the analysis is not exact although every input is rational"]
    lam, a, v1, A, _ = _exact_urn(doc)
    q = len(a)
    if len(doc["urn"]["types"]) != q or len(A) != q or len(v1) != q:
        return ["urn dimensions disagree"]
    for j in range(q):
        if sum(a[i] * A[i][j] for i in range(q)) != lam * a[j]:
            problems.append(f"a'A != lambda1 a' at column {j}")
    for i in range(q):
        if sum(A[i][j] * v1[j] for j in range(q)) != lam * v1[i]:
            problems.append(f"A v1 != lambda1 v1 at row {i}")
    if sum(x * y for x, y in zip(a, v1)) != 1:
        problems.append("a'v1 != 1")
    S = np.array(doc["urn"]["sigma"], dtype=np.float64)
    if S.shape != (q, q):
        return problems + [f"sigma has shape {S.shape}, expected {(q, q)}"]
    scale = max(float(np.max(np.abs(S))), 1e-300)
    if float(np.max(np.abs(S - S.T))) > 1e-12 * scale:
        problems.append("sigma is not symmetric")
    if float(np.linalg.eigvalsh((S + S.T) / 2).min()) < -1e-9 * scale:
        problems.append("sigma is not positive semidefinite")
    res = lyapunov_residual(doc)
    if not res <= LYAPUNOV_REL_TOL:
        problems.append(f"Lyapunov relative residual {res:.3e} > {LYAPUNOV_REL_TOL:g}")
    return problems


def check_trajectories_equal(census_csv: bytes, graph_csv: bytes, steps: int) -> list[str]:
    """Census and graph mode share one stream and one decision procedure, so
    their trajectory files for the same (model, n, seed) are byte-identical."""
    problems = []
    rows = census_csv.count(b"\n")
    if rows != steps + 2:
        problems.append(f"census CSV has {rows} lines, expected {steps + 2}")
    if census_csv != graph_csv:
        problems.append("census and graph trajectories differ")
    return problems


def parse_dot(text: str):
    """(directed, vertices, labels, edges) of a DOT file written by
    ``blocknets simulate --export-dot``."""
    lines = text.strip().splitlines()
    head = lines[0].strip()
    if head not in ("graph G {", "digraph G {") or lines[-1].strip() != "}":
        raise ValueError(f"not a blocknets DOT file: {head!r}")
    directed = head.startswith("digraph")
    arrow = " -> " if directed else " -- "
    vertices, labels, edges = [], {}, []
    for line in lines[1:-1]:
        stmt = line.strip().rstrip(";")
        if arrow in stmt:
            x, y = stmt.split(arrow)
            edges.append((x, y))
        else:
            name, _, attr = stmt.partition(" ")
            vertices.append(name)
            if attr:
                labels[attr.split('"')[1]] = name
    return directed, vertices, labels, edges


def _census_from_csv(csv_text: str):
    header, *rows = csv_text.strip().splitlines()
    cols = header.split(",")
    last = rows[-1].split(",")
    tracked = {int(c[1:]): int(v) for c, v in zip(cols[1:-1], last[1:-1])}
    return tracked, float(last[-1])


def check_dot(
    dot_text: str,
    kind: str,
    chi: Fraction,
    rho: Fraction,
    census_csv: str,
    census_vertices: int,
) -> list[str]:
    """Structure of the exported network, and agreement with the census-mode
    run of the same (model, n, seed): vertex count, tracked census and the
    overflow activity."""
    directed, vertices, labels, edges = parse_dot(dot_text)
    problems = []
    if directed != (kind == "bipolar"):
        return [f"{kind} network exported as {'digraph' if directed else 'graph'}"]
    declared = set(vertices)
    if len(declared) != len(vertices):
        problems.append("a vertex is declared twice")
    if any(x not in declared or y not in declared for x, y in edges):
        return problems + ["an edge uses an undeclared vertex"]
    outd, ind, deg = Counter(), Counter(), Counter()
    for x, y in edges:
        outd[x] += 1
        ind[y] += 1
        deg[x] += 1
        deg[y] += 1
    nbrs = {v: [] for v in vertices}
    for x, y in edges:
        nbrs[x].append(y)
        if not directed:
            nbrs[y].append(x)

    if kind == "hooking":
        masters = [labels.get("H")]
        if set(labels) != {"H"}:
            problems.append(f"expected one hook label H, got {sorted(labels)}")
        if sum(deg[v] for v in vertices) != 2 * len(edges):
            problems.append("degree sum != 2|E|")
        tracked_degree = deg
        if _reach(nbrs, masters[0]) != len(vertices):
            problems.append("the hooking network is not connected")
    else:
        masters = [labels.get("N"), labels.get("S")]
        if set(labels) != {"N", "S"}:
            problems.append(f"expected pole labels N and S, got {sorted(labels)}")
        if not sum(outd[v] for v in vertices) == sum(ind[v] for v in vertices) == len(edges):
            problems.append("outdegree or indegree sum != |E|")
        if [v for v in vertices if ind[v] == 0] != [labels.get("N")]:
            problems.append("the north pole is not the unique source")
        if [v for v in vertices if outd[v] == 0] != [labels.get("S")]:
            problems.append("the south pole is not the unique sink")
        tracked_degree = outd
        if _reach(nbrs, labels.get("N")) != len(vertices):
            problems.append("not every vertex is reachable from the north pole")
    if problems:
        return problems

    if len(vertices) != census_vertices:
        problems.append(f"{len(vertices)} vertices, census mode counted {census_vertices}")
    tracked, star = _census_from_csv(census_csv)
    census = Counter(tracked_degree[v] for v in vertices if v not in masters)
    got = {k: census.get(k, 0) for k in tracked}
    if got != tracked:
        problems.append(f"graph census {got} != census-mode census {tracked}")
    overflow = sum((chi * k + rho) * c for k, c in census.items() if k not in tracked)
    total = sum((chi * k + rho) * c for k, c in census.items())
    if abs(float(overflow) - star) > 1e-9 * max(float(total), 1.0):
        problems.append(f"overflow activity {float(overflow)!r} != census-mode {star!r}")
    return problems


def _reach(nbrs: dict, start) -> int:
    if start not in nbrs:
        return 0
    seen = {start}
    todo = deque([start])
    while todo:
        for y in nbrs[todo.popleft()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen)


def check_verify_report(doc: dict) -> list[str]:
    """Every gate ran and passed, R is large enough for all of them, and the
    replicate mean sits near the predicted lambda1 * nu."""
    if doc.get("schema") != "blocknets-report/1":
        return [f"unexpected schema {doc.get('schema')!r}"]
    problems = []
    if doc["replicates"] < MIN_REPLICATES:
        problems.append(f"R = {doc['replicates']} < {MIN_REPLICATES}: some gates would skip")
    verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
    if sorted(verdicts) != sorted(GATES):
        problems.append(f"gates run: {sorted(verdicts)}, expected {sorted(GATES)}")
    problems += [f"gate {g}: {v}" for g, v in verdicts.items() if v != "PASS"]
    if doc["passed"] is not True:
        problems.append("report says the verification failed")
    pred = np.array(doc["predicted_mean"], dtype=np.float64)
    emp = np.array(doc["empirical_mean"], dtype=np.float64)
    rel = float(np.max(np.abs(emp - pred) / pred))
    if not rel <= MEAN_REL_TOL:
        problems.append(f"replicate mean is {rel:.2%} off lambda1*nu (> {MEAN_REL_TOL:.0%})")
    return problems


def check_negative_control(doc: dict, gate: str) -> list[str]:
    """A deliberately wrong prediction must fail its own gate."""
    verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
    problems = []
    if verdicts.get(gate) != "FAIL":
        problems.append(f"negative control: gate {gate} gave {verdicts.get(gate)}, expected FAIL")
    if doc["passed"] is not False:
        problems.append("negative control: report says the verification passed")
    return problems


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

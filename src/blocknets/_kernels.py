"""Census-mode growth kernels.

The inner loop of a census-mode simulation is a few hundred float
operations per step and dominates the runtime of Monte-Carlo
verification, so it is compiled with numba when available.  Without
numba the same loop runs in pure Python over list copies of the arrays;
that fallback can be forced with the environment variable
``BLOCKNETS_NO_NUMBA=1``, and both paths produce bit-identical streams.

Step layout of the pre-drawn uniforms (one row per step):

    col 0  latch class selection
    col 1  index inside the class (used by graph mode, discarded here)
    col 2  block selection
    col 3  out-arc index (bipolar graph mode only, discarded here)

Status codes returned by the kernels: 0 = chunk finished, 1 = the counts
array is too small for the next step (caller grows it and re-enters).
"""

from __future__ import annotations

import os


STATUS_OK = 0
STATUS_GROW = 1


def _census_steps(
    counts,
    state_i,
    state_f,
    chi,
    rho,
    block_p,
    block_d,
    block_s,
    block_nv,
    nd_flat,
    nd_off,
    u,
    ess,
    x_out,
    star_out,
    record,
):
    """The census loop.  numba compiles it over the numpy arrays; the Python
    backend runs it unchanged over lists (see ``_py_census_chunk``), so both
    backends share one operation order."""
    max_deg = int(state_i[0])
    master_deg = int(state_i[1])
    n_vertices = int(state_i[2])
    total = float(state_f[0])
    cap = len(counts)
    m = len(block_p)
    steps = len(u)
    r = len(ess)

    done = steps
    status = STATUS_OK
    for j in range(steps):
        row = u[j]
        target = row[0] * total
        cls = -1
        acc = 0.0
        for k in range(1, max_deg + 1):
            acc += (chi * k + rho) * counts[k]
            if target < acc:
                cls = k
                break

        ub = row[2]
        b = m - 1
        accp = 0.0
        for i in range(m):
            accp += block_p[i]
            if ub < accp:
                b = i
                break

        d = block_d[b]
        need = 0
        if cls != -1 and cls + d > need:
            need = cls + d
        for t in range(nd_off[b], nd_off[b + 1]):
            if nd_flat[t] > need:
                need = nd_flat[t]
        if need >= cap:
            done = j
            status = STATUS_GROW
            break

        if cls == -1:
            master_deg += d
        elif d > 0:
            counts[cls] -= 1
            counts[cls + d] += 1
            if cls + d > max_deg:
                max_deg = cls + d
        for t in range(nd_off[b], nd_off[b + 1]):
            c = nd_flat[t]
            counts[c] += 1
            if c > max_deg:
                max_deg = c
        n_vertices += block_nv[b]
        total += block_s[b]

        if record:
            sacc = total - (chi * master_deg + rho)
            xrow = x_out[j]
            for i in range(r):
                ki = ess[i]
                xrow[i] = counts[ki]
                sacc -= (chi * ki + rho) * counts[ki]
            star_out[j] = sacc

    state_i[0] = max_deg
    state_i[1] = master_deg
    state_i[2] = n_vertices
    state_f[0] = total
    return done, status


def _py_census_chunk(
    counts,
    state_i,
    state_f,
    chi,
    rho,
    block_p,
    block_d,
    block_s,
    block_nv,
    nd_flat,
    nd_off,
    u,
    ess,
    x_out,
    star_out,
    record,
):
    """Python backend: run ``_census_steps`` over list copies of the arrays
    (element access on numpy arrays costs several times more than on lists),
    then write the mutated state back.  Python floats and ints are binary64
    and exact integers, so the stream is bit-identical to the numba one."""
    steps = u.shape[0]
    cl = counts.tolist()
    si = state_i.tolist()
    sf = state_f.tolist()
    if record:
        xl = [[0] * ess.shape[0] for _ in range(steps)]
        sl = [0.0] * steps
    else:
        xl, sl = [], []
    done, status = _census_steps(
        cl,
        si,
        sf,
        float(chi),
        float(rho),
        block_p.tolist(),
        block_d.tolist(),
        block_s.tolist(),
        block_nv.tolist(),
        nd_flat.tolist(),
        nd_off.tolist(),
        u.tolist(),
        ess.tolist(),
        xl,
        sl,
        record,
    )
    counts[:] = cl
    state_i[:] = si
    state_f[:] = sf
    if record and done:
        x_out[:done] = xl[:done]
        star_out[:done] = sl[:done]
    return done, status


_USE_NUMBA = os.environ.get("BLOCKNETS_NO_NUMBA", "").strip() not in ("1", "true", "yes")
_numba_census_chunk = None

if _USE_NUMBA:
    try:
        import numba

        _numba_census_chunk = numba.njit(cache=True)(_census_steps)
    except ImportError:  # pragma: no cover - exercised via env flag instead
        _USE_NUMBA = False


def backend_name() -> str:
    """Which census kernel is active: 'numba' or 'python'."""
    return "numba" if (_USE_NUMBA and _numba_census_chunk is not None) else "python"


def census_chunk(*args, backend: str | None = None):
    """Run one chunk of census-mode growth steps.

    ``backend`` forces 'numba' or 'python' for benchmarking; by default the
    module-level selection (env flag + availability) applies.
    """
    use = backend or backend_name()
    if use == "numba":
        if _numba_census_chunk is None:
            raise RuntimeError("numba backend requested but numba is unavailable")
        return _numba_census_chunk(*args)
    return _py_census_chunk(*args)

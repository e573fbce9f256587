"""Urn construction: replacement law, intensity matrix, spectra, covariance."""

from __future__ import annotations

import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocknets import (
    InternalConsistencyError,
    STAR,
    build_profile,
    build_urn,
    replacement_vector,
)
from blocknets import urn as urn_module
from blocknets.cli import analyze_dict, main
from blocknets.model_io import blockset_from_dict
from blocknets.profile import _clear, _over
from blocknets.urn import (
    LYAPUNOV_RESIDUAL_TOL,
    _over_matrix,
    build_replacement_law,
    covariance,
    intensity_matrix,
    irreducibility_check,
    second_moment_matrix,
    validate_spectrum,
)

from conftest import clear_matrix, random_blockset, sigma_exact, sigma_relative_error

TINY = F(1, 10**40)
# Sigma against the exact rational Sigma: a few units in the last place
SIGMA_EXACT_TOL = 1e-13


@pytest.fixture(scope="module")
def urn1(fig1):
    return build_urn(fig1)


@pytest.fixture(scope="module")
def urn3(fig3):
    return build_urn(fig3)


def test_replacement_vectors_fig1(fig1):
    p = build_profile(fig1)
    # star block G2 attached to a degree-1 latch: four new leaves, latch 1->5
    assert replacement_vector(fig1, p, 1, 1) == (F(3), F(0), F(1), F(0))
    # G2 attached to a degree-5 latch: latch overflows to degree 9 = 9 balls
    assert replacement_vector(fig1, p, 5, 1) == (F(4), F(0), F(-1), F(9))
    # G1 attached to a degree-3 latch
    assert replacement_vector(fig1, p, 3, 0) == (F(2), F(-1), F(1), F(0))
    # overflow latch: chi * hook-degree new overflow balls
    assert replacement_vector(fig1, p, STAR, 3) == (F(0), F(4), F(0), F(4))


def test_replacement_vectors_fig3(fig3):
    p = build_profile(fig3)
    # B1's source has outdegree 1: the latch keeps its degree
    assert replacement_vector(fig3, p, 2, 0) == (F(2), F(0), F(1), F(0))
    # B2 bumps the latch by one
    assert replacement_vector(fig3, p, 2, 1) == (F(0), F(1), F(1), F(0))
    assert replacement_vector(fig3, p, 3, 1) == (F(0), F(2), F(-1), F(1))


def test_expected_replacements_fig1(fig1):
    p = build_profile(fig1)
    law = build_replacement_law(fig1, p)
    assert law.expected(1) == (F(1), F(2), F(2, 3), F(0))
    assert law.expected(3) == (F(2), F(2, 3), F(1, 3), F(14, 3))
    assert law.expected(5) == (F(2), F(5, 3), F(-1), F(25, 3))
    assert law.expected(STAR) == (F(2), F(5, 3), F(0), F(10, 3))


def test_intensity_matrix_goldens(urn1, urn3):
    golden1 = [[F(c, 6) for c in row] for row in
               [[6, 36, 60, 12], [12, 12, 50, 10], [4, 6, -30, 0], [0, 84, 250, 20]]]
    assert [list(r) for r in urn1.A] == golden1
    golden3 = [[F(c, 2) for c in row] for row in
               [[1, 2, 2, 2], [3, 1, 2, 2], [1, 2, 0, 1], [0, 0, 1, 0]]]
    assert [list(r) for r in urn3.A] == golden3


def test_k2_unit_intensity(k2):
    urn = build_urn(k2, build_profile(k2, r=1))
    assert [list(r) for r in urn.A] == [[F(0), F(1)], [F(1), F(0)]]
    assert urn.eigenvalues == (F(1), F(-1))
    assert urn.v1 == (F(1, 2), F(1, 2))
    assert [list(r) for r in urn.B] == [[F(1, 2), F(0)], [F(0), F(1, 2)]]


def test_spectra_goldens(urn1, urn3):
    assert urn1.eigenvalues == (F(31, 3), F(-1), F(-3), F(-5))
    assert urn3.eigenvalues == (F(5, 2), F(-1, 2), F(-1, 2), F(-1, 2))


# every source has outdegree 1, so g(0)=1 and the non-dominant eigenvalues
# collapse to zero
UNIT_SOURCE = {
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


def test_degenerate_all_unit_sources_spectrum(tmp_path):
    doc = UNIT_SOURCE
    bs = blockset_from_dict(doc)
    p = build_profile(bs, r=1)
    urn = build_urn(bs, p)  # overflow type still reachable because deg 3 > k_1
    assert urn.eigenvalues == (F(3), F(0))
    assert urn.irreducible

    # fully tracked closure: nothing ever feeds the overflow type, so the urn
    # is reducible.  The census is deterministic, Sigma = 0 passes its
    # Lyapunov certificate, and the analysis reports the reducibility.
    p2 = build_profile(bs, r=2)
    urn2 = build_urn(bs, p2)
    assert not urn2.irreducible
    assert np.array_equal(urn2.Sigma, np.zeros((3, 3)))
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(dict(doc, r=2)))
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["urn"]["irreducible"] is False


# Two unit-source bipolar blocks whose new vertices are all tracked: the
# latch never moves and nothing feeds the overflow type.
REDUCIBLE = {
    "kind": "bipolar",
    "chi": "1/2",
    "rho": "1/3",
    "r": 3,
    "blocks": [
        {"name": "P", "probability": "1/3", "vertices": ["n", "m", "x", "s"],
         "edges": [["n", "m"], ["m", "x"], ["m", "s"], ["x", "s"]],
         "north": "n", "south": "s"},
        {"name": "Q", "probability": "2/3", "vertices": ["n", "m", "a", "b", "s"],
         "edges": [["n", "m"], ["m", "a"], ["m", "b"], ["m", "s"], ["a", "s"],
                   ["b", "s"]],
         "north": "n", "south": "s"},
    ],
}


def test_reducible_urn_sigma_matches_exact():
    """The ``REDUCIBLE`` urn is reducible, yet its census fluctuates and
    Sigma solves the same Lyapunov equation."""
    urn = build_urn(blockset_from_dict(REDUCIBLE))
    assert not urn.irreducible
    assert _lyapunov_relative_residual(urn) <= LYAPUNOV_RESIDUAL_TOL
    assert sigma_relative_error(urn.Sigma, sigma_exact(urn)) < SIGMA_EXACT_TOL
    assert np.max(np.abs(urn.sigma_census())) > 0.1


def test_right_eigenvector_goldens(urn1, urn3):
    assert urn1.v1 == (F(6, 34), F(11, 85), F(63, 3910), F(1387, 3910))
    assert urn3.v1 == (F(1, 3), F(7, 18), F(25, 108), F(5, 108))


def test_activity_normalization(urn1, urn3):
    for urn in (urn1, urn3):
        assert sum(a * v for a, v in zip(urn.activities, urn.v1)) == 1


def test_left_and_right_eigen_identities_exact(urn1, urn3):
    for urn in (urn1, urn3):
        q = len(urn.types)
        lam = urn.lambda1
        for j in range(q):
            assert sum(urn.activities[i] * urn.A[i][j] for i in range(q)) == lam * urn.activities[j]
        for i in range(q):
            assert sum(urn.A[i][j] * urn.v1[j] for j in range(q)) == lam * urn.v1[i]


def test_activity_change_equals_balance_constant(fig1, fig3):
    for bs in (fig1, fig3):
        p = build_profile(bs)
        law = build_replacement_law(bs, p)
        acts = [p.w(k) for k in p.essential] + [F(1)]
        for draws in law.scaled:
            for b_idx, (_, vec) in enumerate(draws):
                change = sum(a * x for a, x in zip(acts, vec)) / law.vec_scale
                assert change == p.balance.s[b_idx]


def test_second_moment_properties(urn1):
    Bf = np.array(urn1.B, dtype=float)
    assert np.allclose(Bf, Bf.T)
    assert np.linalg.eigvalsh(Bf).min() > -1e-12


def test_single_outcome_second_moment_is_outer_product(k2):
    # one block means each type has a deterministic replacement, so each
    # B_t is the outer product of its expectation
    p = build_profile(k2, r=1)
    law = build_replacement_law(k2, p)
    for ti, t in enumerate(law.types):
        ((prob, _),) = law.scaled[ti]
        assert prob == law.prob_scale
        assert law.expected(t) == replacement_vector(k2, p, t, 0)
    urn = build_urn(k2, p)
    q = len(urn.types)
    exp = [law.expected(t) for t in urn.types]
    weight = [urn.v1[t] * urn.activities[t] for t in range(q)]
    assert [list(row) for row in urn.B] == [
        [sum(weight[t] * exp[t][i] * exp[t][j] for t in range(q)) for j in range(q)]
        for i in range(q)
    ]


def test_stages_return_int_numerators_over_a_scale(urn1, urn3):
    """intensity_matrix and second_moment_matrix hand on rows of ints over
    one int scale; the urn's Fraction A and B are those values."""
    for urn in (urn1, urn3):
        p, law = urn.profile, urn.law
        acts, v1 = _clear(urn.activities), _clear(urn.v1)
        for (rows, d), want in (
            (intensity_matrix(p, law, acts), urn.A),
            (second_moment_matrix(law, acts, v1), urn.B),
        ):
            assert type(d) is int and d > 0
            assert all(type(x) is int for row in rows for x in row)
            assert _over_matrix(rows, d) == want


def test_k2_sigma_matches_hand_integral(k2):
    urn = build_urn(k2, build_profile(k2, r=1))
    want = np.array([[1.0, -1.0], [-1.0, 1.0]]) / 12.0
    assert np.max(np.abs(urn.Sigma - want)) < 1e-10


def _lyapunov_relative_residual(urn) -> float:
    """||M Sigma + Sigma M' + lam1 C||_F / (lam1 ||C||_F), with M and C built
    exactly from the urn's rationals."""
    q = len(urn.types)
    lam, a, v1 = urn.lambda1, urn.activities, urn.v1
    M = np.array(
        [[urn.A[i][j] - lam * v1[i] * a[j] - (lam / 2 if i == j else 0) for j in range(q)]
         for i in range(q)],
        dtype=float,
    )
    C = np.array(
        [[urn.B[i][j] - lam * lam * v1[i] * v1[j] for j in range(q)] for i in range(q)],
        dtype=float,
    )
    S, lamf = urn.Sigma, float(lam)
    return float(np.linalg.norm(M @ S + S @ M.T + lamf * C) / (lamf * np.linalg.norm(C)))


def test_sigma_matches_exact_fig1(urn1):
    assert sigma_relative_error(urn1.Sigma, sigma_exact(urn1)) < SIGMA_EXACT_TOL


def test_sigma_matches_exact_for_defective_spectrum(urn3):
    # -1/2 is a triple eigenvalue, so A is not diagonalizable
    assert urn3.eigenvalues[1:] == (F(-1, 2),) * 3
    assert sigma_relative_error(urn3.Sigma, sigma_exact(urn3)) < SIGMA_EXACT_TOL


K2_PREFERENTIAL = {
    "kind": "hooking",
    "chi": "1/3",
    "rho": "1",
    "blocks": [
        {"name": "K2", "probability": "1", "vertices": ["h", "a"],
         "edges": [["h", "a"]], "hook": "h"},
    ],
}


@pytest.mark.parametrize("r", [10, 12])
def test_ill_conditioned_eigenbasis_model(r, tmp_path):
    """chi > 0 with many tracked classes: A's eigenvector matrix has a
    condition number in the millions (2.7e6 at r=10), so Sigma must not
    depend on diagonalizing A."""
    doc = dict(K2_PREFERENTIAL, r=r)
    urn = build_urn(blockset_from_dict(doc))
    assert _lyapunov_relative_residual(urn) <= LYAPUNOV_RESIDUAL_TOL
    assert sigma_relative_error(urn.Sigma, sigma_exact(urn)) < SIGMA_EXACT_TOL
    path = tmp_path / f"k2_r{r}.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--input", str(path)]) == 0


def test_sigma_residual_certificate(fig1, monkeypatch):
    solve = urn_module._lower_lyapunov
    monkeypatch.setattr(
        urn_module, "_lower_lyapunov", lambda t, q: [[1.01 * x for x in row] for row in solve(t, q)]
    )
    with pytest.raises(InternalConsistencyError, match="Lyapunov"):
        build_urn(fig1)


def test_sigma_symmetric_psd(urn1, urn3):
    for urn in (urn1, urn3):
        s = urn.Sigma
        assert np.allclose(s, s.T)
        assert np.linalg.eigvalsh(s).min() >= -1e-9


def test_activity_marginal_of_sigma(fig1, fig3, k2):
    """a' Sigma a equals the variance of the per-block activity increment;
    for balanced models the total activity is deterministic and this is 0."""
    for bs, r in ((fig1, None), (fig3, None), (k2, 4)):
        p = build_profile(bs, r)
        urn = build_urn(bs, p)
        af = np.array(urn.activities, dtype=float)
        probs = np.array([float(b.probability) for b in bs.blocks])
        s = np.array([float(x) for x in p.balance.s])
        var_s = float(probs @ s**2 - (probs @ s) ** 2)
        assert abs(float(af @ urn.Sigma @ af) - var_s) < 1e-8
        if urn.balanced:
            assert var_s == 0.0


def test_growth_direction_projector(urn1, urn3):
    """P = I - v1 a' projects off the growth direction: idempotent, kills v1,
    and is annihilated by the activity vector on the left."""
    for urn in (urn1, urn3):
        af, v1f = np.array(urn.activities, dtype=float), np.array(urn.v1, dtype=float)
        P = np.eye(len(af)) - np.outer(v1f, af)
        assert np.max(np.abs(P @ P - P)) < 1e-10
        assert np.max(np.abs(P @ v1f)) < 1e-12
        assert np.max(np.abs(af @ P)) < 1e-12


def test_irreducibility_examples(urn1, urn3, k2):
    assert urn1.irreducible and urn3.irreducible
    assert build_urn(k2).irreducible


def _with_entry(A, i, j, delta):
    return tuple(
        tuple(x + delta if (a, b) == (i, j) else x for b, x in enumerate(row))
        for a, row in enumerate(A)
    )


def test_validate_spectrum_catches_wrong_claim(urn1, urn3):
    with pytest.raises(InternalConsistencyError, match="claimed eigenvalue -4"):
        validate_spectrum(
            clear_matrix(urn1.A), _clear(urn1.activities), _clear((F(31, 3), F(-1), F(-3), F(-4)))
        )
    for urn in (urn1, urn3):
        A, a, eigs = clear_matrix(urn.A), _clear(urn.activities), urn.eigenvalues
        validate_spectrum(A, a, _clear(eigs))
        with pytest.raises(InternalConsistencyError, match="claimed eigenvalue"):
            validate_spectrum(A, a, _clear(eigs[:2] + (eigs[2] + TINY,) + eigs[3:]))
        with pytest.raises(InternalConsistencyError, match="dominant eigenvalue"):
            validate_spectrum(A, a, _clear((eigs[0] + TINY,) + eigs[1:]))


def test_spectrum_certificate_catches_a_perturbed_A(urn1, urn3):
    """A change far below any float tolerance in an entry of A above or on
    the tracked diagonal breaks the triangular form or its diagonal."""
    for urn in (urn1, urn3):
        A, a, eigs = urn.A, _clear(urn.activities), _clear(urn.eigenvalues)
        with pytest.raises(InternalConsistencyError, match=r"above the diagonal at \[0\]\[2\]"):
            validate_spectrum(clear_matrix(_with_entry(A, 0, 2, TINY)), a, eigs)
        with pytest.raises(InternalConsistencyError, match="diagonal entry 1"):
            validate_spectrum(clear_matrix(_with_entry(A, 1, 1, TINY)), a, eigs)


def test_covariance_refuses_an_unstable_triangular_basis(urn1):
    """Each t_ii must be negative, checked on the integers.  With lam1 added
    to A[0][0], the first tracked class has t = -1 + lam1/2 > 0; with lam1
    claimed to be 0, t_** = (a'A)_* / a_* = 31/3 > 0."""
    u = urn1
    A, B, a, v1 = clear_matrix(u.A), clear_matrix(u.B), _clear(u.activities), _clear(u.v1)
    lam = u.lambda1.as_integer_ratio()
    with pytest.raises(InternalConsistencyError, match=r"T\[1\]\[1\] \(\* first\) is not negative"):
        covariance(clear_matrix(_with_entry(u.A, 0, 0, u.lambda1)), B, a, v1, lam)
    with pytest.raises(InternalConsistencyError, match=r"T\[0\]\[0\] \(\* first\) is not negative"):
        covariance(A, B, a, v1, F(0).as_integer_ratio())


@pytest.mark.parametrize(
    "name, r", [("fig1", None), ("fig3", None), ("k2", None), ("k2-preferential", 12), ("fig1", 47)]
)
def test_sigma_is_exact_to_rounding(name, r, fig1, fig3, k2):
    """The pinned analyses' Sigma, and fig1 at the first r where a float
    eigensolve failed, are the exact rational Sigma to within a few units in
    the last place."""
    bs = {"fig1": fig1, "fig3": fig3, "k2": k2}.get(name) or blockset_from_dict(
        dict(K2_PREFERENTIAL, r=r)
    )
    urn = build_urn(bs, build_profile(bs, r))
    assert sigma_relative_error(urn.Sigma, sigma_exact(urn)) < 1e-14


def test_decimal_document_equals_its_fraction_twin():
    """Decimals are the rationals they spell: a model written with them and
    the same model written as "a/b" strings are one model."""

    def doc(chi, rho, p):
        return {
            "kind": "hooking",
            "chi": chi,
            "rho": rho,
            "r": 3,
            "blocks": [
                {"name": "P", "probability": p, "vertices": ["h", "a", "b"],
                 "edges": [["h", "a"], ["a", "b"]], "hook": "h"},
                {"name": "S", "probability": p, "vertices": ["h", "a", "b", "c"],
                 "edges": [["h", "a"], ["h", "b"], ["h", "c"]], "hook": "h"},
            ],
        }

    decimal = blockset_from_dict(doc(0.3, 0.25, 0.5))
    twin = blockset_from_dict(doc("3/10", "1/4", "1/2"))
    assert decimal == twin
    assert analyze_dict(build_urn(decimal)) == analyze_dict(build_urn(twin))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_models_structural_invariants(seed):
    bs = random_blockset(seed)
    urn = build_urn(bs)
    q = len(urn.types)
    lam = urn.lambda1
    for j in range(q):
        assert sum(urn.activities[i] * urn.A[i][j] for i in range(q)) == lam * urn.activities[j]
    validate_spectrum(clear_matrix(urn.A), _clear(urn.activities), _clear(urn.eigenvalues))
    assert np.linalg.eigvalsh(urn.Sigma).min() >= -1e-9
    assert sigma_relative_error(urn.Sigma, sigma_exact(urn)) < SIGMA_EXACT_TOL
    # irreducible iff the off-diagonal support of A is strongly connected
    support = (np.array(urn.A, dtype=float) > 0) | np.eye(q, dtype=bool)
    reach = np.linalg.matrix_power(support.astype(np.int64), q - 1) > 0
    assert urn.irreducible == bool(reach.all())


def test_intensity_check_catches_a_wrong_replacement_vector(fig1, monkeypatch):
    """The mixture and the closed form of A are compared exactly: one extra
    ball in one replacement vector is a mismatch."""
    block_vectors = urn_module._block_vectors

    def wrong(bs, profile, block_index, chi, rho, one):
        vecs = block_vectors(bs, profile, block_index, chi, rho, one)
        if block_index == 1:
            vecs[0] = (vecs[0][0] + one,) + vecs[0][1:]
        return vecs

    monkeypatch.setattr(urn_module, "_block_vectors", wrong)
    with pytest.raises(InternalConsistencyError, match="intensity matrix mismatch"):
        build_urn(fig1)


def test_eigen_identities_are_exact(urn1, urn3):
    """Perturbations far below any float tolerance still fail the checks."""
    check = urn_module._check_eigen_identities
    for urn in (urn1, urn3):
        A, a, v1 = clear_matrix(urn.A), urn.activities, urn.v1
        lam = urn.lambda1.as_integer_ratio()
        check(A, _clear(a), _clear(v1), lam)
        with pytest.raises(InternalConsistencyError, match="right eigenvector fails at row"):
            check(A, _clear(a), _clear(v1[:1] + (v1[1] + TINY,) + v1[2:]), lam)
        with pytest.raises(InternalConsistencyError, match="not a left eigenvector at column"):
            check(A, _clear((a[0] + TINY,) + a[1:]), _clear(v1), lam)
        with pytest.raises(InternalConsistencyError, match="not normalized"):
            check(A, _clear(a), _clear(tuple(x * (1 + TINY) for x in v1)), lam)


def test_build_urn_checks_the_right_eigenvector(fig3, monkeypatch):
    right = urn_module._right_eigenvector

    def perturbed(p):
        v1 = _over(*right(p))
        return _clear((v1[0] + TINY,) + v1[1:])

    monkeypatch.setattr(urn_module, "_right_eigenvector", perturbed)
    with pytest.raises(InternalConsistencyError, match="right eigenvector fails"):
        build_urn(fig3)


def _strongly_connected_from_every_start(law) -> bool:
    """The definition: from every type, a search over the positive
    replacement entries reaches every type."""
    q = len(law.types)
    succ = [
        {u for _, vec in law.scaled[t] for u, x in enumerate(vec) if x > 0}
        for t in range(q)
    ]
    for start in range(q):
        seen, stack = {start}, [start]
        while stack:
            for y in succ[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        if len(seen) != q:
            return False
    return True


def test_irreducibility_check_matches_every_start_search(fig1, fig3, k2):
    """One forward and one backward search from type 0 decide strong
    connectivity exactly as a search from every type does."""
    models = [fig1, fig3, k2] + [
        blockset_from_dict(doc) for doc in (REDUCIBLE, dict(UNIT_SOURCE, r=2))
    ]
    models += [random_blockset(10_000 + s) for s in range(100)]
    laws = [build_replacement_law(bs, build_profile(bs)) for bs in models]
    # Every type of a block-set urn feeds type 0, the smallest new-vertex
    # degree, so only a hand-made law needs the backward search: 0 -> 1 -> 2
    # -> 1 reaches every type from 0, but 0 from no other type.
    laws.append(
        urn_module.ReplacementLaw(
            types=(1, 2, STAR),
            scaled=(((1, (0, 1, 0)),), ((1, (0, 0, 1)),), ((1, (0, 1, 0)),)),
            prob_scale=1,
            vec_scale=1,
        )
    )
    verdicts = [irreducibility_check(law) for law in laws]
    assert verdicts == [_strongly_connected_from_every_start(law) for law in laws]
    assert verdicts[:5] == [True, True, True, False, False] and verdicts[-1] is False

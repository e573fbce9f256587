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
    eigen_closed_form,
    replacement_vector,
)
from blocknets import urn as urn_module
from blocknets.cli import main
from blocknets.model_io import blockset_from_dict
from blocknets.urn import (
    LYAPUNOV_RESIDUAL_TOL,
    _to_float_matrix,
    build_replacement_law,
    validate_spectrum,
)

from conftest import random_blockset, sigma_oracle


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


def test_degenerate_all_unit_sources_spectrum(tmp_path):
    # every source has outdegree 1, so g(0)=1 and the non-dominant
    # eigenvalues collapse to zero
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
    bs = blockset_from_dict(doc)
    p = build_profile(bs, r=1)
    assert eigen_closed_form(p) == (F(3), F(0))
    urn = build_urn(bs, p)  # overflow type still reachable because deg 3 > k_1
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


def test_reducible_urn_sigma_matches_quadrature():
    """Two unit-source bipolar blocks whose new vertices are all tracked:
    the latch never moves and nothing feeds the overflow type, so the urn is
    reducible, yet its census fluctuates and Sigma solves the same
    Lyapunov equation."""
    doc = {
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
    urn = build_urn(blockset_from_dict(doc))
    assert not urn.irreducible
    assert _lyapunov_relative_residual(urn) <= LYAPUNOV_RESIDUAL_TOL
    assert np.max(np.abs(urn.Sigma - sigma_oracle(urn))) < 1e-9
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
        for t in law.types:
            for b_idx, _, vec in law.outcomes[t]:
                change = sum(a * x for a, x in zip(acts, vec))
                assert change == p.balance.s[b_idx]


def test_second_moment_properties(urn1):
    Bf = _to_float_matrix(urn1.B)
    assert np.allclose(Bf, Bf.T)
    assert np.linalg.eigvalsh(Bf).min() > -1e-12


def test_single_outcome_second_moment_is_outer_product(k2):
    # one block means each type has a deterministic replacement, so each
    # B_t is the outer product of its expectation
    p = build_profile(k2, r=1)
    law = build_replacement_law(k2, p)
    for t in law.types:
        ((_, prob, vec),) = law.outcomes[t]
        assert prob == 1
        exp = law.expected(t)
        assert exp == vec


def test_k2_sigma_matches_hand_integral(k2):
    urn = build_urn(k2, build_profile(k2, r=1))
    want = np.array([[1.0, -1.0], [-1.0, 1.0]]) / 12.0
    assert np.max(np.abs(urn.Sigma - want)) < 1e-10


def _lyapunov_relative_residual(urn) -> float:
    """||M Sigma + Sigma M' + lam1 C||_F / (lam1 ||C||_F), with M and C built
    exactly from the urn's rationals."""
    q = len(urn.types)
    lam, a, v1 = urn.lambda1, urn.activities, urn.v1
    M = _to_float_matrix(
        [[urn.A[i][j] - lam * v1[i] * a[j] - (lam / 2 if i == j else 0) for j in range(q)]
         for i in range(q)]
    )
    C = _to_float_matrix(
        [[urn.B[i][j] - lam * lam * v1[i] * v1[j] for j in range(q)] for i in range(q)]
    )
    S, lamf = urn.Sigma, float(lam)
    return float(np.linalg.norm(M @ S + S @ M.T + lamf * C) / (lamf * np.linalg.norm(C)))


def test_sigma_matches_quadrature_fig1(urn1):
    assert np.max(np.abs(urn1.Sigma - sigma_oracle(urn1))) < 1e-9


def test_sigma_matches_quadrature_for_defective_spectrum(urn3):
    # -1/2 is a triple eigenvalue, so A is not diagonalizable
    assert urn3.eigenvalues[1:] == (F(-1, 2),) * 3
    assert np.max(np.abs(urn3.Sigma - sigma_oracle(urn3))) < 1e-9


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
    assert np.max(np.abs(urn.Sigma - sigma_oracle(urn))) < 1e-9
    path = tmp_path / f"k2_r{r}.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--input", str(path)]) == 0


def test_sigma_residual_certificate(fig1, monkeypatch):
    solve = urn_module.solve_continuous_lyapunov
    monkeypatch.setattr(
        urn_module, "solve_continuous_lyapunov", lambda a, q: 1.01 * solve(a, q)
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
        af = urn.activities_float()
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
        af, v1f = urn.activities_float(), urn.v1_float()
        P = np.eye(len(af)) - np.outer(v1f, af)
        assert np.max(np.abs(P @ P - P)) < 1e-10
        assert np.max(np.abs(P @ v1f)) < 1e-12
        assert np.max(np.abs(af @ P)) < 1e-12


def test_irreducibility_examples(urn1, urn3, k2):
    assert urn1.irreducible and urn3.irreducible
    assert build_urn(k2).irreducible


def test_validate_spectrum_catches_wrong_claim(urn1):
    with pytest.raises(InternalConsistencyError):
        validate_spectrum(urn1.A, (F(31, 3), F(-1), F(-3), F(-4)))


def test_decimal_mode_end_to_end():
    doc = {
        "kind": "hooking",
        "chi": 0.5,
        "rho": 0.25,
        "r": 3,
        "blocks": [
            {"name": "P", "probability": 0.5, "vertices": ["h", "a", "b"],
             "edges": [["h", "a"], ["a", "b"]], "hook": "h"},
            {"name": "S", "probability": 0.5, "vertices": ["h", "a", "b", "c"],
             "edges": [["h", "a"], ["h", "b"], ["h", "c"]], "hook": "h"},
        ],
    }
    bs = blockset_from_dict(doc)
    assert not bs.exact
    urn = build_urn(bs)
    assert isinstance(urn.lambda1, float)
    assert abs(sum(urn.profile.g.values()) - 1.0) < 1e-12
    af, v1f = urn.activities_float(), urn.v1_float()
    Af = urn.A_float()
    assert np.max(np.abs(af @ Af - float(urn.lambda1) * af)) < 1e-9
    assert np.max(np.abs(Af @ v1f - float(urn.lambda1) * v1f)) < 1e-9
    assert np.linalg.eigvalsh(urn.Sigma).min() >= -1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_models_structural_invariants(seed):
    bs = random_blockset(seed)
    urn = build_urn(bs)
    q = len(urn.types)
    lam = urn.lambda1
    if bs.exact:
        for j in range(q):
            assert sum(urn.activities[i] * urn.A[i][j] for i in range(q)) == lam * urn.activities[j]
    validate_spectrum(urn.A, urn.eigenvalues)
    assert np.linalg.eigvalsh(urn.Sigma).min() >= -1e-9
    assert np.max(np.abs(urn.Sigma - sigma_oracle(urn))) < 1e-9
    # irreducible iff the off-diagonal support of A is strongly connected
    support = (urn.A_float() > 0) | np.eye(q, dtype=bool)
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


TINY = F(1, 10**40)


def test_eigen_identities_are_exact(urn1, urn3):
    """Perturbations far below any float tolerance still fail the checks."""
    check = urn_module._check_eigen_identities
    for urn in (urn1, urn3):
        A, a, v1, lam = urn.A, urn.activities, urn.v1, urn.lambda1
        check(A, a, v1, lam, True)
        with pytest.raises(InternalConsistencyError, match="right eigenvector fails at row"):
            check(A, a, v1[:1] + (v1[1] + TINY,) + v1[2:], lam, True)
        with pytest.raises(InternalConsistencyError, match="not a left eigenvector at column"):
            check(A, (a[0] + TINY,) + a[1:], v1, lam, True)
        with pytest.raises(InternalConsistencyError, match="not normalized"):
            check(A, a, tuple(x * (1 + TINY) for x in v1), lam, True)


def test_build_urn_checks_the_right_eigenvector(fig3, monkeypatch):
    right = urn_module.right_eigenvector
    monkeypatch.setattr(
        urn_module,
        "right_eigenvector",
        lambda p: (right(p)[0] + TINY,) + right(p)[1:],
    )
    with pytest.raises(InternalConsistencyError, match="right eigenvector fails"):
        build_urn(fig3)

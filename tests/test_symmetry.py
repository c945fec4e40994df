"""GF(2) parity-matrix encoding, RREF and the XORSAT solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktr.models import ModelSpec, build, known_time_reversal
from ktr.paulis import PauliString, PauliSum, dense_matrix
from ktr.symmetry import (Infeasible, SymmetrySolution, build_parity_matrix, rref,
                          solve_time_reversal, verify_time_reversal)

from oracles import (all_pauli_strings, bits_to_mask, brute_force_reversals_dense,
                     random_pauli_sum)


def _chain(n, letters, start):
    lab = ["I"] * n
    for k, ch in enumerate(letters):
        lab[start + k] = ch
    return PauliString.from_label("".join(lab))


def test_parity_row_example():
    h = PauliSum(4, ((1.0, PauliString.from_label("XYZI")),))
    m = build_parity_matrix(h)
    assert m == (0b1100_0110,)


def test_parity_matrix_strips_identity_terms():
    h = PauliSum(3, ((2.0, PauliString.from_label("III")),
                      (1.0, _chain(3, "X", 0))))
    with pytest.warns(UserWarning):
        m = build_parity_matrix(h)
    assert len(m) == 1


def test_parity_matrix_empty_is_an_error():
    h = PauliSum(3, ((2.0, PauliString.from_label("III")),))
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            build_parity_matrix(h)


def test_parity_matrix_tfim_three_sites():
    # two XX terms and three Z terms on three qubits: a 5 x 6 matrix
    terms = [(-1.0, _chain(3, "XX", 0)), (-1.0, _chain(3, "XX", 1))]
    terms += [(-0.5, _chain(3, "Z", i)) for i in range(3)]
    m = build_parity_matrix(PauliSum(3, tuple(terms)))
    assert m == (
        0b110_000,
        0b011_000,
        0b000_100,
        0b000_010,
        0b000_001,
    )


def test_rref_identity_fixed_point():
    eye = (0b1000, 0b0100, 0b0010, 0b0001)
    reduced, pivots = rref(eye, 4)
    assert reduced == eye and pivots == (0, 1, 2, 3)


def test_rref_idempotent_and_cancels_duplicates():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = [bits_to_mask(row) for row in rng.integers(0, 2, size=(5, 7))]
        a[3] = a[1]  # duplicated row must vanish
        reduced, pivots = rref(a, 7)
        again, pivots2 = rref(reduced, 7)
        assert again == reduced and pivots2 == pivots
        assert not any(reduced[len(pivots):])
        assert list(pivots) == sorted(pivots)


def test_heisenberg_augmented_system_is_inconsistent():
    spec = ModelSpec("heisenberg", 4, {"j_x": 1.0, "j_y": 0.8, "j_z": 1.3})
    outcome = solve_time_reversal(build(spec))
    assert isinstance(outcome, Infeasible)


def test_cluster_solutions_contain_both_patterns():
    spec = ModelSpec("cluster", 4, {"g_x": 1.0, "g_zz": 0.9, "g_zxz": 1.1})
    sol = solve_time_reversal(build(spec))
    assert not isinstance(sol, Infeasible)
    labels = {s.label() for s in sol.solutions()}
    assert "YZYZ" in labels
    assert "ZYZY" in labels


def test_tfim_solution_space():
    spec = ModelSpec("tfim", 4, {"gamma": 0.3})
    h = build(spec)
    sol = solve_time_reversal(h)
    assert not isinstance(sol, Infeasible)
    assert "YXYX" in {s.label() for s in sol.solutions()}
    for t in sol.solutions():
        assert verify_time_reversal(t, h)


def test_decode_trivial_and_hermitian_phase():
    # (t_z | t_x) = (00 | 11) and (11 | 11)
    (t_all_x,) = SymmetrySolution(0b00_11, (), 2).solutions()
    assert t_all_x.label() == "XX"
    (t_all_y,) = SymmetrySolution(0b11_11, (), 2).solutions()
    assert t_all_y.label() == "YY"
    td = dense_matrix(t_all_y)
    assert np.allclose(td, td.conj().T)
    assert np.allclose(td @ td, np.eye(4))


def test_verify_rejects_commuting_operator():
    spec = ModelSpec("tfim", 4, {"gamma": 0.3})
    h = build(spec)
    assert not verify_time_reversal(PauliString.from_label("XXXX"), h)


def test_verify_agrees_with_dense_anticommutator():
    rng = np.random.default_rng(13)
    for _ in range(10):
        h = random_pauli_sum(3, 4, rng)
        hd = dense_matrix(h)
        for p in (PauliString.from_label("YYY"), PauliString.from_label("ZXZ")):
            dense_anti = np.max(np.abs(dense_matrix(p) @ hd + hd @ dense_matrix(p))) == 0.0
            assert verify_time_reversal(p, h) == dense_anti


def test_solver_completeness_small_instances():
    # the affine solution space must coincide with exhaustive dense search
    cases = [
        build(ModelSpec("tfim", 4, {"gamma": 0.4})),
        build(ModelSpec("cluster", 4, {"g_x": 1.0, "g_zz": 1.0, "g_zxz": 1.0})),
        build(ModelSpec("heisenberg", 4, {"j_x": 1.0, "j_y": 1.0, "j_z": 1.0})),
    ]
    rng = np.random.default_rng(37)
    cases += [random_pauli_sum(3, 4, rng) for _ in range(6)]
    for h in cases:
        brute = brute_force_reversals_dense(h)
        outcome = solve_time_reversal(h)
        if isinstance(outcome, Infeasible):
            assert brute == set()
        else:
            solved = {(t.x, t.z) for t in outcome.solutions()}
            assert solved == brute


@st.composite
def _distinct_term_sums(draw):
    """Sums of distinct non-identity strings with nonzero coefficients."""
    n = draw(st.integers(1, 3))
    strings = list(all_pauli_strings(n))  # index 0 is the identity
    picks = draw(st.lists(st.integers(1, 4 ** n - 1), min_size=1, max_size=8, unique=True))
    coeffs = st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0))
    return PauliSum(n, tuple((draw(coeffs), strings[i]) for i in picks))


@settings(max_examples=80, deadline=None)
@given(_distinct_term_sums())
def test_solver_matches_exhaustive_search(h):
    brute = brute_force_reversals_dense(h)
    outcome = solve_time_reversal(h)
    assert isinstance(outcome, Infeasible) == (brute == set())
    if not isinstance(outcome, Infeasible):
        assert {(t.x, t.z) for t in outcome.solutions()} == brute


def test_solver_soundness_randomized():
    rng = np.random.default_rng(43)
    solvable = 0
    while solvable < 8:
        h = random_pauli_sum(5, 5, rng)
        outcome = solve_time_reversal(h)
        if isinstance(outcome, Infeasible):
            continue
        solvable += 1
        for t in outcome.solutions(limit=16):
            assert verify_time_reversal(t, h)


def test_odd_interaction_rule():
    # every term with an odd count of factors from {a, c} admits the
    # all-b string as a reversal operator
    rng = np.random.default_rng(51)
    paulis = ["X", "Y", "Z"]
    for trial in range(10):
        perm = list(rng.permutation(paulis))
        a, b, c = perm
        n = 5
        terms = []
        for _ in range(6):
            lab = [rng.choice(["I", b]) for _ in range(n)]
            odd_count = 1 + 2 * int(rng.integers(0, 2))
            sites = rng.choice(n, size=min(odd_count, n), replace=False)
            for q in sites:
                lab[q] = str(rng.choice([a, c]))
            terms.append((float(rng.normal()), PauliString.from_label("".join(lab))))
        h = PauliSum(n, tuple(terms))
        t_all_b = PauliString.from_label(b * n)
        assert verify_time_reversal(t_all_b, h)
        sol = solve_time_reversal(h)
        assert not isinstance(sol, Infeasible)
        assert t_all_b.label() in {s.label() for s in sol.solutions()}


def test_solution_count_and_vector_enumeration():
    spec = ModelSpec("tfim", 4, {"gamma": 0.3})
    sol = solve_time_reversal(build(spec))
    solutions = list(sol.solutions())
    assert len(solutions) == sol.count
    parity = build_parity_matrix(build(spec))
    for s in solutions:
        vec = s.z << s.n | s.x  # (t_z | t_x)
        assert all((row & vec).bit_count() % 2 == 1 for row in parity)


def test_symmetry_search_never_compiles_pauli_actions():
    # a compiled action at n = 256 would exceed the statevector cap and raise
    h = build(ModelSpec("tfim", 256, {"gamma": 0.4}))
    sol = solve_time_reversal(h)
    assert not isinstance(sol, Infeasible)
    assert verify_time_reversal(next(sol.solutions()), h)

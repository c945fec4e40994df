"""GF(2) parity-matrix encoding, RREF and the XORSAT solver."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktr.models import ModelSpec, build, known_time_reversal
from ktr.paulis import PauliString, PauliSum, commutes
from ktr.symmetry import (Infeasible, SymmetrySolution, _nullspace, build_parity_matrix,
                          commutant, rref, solve_time_reversal, verify_time_reversal)

from oracles import (all_pauli_strings, bits_to_mask, brute_force_reversals_dense,
                     kron_matrix, random_pauli_sum, rref_by_columns)


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


@pytest.mark.parametrize("row, width", [(-1, 4), (0b10000, 4), (1, 0)])
def test_rref_refuses_rows_outside_the_width(row, width):
    with pytest.raises(ValueError, match="row 1 "):
        rref([0, row], width)


@st.composite
def _gf2_rows(draw):
    """A width of 1 to 80 bits and up to 60 rows, with zero, sparse and
    duplicate rows among them."""
    width = draw(st.integers(1, 80))
    sparse = st.sets(st.integers(0, width - 1), max_size=3).map(
        lambda bits: sum(1 << b for b in bits))
    row = st.one_of(st.just(0), sparse, st.integers(0, (1 << width) - 1))
    rows = draw(st.lists(row, max_size=50))
    if rows:
        rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))]
    return draw(st.permutations(rows)), width


@settings(max_examples=300, deadline=None)
@given(_gf2_rows())
def test_rref_matches_the_column_scan(case):
    rows, width = case
    assert rref(rows, width) == rref_by_columns(rows, width)


@settings(max_examples=150, deadline=None)
@given(_gf2_rows())
def test_nullspace_is_a_basis_of_the_even_overlap_space(case):
    rows, width = case
    reduced, pivots = rref(rows, width)
    basis = _nullspace(reduced, pivots, width)
    assert len(basis) == width - len(pivots)
    assert all((row & t).bit_count() % 2 == 0 for row in reduced for t in basis)
    assert len(rref_by_columns(basis, width)[1]) == len(basis)  # independent


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
    td = kron_matrix(t_all_y)
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
        hd = kron_matrix(h)
        for p in (PauliString.from_label("YYY"), PauliString.from_label("ZXZ")):
            dense_anti = np.max(np.abs(kron_matrix(p) @ hd + hd @ kron_matrix(p))) == 0.0
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


_CHAIN_PARAMS = {
    "tfim": {"gamma": 0.6},
    "cluster": {"g_x": 1.0, "g_zz": 0.5, "g_zxz": 0.3},
    "heisenberg": {"j_x": 1.0, "j_y": 0.8, "j_z": 0.6},
    "z2higgs": {"mu": 0.9, "g": 1.1},
}


def _expected_commutant(kind, n):
    """(X-type count, Z-type count) of each chain's symmetry group."""
    ones = (1 << n) - 1
    if kind == "tfim":
        return [], [ones]
    if kind == "cluster":
        return [ones], []
    if kind == "heisenberg":  # Pi X and Pi Z anticommute at odd n
        return [ones], [ones] if n % 2 == 0 else []
    return n // 2 + 1, 0


@pytest.mark.parametrize("kind", sorted(_CHAIN_PARAMS))
def test_commutant_of_every_chain(kind):
    seen = 0
    for n in range(4, 11):
        try:
            h = build(ModelSpec(kind, n, _CHAIN_PARAMS[kind]))
        except ValueError:  # tfim, cluster and z2higgs need an even n
            continue
        seen += 1
        x_rows, z_rows = commutant(h)
        group = ([PauliString.from_xz(n, x, 0) for x in x_rows]
                 + [PauliString.from_xz(n, 0, z) for z in z_rows])
        for g in group:
            assert commutes(PauliSum(n, ((1.0, g),)), h), (n, g)
            assert g.x == 0 or g.z == 0
        assert all((p.x & q.z ^ p.z & q.x).bit_count() % 2 == 0 for p in group for q in group)
        for rows in (x_rows, z_rows):
            assert len(rref(rows, n)[1]) == len(rows) and 0 not in rows  # independent
        want_x, want_z = _expected_commutant(kind, n)
        if kind == "z2higgs":
            assert (len(x_rows), len(z_rows)) == (want_x, want_z)
        else:
            assert (list(x_rows), list(z_rows)) == (want_x, want_z)
    assert seen >= 4


def test_commutant_takes_identity_terms_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = PauliSum(3, ((2.0, PauliString.from_label("III")),
                          (1.0, PauliString.from_label("ZZI")),
                          (0.5, PauliString.from_label("IXX"))))
        # X on qubits 0 and 1, X on qubit 2; no Z string commutes with both
        assert commutant(h) == ((0b110, 0b001), ())
        # every X string commutes with the identity; Z strings then cannot
        only = PauliSum(3, ((2.0, PauliString.from_label("III")),))
        assert commutant(only) == ((0b100, 0b010, 0b001), ())


@pytest.mark.parametrize("kind", sorted(_CHAIN_PARAMS))
def test_solver_on_the_n256_chains_matches_the_column_scan(kind):
    h = build(ModelSpec(kind, 256, _CHAIN_PARAMS[kind]))
    parity = build_parity_matrix(h)
    width = 2 * h.n
    augmented = [row << 1 | 1 for row in parity]
    want = rref_by_columns(augmented, width + 1)
    assert rref(augmented, width + 1) == want
    outcome = solve_time_reversal(h)
    if kind == "heisenberg":
        assert want[1][-1] == width
        assert outcome == Infeasible(witness_row=len(want[1]) - 1)
        return
    assert all((row & outcome.particular).bit_count() % 2 == 1 for row in parity)
    assert outcome.nullspace_basis
    for t in outcome.nullspace_basis:
        assert all((row & t).bit_count() % 2 == 0 for row in parity)

"""Statevector kernel: Pauli action, inner products, evolution."""

import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from ktr.errors import InternalInconsistencyError, ResourceLimitError
from ktr.gevp import exact_reference
from ktr.models import ModelSpec, build
from ktr.paulis import PauliString, PauliSum, apply_sum, dense_matrix
from ktr.states import (EvolutionPlan, StateVector, _matvec, apply_pauli, apply_pauli_to_array,
                        evolve, expectation, inner, matrix_element, plus_state)
from ktr.symmetry import Infeasible, solve_time_reversal
from ktr.initial import ProjectorSpec, build_block_product, project

from helpers import basis_state, product_state, random_state
from oracles import dense_evolution, kron_matrix, random_hermitian_string


def test_apply_pauli_trivial():
    flipped = apply_pauli(basis_state(1, 0), PauliString.from_label("X"))
    assert np.allclose(flipped.amps, basis_state(1, 1).amps)
    phased = apply_pauli(basis_state(1, 1), PauliString.from_label("Z"))
    assert np.allclose(phased.amps, -basis_state(1, 1).amps)


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = random_hermitian_string(5, rng)
        s = random_state(5, rng)
        got = apply_pauli(s, p).amps
        want = kron_matrix(p) @ s.amps
        assert np.max(np.abs(got - want)) <= 1e-14


def test_sign_folds_all_index_bits():
    # qubit 0 is bit 17 of the index at n = 18, above a 16-bit parity fold
    z0 = PauliSum(18, ((1.0, PauliString.from_label("Z" + "I" * 17)),))
    assert expectation(basis_state(18, 1 << 17), z0) == -1.0
    assert expectation(basis_state(18, 1), z0) == 1.0


def test_pauli_action_runs_on_the_leading_axis():
    p = PauliString.from_label("ZX")
    rng = np.random.default_rng(3)
    for shape in ((4, 4), (4, 3)):
        arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(apply_pauli_to_array(arr, p), kron_matrix(p) @ arr)


def test_compiled_action_is_cached_and_read_only():
    p = PauliString.from_label("XYZ")
    src, diag = p.action()
    assert p.action() is p.action()
    assert not src.flags.writeable and not diag.flags.writeable
    h = build(ModelSpec("tfim", 4, {"gamma": 0.5}))
    assert h.compiled() is h.compiled()
    assert [c for c, _ in h.compiled()] == [c for c, _ in h.terms]


def test_statevector_cap_refuses_before_allocating():
    calls = (lambda: basis_state(40, 0), lambda: plus_state(40),
             lambda: random_state(40, 0), lambda: product_state([(1.0, 0.0)] * 40),
             lambda: build_block_product(4, 6),
             lambda: StateVector(40, np.zeros(1)),
             lambda: PauliString.from_label("Z" * 40).action())
    for call in calls:
        with pytest.raises(ResourceLimitError):
            call()


@st.composite
def _kernel_case(draw):
    n = draw(st.integers(1, 6))
    masks = st.integers(0, 2 ** n - 1)
    if draw(st.booleans()):
        op = PauliString(n, draw(masks), draw(masks), draw(st.integers(0, 3)))
    else:
        terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), masks, masks),
                              min_size=1, max_size=5))
        op = PauliSum(n, tuple((c, PauliString.from_xz(n, x, z)) for c, x, z in terms))
    dim = 2 ** n
    shape = draw(st.sampled_from([(dim,), (dim, draw(st.integers(1, 4))), (dim, dim)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return op, rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(_kernel_case())
def test_kernel_matches_kronecker_product(case):
    op, arr = case
    want = kron_matrix(op) @ arr
    if isinstance(op, PauliString):
        assert np.array_equal(apply_pauli_to_array(arr, op), want)
    else:
        scale = max(1.0, op.coeff_norm) * np.max(np.abs(arr))
        assert np.max(np.abs(apply_sum(op, arr) - want)) <= 1e-14 * scale


def test_inner_products():
    s = random_state(3, np.random.default_rng(1))
    assert np.isclose(inner(s, s), 1.0)
    assert np.isclose(inner(basis_state(4, 0), plus_state(4)), 0.25)
    a, b = random_state(3, np.random.default_rng(2)), random_state(3, np.random.default_rng(3))
    assert np.isclose(inner(a, b), np.conj(inner(b, a)))


def test_expectation_trivial():
    x = PauliSum(1, ((1.0, PauliString.from_label("X")),))
    z = PauliSum(1, ((1.0, PauliString.from_label("Z")),))
    assert np.isclose(expectation(plus_state(1), x), 1.0)
    assert np.isclose(expectation(basis_state(1, 0), z), 1.0)
    assert np.isclose(expectation(basis_state(1, 1), z), -1.0)


def test_stabilized_state_has_zero_energy():
    # <v0|H|v0> = 0 is forced by the anticommuting involution
    h = build(ModelSpec("tfim", 4, {"gamma": 0.8}))
    t = PauliString.from_label("YXYX")
    rng = np.random.default_rng(19)
    for _ in range(5):
        prep = project(random_state(4, rng), ProjectorSpec((t,), (0,)))
        assert abs(expectation(prep, h)) <= 1e-12


def test_evolve_zero_time_is_identity():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.5}))
    s = random_state(4, np.random.default_rng(5))
    for plan in (EvolutionPlan.exact(h), EvolutionPlan.trotter2(h, 4)):
        assert evolve(plan, 0.0, s) is s


def test_single_term_closed_form():
    # exp(-i t h P) = cos(th) I - i sin(th) P for involutory P
    coeff = 0.73
    p = PauliString.from_label("XZX")
    h = PauliSum(p.n, ((coeff, p),))
    s = random_state(3, np.random.default_rng(8))
    for plan in (EvolutionPlan.exact(h), EvolutionPlan.trotter2(h, 3)):
        got = evolve(plan, 1.3, s).amps
        th = 1.3 * coeff
        want = np.cos(th) * s.amps - 1j * np.sin(th) * apply_pauli(s, p).amps
        assert np.max(np.abs(got - want)) <= 1e-12


def test_unitarity_and_reversibility():
    h = build(ModelSpec("tfim", 6, {"gamma": 0.5}))
    s = random_state(6, np.random.default_rng(21))
    exact = EvolutionPlan.exact(h)
    trotter = EvolutionPlan.trotter2(h, 16)
    for plan, tol in ((exact, 1e-10), (trotter, 1e-10)):
        out = evolve(plan, 1.7, s)
        assert abs(out.norm - 1.0) <= 1e-12
        back = evolve(plan, -1.7, out)
        assert np.max(np.abs(back.amps - s.amps)) <= tol


def test_trotter_error_halves_quadratically():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.6}))
    s = plus_state(4)
    target = evolve(EvolutionPlan.exact(h), 1.0, s).amps
    err_coarse = np.linalg.norm(evolve(EvolutionPlan.trotter2(h, 8), 1.0, s).amps - target)
    err_fine = np.linalg.norm(evolve(EvolutionPlan.trotter2(h, 16), 1.0, s).amps - target)
    assert 3.0 <= err_coarse / err_fine <= 5.0


def test_trotter_global_order_two():
    h = build(ModelSpec("tfim", 6, {"gamma": 0.5}))
    s = random_state(6, np.random.default_rng(2))
    target = evolve(EvolutionPlan.exact(h), 1.0, s).amps
    spus = [4, 8, 16, 32, 64]
    errs = [np.linalg.norm(evolve(EvolutionPlan.trotter2(h, spu), 1.0, s).amps - target)
            for spu in spus]
    slope = np.polyfit(np.log([1.0 / spu for spu in spus]), np.log(errs), 1)[0]
    assert 1.9 <= slope <= 2.1


def test_time_translation_identity():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.9}))
    plan = EvolutionPlan.exact(h)
    rng = np.random.default_rng(33)
    v0 = random_state(4, rng)
    for _ in range(10):
        ta, tb = rng.uniform(-2, 2, size=2)
        lhs = inner(evolve(plan, ta, v0), evolve(plan, tb, v0))
        rhs = inner(v0, evolve(plan, tb - ta, v0))
        assert abs(lhs - rhs) <= 1e-12


def test_conjugation_reverses_evolution():
    # T U(t) T = U(-t) for a solver-produced involution
    h = build(ModelSpec("tfim", 4, {"gamma": 0.45}))
    sol = solve_time_reversal(h)
    assert not isinstance(sol, Infeasible)
    t = next(sol.solutions())
    plan = EvolutionPlan.exact(h)
    s = random_state(4, np.random.default_rng(12))
    lhs = apply_pauli(evolve(plan, 0.9, apply_pauli(s, t)), t)
    rhs = evolve(plan, -0.9, s)
    assert np.max(np.abs(lhs.amps - rhs.amps)) <= 1e-12


def test_factorization_reconstructs_hamiltonian():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.5}))
    plan = EvolutionPlan.exact(h)
    evals, evecs = plan.factorization()
    hd = dense_matrix(h)
    assert np.linalg.norm((evecs * evals) @ evecs.conj().T - hd) <= 1e-10 * np.linalg.norm(hd)


_ODD_Y = PauliSum(2, ((0.8, PauliString.from_label("XY")),
                      (0.5, PauliString.from_label("ZI")),
                      (0.3, PauliString.from_label("IX"))))


@pytest.mark.parametrize("h, dtype", [
    (build(ModelSpec("tfim", 6, {"gamma": 0.7})), np.float64),
    (build(ModelSpec("z2higgs", 6, {"mu": 0.8, "g": 1.1})), np.float64),
    (_ODD_Y, np.complex128),
], ids=["tfim", "z2higgs", "odd-y"])
def test_exact_path_follows_the_hamiltonian_dtype(h, dtype):
    hd = kron_matrix(h)
    plan = EvolutionPlan.exact(h)
    evals, evecs = plan.factorization()
    assert evecs.dtype == dtype
    assert np.max(np.abs(exact_reference(h) - sla.eigh(hd, eigvals_only=True))) <= 1e-12
    rng = np.random.default_rng(71)
    for t in (0.37, -1.9):
        s = random_state(h.n, rng)
        got = evolve(plan, t, s).amps
        assert got.dtype == np.complex128
        assert np.max(np.abs(got - dense_evolution(hd, t) @ s.amps)) <= 1e-12


@pytest.mark.parametrize("h", [build(ModelSpec("tfim", 6, {"gamma": 0.7})), _ODD_Y],
                         ids=["real", "complex"])
def test_exact_evolution_reuses_start_coefficients(h):
    hd = kron_matrix(h)
    plan = EvolutionPlan.exact(h)
    evals, evecs = plan.factorization()
    s = random_state(h.n, np.random.default_rng(72))
    memo = []
    for k in range(1, 33):
        t = 0.25 * k
        got = evolve(plan, t, s).amps
        # the same arithmetic with Q+ s recomputed on every call
        want = _matvec(evecs, np.exp(-1j * t * evals) * _matvec(evecs.conj().T, s.amps))
        assert np.array_equal(got, want)
        assert np.max(np.abs(got - dense_evolution(hd, t) @ s.amps)) <= 1e-12
        memo.append(plan._coefficients[s])
    assert len(plan._coefficients) == 1 and all(c is memo[0] for c in memo)
    assert not memo[0].flags.writeable


def test_coefficient_memo_keeps_nothing_alive():
    plan = EvolutionPlan.exact(build(ModelSpec("tfim", 4, {"gamma": 0.5})))
    s = random_state(4, np.random.default_rng(73))
    evolve(plan, 0.5, s)
    ref = weakref.ref(s)
    assert len(plan._coefficients) == 1
    del s
    gc.collect()
    assert ref() is None
    assert len(plan._coefficients) == 0


def test_matrix_element_matches_dense():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.7}))
    rng = np.random.default_rng(44)
    a, b = random_state(4, rng), random_state(4, rng)
    want = a.amps.conj() @ kron_matrix(h) @ b.amps
    assert abs(matrix_element(a, h, b) - want) <= 1e-12


def test_expectation_flags_imaginary_residue():
    # bypass the PauliSum Hermiticity validation to force a complex value
    h = build(ModelSpec("tfim", 2, {"gamma": 0.3}))
    s = random_state(2, np.random.default_rng(50))
    value = matrix_element(s, h, s)
    assert abs(value.imag) <= 1e-12  # sane on Hermitian input
    bad = PauliSum(2, ((1.0, PauliString.from_label("XX")),))
    object.__setattr__(bad, "terms", ((1.0, PauliString(2, 0b11, 0b00, 1)),))
    with pytest.raises(InternalInconsistencyError):
        expectation(s, bad)


def test_concurrent_evolutions_share_factorization():
    h = build(ModelSpec("tfim", 6, {"gamma": 0.5}))
    plan = EvolutionPlan.exact(h).prepare()
    rng = np.random.default_rng(60)
    states = [random_state(6, rng) for _ in range(8)]
    times = list(rng.uniform(-2, 2, size=8))
    sequential = [evolve(plan, t, s).amps for t, s in zip(times, states)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda args: evolve(plan, args[0], args[1]).amps,
                                 zip(times, states)))
    for seq, par in zip(sequential, parallel):
        assert np.array_equal(seq, par)

    # four threads evolve one start state that nothing has evolved before, so
    # they race to fill its memo entry; the barrier lines up each round of 4
    shared = random_state(6, rng)
    times = list(rng.uniform(-2, 2, size=8))
    barrier = threading.Barrier(4, timeout=30)

    def evolve_shared(t):
        barrier.wait()
        return evolve(plan, t, shared).amps

    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(evolve_shared, times))
    sequential = [evolve(plan, t, shared).amps for t in times]
    for seq, par in zip(sequential, parallel):
        assert np.array_equal(seq, par)

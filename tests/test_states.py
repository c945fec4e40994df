"""Statevector kernel: Pauli action, inner products, evolution."""

import gc
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from ktr.errors import InternalInconsistencyError, ResourceLimitError
from ktr.gevp import exact_reference, sector_basis, sector_ground_energy
from ktr.models import ModelSpec, build, gauss_generators, known_time_reversal
from ktr.paulis import DENSE_QUBIT_CAP, PauliString, PauliSum, symplectic_product
from ktr.states import (EvolutionPlan, StateVector, _apply_blocks, apply_pauli,
                        apply_pauli_to_array, evolve, expectation, inner, matrix_element,
                        plus_state)
from ktr.symmetry import Infeasible, solve_time_reversal
from ktr.initial import ProjectorSpec, build_block_product, project

from helpers import basis_state, product_state, random_state
from oracles import dense_evolution, kron_matrix, random_hermitian_string, trotter2_stored_order


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


def test_trotter2_plan_runs_past_the_dense_cap():
    n = DENSE_QUBIT_CAP + 2  # the chain needs an even count
    plan = EvolutionPlan.trotter2(build(ModelSpec("tfim", n, {"gamma": 0.5})), 2)
    s = plus_state(n)
    # the symmetric splitting is time-reversible: back and forth is the identity
    there = evolve(plan, 0.5, s)
    assert abs(there.norm - 1.0) <= 1e-12 and abs(inner(s, there)) < 1.0 - 1e-6
    assert np.max(np.abs(evolve(plan, -0.5, there).amps - s.amps)) <= 1e-12


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
    op = PauliString(n, draw(masks), draw(masks), draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return op, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)


@settings(max_examples=60, deadline=None)
@given(_kernel_case())
def test_kernel_matches_kronecker_product(case):
    op, arr = case
    assert np.array_equal(apply_pauli_to_array(arr, op), kron_matrix(op) @ arr)


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


@st.composite
def _sum_with_diagonal_runs(draw):
    n = draw(st.integers(1, 5))
    masks = st.integers(0, 2 ** n - 1)
    # a False draw makes the string Z-type, so runs of diagonal terms are common
    terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), st.booleans(), masks, masks),
                          min_size=1, max_size=8))
    return PauliSum(n, tuple((c, PauliString.from_xz(n, x if off_diagonal else 0, z))
                             for c, off_diagonal, x, z in terms))


@settings(max_examples=80, deadline=None)
@given(_sum_with_diagonal_runs(), st.floats(-2.0, 2.0), st.integers(1, 8))
def test_merged_trotter_step_matches_the_stored_order_step(h, t, spu):
    s = random_state(h.n, np.random.default_rng(h.n))
    got = evolve(EvolutionPlan.trotter2(h, spu), t, s).amps
    assert np.max(np.abs(got - trotter2_stored_order(h, t, s.amps, spu))) <= 1e-13


def test_tfim_step_merges_its_z_terms_into_one_phase():
    h = build(ModelSpec("tfim", 10, {"gamma": 0.5}))
    plan = EvolutionPlan.trotter2(h, 4)
    ops = plan.merged_step(0.1)
    assert plan.merged_step(0.1) is ops
    phases = [op for op in ops if isinstance(op, np.ndarray)]
    # 9 XX terms forward and backward around one merged run of 2 * 10 Z terms
    assert len(ops) == 19 and len(phases) == 1 and ops[9] is phases[0]
    assert ops[0] is ops[-1]  # one rotation serves both directions
    assert not phases[0].flags.writeable


def test_trotter_plan_refuses_a_non_integral_step_count():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.5}))
    # int() would have run 2.5 as 2 and 1.9 as 1 steps per unit
    for bad in (2.5, 1.9, 0.5, 0, -3, None, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="integral steps_per_unit >= 1"):
            EvolutionPlan.trotter2(h, bad)
        # the constructor too: unchecked, 0 and -3 make plans of one step per evolve
        if bad is not None:
            with pytest.raises(ValueError, match="integral steps_per_unit >= 1"):
                EvolutionPlan(h, bad)
    assert EvolutionPlan.trotter2(h, 3.0).steps_per_unit == 3


def test_trotter_plan_refuses_the_exact_only_methods():
    spec = ModelSpec("tfim", 4, {"gamma": 0.5})
    plan = EvolutionPlan.trotter2(build(spec), 4, known_time_reversal(spec))
    for call in (plan.factorization, lambda: plan.coefficients(plus_state(4)), plan.reversal):
        with pytest.raises(ValueError, match="needs an exact plan"):
            call()


def test_exact_paths_compile_no_string():
    spec = ModelSpec("z2higgs", 8, {"mu": 0.9, "g": 1.1})
    h, t = build(spec), known_time_reversal(spec)
    exact_reference(h)
    sector_ground_energy(h, gauss_generators(spec))
    plan = EvolutionPlan.exact(h, t)
    plan.factorization()
    plan.reversal()
    # the sector layout reads signs from the string masks alone
    assert h._compiled is None
    assert t._action is None and all(p._action is None for _, p in h.terms)


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


def _sector_basis_matrix(plan):
    """Columns: each sector coordinate of the plan, in amplitudes."""
    shape = plan.factorization()[0].shape
    eye = np.eye(shape[0] * shape[1], dtype=complex)
    return np.stack([plan._basis.to_amplitudes(col.reshape(shape)) for col in eye], axis=1)


def test_factorization_reconstructs_hamiltonian():
    # tfim: two blocks (Z parity); z2higgs n=6: four X-type generators, 16 blocks of 4
    for spec in (ModelSpec("tfim", 4, {"gamma": 0.5}),
                 ModelSpec("z2higgs", 6, {"mu": 0.8, "g": 1.1})):
        h = build(spec)
        plan = EvolutionPlan.exact(h)
        evals, evecs = plan.factorization()
        assert evals.shape[0] > 1 and evecs.shape == evals.shape + evals.shape[1:]
        blocks = sla.block_diag(*((q * w) @ q.conj().T for w, q in zip(evals, evecs)))
        basis = _sector_basis_matrix(plan)
        hd = kron_matrix(h)
        rebuilt = basis @ blocks @ basis.conj().T
        assert np.linalg.norm(rebuilt - hd) <= 1e-10 * np.linalg.norm(hd)


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
    assert evecs.dtype == dtype and evals.dtype == np.float64
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
        # the same arithmetic with the basis change and Q_b+ s recomputed on every call
        start = _apply_blocks(evecs.conj().transpose(0, 2, 1), plan._basis.to_sectors(s.amps))
        want = plan._basis.to_amplitudes(_apply_blocks(evecs, np.exp(-1j * t * evals) * start))
        assert np.array_equal(got, want)
        assert np.max(np.abs(got - dense_evolution(hd, t) @ s.amps)) <= 1e-12
        memo.append(plan._coefficients[s])
    assert len(plan._coefficients) == 1 and all(entry is memo[0] for entry in memo)
    # a random state reaches every block
    reach, coeffs = memo[0]
    assert reach.all() and coeffs.shape == evals.shape
    assert not reach.flags.writeable and not coeffs.flags.writeable


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
    plan = EvolutionPlan.exact(h)
    plan.factorization()
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


def test_plus_state_evolution_factorizes_one_block():
    spec = ModelSpec("z2higgs", 8, {"mu": 0.9, "g": 1.1})
    h = build(spec)
    plan = EvolutionPlan.exact(h)
    s = plus_state(8)
    got = evolve(plan, 0.7, s).amps
    # the plus state is +1 on every X-type symmetry: one character, one block
    assert plan._filled.size == 32 and np.count_nonzero(plan._filled) == 1
    # its memoized coefficients keep the block shape, exactly zero off the reach
    reach, coeffs = plan.coefficients(s)
    assert np.count_nonzero(reach) == 1 and coeffs.shape == plan._basis.shape
    assert not coeffs[~reach].any() and coeffs[reach].any()
    assert not reach.flags.writeable and not coeffs.flags.writeable
    assert np.max(np.abs(got - dense_evolution(kron_matrix(h), 0.7) @ s.amps)) <= 1e-12
    evals, evecs = plan.factorization()
    assert plan._filled.all() and not evals.flags.writeable and not evecs.flags.writeable
    assert np.array_equal(evolve(plan, 0.7, s).amps, got)
    # a zero state reaches no block; a NaN amplitude is not dropped as unreached
    assert not evolve(plan, 0.7, StateVector(8, np.zeros(256))).amps.any()
    broken = np.zeros(256)
    broken[3] = np.nan
    assert np.isnan(evolve(plan, 0.7, StateVector(8, broken)).amps).any()


@pytest.mark.parametrize("spec", [ModelSpec("tfim", 8, {"gamma": 0.7}),
                                  ModelSpec("cluster", 8, {"g_x": 1.0, "g_zz": 0.5, "g_zxz": 0.3})],
                         ids=lambda spec: spec.kind)
def test_self_paired_fill_takes_no_empty_eigh(monkeypatch, spec):
    # T keeps both blocks: each takes an SVD, and no pair is left to an eigh
    h = build(spec)
    plan = EvolutionPlan.exact(h, known_time_reversal(spec))
    batches = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        batches.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    plan.factorization()
    assert plan._filled.all()
    assert not [shape for shape in batches if 0 in shape], batches


def test_threads_filling_different_blocks_agree():
    # states that each reach their own few blocks, evolved by racing threads on
    # a fresh plan, so the fills interleave
    h = build(ModelSpec("z2higgs", 6, {"mu": 0.8, "g": 1.1}))
    basis = sector_basis(h)
    rng = np.random.default_rng(61)
    states = []
    for first in range(0, 16, 2):
        coords = np.zeros((16, basis.reps.shape[1]), complex)
        coords[[first, (first + 5) % 16]] = rng.normal(size=(2, basis.reps.shape[1]))
        amps = basis.to_amplitudes(coords)
        states.append(StateVector(6, amps / np.linalg.norm(amps)))
    sequential = [evolve(EvolutionPlan.exact(h), 0.9, s).amps for s in states]
    plan = EvolutionPlan.exact(h)
    barrier = threading.Barrier(4, timeout=30)

    def evolve_racing(s):
        barrier.wait()
        return evolve(plan, 0.9, s).amps

    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(evolve_racing, states))
    for seq, par in zip(sequential, parallel):
        assert np.array_equal(seq, par)
    assert np.count_nonzero(plan._filled) == 16


@st.composite
def _symmetric_sum(draw):
    """A random sum that commutes with random pairwise-commuting X-type and
    Z-type strings, with random signs; some draws add a term with an odd
    number of Y factors and an identity term."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs, zs = [], []
    for _ in range(draw(st.integers(0, 4))):
        same, other = (xs, zs) if rng.random() < 0.5 else (zs, xs)
        mask = int(rng.integers(1, 2 ** n))
        if all((mask & m).bit_count() % 2 == 0 for m in other):
            same.append(mask)
    group = ([PauliString.from_xz(n, x, 0) for x in xs]
             + [PauliString.from_xz(n, 0, z) for z in zs])

    def commuting(odd_y):
        for _ in range(200):
            p = PauliString.from_xz(n, int(rng.integers(2 ** n)), int(rng.integers(2 ** n)))
            if (not any(symplectic_product(p, g) for g in group)
                    and (p.x & p.z).bit_count() % 2 == odd_y):
                return p
        return None

    terms = [(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)), p)
             for p in (commuting(0) for _ in range(draw(st.integers(1, 8)))) if p is not None]
    if draw(st.booleans()):
        odd = commuting(1)
        if odd is not None:
            terms.append((float(rng.normal()), odd))
    if draw(st.booleans()):
        terms.append((float(rng.normal()), PauliString.from_xz(n, 0, 0)))
    if not terms:
        terms.append((1.0, PauliString.from_xz(n, 0, 0)))
    return PauliSum(n, tuple(terms))


@settings(max_examples=80, deadline=None)
@given(_symmetric_sum(), st.floats(-3.0, 3.0))
def test_block_evolution_matches_expm_on_symmetric_sums(h, t):
    hd = kron_matrix(h)
    s = random_state(h.n, np.random.default_rng(h.n))
    got = evolve(EvolutionPlan.exact(h), t, s).amps
    assert np.max(np.abs(got - dense_evolution(hd, t) @ s.amps)) <= 1e-12
    scale = 1e-12 * max(1.0, h.coeff_norm)
    assert np.max(np.abs(exact_reference(h) - np.linalg.eigvalsh(hd))) <= scale


def test_identity_terms_need_no_special_case():
    shift = PauliString.from_label("III")
    h = PauliSum(3, ((0.7, shift), (-1.0, PauliString.from_label("XXI")),
                     (0.4, PauliString.from_label("IZZ"))))
    s = random_state(3, np.random.default_rng(74))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evolve(EvolutionPlan.exact(h), 0.9, s).amps
        assert np.max(np.abs(got - dense_evolution(kron_matrix(h), 0.9) @ s.amps)) <= 1e-12
        # an identity-only sum: every X string is a symmetry, blocks of 1
        only = PauliSum(3, ((0.7, shift),))
        plan = EvolutionPlan.exact(only)
        assert plan.factorization()[0].shape == (8, 1)
        assert np.max(np.abs(evolve(plan, 0.9, s).amps - np.exp(-0.63j) * s.amps)) <= 1e-15
        assert np.array_equal(exact_reference(only), np.full(8, 0.7))


def test_plain_x_field_stays_linear_in_memory():
    # H = sum_i X_i: every X_i is a symmetry, so the plan holds 2**12 blocks of
    # 1 and an orbit transform over all 12 qubits, applied in two factors of 64
    n = 12
    dim = 2 ** n
    h = PauliSum(n, tuple((1.0, PauliString.from_xz(n, 1 << j, 0)) for j in range(n)))
    s = random_state(n, np.random.default_rng(75))
    tracemalloc.start()
    try:
        plan = EvolutionPlan.exact(h)
        plan.factorization()
        got = evolve(plan, 0.6, s).amps
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.factorization()[0].shape == (dim, 1)
    # a sixteenth of the one float64 2**n x 2**n matrix the dense path needs at the least
    assert peak <= 8 * dim ** 2 // 16, f"peak {peak} B"
    # exp(-i t X) = cos t - i sin t X on every qubit, applied along its own axis
    factor = np.array([[np.cos(0.6), -1j * np.sin(0.6)], [-1j * np.sin(0.6), np.cos(0.6)]])
    want = s.amps.reshape((2,) * n)
    for axis in range(n):
        want = np.moveaxis(np.tensordot(factor, want, axes=([1], [axis])), 0, axis)
    assert np.max(np.abs(got - want.ravel())) <= 1e-12

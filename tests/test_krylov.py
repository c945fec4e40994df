"""Overlap-pencil routes against dense oracles."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ktr.cli import parse_config, run
from ktr.errors import InternalInconsistencyError, NotTimeReversalError
from ktr.gevp import sector_basis, solve
from ktr.initial import ProjectorSpec, enumerate_local_projectors, project, project_array
from ktr import states
from ktr.krylov import (TimeGrid, ToeplitzPencil, _fine_grid, _signed_curves, _stabilized,
                        build_kqd, build_ktr, default_dt, extended_local_pencil,
                        implicit_hadamard_rows, reconstruct_a_from_b, reconstruct_b_from_a,
                        sample_expectation_curves, stencil_indices)
from ktr.models import PARAM_KEYS, ModelSpec, build, known_time_reversal
from ktr.paulis import PauliString, PauliSum, build_iht_observable, symplectic_product
from ktr.states import (CURVE_CHUNK_BYTES, EvolutionPlan, StateVector,
                        apply_pauli, evolve, expectation, inner, plus_state, reversal_curves)
from ktr.symmetry import commutant, solve_time_reversal

from helpers import random_state
from oracles import (a_row_by_rows, all_blocks_curves, all_blocks_evolve, b_row_by_rows,
                     dense_evolution, dense_projector, kron_matrix, overlap_matrices_direct)


def _tfim_setup(n, gamma=0.5, m=8, dt=None):
    spec = ModelSpec("tfim", n, {"gamma": gamma})
    h = build(spec)
    t = known_time_reversal(spec)
    plan = EvolutionPlan.exact(h, t)
    grid = TimeGrid(dt if dt is not None else default_dt(h), m)
    prep = project(plus_state(n), ProjectorSpec((t,), (0,)))
    return h, t, plan, grid, prep


def test_grid_times():
    grid = TimeGrid(0.25, 4)
    assert (grid.dt, grid.m) == (0.25, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.25, 1)
    with pytest.raises(ValueError):
        TimeGrid(-0.1, 4)


def test_toeplitz_assembly():
    grid = TimeGrid(0.5, 3)
    row_a = np.array([0.0, 1j * 0.2, 1j * 0.3])
    row_b = np.array([1.0, 0.5, 0.25])
    pen = ToeplitzPencil(row_a, row_b, grid)
    a = pen.matrix_a()
    b = pen.matrix_b()
    assert np.allclose(a, a.conj().T)
    assert np.allclose(b, b.conj().T)
    assert np.allclose(np.diag(a), 0.0)
    assert a[0, 2] == 1j * 0.3 and a[2, 0] == -1j * 0.3
    assert b[1, 2] == 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_toeplitz_pencil_refuses_non_finite_rows(bad):
    # the solve checks nothing and relies on finite rows; a NaN would
    # surface there only as a failed eigensolver, so the pencil names it
    grid = TimeGrid(0.5, 3)
    row_a = np.array([0.0, 1j * 0.2, 1j * 0.3])
    row_b = np.array([1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="row_a has a non-finite entry at index 2"):
        ToeplitzPencil(np.where(np.arange(3) == 2, bad, row_a), row_b, grid)
    with pytest.raises(ValueError, match="row_b has a non-finite entry at index 1"):
        ToeplitzPencil(row_a, np.where(np.arange(3) == 1, bad, row_b), grid)


def test_kqd_single_qubit_closed_form():
    h = PauliSum(1, ((1.0, PauliString.from_label("Z")),))
    grid = TimeGrid(0.4, 6)
    pen = build_kqd(h, plus_state(1), grid, EvolutionPlan.exact(h))
    assert np.allclose(pen.row_b, np.cos(grid.dt * np.arange(grid.m)), atol=1e-12)
    assert np.allclose(pen.row_a, -1j * np.sin(grid.dt * np.arange(grid.m)), atol=1e-12)


def test_kqd_matches_double_loop_oracle():
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    pen = build_kqd(h, prep, grid, plan)
    a_direct, b_direct = overlap_matrices_direct(h, prep.amps, grid)
    assert np.max(np.abs(pen.matrix_a() - a_direct)) <= 1e-10
    assert np.max(np.abs(pen.matrix_b() - b_direct)) <= 1e-10
    # the oracle matrices are themselves Hermitian-Toeplitz to tolerance
    assert np.max(np.abs(a_direct - a_direct.conj().T)) <= 1e-10
    for k in range(1, grid.m):
        diag = np.diagonal(b_direct, offset=k)
        assert np.max(np.abs(diag - diag[0])) <= 1e-10


def test_ktr_equals_kqd_for_stabilized_state():
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    ktr = build_ktr(h, t, prep, grid, plan)
    kqd = build_kqd(h, prep, grid, plan)
    assert np.max(np.abs(ktr.row_a - kqd.row_a)) <= 1e-10
    assert np.max(np.abs(ktr.row_b - kqd.row_b)) <= 1e-10


def test_kqd_rows_of_a_stabilized_start_are_exactly_real_and_imaginary():
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    pen = build_kqd(h, prep, grid, plan)
    assert not pen.row_b.imag.any() and not pen.row_a.real.any()
    # the same values as the complex rows of a plan built without T
    loose = build_kqd(h, prep, grid, EvolutionPlan.exact(h))
    assert np.max(np.abs(loose.row_a - pen.row_a)) <= 1e-12
    assert np.max(np.abs(loose.row_b - pen.row_b)) <= 1e-12
    # a start state T does not stabilize keeps complex rows
    assert build_kqd(h, plus_state(6), grid, plan).row_b.imag.any()
    # a residue above the tolerance is an inconsistency, not rounding
    with mock.patch("ktr.krylov.inner", lambda a, b: inner(a, b) + 1e-9j):
        with pytest.raises(InternalInconsistencyError, match="imaginary residue"):
            build_kqd(h, prep, grid, plan)


def test_ktr_row_structure():
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    pen = build_ktr(h, t, prep, grid, plan)
    assert np.max(np.abs(pen.row_b.imag)) <= 1e-12
    assert np.max(np.abs(pen.row_a.real)) <= 1e-12
    assert abs(pen.row_a[0]) <= 1e-12
    assert np.isclose(pen.row_b[0], 1.0, atol=1e-12)


def test_ktr_rejects_unstabilized_state():
    h, t, plan, grid, _ = _tfim_setup(4, m=4)
    with pytest.raises(ValueError):
        build_ktr(h, t, plus_state(4), grid, plan)


def test_ktr_rejects_commuting_operator():
    h, _, plan, grid, prep = _tfim_setup(4, m=4)
    with pytest.raises(NotTimeReversalError):
        build_ktr(h, PauliString.from_label("XXXX"), prep, grid, plan)


def test_implicit_rows_symmetric_state_degenerates_to_ktr():
    h, t, plan, grid, prep = _tfim_setup(6, m=6)
    imp = implicit_hadamard_rows(prep, h, t, grid, plan)
    ktr = build_ktr(h, t, prep, grid, plan)
    assert np.max(np.abs(imp.row_b - ktr.row_b)) <= 1e-12
    assert np.max(np.abs(imp.row_a - ktr.row_a)) <= 1e-12


def test_implicit_rows_match_dense_oracle():
    h, t, plan, grid, _ = _tfim_setup(6, m=6)
    rng = np.random.default_rng(23)
    phi = random_state(6, rng)
    pen = implicit_hadamard_rows(phi, h, t, grid, plan)
    hd = kron_matrix(h)
    for j, tj in enumerate(grid.dt * np.arange(grid.m)):
        u = dense_evolution(hd, float(tj))
        re = (phi.amps.conj() @ u @ phi.amps).real
        im = (phi.amps.conj() @ u @ hd @ phi.amps).imag
        assert abs(pen.row_b[j] - re) <= 1e-10
        assert abs(pen.row_a[j] - 1j * im) <= 1e-10


def test_magnitude_overlap():
    h = PauliSum(1, ((1.0, PauliString.from_label("Z")),))
    plan = EvolutionPlan.exact(h)
    phi = plus_state(1)
    # |<phi| U(t) |phi>|**2, the compute-uncompute quantity
    assert np.isclose(abs(inner(phi, evolve(plan, 0.0, phi))) ** 2, 1.0)
    for t in (0.3, 1.1):
        assert np.isclose(abs(inner(phi, evolve(plan, t, phi))) ** 2, np.cos(t) ** 2, atol=1e-12)


def test_magnitude_closes_the_re_im_identity():
    h, t, plan, grid, _ = _tfim_setup(4, m=4)
    rng = np.random.default_rng(31)
    phi = random_state(4, rng)
    pen = implicit_hadamard_rows(phi, h, t, grid, plan)
    for j, tj in enumerate(grid.dt * np.arange(grid.m)):
        mag = abs(inner(phi, evolve(plan, float(tj), phi))) ** 2
        re = pen.row_b[j].real
        hd = kron_matrix(h)
        u = dense_evolution(hd, float(tj))
        im = (phi.amps.conj() @ u @ phi.amps).imag
        assert abs(re ** 2 + im ** 2 - mag) <= 1e-10


def test_extended_local_full_set_matches_dense():
    h, t, plan, grid, _ = _tfim_setup(8, m=4)
    rng = np.random.default_rng(41)
    phi = random_state(8, rng)
    blocks = ProjectorSpec.blocks_of(t, (0, 0)).t_blocks
    specs = enumerate_local_projectors(blocks)
    row_b = extended_local_pencil(phi, specs, h, t, grid, plan, 4).row_b.real
    dense = [dense_projector(s) for s in specs]
    hd = kron_matrix(h)
    for j, tj in enumerate(grid.dt * np.arange(grid.m)):
        u = dense_evolution(hd, float(tj))
        rhs = sum(phi.amps.conj() @ dp @ u @ dp @ phi.amps for dp in dense).real
        assert abs(row_b[j] - rhs) <= 1e-10


def test_extended_local_truncation_deviates():
    h, t, plan, grid, _ = _tfim_setup(8, m=4)
    rng = np.random.default_rng(43)
    phi = random_state(8, rng)
    blocks = ProjectorSpec.blocks_of(t, (0, 0)).t_blocks
    specs = enumerate_local_projectors(blocks)
    full = extended_local_pencil(phi, specs, h, t, grid, plan, 4).row_b.real
    partial = extended_local_pencil(phi, specs, h, t, grid, plan, 1).row_b.real
    assert np.max(np.abs(partial - full)) > 1e-3


def test_extended_local_single_block_rows_match_overlap_oracle():
    # one block, full set: row_b = Re B[0, :] and row_a = i Im A[0, :]
    h, t, plan, grid, _ = _tfim_setup(4, m=5)
    rng = np.random.default_rng(47)
    phi = random_state(4, rng)
    specs = enumerate_local_projectors([t])
    pen = extended_local_pencil(phi, specs, h, t, grid, plan, 2)
    a, b = overlap_matrices_direct(h, phi.amps, grid)
    assert np.max(np.abs(pen.row_b - b[0].real)) <= 1e-12
    assert np.max(np.abs(pen.row_a - 1j * a[0].imag)) <= 1e-12


def test_reconstruct_b_trivial_zero_curve():
    grid = TimeGrid(0.2, 5)
    flat = np.zeros((grid.m - 1) * 20 + 1)
    row_b = reconstruct_b_from_a(flat, grid, 20)
    assert np.allclose(row_b, 1.0)


def test_reconstruct_a_trivial_constant_curve():
    grid = TimeGrid(0.2, 5)
    const = np.full((grid.m - 1) * 20 + 1, 0.7)
    row_a = reconstruct_a_from_b(const, grid, 20)
    assert np.max(np.abs(row_a)) <= 1e-12


def test_reconstruct_single_qubit_closed_forms():
    # v0 = |+>, H = Z, T = X: b(tau) = cos(2 tau), a(tau) = -sin(2 tau)
    h = PauliSum(1, ((1.0, PauliString.from_label("Z")),))
    t = PauliString.from_label("X")
    prep = project(plus_state(1), ProjectorSpec((t,), (0,)))
    plan = EvolutionPlan.exact(h, t)
    grid = TimeGrid(0.3, 6)
    a_fine, b_fine = sample_expectation_curves(h, t, prep, grid, plan, 20)
    taus = np.arange(a_fine.size) * (0.5 * grid.dt / 20)
    assert np.max(np.abs(b_fine - np.cos(2 * taus))) <= 1e-12
    assert np.max(np.abs(a_fine - (-np.sin(2 * taus)))) <= 1e-12
    direct = build_ktr(h, t, prep, grid, plan)
    assert np.max(np.abs(reconstruct_b_from_a(a_fine, grid, 20) - direct.row_b)) <= 1e-9
    assert np.max(np.abs(reconstruct_a_from_b(b_fine, grid, 20) - direct.row_a)) <= 1e-7


def test_reconstruction_errors_at_default_density():
    h, t, plan, grid, prep = _tfim_setup(6, m=10)
    direct = build_ktr(h, t, prep, grid, plan)
    a_fine, b_fine = sample_expectation_curves(h, t, prep, grid, plan, 20)
    err_b = np.max(np.abs(reconstruct_b_from_a(a_fine, grid, 20) - direct.row_b))
    err_a = np.max(np.abs(reconstruct_a_from_b(b_fine, grid, 20) - direct.row_a))
    assert err_b <= 1e-6
    assert err_a <= 1e-4


def test_reconstruction_refinement_orders():
    h, t, plan, grid, prep = _tfim_setup(6, m=6)
    direct = build_ktr(h, t, prep, grid, plan)
    densities = [10, 20, 40]
    errs_b, errs_a = [], []
    for sps in densities:
        a_fine, b_fine = sample_expectation_curves(h, t, prep, grid, plan, sps)
        errs_b.append(np.max(np.abs(reconstruct_b_from_a(a_fine, grid, sps) - direct.row_b)))
        errs_a.append(np.max(np.abs(reconstruct_a_from_b(b_fine, grid, sps) - direct.row_a)))
    slope_b = np.polyfit(np.log([1 / d for d in densities]), np.log(errs_b), 1)[0]
    slope_a = np.polyfit(np.log([1 / d for d in densities]), np.log(errs_a), 1)[0]
    assert 3.5 <= slope_b <= 4.5
    assert 3.5 <= slope_a <= 4.5


def test_reconstruction_input_validation():
    grid = TimeGrid(0.2, 5)
    for reconstruct in (reconstruct_b_from_a, reconstruct_a_from_b):
        with pytest.raises(ValueError, match="exactly 81 samples, got 10"):
            reconstruct(np.zeros(10), grid, 20)  # too few samples
        with pytest.raises(ValueError, match="exactly 81 samples, got 82"):
            reconstruct(np.zeros(82), grid, 20)  # too many samples
        with pytest.raises(ValueError, match="positive even"):
            reconstruct(np.zeros(200), grid, 15)  # odd panel count
    # m = 2 at 2 samples per step needs only 3 samples; the stencil needs 5
    short = TimeGrid(0.2, 2)
    with pytest.raises(ValueError, match="five-point"):
        reconstruct_a_from_b(np.zeros(3), short, 2)
    assert np.allclose(reconstruct_b_from_a(np.zeros(3), short, 2), 1.0)
    h, t, plan, grid, prep = _tfim_setup(4, m=4)
    for sps in (0, 7):
        with pytest.raises(ValueError, match="positive even"):
            sample_expectation_curves(h, t, prep, grid, plan, sps)
    for indices in ([3, 2], [1, 1], [-1, 2], [0, 61], []):
        with pytest.raises(ValueError, match="sorted, distinct"):
            sample_expectation_curves(h, t, prep, grid, plan, 20, np.array(indices, dtype=int))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_reconstructed_rows_match_the_per_row_loops(m, half_sps, seed):
    sps = 2 * half_sps
    grid = TimeGrid(0.3, m)
    total, delta = _fine_grid(grid, sps)
    rng = np.random.default_rng(seed)
    curve = rng.normal(size=total) * 10.0 ** rng.uniform(-3, 3)
    eps = np.finfo(float).eps
    # one sum of up to k_j + 1 terms in another order: a few ulps per term
    # of the row's scale 1 + (2 delta / 3) sum_i w_i |a_i|, Simpson weights w
    weights = np.where(np.arange(total) % 2, 4.0, 2.0)
    weights[0] = 1.0
    scale = 1.0 + (2.0 * delta / 3.0) * np.cumsum(weights * np.abs(curve))[::sps]
    span = np.arange(m) * sps + 20
    got_b = reconstruct_b_from_a(curve, grid, sps)
    assert np.all(np.abs(got_b - b_row_by_rows(curve, m, sps, delta)) <= 2 * span * eps * scale)
    if curve.size < 5:
        with pytest.raises(ValueError, match="five-point"):
            reconstruct_a_from_b(curve, grid, sps)
        return
    # five products summed in another order: 8 ulps of the summed magnitudes
    want_a = a_row_by_rows(curve, m, sps, delta)
    windows = np.add.outer(np.minimum(np.maximum(np.arange(m) * sps - 2, 0), curve.size - 5),
                           np.arange(5))
    magnitude = 48.0 * np.sum(np.abs(curve[windows]), axis=1) / (24.0 * delta)
    assert np.all(np.abs(reconstruct_a_from_b(curve, grid, sps) - want_a) <= 8 * eps * magnitude)


def test_reconstruction_refuses_a_curve_sampled_at_another_density():
    # read at 20 samples per step, a curve sampled at 40 would give rows off
    # by 3.4 (B) and 6.1 (A) with no error; read at 40 it is within 5e-9 (B)
    # and 4.5e-7 (A)
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    a_fine, b_fine = sample_expectation_curves(h, t, prep, grid, plan, 40)
    with pytest.raises(ValueError, match="exactly 141 samples, got 281"):
        reconstruct_b_from_a(a_fine, grid, 20)
    with pytest.raises(ValueError, match="exactly 141 samples, got 281"):
        reconstruct_a_from_b(b_fine, grid, 20)
    direct = build_ktr(h, t, prep, grid, plan)
    assert np.max(np.abs(reconstruct_b_from_a(a_fine, grid, 40) - direct.row_b)) <= 1e-8
    assert np.max(np.abs(reconstruct_a_from_b(b_fine, grid, 40) - direct.row_a)) <= 1e-6


def test_fine_grid_without_a_sample_count_checks_its_own_total():
    # m = 2 at 2 samples per step has 3 fine samples, m = 3 has 5
    assert _fine_grid(TimeGrid(0.2, 3), 2, five_point=True) == (5, 0.05)
    with pytest.raises(ValueError, match="five-point"):
        _fine_grid(TimeGrid(0.2, 2), 2, five_point=True)
    with pytest.raises(ValueError, match="five-point"):
        stencil_indices(TimeGrid(0.2, 2), 2)


def test_stencil_indices_are_the_derivative_windows():
    # centred windows inside, one-sided ones at both ends, merged where they meet
    assert stencil_indices(TimeGrid(0.2, 4), 20).tolist() == [
        0, 1, 2, 3, 4, 18, 19, 20, 21, 22, 38, 39, 40, 41, 42, 56, 57, 58, 59, 60]
    assert stencil_indices(TimeGrid(0.2, 3), 2).tolist() == [0, 1, 2, 3, 4]
    assert stencil_indices(TimeGrid(0.2, 4), 4).tolist() == list(range(13))
    assert stencil_indices(TimeGrid(0.2, 32)).size == 5 * 32


def test_derivative_reads_only_its_stencil():
    h, t, plan, grid, prep = _tfim_setup(6, m=10)
    a_full, b_full = sample_expectation_curves(h, t, prep, grid, plan, 20)
    stencil = stencil_indices(grid, 20)
    a_part, b_part = sample_expectation_curves(h, t, prep, grid, plan, 20, stencil)
    off = np.setdiff1d(np.arange(b_full.size), stencil)
    assert np.isnan(a_part[off]).all() and np.isnan(b_part[off]).all()
    assert np.max(np.abs(b_part[stencil] - b_full[stencil])) <= 1e-14
    assert np.max(np.abs(a_part[stencil] - a_full[stencil])) <= 1e-14 * h.coeff_norm
    # the A row from a curve that is NaN off the stencil is the full-curve row
    masked = b_full.copy()
    masked[off] = np.nan
    assert np.array_equal(reconstruct_a_from_b(masked, grid, 20),
                          reconstruct_a_from_b(b_full, grid, 20))
    # a read outside the sampled set cannot pass silently
    masked[stencil[-1]] = np.nan
    row_a = reconstruct_a_from_b(masked, grid, 20)
    with pytest.raises(ValueError, match="row_a has a non-finite entry"):
        ToeplitzPencil(row_a, b_full[np.arange(grid.m) * 20], grid)


def test_trotter_curves_on_a_subset_match_the_full_grid_bit_for_bit():
    h, t, _, grid, prep = _tfim_setup(6, m=6)
    plan = EvolutionPlan.trotter2(h, 40)
    branches = _stabilized(t, prep)
    step = 0.5 * grid.dt / 4
    count = (grid.m - 1) * 4 + 1
    a_full, b_full = _signed_curves(h, t, branches, step, np.arange(count), plan)
    for subset in (stencil_indices(grid, 4), np.array([0, 7, 8, count - 1]), np.array([5])):
        a, b = _signed_curves(h, t, branches, step, subset, plan)
        assert np.array_equal(a, a_full[subset]) and np.array_equal(b, b_full[subset])


def test_phi_routes_require_unit_norm():
    h, t, plan, grid, _ = _tfim_setup(4, m=4)
    phi = random_state(4, np.random.default_rng(53))
    doubled = StateVector(4, 2.0 * phi.amps)
    specs = enumerate_local_projectors([t])
    with pytest.raises(ValueError, match="unit norm"):
        build_kqd(h, doubled, grid, plan)
    with pytest.raises(ValueError, match="unit norm"):
        implicit_hadamard_rows(doubled, h, t, grid, plan)
    with pytest.raises(ValueError, match="unit norm"):
        extended_local_pencil(doubled, specs, h, t, grid, plan, 2)


def test_phi_routes_refuse_a_nan_state():
    # a NaN norm passes a check written as |norm - 1| > tol; the implicit
    # route then dropped every branch and failed later with "no positive spectrum"
    h, t, plan, grid, _ = _tfim_setup(4, m=4)
    amps = random_state(4, np.random.default_rng(53)).amps.copy()
    amps[3] = np.nan
    phi = StateVector(4, amps)
    specs = enumerate_local_projectors([t])
    with pytest.raises(ValueError, match="unit norm"):
        build_kqd(h, phi, grid, plan)
    with pytest.raises(ValueError, match="unit norm"):
        implicit_hadamard_rows(phi, h, t, grid, plan)
    with pytest.raises(ValueError, match="unit norm"):
        extended_local_pencil(phi, specs, h, t, grid, plan, 2)


def test_trotter_pencils_step_along_the_grid():
    # every sample of a trotter2 pencil comes from powers of one Trotter step,
    # so B is the Gram matrix of one Krylov space and the default epsilon
    # keeps no spurious direction
    config = parse_config(
        "model.kind = tfim\nmodel.n = 8\nmodel.gamma = 0.5\n"
        "method = kqd,ktr,implicit,local:2,derivative,integral\n"
        "init = project:00\ngrid.m = 32\nevolution = trotter2:100\n")
    final = [rec for rec in run(config).records if rec.m_used == 32]
    assert len(final) == 6
    for rec in final:
        assert rec.rel_error <= 1e-3, rec.method
    h = build(config.model)
    t = known_time_reversal(config.model)
    plan = EvolutionPlan.trotter2(h, 100)
    grid = TimeGrid(default_dt(h), 32)
    phi = plus_state(8)
    prep = project(phi, ProjectorSpec.blocks_of(t, (0, 0)))
    for pencil in (build_kqd(h, prep, grid, plan), build_ktr(h, t, prep, grid, plan),
                   implicit_hadamard_rows(phi, h, t, grid, plan)):
        b_evals = solve(pencil).b_eigenvalues
        assert abs(b_evals[0] / b_evals[-1]) <= 1e-12


def test_pencil_prefix():
    h, t, plan, grid, prep = _tfim_setup(4, m=8)
    pen = build_ktr(h, t, prep, grid, plan)
    sub = pen.prefix(4)
    assert sub.grid.m == 4
    assert np.array_equal(sub.row_b, pen.row_b[:4])


def test_prefix_takes_views_and_checks_nothing_again():
    grid = TimeGrid(0.5, 6)
    rng = np.random.default_rng(5)
    row_a = 1j * rng.normal(size=6)
    row_b = rng.normal(size=6)
    kept = row_a.copy()
    pen = ToeplitzPencil(row_a, row_b, grid)
    # direct construction copies the rows it checks
    row_a[1] = np.nan
    assert np.array_equal(pen.row_a, kept)
    with mock.patch.object(ToeplitzPencil, "__post_init__", side_effect=AssertionError):
        sub = pen.prefix(4)
    assert sub.grid == TimeGrid(0.5, 4)
    for part, whole in ((sub.row_a, pen.row_a), (sub.row_b, pen.row_b),
                        (sub.matrix_a(), pen.matrix_a()), (sub.matrix_b(), pen.matrix_b())):
        assert np.shares_memory(part, whole) and not part.flags.writeable
        assert np.array_equal(part, whole[:4] if part.ndim == 1 else whole[:4, :4])


def test_row_entries_independent_across_threads():
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    plan.factorization()
    t_obs = PauliSum(h.n, ((1.0, t),))
    c = ProjectorSpec((t,), (0,)).parity

    def entry(j):
        w = evolve(plan, 0.5 * grid.dt * j, prep)
        return c * expectation(w, t_obs)

    sequential = [entry(j) for j in range(grid.m)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(entry, range(grid.m)))
    assert sequential == concurrent
    pen = build_ktr(h, t, prep, grid, plan)
    assert np.allclose(pen.row_b.real, sequential, atol=1e-14)


def test_reconstruction_routes_at_negative_stabilizer_sign():
    # T|v0> = -|v0>: the fine curves carry c = -1 once, so the rebuilt rows
    # meet the direct ktr rows; a sign applied twice, or not at all, flips them
    h, t, plan, grid, _ = _tfim_setup(6, m=10)
    v0 = project(plus_state(6), ProjectorSpec((t,), (1,)))
    direct = build_ktr(h, t, v0, grid, plan)
    assert np.max(np.abs(direct.row_b - build_kqd(h, v0, grid, plan).row_b)) <= 1e-10
    a_fine, b_fine = sample_expectation_curves(h, t, v0, grid, plan, 20)
    targets = np.arange(grid.m) * 20
    assert np.max(np.abs(b_fine[targets] - direct.row_b)) <= 1e-12
    assert np.max(np.abs(1j * a_fine[targets] - direct.row_a)) <= 1e-12
    assert np.max(np.abs(reconstruct_b_from_a(a_fine, grid, 20) - direct.row_b)) <= 1e-6
    assert np.max(np.abs(reconstruct_a_from_b(b_fine, grid, 20) - direct.row_a)) <= 1e-4


_COUPLINGS = st.floats(0.3, 1.5)


@st.composite
def _chains(draw):
    """A tfim, z2higgs or cluster chain at n in {4, 6}, its involution, and a
    sign pattern over one or two blocks (either stabilizer sign)."""
    kind = draw(st.sampled_from(("tfim", "z2higgs", "cluster")))
    n = draw(st.sampled_from((4, 6)))
    spec = ModelSpec(kind, n, {key: draw(_COUPLINGS) for key in PARAM_KEYS[kind]})
    alpha = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))
    return build(spec), known_time_reversal(spec), alpha


@settings(max_examples=25, deadline=None)
@given(_chains(), st.integers(2, 6), st.floats(0.05, 0.5), st.integers(0, 2 ** 32 - 1))
def test_every_route_gives_the_first_rows_of_the_overlap_matrices(chain, m, dt, seed):
    h, t, alpha = chain
    grid = TimeGrid(dt, m)
    plan = EvolutionPlan.exact(h, t)
    v0 = project(plus_state(h.n), ProjectorSpec.blocks_of(t, alpha))
    a0, b0 = overlap_matrices_direct(h, v0.amps, grid)
    for pencil in (build_ktr(h, t, v0, grid, plan), build_kqd(h, v0, grid, plan)):
        assert np.max(np.abs(pencil.row_a - a0[0])) <= 1e-10
        assert np.max(np.abs(pencil.row_b - b0[0])) <= 1e-10

    phi = random_state(h.n, seed)
    a_phi, b_phi = overlap_matrices_direct(h, phi.amps, grid)
    imp = implicit_hadamard_rows(phi, h, t, grid, plan)
    assert np.max(np.abs(imp.row_a - 1j * a_phi[0].imag)) <= 1e-10
    assert np.max(np.abs(imp.row_b - b_phi[0].real)) <= 1e-10

    specs = enumerate_local_projectors(ProjectorSpec.blocks_of(t, (0,) * len(alpha)).t_blocks)
    parts = [overlap_matrices_direct(h, project_array(phi.amps, spec), grid) for spec in specs]
    local = extended_local_pencil(phi, specs, h, t, grid, plan, len(specs))
    assert np.max(np.abs(local.row_a - sum(1j * a[0].imag for a, _ in parts))) <= 1e-10
    assert np.max(np.abs(local.row_b - sum(b[0].real for _, b in parts))) <= 1e-10


def _sampled_curves(plan, h, t, starts, step, indices):
    """The curves of :func:`reversal_curves` from amplitudes: one ``evolve``
    and two ``expectation`` calls per start state and sample index."""
    t_obs = PauliSum(h.n, ((1.0, t),))
    iht = build_iht_observable(h, t)
    a = np.zeros((len(starts), len(indices)))
    b = np.zeros((len(starts), len(indices)))
    for i, s in enumerate(starts):
        for j, k in enumerate(indices):
            w = evolve(plan, k * step, s)
            a[i, j] = expectation(w, iht)
            b[i, j] = expectation(w, t_obs)
    return a, b


def _reflected_states(t, n, rng, stabilized):
    """Random unit states; a True entry of ``stabilized`` projects its state
    onto the +1 or the -1 eigenspace of T."""
    starts = []
    for keep in stabilized:
        s = random_state(n, rng)
        if keep:
            amps = s.amps + rng.choice([-1.0, 1.0]) * apply_pauli(s, t).amps
            s = StateVector(n, amps / np.linalg.norm(amps))
        starts.append(s)
    return starts


@st.composite
def _reversal_case(draw):
    """A random sum that commutes with random pairwise-commuting X-type and
    Z-type strings and anticommutes with a random string, one involution of
    its ``solve_time_reversal`` space, and start states, stabilized by it or
    not.  Some draws add a term with an odd number of Y factors; a ``dense``
    draw takes no generators and adds terms until H has no X/Z symmetry."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = draw(st.booleans())
    xs, zs = [], []
    for _ in range(0 if dense else draw(st.integers(0, 4))):
        same, other = (xs, zs) if rng.random() < 0.5 else (zs, xs)
        mask = int(rng.integers(1, 2 ** n))
        if all((mask & m).bit_count() % 2 == 0 for m in other):
            same.append(mask)
    group = ([PauliString.from_xz(n, x, 0) for x in xs]
             + [PauliString.from_xz(n, 0, z) for z in zs])

    def term(anti, odd_y):
        for _ in range(200):
            p = PauliString.from_xz(n, int(rng.integers(2 ** n)), int(rng.integers(2 ** n)))
            if (symplectic_product(p, anti) and not any(symplectic_product(p, g) for g in group)
                    and (p.x & p.z).bit_count() % 2 == odd_y):
                return [(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)), p)]
        return []

    # no term fits a string in the group; draw another
    for _ in range(20):
        anti = PauliString.from_xz(n, int(rng.integers(2 ** n)), int(rng.integers(2 ** n)))
        terms = [pair for _ in range(draw(st.integers(1, 6))) for pair in term(anti, 0)]
        if terms:
            break
    assume(terms)
    if draw(st.booleans()):
        terms += term(anti, 1)
    for _ in range(4 * n if dense else 0):
        if commutant(PauliSum(n, tuple(terms))) == ((), ()):
            break
        terms += term(anti, draw(st.integers(0, 1)))
    h = PauliSum(n, tuple(terms))
    space = solve_time_reversal(h)
    pick = draw(st.integers(0, min(space.count, 64) - 1))
    t = list(space.solutions(limit=pick + 1))[-1]
    starts = _reflected_states(t, n, rng, draw(st.lists(st.booleans(), min_size=1, max_size=3)))
    return h, t, starts


@settings(max_examples=80, deadline=None)
@given(_reversal_case(), st.floats(0.05, 0.7), st.integers(1, 12))
def test_eigenbasis_curves_match_sampled_expectations(case, step, count):
    h, t, starts = case
    plan = EvolutionPlan.exact(h, t)
    got = reversal_curves(plan, t, starts, step, np.arange(count))
    want = _sampled_curves(plan, h, t, starts, step, np.arange(count))
    assert np.max(np.abs(got[1] - want[1])) <= 1e-12
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12 * max(1.0, h.coeff_norm)


@settings(max_examples=40, deadline=None)
@given(_reversal_case(), st.floats(0.05, 0.7), st.integers(1, 5),
       st.sets(st.integers(0, 40), min_size=1, max_size=12))
def test_eigenbasis_curves_at_scattered_indices(case, step, chunk, picked):
    # a chunk of 1 to 5 samples puts the indices into many groups, each with
    # its own phase shift, and leaves gaps and empty groups between them
    h, t, starts = case
    plan = EvolutionPlan.exact(h, t)
    indices = np.array(sorted(picked))
    with mock.patch.object(states, "CURVE_CHUNK_BYTES", chunk * 80 * 2 ** h.n):
        got = reversal_curves(plan, t, starts, step, indices)
    want = _sampled_curves(plan, h, t, starts, step, indices)
    assert np.max(np.abs(got[1] - want[1])) <= 1e-12
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12 * max(1.0, h.coeff_norm)
    # no indices: no group and an empty phase table
    for curve in reversal_curves(plan, t, starts, step, indices[:0]):
        assert curve.shape == (len(starts), 0)


_DENSE = PauliSum(2, tuple((1.0, PauliString.from_label(label))
                           for label in ("XI", "ZI", "IX", "IZ")))
_ODD_Y_TERM = PauliSum(3, ((0.5, PauliString.from_label("XYI")),
                           (0.8, PauliString.from_label("ZZI")),
                           (1.1, PauliString.from_label("IZZ"))))
_ODD_Y_INVOLUTION = PauliSum(1, ((0.7, PauliString.from_label("X")),
                                 (-0.4, PauliString.from_label("Z"))))


@pytest.mark.parametrize("h, t, blocks, moved", [
    # no X/Z symmetry: one dense block
    (_DENSE, PauliString.from_label("YY"), 1, 0),
    # an odd-Y term: complex blocks, 4 of them, every one moved by T = IXI
    (_ODD_Y_TERM, PauliString.from_label("IXI"), 4, 4),
    # T = Y carries the phase i: complex eigenvectors on one dense block
    (_ODD_Y_INVOLUTION, PauliString.from_label("Y"), 1, 0),
    # every block of the gauge model moves: pi has no fixed point
    (build(ModelSpec("z2higgs", 10, {"mu": 0.9, "g": 1.1})),
     known_time_reversal(ModelSpec("z2higgs", 10, {"mu": 0.9, "g": 1.1})), 64, 64),
], ids=["dense", "odd-y-term", "odd-y-involution", "z2higgs-10"])
def test_eigenbasis_curves_on_fixed_cases(h, t, blocks, moved):
    plan = EvolutionPlan.exact(h, t)
    partner, signs = plan.reversal(t)
    assert partner.shape[0] == blocks
    assert np.count_nonzero(partner[:, 0] // partner.shape[1] != np.arange(blocks)) == moved
    assert plan.reversal(t)[0] is partner and not partner.flags.writeable
    starts = _reflected_states(t, h.n, np.random.default_rng(h.n), (False, True))
    # 40 samples span three chunks at n = 10
    got = reversal_curves(plan, t, starts, 0.3, np.arange(40))
    want = _sampled_curves(plan, h, t, starts, 0.3, np.arange(40))
    assert np.max(np.abs(got[1] - want[1])) <= 1e-12
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12 * max(1.0, h.coeff_norm)


@settings(max_examples=60, deadline=None)
@given(_reversal_case())
def test_the_eigenbasis_is_paired_exactly_under_t(case):
    h, t, _ = case
    plan = EvolutionPlan.exact(h, t)
    evals, evecs = plan.factorization()
    partner, signs = (x.ravel() for x in plan.reversal(t))
    flat = np.arange(partner.size)
    assert np.array_equal(evals.ravel()[partner], -evals.ravel())
    assert np.array_equal(partner[partner], flat)
    assert np.array_equal(signs[partner] * signs, np.ones(signs.size))
    # P_b Q_b, its rows placed in block pi(b), against s_j q_p(j) there
    perm, rows, image_signs = sector_basis(h).image(t, range(evals.shape[0]))
    k = evals.shape[1]
    moved = np.zeros_like(evecs, dtype=complex)
    moved[np.arange(perm.size)[:, None], rows] = image_signs[..., None] * evecs
    paired = evecs.transpose(0, 2, 1).reshape(-1, k)[partner] * signs[:, None]
    assert np.max(np.abs(moved.transpose(0, 2, 1).reshape(-1, k) - paired), initial=0.0) <= 1e-12


def _jordan_wielandt_case(fixed_sign, cycle_sign):
    """A block of k = 3 where P swaps columns 0 and 1 (sign ``cycle_sign``)
    and keeps column 2 (sign ``fixed_sign``), and an H = [[0, C], [C+, 0]]
    on P's eigenvectors that anticommutes with it."""
    rows, signs = np.array([1, 0, 2]), np.array([cycle_sign, np.conj(cycle_sign), fixed_sign])
    p = np.zeros((3, 3), complex)
    p[rows, np.arange(3)] = signs
    pair = np.array([1.0, cycle_sign, 0.0]) / np.sqrt(2)
    anti = np.array([1.0, -cycle_sign, 0.0]) / np.sqrt(2)
    single = np.eye(3)[2]
    # W+ and W- of P: the 2-cycle adds one vector to each, the fixed point to its side
    w_plus = np.stack((pair, single) if fixed_sign > 0 else (pair,), axis=1)
    w_minus = np.stack((anti,) if fixed_sign > 0 else (anti, single), axis=1)
    c = np.random.default_rng(5).normal(size=(w_plus.shape[1], w_minus.shape[1]))
    h = w_plus @ c @ w_minus.conj().T
    return p, h + h.conj().T, rows, signs


@pytest.mark.parametrize("fixed_sign", [1.0, -1.0])
@pytest.mark.parametrize("cycle_sign", [1.0, 1j])
def test_a_self_paired_block_with_a_fixed_point_keeps_its_zero_mode(fixed_sign, cycle_sign):
    # in a symmetry block of a Hamiltonian P is traceless, so C is square;
    # a fixed point that leaves C 2 x 1 or 1 x 2 is pinned on a built block
    p, h, rows, signs = _jordan_wielandt_case(fixed_sign, cycle_sign)
    assert np.allclose(p @ h, -h @ p)
    evals, evecs, columns, pair_signs = states._jordan_wielandt(h, rows, signs)
    sigma = np.linalg.eigvalsh(h)[-1]
    assert np.allclose(evals, [sigma, -sigma, 0.0], atol=1e-14) and sigma > 0.1
    assert list(columns) == [1, 0, 2] and list(pair_signs) == [1.0, 1.0, fixed_sign]
    assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(3))) <= 1e-14
    assert np.max(np.abs(h @ evecs - evecs * evals)) <= 1e-14
    # the zero mode is P's own eigenvector at the sign of its side
    assert np.max(np.abs(p @ evecs - evecs[:, columns] * pair_signs)) <= 1e-14


def test_a_plan_reads_only_the_involution_it_was_built_with():
    spec = ModelSpec("tfim", 4, {"gamma": 0.5})
    h, t = build(spec), known_time_reversal(spec)
    other = next(s for s in solve_time_reversal(h).solutions(limit=4) if s != t)
    starts = [project(plus_state(4), ProjectorSpec((t,), (0,)))]
    for plan, asked in ((EvolutionPlan.exact(h), t), (EvolutionPlan.exact(h, t), other)):
        with pytest.raises(ValueError, match="involution"):
            reversal_curves(plan, asked, starts, 0.1, np.arange(4))
        with pytest.raises(ValueError, match="involution"):
            plan.reversal(asked)
    # a string that commutes with a term of H pairs nothing
    with pytest.raises(NotTimeReversalError):
        EvolutionPlan.exact(h, PauliString.from_label("XXXX"))


def test_a_wrong_pairing_sign_fails_the_factorization_check():
    spec = ModelSpec("z2higgs", 6, {"mu": 0.9, "g": 1.1})
    h, t = build(spec), known_time_reversal(spec)
    plan = EvolutionPlan.exact(h, t)
    perm, rows, signs = plan._image
    wrong = signs.copy()
    wrong[0, 0] *= -1.0
    plan._image = perm, rows, wrong
    with pytest.raises(InternalInconsistencyError, match="eigenfactorization residual"):
        plan.factorization()


@pytest.mark.parametrize("kind, params", [
    ("z2higgs", {"mu": 0.9, "g": 1.1}),
    ("tfim", {"gamma": 0.5}),
    ("cluster", {"g_x": 1.0, "g_zz": 0.5, "g_zxz": 0.3}),
])
def test_eigenbasis_curves_stay_on_the_sampled_ones_at_long_times(kind, params):
    # out to tau = 217, against per-sample evolve and expectation on a plan
    # without T (its own eigh eigenbasis); both read phases L tau, whose
    # rounding grows as tau ||h||_1 eps, so the bound is tau ||h||_1 1e-15,
    # times ||h||_1 for a = <iHT>
    spec = ModelSpec(kind, 10, params)
    h, t = build(spec), known_time_reversal(spec)
    starts = _reflected_states(t, h.n, np.random.default_rng(11), (True, False))
    step, indices = 0.155, np.array([0, 1, 7, 100, 640, 1399, 1400])
    got = reversal_curves(EvolutionPlan.exact(h, t), t, starts, step, indices)
    want = _sampled_curves(EvolutionPlan.exact(h), h, t, starts, step, indices)
    bound = indices[-1] * step * h.coeff_norm * 1e-15
    assert np.max(np.abs(got[1] - want[1])) <= bound
    assert np.max(np.abs(got[0] - want[0])) <= bound * h.coeff_norm


@pytest.mark.parametrize("kind, params", [
    ("z2higgs", {"mu": 1.0, "g": 1.0}),  # 64 blocks of 16
    ("tfim", {"gamma": 0.5}),            # 2 blocks of 512
])
def test_eigenbasis_curves_memory_is_bounded_by_the_chunk(kind, params):
    spec = ModelSpec(kind, 10, params)
    h, t = build(spec), known_time_reversal(spec)
    plan = EvolutionPlan.exact(h, t)
    v0 = project(plus_state(10), ProjectorSpec.blocks_of(t, (0,)))
    # the plan's caches, built once per run
    plan.reversal(t)
    plan.coefficients(v0)
    dim, count = 2 ** 10, 4096
    tracemalloc.start()
    try:
        reversal_curves(plan, t, [v0], 0.01, np.arange(count))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the work arrays of one chunk, then the two output rows (16 B per
    # sample) and O(2**n) for the weights and the chunk's time grid
    assert peak <= CURVE_CHUNK_BYTES + 16 * count + 64 * dim, f"peak {peak} B"


def test_eigenbasis_curves_on_the_stencil_match_the_full_grid():
    spec = ModelSpec("z2higgs", 10, {"mu": 0.9, "g": 1.1})
    h, t = build(spec), known_time_reversal(spec)
    plan = EvolutionPlan.exact(h, t)
    starts = _reflected_states(t, h.n, np.random.default_rng(7), (True, False))
    grid = TimeGrid(default_dt(h), 32)
    total, delta = _fine_grid(grid, 20)
    stencil = stencil_indices(grid, 20)
    # the stencil spans many chunks, and some of its windows cross a boundary
    chunk = CURVE_CHUNK_BYTES // (80 * 2 ** h.n)
    groups = stencil // chunk
    assert np.unique(groups).size > 10
    assert np.any((np.diff(stencil) == 1) & (np.diff(groups) == 1))
    a_full, b_full = reversal_curves(plan, t, starts, delta, np.arange(total))
    a, b = reversal_curves(plan, t, starts, delta, stencil)
    assert np.max(np.abs(b - b_full[:, stencil])) <= 1e-14
    assert np.max(np.abs(a - a_full[:, stencil])) <= 1e-14 * h.coeff_norm


@settings(max_examples=60, deadline=None)
@given(_reversal_case(), st.data(), st.floats(0.05, 0.7), st.integers(1, 12))
def test_reached_blocks_match_the_all_blocks_oracle(case, data, step, count):
    # start states built in sector coordinates on random block subsets; each
    # subset holds some block and its image, so that no curve vanishes
    h, t, _ = case
    basis = sector_basis(h)
    perm = basis.image(t, range(basis.shape[0]))[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    starts = []
    for _ in range(data.draw(st.integers(1, 3))):
        subset = data.draw(st.sets(st.integers(0, perm.size - 1), min_size=1))
        subset.add(int(perm[min(subset)]))
        coords = np.zeros((perm.size, basis.reps.shape[1]), complex)
        picked = sorted(subset)
        coords[picked] = rng.normal(size=coords[picked].shape) + 1j * rng.normal(
            size=coords[picked].shape)
        amps = basis.to_amplitudes(coords)
        starts.append(StateVector(h.n, amps / np.linalg.norm(amps)))
    plan, oracle = EvolutionPlan.exact(h, t), EvolutionPlan.exact(h, t)
    got = reversal_curves(plan, t, starts, step, np.arange(count))
    want = all_blocks_curves(oracle, t, starts, step, np.arange(count))
    for curve, exact in zip(got, want):
        assert np.all(np.abs(curve - exact) <= 1e-13 * np.max(np.abs(exact), axis=1)[:, None])
    for s in starts:
        amps = evolve(plan, count * step, s).amps
        exact = all_blocks_evolve(oracle, count * step, s.amps)
        assert np.max(np.abs(amps - exact)) <= 1e-13 * np.max(np.abs(exact))


GAUGE_EXACT_CONFIG = """
model.kind = z2higgs
model.n = 10
model.mu = 1.0
model.g = 1.0
method = kqd,ktr,implicit,local:8,derivative
init = project:00000
grid.m = 32
evolution = exact
"""


def test_gauge_run_factorizes_and_reads_only_reached_blocks():
    plans, read = [], []
    exact, phases = EvolutionPlan.exact.__func__, states._phases

    def capture(cls, h, t=None):
        plans.append(exact(cls, h, t))
        return plans[-1]

    def spy(evals, taus):
        # the eigenvalues of the blocks a call reads, k = 16 per block
        read.append(evals.size // 16)
        return phases(evals, taus)

    with mock.patch.object(EvolutionPlan, "exact", classmethod(capture)):
        report = run(parse_config(GAUGE_EXACT_CONFIG))
    # the start state and every local branch reach 32 of the 64 blocks
    (plan,) = plans
    assert plan._filled.size == 64 and np.count_nonzero(plan._filled) == 32
    assert float(dict(report.provenance)["exact.dropped_weight"]) <= 1e-30
    # each implicit branch, (I + T) / 2 or (I - T) / 2 of the plus state, reaches 2
    h, t = plan.h, known_time_reversal(ModelSpec("z2higgs", 10, {"mu": 1.0, "g": 1.0}))
    with mock.patch.object(states, "_phases", spy):
        implicit_hadamard_rows(plus_state(10), h, t, TimeGrid(default_dt(h), 32), plan)
    assert read and set(read) == {2}


@pytest.mark.parametrize("scale, kept", [(0.9, False), (1.1, True)])
def test_a_block_below_the_reach_bound_is_dropped_and_reported(scale, kept):
    spec = ModelSpec("z2higgs", 8, {"mu": 0.9, "g": 1.1})
    h = build(spec)
    basis = sector_basis(h)
    bound = basis.rounding_bound
    # a unit block and a second one planted at scale * bound
    rng = np.random.default_rng(3)
    coords = np.zeros(basis.shape, complex)
    coords[0] = rng.normal(size=coords.shape[1])
    coords[0] /= np.linalg.norm(coords[0])
    coords[5] = rng.normal(size=coords.shape[1])
    coords[5] *= scale * bound / np.linalg.norm(coords[5])
    phi = StateVector(h.n, basis.to_amplitudes(coords))
    plan = EvolutionPlan.exact(h)
    reach, _ = plan.coefficients(phi)
    assert reach[0] and reach[5] == kept and np.count_nonzero(reach) == 1 + kept
    planted = (scale * bound) ** 2 / phi.norm ** 2
    if kept:
        assert plan.dropped_weight <= 1e-3 * planted
    else:
        assert abs(plan.dropped_weight - planted) <= 0.05 * planted
    # a run reports the weight in its provenance
    config = parse_config("model.kind = z2higgs\nmodel.n = 8\nmodel.mu = 0.9\nmodel.g = 1.1\n"
                          "method = kqd\ninit = plus\ngrid.m = 4\nevolution = exact\n")
    with mock.patch("ktr.cli._resolve_init", return_value=(phi, None, 1)):
        provenance = dict(run(config).provenance)
    assert float(provenance["exact.dropped_weight"]) == pytest.approx(plan.dropped_weight, rel=1e-3)
    trotter = parse_config("model.kind = z2higgs\nmodel.n = 8\nmodel.mu = 0.9\nmodel.g = 1.1\n"
                           "method = kqd\ninit = plus\ngrid.m = 4\nevolution = trotter2:10\n")
    assert "exact.dropped_weight" not in dict(run(trotter).provenance)

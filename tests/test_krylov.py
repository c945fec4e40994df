"""Overlap-pencil routes against dense oracles."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ktr.cli import parse_config, run
from ktr.errors import NotTimeReversalError
from ktr.gevp import solve
from ktr.initial import PreparedState, ProjectorSpec, enumerate_local_projectors, project
from ktr.krylov import (TimeGrid, ToeplitzPencil, build_kqd, build_ktr, default_dt,
                        extended_local_pencil, implicit_hadamard_rows,
                        reconstruct_a_from_b, reconstruct_b_from_a,
                        sample_expectation_curves)
from ktr.models import ModelSpec, build, known_time_reversal
from ktr.paulis import PauliString, PauliSum, dense_matrix
from ktr.states import EvolutionPlan, StateVector, evolve, expectation, inner, plus_state

from helpers import random_state
from oracles import dense_evolution, dense_projector, overlap_matrices_direct


def _tfim_setup(n, gamma=0.5, m=8, dt=None):
    spec = ModelSpec("tfim", n, {"gamma": gamma})
    h = build(spec)
    t = known_time_reversal(spec)
    plan = EvolutionPlan.exact(h)
    grid = TimeGrid(dt if dt is not None else default_dt(h), m)
    prep = project(plus_state(n), ProjectorSpec.single_block(t))
    return h, t, plan, grid, prep


def test_grid_times():
    grid = TimeGrid(0.25, 4)
    assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75])
    assert np.allclose(grid.half_times, [0.0, 0.125, 0.25, 0.375])
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


def test_kqd_single_qubit_closed_form():
    h = PauliSum(1, ((1.0, PauliString.from_label("Z")),))
    grid = TimeGrid(0.4, 6)
    pen = build_kqd(h, plus_state(1), grid, EvolutionPlan.exact(h))
    assert np.allclose(pen.row_b, np.cos(grid.times), atol=1e-12)
    assert np.allclose(pen.row_a, -1j * np.sin(grid.times), atol=1e-12)


def test_kqd_matches_double_loop_oracle():
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    pen = build_kqd(h, prep.state, grid, plan)
    a_direct, b_direct = overlap_matrices_direct(h, prep.state.amps, grid)
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
    kqd = build_kqd(h, prep.state, grid, plan)
    assert np.max(np.abs(ktr.row_a - kqd.row_a)) <= 1e-10
    assert np.max(np.abs(ktr.row_b - kqd.row_b)) <= 1e-10


def test_ktr_row_structure():
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    pen = build_ktr(h, t, prep, grid, plan)
    assert np.max(np.abs(pen.row_b.imag)) <= 1e-12
    assert np.max(np.abs(pen.row_a.real)) <= 1e-12
    assert abs(pen.row_a[0]) <= 1e-12
    assert np.isclose(pen.row_b[0], 1.0, atol=1e-12)


def test_ktr_rejects_unstabilized_state():
    h, t, plan, grid, _ = _tfim_setup(4, m=4)
    fake = PreparedState(state=plus_state(4), c=1)
    with pytest.raises(ValueError):
        build_ktr(h, t, fake, grid, plan)


def test_ktr_rejects_commuting_operator():
    h, _, plan, grid, prep = _tfim_setup(4, m=4)
    with pytest.raises(NotTimeReversalError):
        build_ktr(h, PauliString.from_label("XXXX"), prep, grid, plan)


def test_implicit_rows_symmetric_state_degenerates_to_ktr():
    h, t, plan, grid, prep = _tfim_setup(6, m=6)
    imp = implicit_hadamard_rows(prep.state, h, t, grid, plan)
    ktr = build_ktr(h, t, prep, grid, plan)
    assert np.max(np.abs(imp.row_b - ktr.row_b)) <= 1e-12
    assert np.max(np.abs(imp.row_a - ktr.row_a)) <= 1e-12


def test_implicit_rows_match_dense_oracle():
    h, t, plan, grid, _ = _tfim_setup(6, m=6)
    rng = np.random.default_rng(23)
    phi = random_state(6, rng)
    pen = implicit_hadamard_rows(phi, h, t, grid, plan)
    hd = dense_matrix(h)
    for j, tj in enumerate(grid.times):
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
    for j, tj in enumerate(grid.times):
        mag = abs(inner(phi, evolve(plan, float(tj), phi))) ** 2
        re = pen.row_b[j].real
        hd = dense_matrix(h)
        u = dense_evolution(hd, float(tj))
        im = (phi.amps.conj() @ u @ phi.amps).imag
        assert abs(re ** 2 + im ** 2 - mag) <= 1e-10


def test_extended_local_single_block_reduces_to_implicit():
    h, t, plan, grid, _ = _tfim_setup(4, m=5)
    rng = np.random.default_rng(37)
    phi = random_state(4, rng)
    specs = enumerate_local_projectors([t])
    row_b = extended_local_pencil(phi, specs, h, t, grid, plan, 2).row_b.real
    imp = implicit_hadamard_rows(phi, h, t, grid, plan)
    assert np.max(np.abs(row_b - imp.row_b.real)) <= 1e-12


def test_extended_local_full_set_matches_dense():
    h, t, plan, grid, _ = _tfim_setup(8, m=4)
    rng = np.random.default_rng(41)
    phi = random_state(8, rng)
    blocks = ProjectorSpec.blocks_of(t, (0, 0)).t_blocks
    specs = enumerate_local_projectors(blocks)
    row_b = extended_local_pencil(phi, specs, h, t, grid, plan, 4).row_b.real
    dense = [dense_projector(s) for s in specs]
    hd = dense_matrix(h)
    for j, tj in enumerate(grid.times):
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


def test_extended_local_pencil_single_block_equals_implicit():
    h, t, plan, grid, _ = _tfim_setup(4, m=5)
    rng = np.random.default_rng(47)
    phi = random_state(4, rng)
    specs = enumerate_local_projectors([t])
    pen = extended_local_pencil(phi, specs, h, t, grid, plan, 2)
    imp = implicit_hadamard_rows(phi, h, t, grid, plan)
    assert np.max(np.abs(pen.row_a - imp.row_a)) <= 1e-12
    assert np.max(np.abs(pen.row_b - imp.row_b)) <= 1e-12


def test_reconstruct_b_trivial_zero_curve():
    grid = TimeGrid(0.2, 5)
    flat = np.zeros((grid.m - 1) * 20 + 1)
    for c in (1, -1):
        row_b = reconstruct_b_from_a(flat, c, grid, 20)
        assert np.allclose(row_b, 1.0)


def test_reconstruct_a_trivial_constant_curve():
    grid = TimeGrid(0.2, 5)
    const = np.full((grid.m - 1) * 20 + 1, 0.7)
    row_a = reconstruct_a_from_b(const, 1, grid, 20)
    assert np.max(np.abs(row_a)) <= 1e-12


def test_reconstruct_single_qubit_closed_forms():
    # v0 = |+>, H = Z, T = X: b(tau) = cos(2 tau), a(tau) = -sin(2 tau)
    h = PauliSum(1, ((1.0, PauliString.from_label("Z")),))
    t = PauliString.from_label("X")
    prep = project(plus_state(1), ProjectorSpec.single_block(t))
    plan = EvolutionPlan.exact(h)
    grid = TimeGrid(0.3, 6)
    a_fine, b_fine = sample_expectation_curves(h, t, prep, grid, plan, 20)
    taus = np.arange(a_fine.size) * (0.5 * grid.dt / 20)
    assert np.max(np.abs(b_fine - np.cos(2 * taus))) <= 1e-12
    assert np.max(np.abs(a_fine - (-np.sin(2 * taus)))) <= 1e-12
    direct = build_ktr(h, t, prep, grid, plan)
    assert np.max(np.abs(reconstruct_b_from_a(a_fine, 1, grid, 20) - direct.row_b)) <= 1e-9
    assert np.max(np.abs(reconstruct_a_from_b(b_fine, 1, grid, 20) - direct.row_a)) <= 1e-7


def test_reconstruction_errors_at_default_density():
    h, t, plan, grid, prep = _tfim_setup(6, m=10)
    direct = build_ktr(h, t, prep, grid, plan)
    a_fine, b_fine = sample_expectation_curves(h, t, prep, grid, plan, 20)
    err_b = np.max(np.abs(reconstruct_b_from_a(a_fine, prep.c, grid, 20) - direct.row_b))
    err_a = np.max(np.abs(reconstruct_a_from_b(b_fine, prep.c, grid, 20) - direct.row_a))
    assert err_b <= 1e-6
    assert err_a <= 1e-4


def test_reconstruction_refinement_orders():
    h, t, plan, grid, prep = _tfim_setup(6, m=6)
    direct = build_ktr(h, t, prep, grid, plan)
    densities = [10, 20, 40]
    errs_b, errs_a = [], []
    for sps in densities:
        a_fine, b_fine = sample_expectation_curves(h, t, prep, grid, plan, sps)
        errs_b.append(np.max(np.abs(reconstruct_b_from_a(a_fine, prep.c, grid, sps) - direct.row_b)))
        errs_a.append(np.max(np.abs(reconstruct_a_from_b(b_fine, prep.c, grid, sps) - direct.row_a)))
    slope_b = np.polyfit(np.log([1 / d for d in densities]), np.log(errs_b), 1)[0]
    slope_a = np.polyfit(np.log([1 / d for d in densities]), np.log(errs_a), 1)[0]
    assert 3.5 <= slope_b <= 4.5
    assert 3.5 <= slope_a <= 4.5


def test_reconstruction_input_validation():
    grid = TimeGrid(0.2, 5)
    for reconstruct in (reconstruct_b_from_a, reconstruct_a_from_b):
        with pytest.raises(ValueError, match="at least 81 samples, got 10"):
            reconstruct(np.zeros(10), 1, grid, 20)  # too few samples
        with pytest.raises(ValueError, match="positive even"):
            reconstruct(np.zeros(200), 1, grid, 15)  # odd panel count
        with pytest.raises(ValueError, match="stabilizer sign"):
            reconstruct(np.zeros(200), 2, grid, 20)  # bad sign
    # m = 2 at 2 samples per step needs only 3 samples; the stencil needs 5
    short = TimeGrid(0.2, 2)
    with pytest.raises(ValueError, match="five-point"):
        reconstruct_a_from_b(np.zeros(4), 1, short, 2)
    assert np.allclose(reconstruct_b_from_a(np.zeros(3), 1, short, 2), 1.0)
    h, t, plan, grid, prep = _tfim_setup(4, m=4)
    for sps in (0, 7):
        with pytest.raises(ValueError, match="positive even"):
            sample_expectation_curves(h, t, prep, grid, plan, sps)


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
    for pencil in (build_kqd(h, prep.state, grid, plan), build_ktr(h, t, prep, grid, plan),
                   implicit_hadamard_rows(phi, h, t, grid, plan)):
        b_evals = solve(pencil).b_eigenvalues
        assert abs(b_evals[0] / b_evals[-1]) <= 1e-12


def test_pencil_prefix():
    h, t, plan, grid, prep = _tfim_setup(4, m=8)
    pen = build_ktr(h, t, prep, grid, plan)
    sub = pen.prefix(4)
    assert sub.grid.m == 4
    assert np.array_equal(sub.row_b, pen.row_b[:4])


def test_row_entries_independent_across_threads():
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    plan.prepare()
    t_obs = PauliSum(h.n, ((1.0, t),))

    def entry(j):
        w = evolve(plan, float(grid.half_times[j]), prep.state)
        return prep.c * expectation(w, t_obs)

    sequential = [entry(j) for j in range(grid.m)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(entry, range(grid.m)))
    assert sequential == concurrent
    pen = build_ktr(h, t, prep, grid, plan)
    assert np.allclose(pen.row_b.real, sequential, atol=1e-14)

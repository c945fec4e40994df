"""Overlap-pencil routes against dense oracles."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktr.cli import parse_config, run
from ktr.errors import NotTimeReversalError
from ktr.gevp import solve
from ktr.initial import ProjectorSpec, enumerate_local_projectors, project, project_array
from ktr.krylov import (TimeGrid, ToeplitzPencil, build_kqd, build_ktr, default_dt,
                        extended_local_pencil, implicit_hadamard_rows,
                        reconstruct_a_from_b, reconstruct_b_from_a,
                        sample_expectation_curves)
from ktr.models import PARAM_KEYS, ModelSpec, build, known_time_reversal
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
    hd = dense_matrix(h)
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
    plan = EvolutionPlan.exact(h)
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
        with pytest.raises(ValueError, match="at least 81 samples, got 10"):
            reconstruct(np.zeros(10), grid, 20)  # too few samples
        with pytest.raises(ValueError, match="positive even"):
            reconstruct(np.zeros(200), grid, 15)  # odd panel count
    # m = 2 at 2 samples per step needs only 3 samples; the stencil needs 5
    short = TimeGrid(0.2, 2)
    with pytest.raises(ValueError, match="five-point"):
        reconstruct_a_from_b(np.zeros(4), short, 2)
    assert np.allclose(reconstruct_b_from_a(np.zeros(3), short, 2), 1.0)
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


def test_row_entries_independent_across_threads():
    h, t, plan, grid, prep = _tfim_setup(6, m=8)
    plan.prepare()
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
    plan = EvolutionPlan.exact(h)
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

"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.

Criterion 4 measures the 32-vector ground energy against the Rayleigh-Ritz
optimum of the same Krylov space, built from explicit vectors.  The
relative error at its pinned inputs (n=8, gamma=0.5 open chain, w0-blocks:2
start, m=32, eps=1e-10) is set by the Gram threshold, not by the space.
Smaller spacings give better spaces (oracle 1.4e-7 at dt=0.30, 3.7e-10 at
dt=0.20), but their Gram spectra fall to 2.4e-15 of the largest eigenvalue
or below, so eps=1e-10 drops 2 to 8 directions and the estimate lands at
2.9e-5 to 3.3e-4 (3.8e-4 at the package default dt=0.143, 19 of 32 kept).
The best uniform spacing, dt=0.336, keeps all 32 directions (Gram min/max
1.03e-10) and gives 1.12e-5, the space's own optimum.  Convergence is slow
because the start state splits its weight evenly (8.8%/8.9%) over the
ground doublet E0=-7.64059, E1=-7.63473, of opposite parity under the
product of all Z.
"""

import time

import numpy as np
import pytest

from ktr.cli import parse_config, run
from ktr.gevp import exact_reference, sector_ground_energy, solve
from ktr.initial import (ProjectorSpec, build_block_product,
                         build_block_state_w0, enumerate_local_projectors, project,
                         project_array)
from ktr.krylov import (TimeGrid, ToeplitzPencil, build_kqd, build_ktr, default_dt,
                        extended_local_pencil, implicit_hadamard_rows, reconstruct_a_from_b,
                        reconstruct_b_from_a, sample_expectation_curves)
from ktr.models import ModelSpec, build, gauss_generators, known_time_reversal
from ktr.paulis import PauliString, PauliSum, build_iht_observable
from ktr.states import (EvolutionPlan, apply_pauli, evolve, expectation, inner,
                        matrix_element, plus_state)
from ktr.symmetry import Infeasible, solve_time_reversal, verify_time_reversal

from helpers import basis_state, gauge_start, random_state
from oracles import (HADAMARD, IDENTITY2, brute_force_reversals_dense,
                     controlled_not, dense_evolution, dense_projector, krylov_ritz_grounds,
                     kron_chain, kron_matrix)


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {name}: {status}{suffix}")


def _tfim8():
    spec = ModelSpec("tfim", 8, {"gamma": 0.5})
    h = build(spec)
    return spec, h, known_time_reversal(spec)


def test_criterion_01_gram_identity():
    start = time.perf_counter()
    _, h, t = _tfim8()
    plan = EvolutionPlan.exact(h)
    rng = np.random.default_rng(101)
    spec = ProjectorSpec((t,), (0,))
    prep = project(random_state(8, rng), spec)
    t_obs = PauliSum(8, ((1.0, t),))
    worst = 0.0
    for _ in range(50):
        ta, tb = rng.uniform(-3.0, 3.0, size=2)
        lhs = inner(evolve(plan, ta, prep), evolve(plan, tb, prep))
        w = evolve(plan, (tb - ta) / 2.0, prep)
        rhs = spec.parity * expectation(w, t_obs)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(1, "gram entries from involution expectations", ok,
             f"worst |lhs-rhs| = {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_hamiltonian_overlap_identity():
    _, h, t = _tfim8()
    plan = EvolutionPlan.exact(h)
    rng = np.random.default_rng(202)
    spec = ProjectorSpec((t,), (0,))
    prep = project(random_state(8, rng), spec)
    iht = build_iht_observable(h, t)
    worst = 0.0
    for _ in range(50):
        ta, tb = rng.uniform(-3.0, 3.0, size=2)
        lhs = matrix_element(evolve(plan, ta, prep), h,
                             evolve(plan, tb, prep))
        w = evolve(plan, (tb - ta) / 2.0, prep)
        rhs = 1j * spec.parity * expectation(w, iht)
        worst = max(worst, abs(lhs - rhs))
    pen = build_ktr(h, t, prep, TimeGrid(default_dt(h), 16), plan)
    head = abs(pen.row_a[0])
    b_imag = float(np.max(np.abs(pen.row_b.imag)))
    ok = worst <= 1e-10 and head <= 1e-12 and b_imag <= 1e-12
    _verdict(2, "H-overlap entries from the iHT observable", ok,
             f"worst = {worst:.2e}, |rowA[1]| = {head:.2e}")
    assert worst <= 1e-10
    assert head <= 1e-12
    assert b_imag <= 1e-12


def test_criterion_03_route_equivalence():
    worst_entry = 0.0
    worst_ground = 0.0
    cases = []
    spec, h, t = _tfim8()
    v0 = build_block_product(4, 2)
    cases.append((h, t, v0))
    spec2 = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    h2 = build(spec2)
    cases.append((h2, known_time_reversal(spec2), gauge_start(8, 1)))
    for h_i, t_i, prep_i in cases:
        plan = EvolutionPlan.exact(h_i)
        grid = TimeGrid(default_dt(h_i), 32)
        ktr = build_ktr(h_i, t_i, prep_i, grid, plan)
        kqd = build_kqd(h_i, prep_i, grid, plan)
        worst_entry = max(worst_entry,
                          float(np.max(np.abs(ktr.matrix_a() - kqd.matrix_a()))),
                          float(np.max(np.abs(ktr.matrix_b() - kqd.matrix_b()))))
        worst_ground = max(worst_ground,
                           abs(solve(ktr, 1e-10).ground - solve(kqd, 1e-10).ground))
    ok = worst_entry <= 1e-10 and worst_ground <= 1e-9
    _verdict(3, "expectation route equals canonical route", ok,
             f"entries {worst_entry:.2e}, grounds {worst_ground:.2e}")
    assert worst_entry <= 1e-10
    assert worst_ground <= 1e-9


def test_criterion_04_ground_energy_accuracy():
    # pinned: n=8, gamma=0.5, blocks of 4, exact evolution, m=32, eps=1e-10.
    # At dt=0.336 all 32 Gram directions survive the threshold, so each
    # prefix estimate must equal the variational optimum of its own Krylov
    # space, taken from explicit vectors.  Tolerance: eps_mach * cond(B)
    # = 1.1e-16 * 9.7e9 ~ 1.1e-6 relative to |E0|.
    dt = 0.336
    config = parse_config(f"""
model.kind = tfim
model.n = 8
model.gamma = 0.5
method = ktr
init = w0-blocks:2
grid.m = 32
grid.dt = {dt}
epsilon = 1e-10
""")
    report = run(config)
    sizes = list(range(2, 33, 2))
    assert [rec.m_used for rec in report.records] == sizes

    _, h, t = _tfim8()
    hd = kron_matrix(h)
    e0 = float(np.linalg.eigvalsh(hd)[0])
    v0 = build_block_product(4, 2)
    oracle = krylov_ritz_grounds(hd, v0.amps, dt, sizes)

    pen = build_ktr(h, t, v0, TimeGrid(dt, 32),
                    EvolutionPlan.exact(h))
    results = [solve(pen.prefix(m), 1e-10) for m in sizes]
    via_run = np.array([rec.estimate for rec in report.records])
    via_solve = np.array([res.ground for res in results])
    gap = max(float(np.max(np.abs(via_run - oracle))),
              float(np.max(np.abs(via_solve - oracle)))) / abs(e0)
    kept = results[-1].kept_dim
    b_evals = results[-1].b_eigenvalues
    b_ratio = b_evals[0] / b_evals[-1]

    curve = [rec.rel_error for rec in report.records]
    monotone = all(curve[k + 1] <= curve[k] + 1e-9 for k in range(len(curve) - 1))
    ok = kept == 32 and report.records[-1].kept_dim == 32 and gap <= 1e-6 and monotone
    _verdict(4, "ground-energy accuracy at 32 Krylov vectors", ok,
             f"kept {kept}/32, Gram min/max {b_ratio:.2e}, rel = {curve[-1]:.6e}, "
             f"oracle rel = {abs(oracle[-1] - e0) / abs(e0):.6e}, "
             f"max gap = {gap:.2e}, monotone = {monotone}")
    assert kept == 32
    assert report.records[-1].kept_dim == 32
    assert gap <= 1e-6
    assert monotone


def test_criterion_05_sector_convergence():
    config = parse_config("""
model.kind = z2higgs
model.n = 8
model.mu = 1.0
model.g = 1.0
method = ktr
init = project:0
grid.m = 32
""")
    report = run(config)
    final = report.records[-1]
    spec = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    h = build(spec)
    sector = sector_ground_energy(h, gauss_generators(spec))
    global_ground = float(exact_reference(h)[0])
    assert np.isclose(final.reference, sector)
    closer = True
    if abs(sector - global_ground) > 1e-6:
        closer = abs(final.estimate - sector) < abs(final.estimate - global_ground)
    ok = final.rel_error <= 1e-5 and closer
    _verdict(5, "gauge-sector ground energy", ok,
             f"rel = {final.rel_error:.2e}, sector = {sector:.6f}")
    assert final.rel_error <= 1e-5
    assert closer


def test_criterion_06_xorsat_solver():
    # (a) the n=4 cluster chain admits both alternating decodings
    cluster = build(ModelSpec("cluster", 4, {"g_x": 1.0, "g_zz": 1.0, "g_zxz": 1.0}))
    sol = solve_time_reversal(cluster)
    part_a = (not isinstance(sol, Infeasible)
              and {"YZYZ", "ZYZY"} <= {s.label() for s in sol.solutions()})

    # (b) the generic Heisenberg chain is infeasible, confirmed exhaustively
    heis = build(ModelSpec("heisenberg", 4, {"j_x": 1.0, "j_y": 0.9, "j_z": 1.2}))
    outcome = solve_time_reversal(heis)
    part_b = isinstance(outcome, Infeasible) and brute_force_reversals_dense(heis) == set()

    # (c) every returned solution verifies; dense anticommutators at n=4
    part_c = True
    for n in (4, 8):
        specs = [ModelSpec("tfim", n, {"gamma": 0.5}),
                 ModelSpec("z2higgs", n, {"mu": 1.0, "g": 1.0}),
                 ModelSpec("cluster", n, {"g_x": 1.0, "g_zz": 1.0, "g_zxz": 1.0})]
        for spec in specs:
            h = build(spec)
            outcome = solve_time_reversal(h)
            if isinstance(outcome, Infeasible):
                part_c = False
                continue
            hd = kron_matrix(h) if n == 4 else None
            for t in outcome.solutions(limit=64):
                part_c = part_c and verify_time_reversal(t, h)
                if n == 4:
                    td = kron_matrix(t)
                    part_c = part_c and np.max(np.abs(td @ hd + hd @ td)) == 0.0
    ok = part_a and part_b and part_c
    _verdict(6, "GF(2) solver: solutions, certificates, soundness", ok,
             f"cluster {part_a}, infeasible {part_b}, verified {part_c}")
    assert part_a and part_b and part_c


def test_criterion_07_implicit_overlap_identities():
    _, h, t = _tfim8()
    plan = EvolutionPlan.exact(h)
    hd = kron_matrix(h)
    rng = np.random.default_rng(707)
    phi = random_state(8, rng)
    prep_p = project(phi, ProjectorSpec((t,), (0,)))
    prep_m = project(phi, ProjectorSpec((t,), (1,)))
    weight = np.linalg.norm(project_array(phi.amps, ProjectorSpec((t,), (0,)))) ** 2
    t_obs = PauliSum(8, ((1.0, t),))
    iht = build_iht_observable(h, t)
    worst_re = worst_im = 0.0
    for tdiff in rng.uniform(-3.0, 3.0, size=20):
        half = tdiff / 2.0
        vp = evolve(plan, half, prep_p)
        vm = evolve(plan, half, prep_m)
        lhs_re = weight * expectation(vp, t_obs) - (1 - weight) * expectation(vm, t_obs)
        lhs_im = 1j * (weight * expectation(vp, iht) - (1 - weight) * expectation(vm, iht))
        u = dense_evolution(hd, float(tdiff))
        rhs_re = (phi.amps.conj() @ u @ phi.amps).real
        rhs_im = 1j * (phi.amps.conj() @ u @ hd @ phi.amps).imag
        worst_re = max(worst_re, abs(lhs_re - rhs_re))
        worst_im = max(worst_im, abs(lhs_im - rhs_im))
    ok = worst_re <= 1e-10 and worst_im <= 1e-10
    _verdict(7, "implicit-test identities for Re and Im overlaps", ok,
             f"re {worst_re:.2e}, im {worst_im:.2e}")
    assert worst_re <= 1e-10
    assert worst_im <= 1e-10


def test_criterion_08_blockwise_projector_identity():
    _, h, t = _tfim8()
    plan = EvolutionPlan.exact(h)
    hd = kron_matrix(h)
    rng = np.random.default_rng(808)
    phi = random_state(8, rng)
    blocks = ProjectorSpec.blocks_of(t, (0, 0)).t_blocks
    specs = enumerate_local_projectors(blocks)
    dense = [dense_projector(s) for s in specs]
    grid = TimeGrid(0.3, 6)

    def rhs_row():
        out = np.zeros(grid.m)
        for j, tj in enumerate(grid.dt * np.arange(grid.m)):
            u = dense_evolution(hd, float(tj))
            out[j] = sum(phi.amps.conj() @ dp @ u @ dp @ phi.amps for dp in dense).real
        return out

    reference_row = rhs_row()
    full = extended_local_pencil(phi, specs, h, t, grid, plan, 4).row_b.real
    full_dev = float(np.max(np.abs(full - reference_row)))
    truncated_devs = []
    for subset in (1, 2, 3):
        row = extended_local_pencil(phi, specs, h, t, grid, plan, subset).row_b.real
        truncated_devs.append(float(np.max(np.abs(row - reference_row))))
    ok = full_dev <= 1e-10 and all(d > full_dev for d in truncated_devs)
    _verdict(8, "blockwise projector sum rule and truncation", ok,
             f"full {full_dev:.2e}, truncated {[f'{d:.2e}' for d in truncated_devs]}")
    assert full_dev <= 1e-10
    for dev in truncated_devs:
        assert dev > full_dev


def test_criterion_09_row_reconstructions():
    spec = ModelSpec("tfim", 6, {"gamma": 0.5})
    h = build(spec)
    t = known_time_reversal(spec)
    plan = EvolutionPlan.exact(h)
    grid = TimeGrid(default_dt(h), 10)
    prep = project(plus_state(6), ProjectorSpec((t,), (0,)))
    direct = build_ktr(h, t, prep, grid, plan)
    a_fine, b_fine = sample_expectation_curves(h, t, prep, grid, plan, 20)
    row_b_rec = reconstruct_b_from_a(a_fine, grid, 20)
    row_a_rec = reconstruct_a_from_b(b_fine, grid, 20)
    err_b = float(np.max(np.abs(row_b_rec - direct.row_b)))
    err_a = float(np.max(np.abs(row_a_rec - direct.row_a)))
    direct_ground = solve(direct, 1e-8).ground
    deriv_pen = ToeplitzPencil(row_a_rec, direct.row_b, grid)
    integ_pen = ToeplitzPencil(direct.row_a, row_b_rec, grid)
    rel_deriv = abs(solve(deriv_pen, 1e-8).ground - direct_ground) / abs(direct_ground)
    rel_integ = abs(solve(integ_pen, 1e-8).ground - direct_ground) / abs(direct_ground)
    ok = err_b <= 1e-6 and err_a <= 1e-4 and rel_deriv <= 1e-4 and rel_integ <= 1e-4
    _verdict(9, "quadrature and derivative row reconstructions", ok,
             f"B {err_b:.2e}, A {err_a:.2e}, mixed grounds {rel_deriv:.2e}/{rel_integ:.2e}")
    assert err_b <= 1e-6
    assert err_a <= 1e-4
    assert rel_deriv <= 1e-4
    assert rel_integ <= 1e-4


def test_criterion_10_structural_invariants():
    # mirrored spectrum for every chain with a reversal operator at n=8
    mirrored = True
    for spec in (ModelSpec("tfim", 8, {"gamma": 0.5}),
                 ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0}),
                 ModelSpec("cluster", 8, {"g_x": 1.0, "g_zz": 0.8, "g_zxz": 1.1})):
        evals = exact_reference(build(spec))
        mirrored = mirrored and float(np.max(np.abs(evals + evals[::-1]))) <= 1e-10

    # completeness and orthogonality of the blockwise projectors (dense, n=4)
    blocks = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0)).t_blocks
    dense = [dense_projector(s) for s in enumerate_local_projectors(blocks)]
    complete = float(np.max(np.abs(sum(dense) - np.eye(16)))) <= 1e-12
    orthogonal = all(
        float(np.max(np.abs(dense[i] @ dense[j] - (dense[i] if i == j else 0)))) <= 1e-12
        for i in range(4) for j in range(4))

    # block-state overlap with the uniform superposition
    overlaps = all(
        abs(abs(inner(plus_state(4 * s), build_block_product(4, s))) - 2.0 ** (-s / 2)) <= 1e-12
        for s in (1, 2, 3))

    # the 4-qubit preparation circuit gives exactly -w0
    layer1 = kron_chain([HADAMARD, HADAMARD, IDENTITY2, HADAMARD])
    circuit = kron_chain([HADAMARD, IDENTITY2, HADAMARD, IDENTITY2]) @ controlled_not(4, 0, 2) @ layer1
    out = circuit @ basis_state(4, "1000").amps
    circuit_ok = float(np.max(np.abs(out + build_block_state_w0(4).amps))) <= 1e-15

    ok = mirrored and complete and orthogonal and overlaps and circuit_ok
    _verdict(10, "mirrored spectra, projector algebra, block state", ok,
             f"mirror {mirrored}, complete {complete}, circuit {circuit_ok}")
    assert mirrored and complete and orthogonal and overlaps and circuit_ok


def test_criterion_11_trotter_order():
    spec = ModelSpec("tfim", 6, {"gamma": 0.5})
    h = build(spec)
    psi = random_state(6, np.random.default_rng(1111))
    target = evolve(EvolutionPlan.exact(h), 1.0, psi).amps
    spus = [4, 8, 16, 32, 64]
    errs = [float(np.linalg.norm(evolve(EvolutionPlan.trotter2(h, spu), 1.0, psi).amps - target))
            for spu in spus]
    slope = float(np.polyfit(np.log([1.0 / s for s in spus]), np.log(errs), 1)[0])
    ok = 1.9 <= slope <= 2.1
    _verdict(11, "second-order splitting error scaling", ok, f"slope = {slope:.3f}")
    assert 1.9 <= slope <= 2.1

"""Stabilized initial states: global and blockwise projections."""

import math

import numpy as np
import pytest

from ktr.errors import DegenerateProjectionError
from ktr.initial import (PreparedState, ProjectorSpec, build_block_product,
                         build_block_state_w0, build_lgt_initial,
                         enumerate_local_projectors, project, project_array)
from ktr.models import ModelSpec, build, gauss_generators
from ktr.paulis import PauliString, PauliSum, dense_matrix
from ktr.states import (StateVector, apply_pauli, basis_state, expectation, inner,
                        plus_state, product_state, random_state)

from oracles import HADAMARD, IDENTITY2, controlled_not, dense_projector, kron_chain

MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)
PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def test_project_fixed_point():
    t = PauliString.from_label("YXYX")
    phi = project(random_state(4, np.random.default_rng(1)),
                  ProjectorSpec.single_block(t)).state
    again = project(phi, ProjectorSpec.single_block(t))
    assert np.allclose(again.state.amps, phi.amps)
    assert np.isclose(again.xi, 1.0)
    assert again.c == 1


def test_project_plus_with_all_y():
    # (I + Y^4)/2 on |+>^4 gives (|+>^4 + |->^4)/sqrt(2) since (-i)^4 = 1
    t = PauliString.from_label("YYYY")
    prep = project(plus_state(4), ProjectorSpec.single_block(t, 0))
    want = (plus_state(4).amps + product_state([MINUS] * 4).amps) / math.sqrt(2.0)
    assert np.max(np.abs(prep.state.amps - want)) <= 1e-12
    assert np.isclose(prep.xi, math.sqrt(2.0))
    assert prep.c == 1

    perp = project(plus_state(4), ProjectorSpec.single_block(t, 1))
    want_perp = (plus_state(4).amps - product_state([MINUS] * 4).amps) / math.sqrt(2.0)
    assert np.max(np.abs(perp.state.amps - want_perp)) <= 1e-12
    assert perp.c == -1
    assert abs(inner(prep.state, perp.state)) <= 1e-12


def test_projection_probability_reproduced():
    t = PauliString.from_label("YXYX")
    rng = np.random.default_rng(3)
    for flip in (0, 1):
        spec = ProjectorSpec.single_block(t, flip)
        phi = random_state(4, rng)
        prep = project(phi, spec)
        pd = dense_projector(spec)
        direct = (phi.amps.conj() @ pd @ phi.amps).real
        assert np.isclose(1.0 / prep.xi ** 2, direct, atol=1e-12)


def test_degenerate_projection_raises():
    t = PauliString.from_label("YYYY")
    sym = project(plus_state(4), ProjectorSpec.single_block(t, 0)).state
    with pytest.raises(DegenerateProjectionError):
        project(sym, ProjectorSpec.single_block(t, 1))


def test_enumerate_single_block_gives_complementary_pair():
    t = PauliString.from_label("YXYX")
    specs = enumerate_local_projectors([t], 1)
    assert [s.alpha for s in specs] == [(0,), (1,)]
    assert [s.parity for s in specs] == [1, -1]


def test_enumerate_two_blocks_parities():
    blocks = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0)).t_blocks
    specs = enumerate_local_projectors(blocks, 2)
    assert [s.alpha for s in specs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [s.parity for s in specs] == [1, -1, -1, 1]


def test_local_projectors_complete_and_orthogonal():
    blocks = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0)).t_blocks
    specs = enumerate_local_projectors(blocks, 2)
    dense = [dense_projector(s) for s in specs]
    total = sum(dense)
    assert np.max(np.abs(total - np.eye(16))) <= 1e-14
    for i, pi in enumerate(dense):
        for j, pj in enumerate(dense):
            want = pi if i == j else np.zeros((16, 16))
            assert np.max(np.abs(pi @ pj - want)) <= 1e-14


def test_stabilizer_property_blockwise():
    t = PauliString.from_label("YXYXYX")
    blocks = ProjectorSpec.blocks_of(t, (0, 0, 0)).t_blocks
    rng = np.random.default_rng(8)
    for spec in enumerate_local_projectors(blocks, 3):
        phi = random_state(6, rng)
        try:
            prep = project(phi, spec)
        except DegenerateProjectionError:
            continue
        reflected = apply_pauli(prep.state, t)
        assert np.max(np.abs(reflected.amps - spec.parity * prep.state.amps)) <= 1e-12


def test_probabilities_sum_to_one():
    blocks = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0)).t_blocks
    rng = np.random.default_rng(9)
    phi = random_state(4, rng)
    total = sum(np.linalg.norm(project_array(phi.amps, spec)) ** 2
                for spec in enumerate_local_projectors(blocks, 2))
    assert np.isclose(total, 1.0, atol=1e-12)


def test_global_projector_absorbs_even_blocks():
    # for p(alpha) = +1 the global (I + T)/2 leaves the projected state alone
    t = PauliString.from_label("YXYX")
    blocks = ProjectorSpec.blocks_of(t, (0, 0)).t_blocks
    rng = np.random.default_rng(10)
    phi = random_state(4, rng)
    for spec in enumerate_local_projectors(blocks, 2):
        if spec.parity != 1:
            continue
        state = project(phi, spec).state
        reabsorbed = project(state, ProjectorSpec.single_block(t, 0))
        assert np.max(np.abs(reabsorbed.state.amps - state.amps)) <= 1e-12
        assert np.isclose(reabsorbed.xi, 1.0, atol=1e-9)


def test_orthogonality_across_sign_patterns():
    blocks = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0)).t_blocks
    rng = np.random.default_rng(11)
    phi = random_state(4, rng)
    states = []
    for spec in enumerate_local_projectors(blocks, 2):
        try:
            states.append(project(phi, spec).state)
        except DegenerateProjectionError:
            pass
    for i in range(len(states)):
        for j in range(i):
            assert abs(inner(states[i], states[j])) <= 1e-12


def test_w0_amplitudes_r4():
    w0 = build_block_state_w0(4)
    want = (-plus_state(4).amps
            + product_state([MINUS, PLUS, MINUS, PLUS]).amps) / math.sqrt(2.0)
    assert np.max(np.abs(w0.amps - want)) <= 1e-15


def test_w0_requires_multiple_of_four():
    for bad in (2, 6, 0):
        with pytest.raises(ValueError):
            build_block_state_w0(bad)


def test_w0_is_stabilized_by_alternating_pattern():
    for r in (4, 8):
        w0 = build_block_state_w0(r)
        t = PauliString.from_label("YX" * (r // 2))
        assert np.max(np.abs(apply_pauli(w0, t).amps - w0.amps)) <= 1e-12


def test_w0_product_overlap():
    for r, s in ((4, 1), (4, 2), (8, 1)):
        v0 = build_block_product(r, s)
        assert np.isclose(abs(inner(plus_state(r * s), v0)), 2.0 ** (-s / 2), atol=1e-12)


def test_block_circuit_prepares_minus_w0():
    # H on qubits 0,1,3; CX(0 -> 2); then H on qubits 0 and 2, from |1000>
    layer1 = kron_chain([HADAMARD, HADAMARD, IDENTITY2, HADAMARD])
    cx = controlled_not(4, 0, 2)
    layer2 = kron_chain([HADAMARD, IDENTITY2, HADAMARD, IDENTITY2])
    circuit = layer2 @ cx @ layer1
    out = circuit @ basis_state(4, "1000").amps
    assert np.max(np.abs(out - (-build_block_state_w0(4).amps))) <= 1e-15


def test_lgt_initial_is_stabilized():
    prep = build_lgt_initial(8, 1)
    t = PauliString.from_label("Y" * 8)
    assert np.max(np.abs(apply_pauli(prep.state, t).amps - prep.state.amps)) <= 1e-12
    assert prep.c == 1
    assert np.isclose(prep.xi, math.sqrt(2.0))


def test_lgt_sectors_of_the_two_components():
    # G phi = phi while G (T phi) = -(T phi); the projected state mixes both
    spec = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    gens = gauss_generators(spec)
    g_avg = sum(dense_matrix(g) for g in gens) / len(gens)
    phi = plus_state(8)
    t_phi = apply_pauli(phi, PauliString.from_label("Y" * 8))
    assert np.max(np.abs(g_avg @ phi.amps - phi.amps)) <= 1e-12
    assert np.max(np.abs(g_avg @ t_phi.amps + t_phi.amps)) <= 1e-12
    v0 = build_lgt_initial(8, 1).state
    assert np.max(np.abs(g_avg @ v0.amps - v0.amps)) > 1e-3  # genuinely mixed


def test_lgt_start_energy_negative():
    spec = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    h = build(spec)
    assert expectation(plus_state(8), h) < 0.0


def test_lgt_blockwise_variant():
    prep = build_lgt_initial(8, 2)
    t = PauliString.from_label("Y" * 8)
    assert np.max(np.abs(apply_pauli(prep.state, t).amps - prep.state.amps)) <= 1e-12
    assert np.isclose(prep.xi, 2.0)

"""Stabilized initial states: global and blockwise projections."""

import math

import numpy as np
import pytest

from ktr.errors import DegenerateProjectionError
from ktr.initial import (ProjectorSpec, build_block_product,
                         build_block_state_w0, enumerate_local_projectors, project,
                         project_array)
from ktr.models import ModelSpec, build, gauss_generators
from ktr.paulis import PauliString, multiply
from ktr.states import StateVector, apply_pauli, expectation, inner, plus_state

from helpers import basis_state, gauge_start, product_state, random_state
from oracles import (HADAMARD, IDENTITY2, controlled_not, dense_projector, kron_chain,
                     kron_matrix)

MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)
PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def _probability(phi: StateVector, spec: ProjectorSpec) -> float:
    """Projection probability <phi|P|phi> = ||P phi||**2."""
    return np.linalg.norm(project_array(phi.amps, spec)) ** 2


def test_project_fixed_point():
    t = PauliString.from_label("YXYX")
    phi = project(random_state(4, np.random.default_rng(1)),
                  ProjectorSpec((t,), (0,)))
    again = project(phi, ProjectorSpec((t,), (0,)))
    assert np.allclose(again.amps, phi.amps)
    assert np.isclose(_probability(phi, ProjectorSpec((t,), (0,))), 1.0)
    assert np.max(np.abs(apply_pauli(again, t).amps - again.amps)) <= 1e-12


def test_project_plus_with_all_y():
    # (I + Y^4)/2 on |+>^4 gives (|+>^4 + |->^4)/sqrt(2) since (-i)^4 = 1
    t = PauliString.from_label("YYYY")
    prep = project(plus_state(4), ProjectorSpec((t,), (0,)))
    want = (plus_state(4).amps + product_state([MINUS] * 4).amps) / math.sqrt(2.0)
    assert np.max(np.abs(prep.amps - want)) <= 1e-12
    assert np.isclose(_probability(plus_state(4), ProjectorSpec((t,), (0,))), 0.5)
    assert np.max(np.abs(apply_pauli(prep, t).amps - prep.amps)) <= 1e-12

    perp = project(plus_state(4), ProjectorSpec((t,), (1,)))
    want_perp = (plus_state(4).amps - product_state([MINUS] * 4).amps) / math.sqrt(2.0)
    assert np.max(np.abs(perp.amps - want_perp)) <= 1e-12
    assert np.max(np.abs(apply_pauli(perp, t).amps + perp.amps)) <= 1e-12
    assert abs(inner(prep, perp)) <= 1e-12


def test_projection_probability_reproduced():
    t = PauliString.from_label("YXYX")
    rng = np.random.default_rng(3)
    for flip in (0, 1):
        spec = ProjectorSpec((t,), (flip,))
        phi = random_state(4, rng)
        prep = project(phi, spec)
        pd = dense_projector(spec)
        direct = (phi.amps.conj() @ pd @ phi.amps).real
        assert np.isclose(_probability(phi, spec), direct, atol=1e-12)


def test_degenerate_projection_raises():
    t = PauliString.from_label("YYYY")
    sym = project(plus_state(4), ProjectorSpec((t,), (0,)))
    with pytest.raises(DegenerateProjectionError):
        project(sym, ProjectorSpec((t,), (1,)))


def test_enumerate_single_block_gives_complementary_pair():
    t = PauliString.from_label("YXYX")
    specs = enumerate_local_projectors([t])
    assert [s.alpha for s in specs] == [(0,), (1,)]
    assert [s.parity for s in specs] == [1, -1]


def test_enumerate_two_blocks_parities():
    blocks = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0)).t_blocks
    specs = enumerate_local_projectors(blocks)
    assert [s.alpha for s in specs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [s.parity for s in specs] == [1, -1, -1, 1]


def test_blocks_of_factors_are_n_qubit_windows():
    spec = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0))
    assert [block.label() for block in spec.t_blocks] == ["YXII", "IIYX"]
    assert spec.n == 4
    for label in ("YXYX", "YYYY"):
        t = PauliString.from_label(label)
        left, right = ProjectorSpec.blocks_of(t, (0, 0)).t_blocks
        assert multiply(left, right) == t  # phase included
    specs = enumerate_local_projectors(spec.t_blocks)
    assert [s.alpha for s in specs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


_YX = PauliString.from_label("YX")
_YI = PauliString.from_label("YI")
_XY = PauliString.from_label("XY")


@pytest.mark.parametrize("build, fragment", [
    (lambda: ProjectorSpec((), ()), "at least one block"),
    (lambda: ProjectorSpec((_YI,), (0, 1)), "one sign bit per block"),
    (lambda: ProjectorSpec((_YX,), (2,)), "bit pattern"),
    (lambda: ProjectorSpec((_YX,), (0.5,)), "bit pattern"),
    (lambda: ProjectorSpec((PauliString(2, _YX.x, _YX.z, 0),), (0,)), "not Hermitian"),
    (lambda: ProjectorSpec((_YX, PauliString.from_label("Y")), (0, 0)), "share the qubit count"),
    (lambda: ProjectorSpec((_YI, _XY), (0, 0)), "disjoint"),
    (lambda: ProjectorSpec.blocks_of(PauliString.from_label("YXY"), (0, 0)), "equal blocks"),
    (lambda: ProjectorSpec.blocks_of(PauliString(2, _YX.x, _YX.z, 3), (0, 0)),
     "canonical-phase"),
])
def test_projector_spec_rejects_bad_layouts(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


def test_local_projectors_complete_and_orthogonal():
    blocks = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0)).t_blocks
    specs = enumerate_local_projectors(blocks)
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
    for spec in enumerate_local_projectors(blocks):
        phi = random_state(6, rng)
        try:
            prep = project(phi, spec)
        except DegenerateProjectionError:
            continue
        reflected = apply_pauli(prep, t)
        assert np.max(np.abs(reflected.amps - spec.parity * prep.amps)) <= 1e-12


def test_probabilities_sum_to_one():
    blocks = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0)).t_blocks
    rng = np.random.default_rng(9)
    phi = random_state(4, rng)
    total = sum(np.linalg.norm(project_array(phi.amps, spec)) ** 2
                for spec in enumerate_local_projectors(blocks))
    assert np.isclose(total, 1.0, atol=1e-12)


def test_global_projector_absorbs_even_blocks():
    # for p(alpha) = +1 the global (I + T)/2 leaves the projected state alone
    t = PauliString.from_label("YXYX")
    blocks = ProjectorSpec.blocks_of(t, (0, 0)).t_blocks
    rng = np.random.default_rng(10)
    phi = random_state(4, rng)
    for spec in enumerate_local_projectors(blocks):
        if spec.parity != 1:
            continue
        state = project(phi, spec)
        reabsorbed = project(state, ProjectorSpec((t,), (0,)))
        assert np.max(np.abs(reabsorbed.amps - state.amps)) <= 1e-12
        assert np.isclose(_probability(state, ProjectorSpec((t,), (0,))), 1.0,
                          atol=1e-9)


def test_orthogonality_across_sign_patterns():
    blocks = ProjectorSpec.blocks_of(PauliString.from_label("YXYX"), (0, 0)).t_blocks
    rng = np.random.default_rng(11)
    phi = random_state(4, rng)
    states = []
    for spec in enumerate_local_projectors(blocks):
        try:
            states.append(project(phi, spec))
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
    prep = gauge_start(8, 1)
    t = PauliString.from_label("Y" * 8)
    assert np.max(np.abs(apply_pauli(prep, t).amps - prep.amps)) <= 1e-12
    assert np.isclose(_probability(plus_state(8), ProjectorSpec((t,), (0,))), 0.5)


def test_lgt_sectors_of_the_two_components():
    # G phi = phi while G (T phi) = -(T phi); the projected state mixes both
    spec = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    gens = gauss_generators(spec)
    g_avg = sum(kron_matrix(g) for g in gens) / len(gens)
    phi = plus_state(8)
    t_phi = apply_pauli(phi, PauliString.from_label("Y" * 8))
    assert np.max(np.abs(g_avg @ phi.amps - phi.amps)) <= 1e-12
    assert np.max(np.abs(g_avg @ t_phi.amps + t_phi.amps)) <= 1e-12
    v0 = gauge_start(8, 1)
    assert np.max(np.abs(g_avg @ v0.amps - v0.amps)) > 1e-3  # genuinely mixed


def test_lgt_start_energy_negative():
    spec = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    h = build(spec)
    assert expectation(plus_state(8), h) < 0.0


def test_lgt_blockwise_variant():
    prep = gauge_start(8, 2)
    t = PauliString.from_label("Y" * 8)
    assert np.max(np.abs(apply_pauli(prep, t).amps - prep.amps)) <= 1e-12
    assert np.isclose(_probability(plus_state(8), ProjectorSpec.blocks_of(t, (0, 0))), 0.25)

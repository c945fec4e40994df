"""Benchmark Hamiltonians, their involutions and the Gauss law."""

import numpy as np
import pytest

from ktr.models import ModelSpec, build, gauss_generators, known_time_reversal
from ktr.paulis import PauliString
from ktr.states import apply_pauli, plus_state
from ktr.symmetry import Infeasible, solve_time_reversal, verify_time_reversal
from ktr.gevp import exact_reference

from oracles import kron_matrix


def test_tfim_term_counts():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.5}))
    assert len(h) == 3 + 4
    # zero couplings are dropped
    h0 = build(ModelSpec("tfim", 4, {"gamma": 0.0}))
    assert len(h0) == 3


def test_z2higgs_layout():
    h = build(ModelSpec("z2higgs", 8, {"mu": 0.7, "g": 0.3}))
    labels = [s.label() for _, s in h.terms]
    zzz = [lab for lab in labels if lab.count("Z") == 3]
    assert len(zzz) == 3  # links 1, 3, 5; the last link is dangling
    assert zzz == ["ZZZIIIII", "IIZZZIII", "IIIIZZZI"]
    vertex_x = [lab for lab in labels if lab.count("X") == 1 and lab.index("X") % 2 == 0]
    link_x = [lab for lab in labels if lab.count("X") == 1 and lab.index("X") % 2 == 1]
    assert len(vertex_x) == 4 and len(link_x) == 4


def test_cluster_term_counts():
    h = build(ModelSpec("cluster", 4, {"g_x": 1.0, "g_zz": 1.0, "g_zxz": 1.0}))
    assert len(h) == 4 + 3 + 2


def test_heisenberg_term_counts_and_signs():
    h = build(ModelSpec("heisenberg", 4, {"j_x": 2.0, "j_y": 0.0, "j_z": 1.0}))
    # zero coupling dropped per bond
    assert len(h) == 3 + 3
    assert all(c in (-1.0, -0.5) for c, _ in h.terms)


def test_known_reversal_operators_verify():
    rng = np.random.default_rng(2)
    for _ in range(5):
        gamma, mu, g = rng.uniform(-2, 2, size=3)
        cases = [
            ModelSpec("tfim", 8, {"gamma": gamma}),
            ModelSpec("z2higgs", 8, {"mu": mu, "g": g}),
            ModelSpec("cluster", 6, {"g_x": gamma, "g_zz": mu, "g_zxz": g + 2.5}),
        ]
        for spec in cases:
            t = known_time_reversal(spec)
            h = build(spec)
            assert verify_time_reversal(t, h)


def test_known_reversal_patterns():
    assert known_time_reversal(ModelSpec("tfim", 8, {"gamma": 1.0})).label() == "YXYXYXYX"
    assert known_time_reversal(ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})).label() == "Y" * 8
    assert known_time_reversal(ModelSpec("cluster", 4, {"g_x": 1, "g_zz": 1, "g_zxz": 1})).label() == "YZYZ"
    assert known_time_reversal(ModelSpec("heisenberg", 4, {"j_x": 1, "j_y": 1, "j_z": 1})) is None


def test_heisenberg_solver_agrees_infeasible():
    h = build(ModelSpec("heisenberg", 4, {"j_x": 1.0, "j_y": 1.0, "j_z": 1.0}))
    assert isinstance(solve_time_reversal(h), Infeasible)


def test_gauss_generators_commute_exactly():
    spec = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    hd = kron_matrix(build(spec))
    for g in gauss_generators(spec):
        gd = kron_matrix(g)
        assert np.array_equal(gd @ hd, hd @ gd)  # exact zero commutator
        assert np.array_equal(gd @ gd, np.eye(256))


def test_gauss_average_flips_the_reflected_state():
    spec = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    gens = gauss_generators(spec)
    g_avg = sum(kron_matrix(g) for g in gens) / len(gens)
    phi = plus_state(8)
    t_phi = apply_pauli(phi, PauliString.from_label("Y" * 8))
    assert np.max(np.abs(g_avg @ phi.amps - phi.amps)) <= 1e-12
    assert np.max(np.abs(g_avg @ t_phi.amps + t_phi.amps)) <= 1e-12


def test_gauss_generators_anticommute_with_reversal():
    spec = ModelSpec("z2higgs", 8, {"mu": 0.4, "g": 1.3})
    t = known_time_reversal(spec)
    for g in gauss_generators(spec):
        td, gd = kron_matrix(t), kron_matrix(g)
        assert np.max(np.abs(td @ gd + gd @ td)) == 0.0


def test_cluster_solutions_are_the_reversal_dual_of_tfim():
    # swapping the (t_z | t_x) halves maps one solution set onto the other
    for n in (4, 8):
        tfim = solve_time_reversal(build(ModelSpec("tfim", n, {"gamma": 0.8})))
        cluster = solve_time_reversal(
            build(ModelSpec("cluster", n, {"g_x": 1.0, "g_zz": 1.0, "g_zxz": 1.0})))
        assert not isinstance(tfim, Infeasible)
        assert not isinstance(cluster, Infeasible)
        tfim_swapped = {(t.z, t.x) for t in tfim.solutions()}
        cluster_set = {(t.x, t.z) for t in cluster.solutions()}
        assert tfim_swapped == cluster_set


def test_mirrored_spectrum_where_a_reversal_exists():
    specs = [
        ModelSpec("tfim", 6, {"gamma": 0.5}),
        ModelSpec("z2higgs", 6, {"mu": 1.0, "g": 1.0}),
        ModelSpec("cluster", 6, {"g_x": 1.0, "g_zz": 0.7, "g_zxz": 1.2}),
    ]
    for spec in specs:
        evals = exact_reference(build(spec))
        assert np.max(np.abs(evals + evals[::-1])) <= 1e-10
    # negative control: the generic Heisenberg spectrum is not mirrored
    evals = exact_reference(build(ModelSpec("heisenberg", 6, {"j_x": 1.0, "j_y": 0.9, "j_z": 1.1})))
    assert np.max(np.abs(evals + evals[::-1])) > 1e-3


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("tfim", 5, {"gamma": 1.0})
    with pytest.raises(ValueError):
        ModelSpec("z2higgs", 2, {"mu": 1.0, "g": 1.0})
    with pytest.raises(ValueError):
        ModelSpec("tfim", 4, {"gamma": 1.0, "mu": 2.0})
    with pytest.raises(ValueError):
        ModelSpec("nonsense", 4, {})
    with pytest.raises(ValueError):
        build(ModelSpec("heisenberg", 4, {"j_x": 0.0, "j_y": 0.0, "j_z": 0.0}))
    with pytest.raises(ValueError):
        gauss_generators(ModelSpec("tfim", 4, {"gamma": 1.0}))

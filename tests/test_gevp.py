"""Regularized generalized eigensolver and exact references."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from ktr.errors import DegeneratePencilError
from ktr.gevp import (DEFAULT_EPSILON, SectorBasis, SpectrumResult, exact_reference,
                      sector_ground_energy, solve, solve_dense)
from ktr.initial import ProjectorSpec, project
from ktr.krylov import TimeGrid, ToeplitzPencil, build_ktr, default_dt
from ktr.models import ModelSpec, build, gauss_generators, known_time_reversal
from ktr.paulis import PauliString, PauliSum, symplectic_product
from ktr.states import EvolutionPlan, plus_state
from ktr.symmetry import rref

from helpers import gauge_start
from oracles import kron_matrix, random_hermitian_string, sector_ground_penalty


def _random_psd_toeplitz_pencil(m, rng):
    # autocovariance of a random sequence gives a PSD Hermitian-Toeplitz B
    w = rng.normal(size=4 * m) + 1j * rng.normal(size=4 * m)
    row_b = np.array([np.vdot(w[: len(w) - k], w[k:]) for k in range(m)])
    row_b = row_b / row_b[0].real
    row_b[0] += 0.05  # keep it comfortably positive definite
    row_a = rng.normal(size=m) + 1j * rng.normal(size=m)
    row_a[0] = rng.normal()
    grid = TimeGrid(0.1, m)
    return ToeplitzPencil(row_a, row_b, grid)


def test_one_by_one_pencil():
    res = solve_dense(np.array([[2.5]]), np.array([[0.5]]), 1e-12)
    assert np.isclose(res.eigenvalues[0], 5.0)
    assert res.kept_dim == 1


def test_identity_gram_reduces_to_plain_eigenproblem():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = 0.5 * (a + a.conj().T)
    res = solve_dense(a, np.eye(5), 1e-12)
    assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(a), atol=1e-12)
    assert res.kept_dim == 5


def test_whitening_matches_direct_generalized_solver():
    rng = np.random.default_rng(7)
    for m in (4, 8, 12):
        pen = _random_psd_toeplitz_pencil(m, rng)
        res = solve(pen, 1e-14)
        direct = sla.eigh(pen.matrix_a(), pen.matrix_b(), eigvals_only=True)
        assert res.kept_dim == m
        assert np.max(np.abs(res.eigenvalues - direct)) <= 1e-10


def test_threshold_monotonicity():
    rng = np.random.default_rng(11)
    pen = _random_psd_toeplitz_pencil(10, rng)
    grounds = []
    for eps in (1e-14, 1e-10, 1e-6, 1e-3, 1e-1):
        grounds.append(solve(pen, eps).ground)
    assert all(grounds[k + 1] >= grounds[k] - 1e-12 for k in range(len(grounds) - 1))


def test_non_hermitian_input_rejected():
    good = np.eye(3, dtype=complex)
    bad = good.copy()
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        solve_dense(bad, good)
    with pytest.raises(ValueError):
        solve_dense(good, bad)


def test_degenerate_pencil():
    with pytest.raises(DegeneratePencilError):
        solve_dense(np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex))


def test_negative_gram_noise_is_dropped():
    b = np.diag([1.0, 1e-14, -1e-13]).astype(complex)
    a = np.diag([2.0, 1.0, 1.0]).astype(complex)
    res = solve_dense(a, b, 1e-8)
    assert res.kept_dim == 1
    assert np.isclose(res.eigenvalues[0], 2.0)


def test_exact_reference_trivial():
    h = PauliSum(1, ((1.0, PauliString.from_label("Z")),))
    assert np.allclose(exact_reference(h), [-1.0, 1.0])


def test_ktr_pipeline_reaches_reference():
    spec = ModelSpec("tfim", 8, {"gamma": 0.5})
    h = build(spec)
    t = known_time_reversal(spec)
    prep = project(plus_state(8), ProjectorSpec((t,), (0,)))
    plan = EvolutionPlan.exact(h)
    pen = build_ktr(h, t, prep, TimeGrid(default_dt(h), 32), plan)
    res = solve(pen, 1e-10)
    reference = exact_reference(h)[0]
    assert abs(res.ground - reference) / abs(reference) <= 1e-3
    # variational: the estimate never dips below the dense ground energy
    assert res.ground >= reference - 1e-9


def test_ground_estimate_monotone_in_m_when_full_rank():
    spec = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    h = build(spec)
    t = known_time_reversal(spec)
    prep = gauge_start(8, 1)
    plan = EvolutionPlan.exact(h)
    pen = build_ktr(h, t, prep, TimeGrid(default_dt(h), 16), plan)
    last = np.inf
    for m in range(2, 17, 2):
        res = solve(pen.prefix(m), 1e-10)
        if res.kept_dim == m:  # nested subspaces: strict variational ordering
            assert res.ground <= last + 1e-9
        last = res.ground


def test_sector_energy_no_generators_is_global():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.7}))
    assert np.isclose(sector_ground_energy(h, []), exact_reference(h)[0])


def test_sector_energy_bounds_and_pipeline():
    spec = ModelSpec("z2higgs", 8, {"mu": 1.0, "g": 1.0})
    h = build(spec)
    gens = gauss_generators(spec)
    sector = sector_ground_energy(h, gens)
    global_ground = exact_reference(h)[0]
    assert sector >= global_ground - 1e-12


def test_sector_energy_rejects_noncommuting_generators():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.7}))
    bad = PauliSum(4, ((1.0, PauliString.from_label("ZIII")),))
    with pytest.raises(ValueError):
        sector_ground_energy(h, [bad])


def _single(label: str, coeff: float = 1.0) -> PauliSum:
    return PauliSum(len(label), ((coeff, PauliString.from_label(label)),))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sector_energy_matches_penalty_oracle_gauge(n):
    spec = ModelSpec("z2higgs", n, {"mu": 0.8, "g": 1.1})
    h = build(spec)
    gens = gauss_generators(spec)
    want = sector_ground_penalty(h, gens)
    assert abs(sector_ground_energy(h, gens) - want) <= 1e-12 * abs(want)


def test_sector_energy_matches_penalty_oracle_global_parity():
    h = build(ModelSpec("tfim", 6, {"gamma": 0.7}))
    gens = [_single("Z" * 6)]
    want = sector_ground_penalty(h, gens)
    assert abs(sector_ground_energy(h, gens) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("h, g", [
    # YY commutes with XX + ZZ but is neither X-type nor Z-type
    pytest.param(
        PauliSum(2, ((1.0, PauliString.from_label("XX")), (1.0, PauliString.from_label("ZZ")))),
        _single("YY"), id="y-string"),
    # (X0 + Z0) / sqrt 2 is an involution commuting with X0 + Z0 + Z1, but has two terms
    pytest.param(
        PauliSum(2, tuple((1.0, PauliString.from_label(label)) for label in ("XI", "ZI", "IZ"))),
        PauliSum(2, tuple((2 ** -0.5, PauliString.from_label(label)) for label in ("XI", "ZI"))),
        id="two-term"),
])
def test_sector_energy_rejects_a_commuting_generator_that_is_no_xz_string(h, g):
    with pytest.raises(ValueError, match="projector"):
        sector_ground_energy(h, [g])


@st.composite
def _xz_sector_case(draw):
    """Pairwise-commuting X-type and Z-type generators with random signs,
    dependent ones included, and a Hamiltonian of random strings that
    commute with every generator."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs, zs = [], []
    for _ in range(draw(st.integers(0, 5))):
        same, other = (xs, zs) if rng.random() < 0.5 else (zs, xs)
        if len(same) >= 2 and rng.random() < 0.4:
            # a product of two earlier generators: its sign may empty the sector
            i, j = rng.choice(len(same), 2, replace=False)
            same.append(same[i] ^ same[j])
        else:
            mask = int(rng.integers(2 ** n))
            if all((mask & m).bit_count() % 2 == 0 for m in other):
                same.append(mask)
    strings = ([PauliString.from_xz(n, x, 0) for x in xs]
               + [PauliString.from_xz(n, 0, z) for z in zs])
    gens = [PauliSum(n, ((float(rng.choice([-1.0, 1.0])), strings[k]),))
            for k in rng.permutation(len(strings))]
    terms = []
    size = draw(st.integers(1, 8))
    while len(terms) < size:
        p = PauliString.from_xz(n, int(rng.integers(2 ** n)), int(rng.integers(2 ** n)))
        if not any(symplectic_product(p, s) for s in strings):
            terms.append((float(rng.normal()), p))
    return PauliSum(n, tuple(terms)), gens


@settings(max_examples=80, deadline=None)
@given(_xz_sector_case())
def test_sector_energy_matches_penalty_oracle_on_xz_groups(case):
    h, gens = case
    eye = np.eye(2 ** h.n)
    proj = eye
    for g in gens:
        proj = proj @ (eye + kron_matrix(g)) / 2.0
    if np.trace(proj).real < 0.5:  # a signed product of generators is -I
        with pytest.raises(ValueError, match="empty"):
            sector_ground_energy(h, gens)
        return
    want = sector_ground_penalty(h, gens)
    assert abs(sector_ground_energy(h, gens) - want) <= 1e-12 * max(1.0, h.coeff_norm)


@st.composite
def _basis_and_string(draw):
    """The SectorBasis of random pairwise-commuting X-type and Z-type masks
    (dependent ones included) and a random Hermitian string, which need not
    commute with any of them."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs, zs = [], []
    for _ in range(draw(st.integers(0, 5))):
        same, other = (xs, zs) if rng.random() < 0.5 else (zs, xs)
        mask = int(rng.integers(1, 2 ** n))
        if all((mask & m).bit_count() % 2 == 0 for m in other):
            same.append(mask)
    x_rows, x_pivots = rref(xs, n)
    z_rows, z_pivots = rref(zs, n)
    basis = SectorBasis.build(n, x_rows[:len(x_pivots)], z_rows[:len(z_pivots)])
    return basis, random_hermitian_string(n, rng), rng


@settings(max_examples=80, deadline=None)
@given(_basis_and_string())
def test_sector_basis_image_is_the_string_action(case):
    basis, p, rng = case
    sectors, k = basis.reps.shape
    characters = 2 ** len(basis.pivots)
    shape = (characters * sectors, k)
    coords = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = basis.to_sectors(kron_matrix(p) @ basis.to_amplitudes(coords))
    targets, rows, signs = basis.image(p, range(characters))
    got = np.zeros_like(coords)
    for block in range(characters * sectors):
        for j in range(k):
            got[targets[block], rows[block, j]] += signs[block, j] * coords[block, j]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(coords))


def test_sector_energy_rejects_noncommuting_generator_pair():
    # XX and ZI each commute with ZZ but anticommute with each other
    h = _single("ZZ")
    with pytest.raises(ValueError, match="generators 1 and 0 do not commute"):
        sector_ground_energy(h, [_single("XX"), _single("ZI")])


def test_sector_energy_rejects_empty_sector():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.7}))
    with pytest.raises(ValueError, match="empty"):
        sector_ground_energy(h, [_single("ZZZZ"), _single("ZZZZ", -1.0)])


def test_sector_energy_rejects_a_generator_that_is_no_involution():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.7}))
    with pytest.raises(ValueError, match="projector"):
        sector_ground_energy(h, [_single("ZZZZ", 2.0)])


def test_b_eigenvalue_diagnostics():
    rng = np.random.default_rng(13)
    pen = _random_psd_toeplitz_pencil(6, rng)
    res = solve(pen, 1e-12)
    direct = np.linalg.eigvalsh(pen.matrix_b())
    assert np.allclose(res.b_eigenvalues, direct)
    assert isinstance(res, SpectrumResult)
    assert res.threshold == 1e-12

"""Regularized generalized eigensolver and exact references."""

import sys

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ktr.cli import parse_config, run
from ktr.errors import DegeneratePencilError
from ktr.gevp import (SectorBasis, SpectrumResult, exact_reference, sector_ground_energy,
                      solve)
from ktr.initial import ProjectorSpec, project
from ktr.krylov import TimeGrid, ToeplitzPencil, build_ktr, default_dt
from ktr.models import ModelSpec, build, gauss_generators, known_time_reversal
from ktr.paulis import PauliString, PauliSum, symplectic_product
from ktr.states import EvolutionPlan, plus_state
from ktr.symmetry import rref

from helpers import gauge_start
from oracles import (checked_dense_solve, kron_matrix, random_hermitian_string,
                     sector_ground_penalty)


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


def _random_reversal_pencil(m, rng):
    # the real counterpart of _random_psd_toeplitz_pencil: a PSD real
    # symmetric Toeplitz B, and A = i S with S real antisymmetric Toeplitz
    w = rng.normal(size=4 * m)
    row_b = np.array([w[: len(w) - k] @ w[k:] for k in range(m)])
    row_b = row_b / row_b[0]
    row_b[0] += 0.05
    return ToeplitzPencil(1j * rng.normal(size=m), row_b, TimeGrid(0.1, m))


def _general_path(row_a, row_b):
    # what keeps a pencil off the real Gram eigh of solve
    return bool(row_b.imag.any() or row_a.real.any())


def test_one_by_one_pencil():
    # a diagonal pencil: A = 2.5 I, B = 0.5 I
    res = solve(ToeplitzPencil([2.5, 0.0], [0.5, 0.0], TimeGrid(0.1, 2)), 1e-12)
    assert np.allclose(res.eigenvalues, 5.0)
    assert res.kept_dim == 2


def test_identity_gram_reduces_to_plain_eigenproblem():
    rng = np.random.default_rng(3)
    row_a = rng.normal(size=5) + 1j * rng.normal(size=5)
    row_a[0] = row_a[0].real
    e0 = np.eye(5)[0]
    res = solve(ToeplitzPencil(row_a, e0, TimeGrid(0.1, 5)), 1e-12)
    direct = np.linalg.eigvalsh(sla.toeplitz(row_a.conj(), row_a))
    assert np.allclose(res.eigenvalues, direct, atol=1e-12)
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


def test_degenerate_pencil():
    with pytest.raises(DegeneratePencilError):
        solve(ToeplitzPencil([1.0, 0.0, 0.0], np.zeros(3), TimeGrid(0.1, 3)))


def test_negative_gram_noise_is_dropped():
    # B = [[0.5, 0.5 + delta], [0.5 + delta, 0.5]] has the eigenvalues
    # 1 + delta and -delta; the negative one is noise and is dropped
    delta = 1e-13
    res = solve(ToeplitzPencil([2.0, 1.0], [0.5, 0.5 + delta], TimeGrid(0.1, 2)), 1e-8)
    assert res.b_eigenvalues[0] < 0.0
    assert res.kept_dim == 1
    assert np.isclose(res.eigenvalues[0], 3.0)


@st.composite
def _finite_rows(draw):
    m = draw(st.integers(2, 32))
    # signed zeros often: the assembly must treat them as the checked solve does
    entries = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
    # (re, im) pairs viewed as complex keep every sign bit
    row_a, row_b = (np.array(draw(st.lists(entries, min_size=2 * m, max_size=2 * m))).view(complex)
                    for _ in range(2))
    epsilon = draw(st.sampled_from([1e-4, 1e-8, 1e-10, 1e-14]))
    return row_a, row_b, epsilon


def _hermitian_toeplitz(row):
    # the diagonal of a Hermitian matrix is real; its imaginary part is residue
    mat = sla.toeplitz(row.conj(), row)
    np.fill_diagonal(mat, row[0].real)
    return mat


def _solved(solver, *args):
    try:
        return solver(*args)
    except DegeneratePencilError as err:
        return type(err)


def _sparse_rows(m, a_entries, b_entries):
    row_a, row_b = np.zeros(m, complex), np.zeros(m, complex)
    for row, entries in ((row_a, a_entries), (row_b, b_entries)):
        for j, value in entries.items():
            row[j] = value
    return row_a, row_b


# a subnormal positive Gram spectrum: whitening scales A to about 6e307, and
# the symmetrized matrix overflows at prefixes 7 and 8
_SUBNORMAL_GRAM = _sparse_rows(8, {0: -0.676001725621899}, {2: 1.11e-308j})


@settings(max_examples=100, deadline=None)
@given(_finite_rows())
# signed zeros in an ascending spectrum, which a re-sort would rewrite
@example((*_sparse_rows(20, {}, {9: 1j}), 1e-8))
@example((*_SUBNORMAL_GRAM, 1e-8))
def test_prefix_solves_match_the_checked_solve_bit_for_bit(case):
    # complex Gram matrices only: time-reversal pencils take a real eigh of B
    # and are checked against the same oracle to a tolerance below
    row_a, row_b, epsilon = case
    assume(_general_path(row_a, row_b))
    m = row_a.size
    pen = ToeplitzPencil(row_a, row_b, TimeGrid(0.1, m))
    for mat in (pen.matrix_a(), pen.matrix_b()):
        assert not mat.flags.writeable
        assert np.array_equal(mat, mat.conj().T)
    for k in range(2, m + 1):
        sub = pen.prefix(k)
        assert np.shares_memory(sub.matrix_b(), pen.matrix_b())
        if not _general_path(row_a[:k], row_b[:k]):
            continue
        got = _solved(solve, sub, epsilon)
        want = _solved(checked_dense_solve, _hermitian_toeplitz(row_a[:k]),
                       _hermitian_toeplitz(row_b[:k]), epsilon)
        if isinstance(want, SpectrumResult):
            assert got.kept_dim == want.kept_dim
            assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert got.b_eigenvalues.tobytes() == want.b_eigenvalues.tobytes()
        else:
            assert got is want


def test_a_pencil_whose_whitened_matrix_overflows_is_refused():
    pencil = ToeplitzPencil(*_SUBNORMAL_GRAM, TimeGrid(0.1, 8))
    for m in (7, 8):
        with pytest.raises(DegeneratePencilError, match="overflows"):
            solve(pencil.prefix(m))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 32), st.integers(0, 2 ** 32 - 1))
def test_time_reversal_prefixes_match_the_checked_solve(m, seed):
    pen = _random_reversal_pencil(m, np.random.default_rng(seed))
    for k in range(2, m + 1):
        sub = pen.prefix(k)
        got = solve(sub, 1e-14)
        want = checked_dense_solve(sub.matrix_a(), sub.matrix_b(), 1e-14)
        assert got.kept_dim == want.kept_dim
        scale = np.max(np.abs(want.eigenvalues))
        assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= 1e-10 * scale
        assert (np.max(np.abs(got.b_eigenvalues - want.b_eigenvalues))
                <= 1e-12 * want.b_eigenvalues[-1])
        # A = iS: the spectrum is symmetric about 0, to rounding
        assert np.max(np.abs(got.eigenvalues + got.eigenvalues[::-1])) <= 1e-10 * scale


# a real subnormal Gram matrix and an imaginary A row: the whitened A
# overflows at every prefix
_SUBNORMAL_REAL_GRAM = _sparse_rows(8, {1: 10j}, {0: 1.11e-308})


def test_a_time_reversal_pencil_whose_whitened_coupling_overflows_is_refused():
    pencil = ToeplitzPencil(*_SUBNORMAL_REAL_GRAM, TimeGrid(0.1, 8))
    assert not _general_path(pencil.row_a, pencil.row_b)
    for m in (2, 7, 8):
        sub = pencil.prefix(m)
        for solver, args in ((solve, (sub,)),
                             (checked_dense_solve, (sub.matrix_a(), sub.matrix_b(), 1e-8))):
            with pytest.raises(DegeneratePencilError, match="overflows"):
                solver(*args)


def _gevp_eighs(monkeypatch, text):
    """The (order, dtype) of every np.linalg.eigh call made from ktr.gevp
    in a run of the config ``text``."""
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "ktr.gevp":
            calls.append((np.shape(a)[-1], np.asarray(a).dtype))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    run(parse_config(text))
    return calls


@pytest.mark.parametrize("model, methods, init", [
    pytest.param("model.kind = tfim\nmodel.n = 4\nmodel.gamma = 0.5",
                 "kqd,ktr,implicit,local:2,derivative,integral", "project:00", id="tfim"),
    pytest.param("model.kind = z2higgs\nmodel.n = 4\nmodel.mu = 1.0\nmodel.g = 1.0",
                 "kqd,ktr", "project:00", id="z2higgs"),
    pytest.param("model.kind = heisenberg\nmodel.n = 4\nmodel.j_x = 1.0\nmodel.j_y = 0.8\n"
                 "model.j_z = 0.6", "kqd", "plus", id="heisenberg"),
])
def test_time_reversal_pencils_take_a_real_gram_eigh(monkeypatch, model, methods, init):
    m = 32
    calls = _gevp_eighs(
        monkeypatch, f"{model}\nmethod = {methods}\ninit = {init}\ngrid.m = {m}\n")
    prefixes = range(2, m + 1, 2)
    if init == "plus":
        # no involution stabilizes the start: a complex B at every prefix
        assert calls == [(k, np.dtype(complex)) for k in prefixes]
    else:
        # one real eigh of the whole B per prefix k and route
        assert calls == [(k, np.dtype(float)) for k in prefixes] * len(methods.split(","))


def test_exact_reference_trivial():
    h = PauliSum(1, ((1.0, PauliString.from_label("Z")),))
    assert np.allclose(exact_reference(h), [-1.0, 1.0])


def test_ktr_pipeline_reaches_reference():
    spec = ModelSpec("tfim", 8, {"gamma": 0.5})
    h = build(spec)
    t = known_time_reversal(spec)
    prep = project(plus_state(8), ProjectorSpec((t,), (0,)))
    plan = EvolutionPlan.exact(h, t)
    pen = build_ktr(prep, TimeGrid(default_dt(h), 32), plan)
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
    plan = EvolutionPlan.exact(h, t)
    pen = build_ktr(prep, TimeGrid(default_dt(h), 16), plan)
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
    with pytest.raises(ValueError, match="generator 0 does not commute with the Hamiltonian"):
        sector_ground_energy(h, [PauliString.from_label("ZIII")])
    # with no terms to compare, the qubit count is still checked
    with pytest.raises(ValueError, match="qubit counts differ"):
        sector_ground_energy(PauliSum(4, ()), [PauliString.from_label("ZZ")])


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sector_energy_matches_penalty_oracle_gauge(n):
    spec = ModelSpec("z2higgs", n, {"mu": 0.8, "g": 1.1})
    h = build(spec)
    gens = gauss_generators(spec)
    want = sector_ground_penalty(h, gens)
    assert abs(sector_ground_energy(h, gens) - want) <= 1e-12 * abs(want)


def test_sector_energy_matches_penalty_oracle_global_parity():
    h = build(ModelSpec("tfim", 6, {"gamma": 0.7}))
    gens = [PauliString.from_label("Z" * 6)]
    want = sector_ground_penalty(h, gens)
    assert abs(sector_ground_energy(h, gens) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("g", [
    # YY commutes with XX + ZZ but is neither X-type nor Z-type
    pytest.param(PauliString.from_label("YY"), id="y-string"),
    # i XX commutes with XX + ZZ but is no Hermitian operator
    pytest.param(PauliString(2, 0b11, 0, 1), id="non-hermitian"),
])
def test_sector_energy_rejects_a_commuting_generator_that_is_no_xz_string(g):
    h = PauliSum(2, ((1.0, PauliString.from_label("XX")), (1.0, PauliString.from_label("ZZ"))))
    with pytest.raises(ValueError, match="generator 0 does not define a supported projector"):
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
    gens = [PauliString(n, strings[k].x, strings[k].z, int(rng.choice([0, 2])))
            for k in rng.permutation(len(strings))]
    terms = []
    size = draw(st.integers(1, 8))
    while len(terms) < size:
        p = PauliString.from_xz(n, int(rng.integers(2 ** n)), int(rng.integers(2 ** n)))
        if not any(symplectic_product(p, s) for s in strings):
            terms.append((float(rng.normal()), p))
    return PauliSum(n, tuple(terms)), gens


def _ten_z_rows():
    """A Z field and a ZZ chain at n=10 with the generators -Z_0, -Z_1 and
    +Z_j elsewhere: ten Z rows, more than a uint8 sector label holds, and a
    joint sector of one basis state at energy 7.0."""
    n = 10
    z = [1 << (n - 1 - j) for j in range(n)]
    terms = ([(0.1 * (j + 1), PauliString.from_xz(n, 0, z[j])) for j in range(n)]
             + [(0.3, PauliString.from_xz(n, 0, z[j] | z[j + 1])) for j in range(n - 1)])
    return PauliSum(n, tuple(terms)), [PauliString(n, 0, z[j], 2 * (j < 2)) for j in range(n)]


@settings(max_examples=80, deadline=None)
@given(_xz_sector_case())
@example(_ten_z_rows())
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
    count, k = basis.shape
    assert (basis.place[basis.order].ravel() == np.arange(basis.order.size)).all()
    coords = rng.normal(size=basis.shape) + 1j * rng.normal(size=basis.shape)
    want = basis.to_sectors(kron_matrix(p) @ basis.to_amplitudes(coords))
    targets, rows, signs = basis.image(p, range(count))
    got = np.zeros_like(coords)
    for block in range(count):
        for j in range(k):
            got[targets[block], rows[block, j]] += signs[block, j] * coords[block, j]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(coords))
    # a random subset of the blocks in random order, as a partial fill asks
    # for them, reads the all-blocks entries bit for bit
    subset = rng.permutation(count)[:rng.integers(1, count + 1)]
    for part, whole in zip(basis.image(p, subset), (targets, rows, signs)):
        assert part.dtype == whole.dtype and part.tobytes() == whole[subset].tobytes()
    h = PauliSum(p.n, ((0.7, p), (-1.3, random_hermitian_string(p.n, rng))))
    assert basis.blocks(h, subset).tobytes() == basis.blocks(h, range(count))[subset].tobytes()


def test_sector_energy_rejects_noncommuting_generator_pair():
    # XX and ZI each commute with ZZ but anticommute with each other
    h = PauliSum(2, ((1.0, PauliString.from_label("ZZ")),))
    with pytest.raises(ValueError, match="generators 1 and 0 do not commute"):
        sector_ground_energy(h, [PauliString.from_label("XX"), PauliString.from_label("ZI")])


def test_sector_energy_rejects_empty_sector():
    h = build(ModelSpec("tfim", 4, {"gamma": 0.7}))
    with pytest.raises(ValueError, match="empty"):
        # +ZZZZ and -ZZZZ
        sector_ground_energy(h, [PauliString(4, 0, 0b1111, 0), PauliString(4, 0, 0b1111, 2)])


def test_b_eigenvalue_diagnostics():
    rng = np.random.default_rng(13)
    pen = _random_psd_toeplitz_pencil(6, rng)
    res = solve(pen, 1e-12)
    direct = np.linalg.eigvalsh(pen.matrix_b())
    assert np.allclose(res.b_eigenvalues, direct)
    assert isinstance(res, SpectrumResult)
    assert res.threshold == 1e-12

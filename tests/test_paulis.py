"""Symplectic algebra against dense-matrix oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from ktr.errors import NotTimeReversalError, ResourceLimitError
from ktr.gevp import exact_reference, sector_ground_energy
from ktr.paulis import (DENSE_QUBIT_CAP, PauliString, PauliSum, apply_action,
                        build_iht_observable, dense_matrix, multiply,
                        pauli_sum_from_text, symplectic_product)
from ktr.states import EvolutionPlan

from ktr.models import ModelSpec, build

from helpers import pauli_sum_to_text
from oracles import (all_pauli_strings, bits_to_mask, kron_matrix, random_hermitian_string,
                     random_pauli_sum)


def test_dense_single_qubit_definitions():
    assert np.array_equal(dense_matrix(PauliString.from_label("I")), np.eye(2))
    y = dense_matrix(PauliString.from_label("Y"))
    assert np.array_equal(y, np.array([[0, -1j], [1j, 0]]))


def test_symplectic_trivial_pairs():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    assert symplectic_product(x, z) == 1  # XZ = -ZX
    assert symplectic_product(x, x) == 0


def test_symplectic_two_qubit_derived():
    yx = PauliString.from_label("YX")
    xx = PauliString.from_label("XX")
    assert symplectic_product(yx, xx) == 1
    a = dense_matrix(yx)
    b = dense_matrix(xx)
    assert np.max(np.abs(a @ b + b @ a)) == 0.0


def test_symplectic_matches_dense_anticommutator():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 6):
        for _ in range(30 if n < 6 else 10):
            p = random_hermitian_string(n, rng)
            q = random_hermitian_string(n, rng)
            pd, qd = dense_matrix(p), dense_matrix(q)
            anti = np.max(np.abs(pd @ qd + qd @ pd))
            if symplectic_product(p, q) == 1:
                assert anti == 0.0
            else:
                assert anti > 0.0


def test_multiply_trivial_table():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    xz = multiply(x, z)
    # X @ Z = -i Y
    assert np.allclose(dense_matrix(xz), -1j * dense_matrix(PauliString.from_label("Y")))


def test_multiply_hermitian_square_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = random_hermitian_string(4, rng)
        sq = multiply(p, p)
        assert sq.x == sq.z == 0 and sq.phase_exp == 0


def test_multiply_phase_exact_and_associative():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        for _ in range(15):
            p = random_hermitian_string(n, rng)
            q = random_hermitian_string(n, rng)
            r = random_hermitian_string(n, rng)
            assert np.allclose(dense_matrix(multiply(p, q)),
                               dense_matrix(p) @ dense_matrix(q), atol=1e-14)
            lhs = multiply(multiply(p, q), r)
            rhs = multiply(p, multiply(q, r))
            assert lhs == rhs


def test_two_qubit_product_example():
    yx = PauliString.from_label("YX")
    xx = PauliString.from_label("XX")
    prod = multiply(yx, xx)
    assert np.allclose(dense_matrix(prod), dense_matrix(yx) @ dense_matrix(xx))
    # support is Z (x) I, up to phase
    assert prod.x == 0b00 and prod.z == 0b10


def test_hermitian_flag_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(40):
        base = random_hermitian_string(3, rng)
        for extra in range(4):
            p = PauliString(base.n, base.x, base.z, (base.phase_exp + extra) % 4)
            pd = dense_matrix(p)
            assert p.hermitian() == np.allclose(pd, pd.conj().T)


def test_dense_is_unitary():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = random_hermitian_string(4, rng)
        pd = dense_matrix(p)
        assert np.allclose(pd @ pd.conj().T, np.eye(16), atol=1e-14)


def test_dense_matrix_equals_kronecker_build():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        x, z = rng.integers(0, 2, size=(2, n))
        p = PauliString(n, bits_to_mask(x), bits_to_mask(z), int(rng.integers(0, 4)))  # any phase
        assert np.array_equal(dense_matrix(p), kron_matrix(p))
    for _ in range(10):
        h = random_pauli_sum(int(rng.integers(1, 7)), 6, rng)
        assert np.array_equal(dense_matrix(h), kron_matrix(h))
    models = (("tfim", {"gamma": 0.7}), ("z2higgs", {"mu": 0.8, "g": 1.1}),
              ("cluster", {"g_x": 0.9, "g_zz": 0.4, "g_zxz": 1.2}),
              ("heisenberg", {"j_x": 1.0, "j_y": 0.7, "j_z": 0.3}))
    for kind, params in models:
        h = build(ModelSpec(kind, 6, params))
        hd = dense_matrix(h)
        assert hd.dtype == np.float64  # even Y count per term: real symmetric
        assert np.array_equal(hd, kron_matrix(h))


def test_action_diag_is_real_exactly_for_phase_plus_minus_one():
    for label in ("I", "XZIX", "ZZZ", "YY", "XYZY", "YYYY"):  # even Y count
        assert PauliString.from_label(label).action()[1].dtype == np.float64
    for phase in (0, 2):
        assert PauliString(3, 0b110, 0b011, phase).action()[1].dtype == np.float64
    for label in ("Y", "XYZ", "YYY"):  # odd Y count
        assert PauliString.from_label(label).action()[1].dtype == np.complex128
    for phase in (1, 3):
        assert PauliString(2, 0b10, 0b01, phase).action()[1].dtype == np.complex128


def test_real_diag_acts_like_its_complex_copy_bit_for_bit():
    # a float64 diag is upcast to (d + 0j) inside the product, so Trotter
    # steps on complex amplitudes give the same bits as a complex diag did
    rng = np.random.default_rng(17)
    for label in ("XZYY", "ZIZI", "YXXY"):
        src, diag = PauliString.from_label(label).action()
        assert diag.dtype == np.float64
        as_complex = (src, diag.astype(complex))
        arr = rng.normal(size=16) + 1j * rng.normal(size=16)
        arr[0] = -0.0  # signed zeros must match too
        got, want = apply_action((src, diag), arr), apply_action(as_complex, arr)
        assert got.dtype == want.dtype == np.complex128
        assert got.tobytes() == want.tobytes()


def test_parse_errors_name_the_line_and_the_first_bad_letter():
    long = "XZ" * 128
    for text, message in ((f"1.0 {long}\n0.5 {long[:-2]}qa\n", "line 2: invalid Pauli letter 'q'"),
                          (f"1.0 {long}\n# note\n0.5 Xb{long}c\n",
                           "line 3: invalid Pauli letter 'b'"),
                          ("1.0 XX\n-inf ZZ\n", "line 2: coefficients must be finite reals")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pauli_sum_from_text(text)
    with pytest.raises(ValueError, match="^invalid Pauli letter 'i'$"):
        PauliString.from_label("XiZi")
    for bad in (np.nan, np.float32(np.inf), -math.inf):
        with pytest.raises(ValueError, match="^coefficients must be finite reals$"):
            PauliSum(1, ((bad, PauliString.from_label("Z")),))


def test_parsing_keeps_every_validation_error():
    with pytest.raises(ValueError, match="invalid Pauli letter 'Q'"):
        PauliString.from_label("XQZ")
    with pytest.raises(ValueError, match="invalid Pauli letter"):
        PauliString.from_label("X\u00e9")
    with pytest.raises(ValueError, match="invalid Pauli letter 'x'"):
        pauli_sum_from_text("1.0 XX\n0.5 xZ\n")
    # every parse error of a term names its line
    for text, message in (("1.0 XX\n0.5 xZ\n", "line 2: invalid Pauli letter 'x'"),
                          ("abc XZ\n", "line 1: could not convert string to float"),
                          ("1.0 XX\nnan XZ\n", "line 2: coefficients must be finite reals"),
                          ("# header\ninf XZ\n", "line 2: coefficients must be finite reals")):
        with pytest.raises(ValueError, match=message):
            pauli_sum_from_text(text)
    # supports are plain ints in [0, 2**n): no negative, oversized, bool or float mask
    for mask in (-1, 4, 256, True, 1.0):
        with pytest.raises(ValueError, match=r"ints in \[0, 2\*\*2\)"):
            PauliString(2, mask, 0, 0)
        with pytest.raises(ValueError, match=r"ints in \[0, 2\*\*2\)"):
            PauliString.from_xz(2, 0, mask)
    with pytest.raises(ValueError, match="mod 4"):
        PauliString(1, 0, 1, 4)
    with pytest.raises(ValueError, match="qubit count changed"):
        pauli_sum_from_text("1.0 XX\n0.5 XZZ\n")
    with pytest.raises(ValueError, match="finite"):
        PauliSum(1, ((float("nan"), PauliString.from_label("X")),))
    # every constructor gives the same string
    want = PauliString(3, 0b110, 0b011, 1)
    for got in (PauliString.from_label("XYZ"), PauliString.from_xz(3, 0b110, 0b011)):
        assert got == want and got.label() == "XYZ"


def test_dense_cap():
    with pytest.raises(ResourceLimitError):
        dense_matrix(PauliString.from_label("I" * 15))


def test_every_dense_entry_point_refuses_above_the_cap_before_allocating():
    n = DENSE_QUBIT_CAP + 1
    # compiling these 2n - 1 terms alone would take 16 B * 2**n each
    h = PauliSum(n, tuple((1.0, PauliString.from_label(
                              "I" * i + label + "I" * (n - i - len(label))))
                          for label, sites in (("Z", n), ("XX", n - 1))
                          for i in range(sites)))
    parity = PauliString.from_label("Z" * n)
    calls = {
        "dense_matrix": lambda: dense_matrix(h),
        "exact_reference": lambda: exact_reference(h),
        "sector_ground_energy": lambda: sector_ground_energy(h, [parity]),
        "EvolutionPlan.factorization": lambda: EvolutionPlan.exact(h).factorization(),
        "EvolutionPlan.prepare": lambda: EvolutionPlan.exact(h).prepare(),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, f"{name} allocated {peak} B before refusing"


def test_tensor_product_is_kron():
    y = PauliString.from_label("Y")
    x = PauliString.from_label("X")
    yx = PauliString.from_label("YX")
    assert np.allclose(dense_matrix(yx), np.kron(dense_matrix(y), dense_matrix(x)))


def test_pauli_sum_rejects_non_hermitian_terms():
    xz = multiply(PauliString.from_label("X"), PauliString.from_label("Z"))
    assert not xz.hermitian()
    with pytest.raises(ValueError):
        PauliSum(1, ((1.0, xz),))


def test_iht_single_qubit():
    h = PauliSum(1, ((1.0, PauliString.from_label("X")),))
    t = PauliString.from_label("Z")
    obs = build_iht_observable(h, t)
    # i X Z = Y
    assert obs.terms == ((1.0, PauliString.from_label("Y")),)


def test_iht_requires_anticommutation():
    h = PauliSum(2, ((1.0, PauliString.from_label("XX")),))
    with pytest.raises(NotTimeReversalError):
        build_iht_observable(h, PauliString.from_label("XI"))


def test_iht_dense_identity_random():
    rng = np.random.default_rng(31)
    built = 0
    while built < 10:
        t = random_hermitian_string(4, rng)
        if not t.x | t.z:
            continue
        terms = []
        for _ in range(5):
            s = random_hermitian_string(4, rng)
            if symplectic_product(s, t) == 1:
                terms.append((float(rng.normal()), s))
        if not terms:
            continue
        h = PauliSum(4, tuple(terms))
        obs = build_iht_observable(h, t)
        lhs = dense_matrix(obs)
        rhs = 1j * dense_matrix(h) @ dense_matrix(t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14
        assert np.max(np.abs(lhs - lhs.conj().T)) <= 1e-14
        built += 1


def test_iht_tfim_expansion():
    # for the n=4 Ising chain and the alternating (Y X) involution, i H T
    # expands into (Z Y) X-shifted terms plus gamma (Y X) terms
    gamma = 0.7
    n = 4
    def op(label):
        return dense_matrix(PauliString.from_label(label))
    h_terms = []
    for i in range(n - 1):
        lab = ["I"] * n
        lab[i] = lab[i + 1] = "X"
        h_terms.append((-1.0, PauliString.from_label("".join(lab))))
    for i in range(n):
        lab = ["I"] * n
        lab[i] = "Z"
        h_terms.append((-gamma, PauliString.from_label("".join(lab))))
    h = PauliSum(n, tuple(h_terms))
    t = PauliString.from_label("YXYX")
    td = dense_matrix(t)
    expansion = np.zeros((16, 16), dtype=complex)
    for i in range(n - 1):
        zi = ["I"] * n; zi[i] = "Z"
        yi = ["I"] * n; yi[i] = "Y"
        xi1 = ["I"] * n; xi1[i + 1] = "X"
        expansion += op("".join(zi)) @ op("".join(yi)) @ op("".join(xi1)) @ td
    for i in range(n):
        yi = ["I"] * n; yi[i] = "Y"
        xi = ["I"] * n; xi[i] = "X"
        expansion += gamma * op("".join(yi)) @ op("".join(xi)) @ td
    obs = build_iht_observable(h, t)
    assert np.max(np.abs(dense_matrix(obs) - expansion)) <= 1e-13
    assert np.max(np.abs(dense_matrix(obs) - 1j * dense_matrix(h) @ td)) <= 1e-13


def test_tfim_two_qubit_spectrum():
    # n=2 chain with no transverse field: -(X X), eigenvalues {-1,-1,1,1}
    h = PauliSum(2, ((-1.0, PauliString.from_label("XX")),))
    evals = np.linalg.eigvalsh(dense_matrix(h))
    assert np.allclose(evals, [-1.0, -1.0, 1.0, 1.0])


def test_text_round_trip_bit_exact():
    rng = np.random.default_rng(41)
    terms = []
    for coeff in (-1.0, 0.1 + 0.2, 1e-17, 2.718281828459045):
        terms.append((coeff, random_hermitian_string(4, rng)))
    h = PauliSum(4, tuple(terms))
    again = pauli_sum_from_text(pauli_sum_to_text(h))
    assert again.n == h.n
    for (c1, s1), (c2, s2) in zip(h.terms, again.terms):
        assert c1 == c2 and s1 == s2


def test_text_format_example():
    text = "-1.0 XXII\n0.5 IIZZ\n"
    h = pauli_sum_from_text(text)
    assert pauli_sum_to_text(h) == text


def test_label_round_trip_all_strings():
    for p in all_pauli_strings(2):
        assert PauliString.from_label(p.label()) == p

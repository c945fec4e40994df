"""Start states that only the tests build.

The library's own start states are :func:`ktr.states.plus_state`, the
block states of :mod:`ktr.initial` and projections of those; the tests
also need basis states, product states, random states and the gauge-model
start state.  Each refuses a register above
:data:`ktr.paulis.STATE_QUBIT_CAP` before allocating, like the library.
The text writer of the Pauli-sum format that the CLI reads is here too.
"""

from typing import Iterable, Sequence

import numpy as np

from ktr.initial import ProjectorSpec, project
from ktr.paulis import PauliString, PauliSum, check_state_qubits
from ktr.states import StateVector, plus_state


def basis_state(n: int, bits: int | str | Sequence[int]) -> StateVector:
    """Computational basis state; ``bits`` is an index or a q0-first pattern."""
    if isinstance(bits, (str, list, tuple)):
        pattern = [int(b) for b in bits]
        if len(pattern) != n or any(b not in (0, 1) for b in pattern):
            raise ValueError("bit pattern must have one bit per qubit")
        index = 0
        for b in pattern:
            index = (index << 1) | b
    else:
        index = int(bits)
    check_state_qubits(n)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def product_state(factors: Iterable[Sequence[complex]]) -> StateVector:
    """Tensor product of single-qubit amplitude pairs, qubit 0 first."""
    vecs = [np.asarray(factor, dtype=complex) for factor in factors]
    if any(vec.shape != (2,) for vec in vecs):
        raise ValueError("each factor must be a length-2 amplitude pair")
    check_state_qubits(len(vecs))
    amps = np.ones(1, dtype=complex)
    for vec in vecs:
        amps = np.kron(amps, vec)
    return StateVector(len(vecs), amps)


def random_state(n: int, rng: int | np.random.Generator) -> StateVector:
    """Haar-ish random unit vector (Gaussian amplitudes, normalized)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    check_state_qubits(n)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, amps / np.linalg.norm(amps))


def gauge_start(n: int, s: int = 1) -> StateVector:
    """|+>^n projected onto the all-Y involution of the gauge model, blockwise
    over s equal blocks with all-plus signs (stabilizer sign c = +1)."""
    spec = ProjectorSpec.blocks_of(PauliString.from_label("Y" * n), (0,) * s)
    return project(plus_state(n), spec)


def pauli_sum_to_text(h: PauliSum) -> str:
    """One ``<coeff> <label>`` line per term; round-trips bit-exactly."""
    return "".join(f"{coeff!r} {string.label()}\n" for coeff, string in h.terms)

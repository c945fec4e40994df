"""Dense statevector kernel.

States live on n qubits as complex vectors of length 2**n, basis index
``i = sum_j q_j * 2**(n-1-j)`` (qubit 0 is the most significant bit, in
line with the Kronecker convention of :mod:`ktr.paulis`).  A Pauli string
acts as an amplitude permutation with +-1 / +-i phases, through the
compiled ``(src, diag)`` pair of :meth:`ktr.paulis.PauliString.action`:
built once per string on first use, read-only, 16 B * 2**n each (24 B for
an odd phase).  Time evolution under exp(-i t H) runs either exactly,
through a cached Hermitian eigenfactorization of the dense Hamiltonian, or
with a symmetric second-order Trotter splitting built from closed-form
single-string exponentials exp(-i theta P) = cos(theta) I - i sin(theta) P,
which reuses the Hamiltonian's compiled terms across all steps.  Exact mode
uses a real ``eigh`` for real H: when every string has an even number of Y
factors (every model chain), the dense matrix is float64 and the real
eigenvectors Q act on the real and the imaginary part of the amplitudes; a
term with an odd number of Y factors runs the same code in complex128.
States above :data:`ktr.paulis.STATE_QUBIT_CAP` qubits are refused with
:class:`ResourceLimitError` before anything is allocated.

All values are immutable after construction and no operation has a
visible side effect, so states and plans can be shared freely across
threads.  Two caches fill on first use, each with read-only arrays that
any thread computes bit for bit the same: the compiled actions, as in
:meth:`ktr.paulis.PauliSum.compiled`, and an exact plan's memo of the
eigen-coefficients Q+ s of each start state s, so that later evolutions
of s skip the Q+ product (two real matrix-vector products per sample
instead of four for real H).  The memo holds its states weakly and keeps
nothing alive that the caller has dropped.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
import numpy as np

from .errors import InternalInconsistencyError
from .paulis import PauliString, PauliSum, apply_action, check_state_qubits, dense_matrix

#: absolute imaginary residue tolerated in a Hermitian expectation
EXPECTATION_IMAG_TOL = 1e-12

#: relative Frobenius tolerance for the eigenfactorization self-check
FACTORIZATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm amplitude vector on n qubits; equal and hashed by identity."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        check_state_qubits(self.n)
        arr = np.array(self.amps, dtype=complex, copy=True)
        if arr.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} amplitudes, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def plus_state(n: int) -> StateVector:
    check_state_qubits(n)
    return StateVector(n, np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex))


def tensor_states(a: StateVector, b: StateVector) -> StateVector:
    check_state_qubits(a.n + b.n)
    return StateVector(a.n + b.n, np.kron(a.amps, b.amps))


def apply_pauli_to_array(amps: np.ndarray, p: PauliString) -> np.ndarray:
    """Low-level Pauli action on the leading axis of a raw 1-D or 2-D array."""
    if amps.shape[0] != 2 ** p.n:
        raise ValueError("amplitude length does not match the string")
    return apply_action(p.action(), amps)


def apply_pauli(s: StateVector, p: PauliString) -> StateVector:
    if s.n != p.n:
        raise ValueError(f"qubit counts differ: {s.n} vs {p.n}")
    return StateVector(s.n, apply_pauli_to_array(s.amps, p))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(np.vdot(a.amps, b.amps))


def matrix_element(a: StateVector, o: PauliSum, b: StateVector) -> complex:
    """<a|O|b> for a Pauli-sum observable."""
    if a.n != o.n or b.n != o.n:
        raise ValueError("qubit counts differ")
    acc = 0.0 + 0.0j
    for coeff, action in o.compiled():
        acc += coeff * np.vdot(a.amps, apply_action(action, b.amps))
    return complex(acc)


def expectation(s: StateVector, o: PauliSum) -> float:
    """<s|O|s>; the imaginary residue is checked and discarded."""
    value = matrix_element(s, o, s)
    if abs(value.imag) > EXPECTATION_IMAG_TOL:
        raise InternalInconsistencyError(
            f"Hermitian expectation has imaginary residue {value.imag:.3e}")
    return value.real


class EvolutionPlan:
    """Reusable strategy for evolving states under one Hamiltonian.

    ``exact`` mode factorizes the dense Hamiltonian once (H = Q L Q+) and
    applies U(t) = Q exp(-i t L) Q+; the factorization is cached and
    read-only, so concurrent evolutions may share it.  The plan also
    memoizes the eigen-coefficients Q+ s of each state s it evolves, keyed
    weakly by the state object, so evolving one start state to many times
    pays for Q+ once; an entry is read-only and goes when its state is
    collected.  ``trotter2`` mode applies the symmetric second-order
    splitting (term exponentials in stored order forward, then backward,
    with half steps): one ``evolve`` over an increment dtau takes
    ceil(|dtau| * steps_per_unit) equal steps.
    """

    def __init__(self, h: PauliSum, mode: str = "exact",
                 steps_per_unit: int | None = None):
        if mode not in ("exact", "trotter2"):
            raise ValueError(f"unknown evolution mode {mode!r}")
        if mode == "trotter2":
            if steps_per_unit is None or int(steps_per_unit) < 1:
                raise ValueError("trotter2 mode needs steps_per_unit >= 1")
            steps_per_unit = int(steps_per_unit)
        self.h = h
        self.mode = mode
        self.steps_per_unit = steps_per_unit
        self._factorization: tuple[np.ndarray, np.ndarray] | None = None
        # evecs.conj().T, kept for evolve: a view of evecs when H is real
        self._adjoint: np.ndarray | None = None
        # Q+ s per evolved state s (exact mode), dropped with s
        self._coefficients: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @classmethod
    def exact(cls, h: PauliSum) -> "EvolutionPlan":
        return cls(h, mode="exact")

    @classmethod
    def trotter2(cls, h: PauliSum, steps_per_unit: int) -> "EvolutionPlan":
        return cls(h, mode="trotter2", steps_per_unit=steps_per_unit)

    def factorization(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of the dense Hamiltonian (cached)."""
        if self._factorization is None:
            hd = dense_matrix(self.h)
            evals, evecs = np.linalg.eigh(hd)
            adjoint = evecs.conj().T
            residual = np.linalg.norm((evecs * evals) @ adjoint - hd)
            scale = max(np.linalg.norm(hd), 1.0)
            if residual > FACTORIZATION_TOL * scale:
                raise InternalInconsistencyError(
                    f"eigenfactorization residual {residual:.3e} exceeds tolerance")
            for arr in (evals, evecs, adjoint):
                arr.flags.writeable = False
            self._adjoint = adjoint
            self._factorization = (evals, evecs)
        return self._factorization

    def prepare(self) -> "EvolutionPlan":
        """Force the caches to exist (useful before fanning out threads):
        the factorization in exact mode, the compiled terms in trotter2 mode."""
        if self.mode == "exact":
            self.factorization()
        else:
            self.h.compiled()
        return self


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec without upcasting a real matrix: numpy would copy a real
    ``mat`` to complex128 on every call, so it acts on the real and the
    imaginary part of a complex ``vec`` separately."""
    if np.isrealobj(mat) and np.iscomplexobj(vec):
        out = np.empty(vec.shape, dtype=np.result_type(mat, vec))
        out.real = mat @ vec.real
        out.imag = mat @ vec.imag
        return out
    return mat @ vec


def _trotter_step(amps: np.ndarray, rotations: list) -> np.ndarray:
    """One symmetric step; ``rotations`` holds (cos theta, i sin theta, action)
    per half-step exponential, forward terms then backward."""
    for cos_t, i_sin_t, (src, diag) in rotations:
        amps = cos_t * amps - i_sin_t * (diag * amps[src])
    return amps


def evolve(plan: EvolutionPlan, t: float, s: StateVector) -> StateVector:
    """exp(-i t H) |s> under the plan's strategy.

    Exact mode takes the phase at the full t, so evolving one start state
    to many times builds up no rounding; the eigen-coefficients Q+ s come
    from the plan's memo after the first call on s.
    """
    if plan.h.n != s.n:
        raise ValueError(f"qubit counts differ: {plan.h.n} vs {s.n}")
    if t == 0.0:
        return s
    if plan.mode == "exact":
        evals, evecs = plan.factorization()
        coeffs = plan._coefficients.get(s)
        if coeffs is None:
            coeffs = _matvec(plan._adjoint, s.amps)
            coeffs.flags.writeable = False
            plan._coefficients[s] = coeffs
        return StateVector(s.n, _matvec(evecs, np.exp(-1j * t * evals) * coeffs))
    steps = max(1, math.ceil(abs(t) * plan.steps_per_unit))
    dt = t / steps
    rotations = []
    for coeff, action in plan.h.compiled():
        theta = 0.5 * dt * coeff
        rotations.append((math.cos(theta), 1j * math.sin(theta), action))
    rotations += rotations[::-1]
    amps = s.amps.copy()
    for _ in range(steps):
        amps = _trotter_step(amps, rotations)
    return StateVector(s.n, amps)

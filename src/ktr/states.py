"""Dense statevector kernel.

States live on n qubits as complex vectors of length 2**n, basis index
``i = sum_j q_j * 2**(n-1-j)`` (qubit 0 is the most significant bit, in
line with the Kronecker convention of :mod:`ktr.paulis`).  A Pauli string
acts as an amplitude permutation with +-1 / +-i phases, through the
compiled ``(src, diag)`` pair of :meth:`ktr.paulis.PauliString.action`:
built once per string on first use, read-only, 16 B * 2**n each (24 B for
an odd phase).  Time evolution under exp(-i t H) runs either exactly or
with a symmetric second-order Trotter splitting built from closed-form
single-string exponentials exp(-i theta P) = cos(theta) I - i sin(theta) P,
which reuses the Hamiltonian's compiled terms across all steps.

Exact mode splits H on its X/Z symmetry sectors
(:func:`ktr.gevp.symmetry_blocks`): the abelian group of
:func:`ktr.symmetry.commutant`, r generators, makes H block-diagonal in the
orbit x character basis of :class:`ktr.gevp.SectorBasis`, 2**r blocks of
k = 2**(n - r), and each block has its own cached eigenfactorization
H_b = Q_b L_b Q_b+.  A state enters that basis by a gather into orbits and
an orthonormal Walsh-Hadamard transform over each orbit, applied as two
small factors, so no matrix above O(2**n) entries is built; it leaves by
the same transform and a scatter.  A group with no generators is one
block of 2**n, the dense eigenfactorization.  Real H (every string with an
even number of Y factors, as in every model chain) gives float64 blocks and
eigenvectors, which act on the real and the imaginary part of the
coefficients at once; a term with an odd number of Y factors runs the same
code in complex128.  States above :data:`ktr.paulis.STATE_QUBIT_CAP`
qubits are refused with :class:`ResourceLimitError` before anything is
allocated.

All values are immutable after construction and no operation has a
visible side effect, so states and plans can be shared freely across
threads.  Two caches fill on first use, each with read-only arrays that
any thread computes bit for bit the same: the compiled actions, as in
:meth:`ktr.paulis.PauliSum.compiled`, and an exact plan's memo of the
block eigen-coefficients Q_b+ s of each start state s, so that a later
evolution of s costs one phase, one batched block product, the inverse
transform and a scatter.  The memo holds its states weakly and keeps
nothing alive that the caller has dropped.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
import numpy as np

from .errors import InternalInconsistencyError
from .gevp import SectorBasis, symmetry_blocks
from .paulis import PauliString, PauliSum, apply_action, check_state_qubits
# no caller here, but the benchmark tracer wraps ktr.states.dense_matrix
from .paulis import dense_matrix  # noqa: F401

#: absolute imaginary residue tolerated in a Hermitian expectation
EXPECTATION_IMAG_TOL = 1e-12

#: relative Frobenius tolerance for the self-check of each block's eigenfactorization
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

    ``exact`` mode finds the symmetry sectors of H and factorizes each block
    once (H_b = Q_b L_b Q_b+); the factorization is cached and read-only,
    so concurrent evolutions may share it.  The plan also memoizes the
    block eigen-coefficients Q_b+ s of each state s it evolves, keyed weakly
    by the state object, so evolving one start state to many times pays for
    the basis change and Q_b+ once; an entry is read-only and goes when its
    state is collected.  ``trotter2`` mode applies the symmetric
    second-order splitting (term exponentials in stored order forward, then
    backward, with half steps): one ``evolve`` over an increment dtau takes
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
        # Q_b+ per block (a view of the eigenvectors when H is real)
        self._adjoint: np.ndarray | None = None
        self._basis: SectorBasis | None = None
        # Q_b+ s per evolved state s (exact mode), dropped with s
        self._coefficients: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @classmethod
    def exact(cls, h: PauliSum) -> "EvolutionPlan":
        return cls(h, mode="exact")

    @classmethod
    def trotter2(cls, h: PauliSum, steps_per_unit: int) -> "EvolutionPlan":
        return cls(h, mode="trotter2", steps_per_unit=steps_per_unit)

    def factorization(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (2**r, k) and eigenvectors (2**r, k, k) of the
        symmetry blocks of H (cached), each block checked to reproduce
        itself within :data:`FACTORIZATION_TOL`."""
        if self._factorization is None:
            basis, blocks = symmetry_blocks(self.h)
            evals, evecs = np.linalg.eigh(blocks)
            adjoint = evecs.conj().transpose(0, 2, 1)
            residual = np.linalg.norm((evecs * evals[:, None, :]) @ adjoint - blocks, axis=(1, 2))
            scale = np.maximum(np.linalg.norm(blocks, axis=(1, 2)), 1.0)
            worst = int(np.argmax(residual / scale))
            if residual[worst] > FACTORIZATION_TOL * scale[worst]:
                raise InternalInconsistencyError(
                    f"eigenfactorization residual {residual[worst]:.3e} of block {worst} "
                    f"exceeds tolerance")
            for arr in (evals, evecs, adjoint):
                arr.flags.writeable = False
            self._adjoint = adjoint
            self._basis = basis
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


def _apply_blocks(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[b] @ vecs[b] for every block b of a complex (blocks, k) array.

    A real ``mats`` acts on the float view of ``vecs``, whose (re, im) pairs
    form two columns: numpy would otherwise copy it to complex128 on every
    call."""
    if np.isrealobj(mats):
        pairs = np.ascontiguousarray(vecs).view(float).reshape(*vecs.shape, 2)
        return (mats @ pairs).view(complex)[..., 0]
    return (mats @ vecs[..., None])[..., 0]


def _trotter_step(amps: np.ndarray, rotations: list) -> np.ndarray:
    """One symmetric step; ``rotations`` holds (cos theta, i sin theta, action)
    per half-step exponential, forward terms then backward."""
    for cos_t, i_sin_t, (src, diag) in rotations:
        amps = cos_t * amps - i_sin_t * (diag * amps[src])
    return amps


def evolve(plan: EvolutionPlan, t: float, s: StateVector) -> StateVector:
    """exp(-i t H) |s> under the plan's strategy.

    Exact mode takes the phase at the full t, so evolving one start state
    to many times builds up no rounding; the block eigen-coefficients
    Q_b+ s come from the plan's memo after the first call on s, and each
    call then costs the phases, one batched block product, the inverse
    Walsh-Hadamard transform and a scatter back to amplitudes.
    """
    if plan.h.n != s.n:
        raise ValueError(f"qubit counts differ: {plan.h.n} vs {s.n}")
    if t == 0.0:
        return s
    if plan.mode == "exact":
        evals, evecs = plan.factorization()
        coeffs = plan._coefficients.get(s)
        if coeffs is None:
            coeffs = _apply_blocks(plan._adjoint, plan._basis.to_sectors(s.amps))
            coeffs.flags.writeable = False
            plan._coefficients[s] = coeffs
        phased = np.exp(-1j * t * evals) * coeffs
        return StateVector(s.n, plan._basis.to_amplitudes(_apply_blocks(evecs, phased)))
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

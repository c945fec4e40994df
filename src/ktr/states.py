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
which reuse each term's compiled ``src`` across all steps.  Z-type strings
are diagonal and commute, so each maximal run of adjacent Z-type terms in
a step's forward-then-backward sequence is merged into one phase vector
exp(-i sum theta_j s_j): the same unitary for one multiply instead of a
gather per term.

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

An involution T that anticommutes with H maps each symmetry block onto
another, so in the block eigenbasis it is M_T[b] = Q_pi(b)+ P_T Q_b for a
block permutation pi, cached per involution by
:meth:`EvolutionPlan.reversal` from :meth:`ktr.gevp.SectorBasis.image`:
pi(b), and per column of block b its row in pi(b) and its sign.
:func:`reversal_curves` reads <v(tau)|T|v(tau)> and <v(tau)|iHT|v(tau)> for
v(tau) = exp(-i tau H)|v> from there: with phi(tau) = exp(-i L tau) Q+ v,
they are sum conj(phi_pi) . (M_T phi) and i sum L_pi conj(phi_pi) . (M_T
phi), and no amplitude vector is built.  It evaluates only the grid indices
k (tau = k * step) a route asks for, in groups of fewer than K consecutive
grid indices (the chunk size), each starting at its own first index k0, and
takes their phases from one table exp(-i L r step) per call, r = k - k0
below K, times one shift exp(-i L k0 step) per group.

All values are immutable after construction and no operation has a
visible side effect, so states and plans can be shared freely across
threads.  Four caches fill on first use, each with read-only arrays that
any thread computes bit for bit the same: the compiled actions, as in
:meth:`ktr.paulis.PauliSum.compiled`; an exact plan's memo of the block
eigen-coefficients Q_b+ s of each start state s, so that a later
evolution of s costs one phase, one batched block product, the inverse
transform and a scatter; its M_T per involution T; and a ``trotter2``
plan's merged step per step size dt (one entry per grid increment, 16 B *
2**n per off-diagonal term and per Z run).  The memo holds its states
weakly and keeps nothing alive that the caller has dropped.
"""

from __future__ import annotations

import itertools
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

#: relative Frobenius tolerance for the self-check of each block's
#: eigenfactorization, and of M_T[pi] M_T = I (T**2 = I) in the block eigenbasis
FACTORIZATION_TOL = 1e-10

#: bound on the work arrays of one chunk of :func:`reversal_curves`: five
#: complex (2**n, K) arrays, the phase table of at most K columns among them,
#: K = CURVE_CHUNK_BYTES // (80 * 2**n) samples (at least one), so memory
#: does not grow with the number of samples
CURVE_CHUNK_BYTES = 2 ** 20


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
    state is collected.  For each anticommuting involution T it caches the
    block permutation and M_T of :meth:`reversal`, read-only too, so
    threads may share them as they share the factorization.  ``trotter2``
    mode applies the symmetric second-order splitting of
    :meth:`merged_step`: one ``evolve`` over an increment dtau takes
    ceil(|dtau| * steps_per_unit) equal steps.
    """

    def __init__(self, h: PauliSum, mode: str = "exact",
                 steps_per_unit: int | None = None):
        if mode not in ("exact", "trotter2"):
            raise ValueError(f"unknown evolution mode {mode!r}")
        if mode == "trotter2":
            if (steps_per_unit is None or not float(steps_per_unit).is_integer()
                    or steps_per_unit < 1):
                raise ValueError("trotter2 mode needs an integral steps_per_unit >= 1")
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
        # (pi, M_T) per involution T (exact mode)
        self._reversals: dict[PauliString, tuple[np.ndarray, np.ndarray]] = {}
        # the operations of one step per step size dt (trotter2 mode)
        self._steps: dict[float, tuple] = {}

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

    def coefficients(self, s: StateVector) -> np.ndarray:
        """Block eigen-coefficients Q_b+ s, shape (2**r, k), memoized per state
        (exact mode) and read-only."""
        coeffs = self._coefficients.get(s)
        if coeffs is None:
            self.factorization()
            coeffs = _apply_blocks(self._adjoint, self._basis.to_sectors(s.amps))
            coeffs.flags.writeable = False
            self._coefficients[s] = coeffs
        return coeffs

    def reversal(self, t: PauliString) -> tuple[np.ndarray, np.ndarray]:
        """An involution T that anticommutes with H in the block eigenbasis
        (exact mode, cached per T): the block permutation pi, block
        c * 2**r_z + zeta going to (c ^ delta) * 2**r_z + (zeta ^ eps), and
        M_T[b] = Q_pi(b)+ P_T Q_b, shape (2**r, k, k), where P_T is the signed
        permutation that :meth:`ktr.gevp.SectorBasis.image` gives.  Checked to
        square to the identity (:func:`_check_involution`)."""
        cached = self._reversals.get(t)
        if cached is None:
            evals, evecs = self.factorization()
            perm, rows, signs = self._basis.image(t, range(2 ** len(self._basis.pivots)))
            # P_T Q_b, its rows placed in block pi(b)
            moved = np.empty(evecs.shape, np.result_type(evecs, signs))
            moved[np.arange(perm.size)[:, None], rows] = signs[..., None] * evecs
            m_t = self._adjoint[perm] @ moved
            _check_involution(perm, m_t)
            for arr in (perm, m_t):
                arr.flags.writeable = False
            cached = self._reversals[t] = (perm, m_t)
        return cached

    def merged_step(self, dt: float) -> tuple:
        """One symmetric step of size dt (trotter2 mode, cached per dt, arrays
        read-only): exp(-i theta P), theta = dt c / 2, per term in stored
        order forward, then backward.  A term with the action (src, diag) of
        :meth:`ktr.paulis.PauliString.action` is (cos theta, -i sin theta
        diag, src), one tuple for both directions; each maximal run of
        adjacent Z-type terms, which commute, is one phase vector
        exp(-i sum theta_j s_j), s_j from :meth:`ktr.paulis.PauliString.signs`."""
        ops = self._steps.get(dt)
        if ops is None:
            index = np.arange(2 ** self.h.n)
            half = []
            for coeff, string in self.h.terms:
                theta = 0.5 * dt * coeff
                if string.x == 0:
                    half.append((True, theta * string.signs(index)))
                    continue
                src, diag = string.action()
                coef = -1j * math.sin(theta) * diag
                coef.flags.writeable = False
                half.append((False, (math.cos(theta), coef, src)))
            ops = []
            for diagonal, run in itertools.groupby(half + half[::-1], lambda term: term[0]):
                if diagonal:
                    phase = np.exp(-1j * sum(angle for _, angle in run))
                    phase.flags.writeable = False
                    ops.append(phase)
                else:
                    ops += [rotation for _, rotation in run]
            ops = self._steps[dt] = tuple(ops)
        return ops

    def prepare(self) -> "EvolutionPlan":
        """Force the caches to exist (useful before fanning out threads):
        the factorization in exact mode, the compiled terms in trotter2 mode."""
        if self.mode == "exact":
            self.factorization()
        else:
            self.h.compiled()
        return self


def _check_involution(perm: np.ndarray, m_t: np.ndarray) -> None:
    """Refuse M_T unless pi is an involution and M_T[pi(b)] M_T[b] = I on
    every block within :data:`FACTORIZATION_TOL` (relative Frobenius)."""
    k = m_t.shape[-1]
    residual = np.linalg.norm(m_t[perm] @ m_t - np.eye(k), axis=(1, 2)) / math.sqrt(k)
    worst = int(np.argmax(residual))
    if not np.array_equal(perm[perm], np.arange(perm.size)) or residual[worst] > FACTORIZATION_TOL:
        raise InternalInconsistencyError(
            f"involution in the block eigenbasis does not square to the identity "
            f"(residual {residual[worst]:.3e} at block {worst})")


def _apply_blocks(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[b] @ vecs[b] for every block b of a complex (blocks, k) or
    (blocks, k, K) array.

    A real ``mats`` acts on the float view of ``vecs``, whose (re, im) pairs
    form twice the columns: numpy would otherwise copy it to complex128 on
    every call."""
    columns = np.ascontiguousarray(vecs).reshape(*vecs.shape[:2], -1)
    if np.isrealobj(mats):
        return (mats @ columns.view(float)).view(complex).reshape(vecs.shape)
    return (mats @ columns).reshape(vecs.shape)


def _trotter_step(amps: np.ndarray, ops: tuple) -> np.ndarray:
    """One symmetric step of :meth:`EvolutionPlan.merged_step`: a phase
    vector multiplies, a (cos theta, -i sin theta diag, src) rotates."""
    for op in ops:
        if isinstance(op, np.ndarray):
            amps = op * amps
        else:
            cos_t, coef, src = op
            rotated = amps[src]  # a new array: in place from here on
            rotated *= coef
            rotated += cos_t * amps
            amps = rotated
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
        phased = np.exp(-1j * t * evals) * plan.coefficients(s)
        return StateVector(s.n, plan._basis.to_amplitudes(_apply_blocks(evecs, phased)))
    steps = max(1, math.ceil(abs(t) * plan.steps_per_unit))
    ops = plan.merged_step(t / steps)
    amps = s.amps
    for _ in range(steps):
        amps = _trotter_step(amps, ops)
    return StateVector(s.n, amps)


def reversal_curves(plan: EvolutionPlan, t: PauliString, starts: list[StateVector],
                    step: float, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<v(tau)| iHT |v(tau)> and <v(tau)| T |v(tau)> at tau = k * step for
    each k of the sorted int array ``indices``, for each v in ``starts``:
    two (len(starts), len(indices)) arrays.

    The exact curves, for an involution T that anticommutes with H.  Both
    are read in the block eigenbasis from the memoized coefficients
    c0 = Q+ v, with no amplitude vector: phi = exp(-i L tau) c0, then
    sum conj(phi_pi) . (M_T phi) and i sum L_pi conj(phi_pi) . (M_T phi),
    with pi and M_T from :meth:`EvolutionPlan.reversal`.  The indices run in
    groups for a chunk of K samples, whose work arrays take at most
    :data:`CURVE_CHUNK_BYTES`: a group starts at its first index k0 and
    holds every later index below k0 + K.  The phases come from one table
    exp(-i L r step) per call, over the offsets r = k - k0 that occur, and
    one shift exp(-i L k0 step) per group, so a call takes
    2**n * (min(K, len(indices)) + groups) complex exponentials, not
    2**n * len(indices).  On ``np.arange(m)`` and on the whole fine grid the
    groups are the chunks q = k // K.  Where the five-point windows of a
    derivative stencil lie at least K apart (20 samples per step at n = 10),
    each makes one group and all share five table columns.  The imaginary
    residue of each value is checked against :data:`EXPECTATION_IMAG_TOL`,
    as :func:`expectation` checks it.
    """
    evals, _ = plan.factorization()
    perm, m_t = plan.reversal(t)
    dim = evals.size
    # rows: sum_j x_j and sum_j L_pi,j x_j over a (dim, K) array x
    weights = np.stack((np.ones(dim), evals[perm].ravel()))
    chunk = max(1, CURVE_CHUNK_BYTES // (80 * dim))
    coeffs = [plan.coefficients(s) for s in starts]
    # each group starts at its first index and spans fewer than K grid indices
    cuts = [0]
    seen = np.zeros(chunk, dtype=bool)
    while cuts[-1] < indices.size:
        lo = cuts[-1]
        cuts.append(int(np.searchsorted(indices, indices[lo] + chunk)))
        seen[indices[lo:cuts[-1]] - indices[lo]] = True
    residues = np.flatnonzero(seen)
    table = _phases(evals, step * residues)
    a = np.empty((len(starts), indices.size))
    b = np.empty((len(starts), indices.size))
    for lo, hi in zip(cuts, cuts[1:]):
        group = indices[lo:hi]
        base = group[0]
        shift = _phases(evals, step * base)
        # the table's columns for this group, shared by every start state
        phases = np.take(table, np.searchsorted(residues, group - base), axis=-1)
        for i, c0 in enumerate(coeffs):
            sums = _reversal_sums(perm, m_t, weights, phases * (shift * c0)[..., None])
            residue = max(np.max(np.abs(sums[0].imag)), np.max(np.abs(sums[1].real)))
            if residue > EXPECTATION_IMAG_TOL:
                raise InternalInconsistencyError(
                    f"Hermitian expectation has imaginary residue {residue:.3e}")
            b[i, lo:hi] = sums[0].real
            a[i, lo:hi] = -sums[1].imag
    return a, b


def _phases(evals: np.ndarray, taus) -> np.ndarray:
    """exp(-i L tau) for every eigenvalue and each tau: shape evals.shape +
    np.shape(taus)."""
    phases = np.zeros(evals.shape + np.shape(taus), dtype=complex)
    np.multiply.outer(evals, -taus, out=phases.imag)
    return np.exp(phases, out=phases)


def _reversal_sums(perm: np.ndarray, m_t: np.ndarray, weights: np.ndarray,
                   phi: np.ndarray) -> np.ndarray:
    """sum_j w_j conj(phi_pi)_j (M_T phi)_j for each row w of ``weights``
    (over the 2**n block-eigenbasis entries) and each column of a complex
    (2**r, k, K) array ``phi``: a complex (len(weights), K) array.  Its two
    work arrays go on return, so a chunk never holds more than five: these
    two, ``phi``, its phases and the phase table of :func:`reversal_curves`."""
    pair = phi[perm]
    np.conjugate(pair, out=pair)
    pair *= _apply_blocks(m_t, phi)
    return (weights @ pair.reshape(weights.shape[1], -1).view(float)).view(complex)

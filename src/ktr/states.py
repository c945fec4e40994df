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
(:func:`ktr.gevp.sector_basis`): the abelian group of
:func:`ktr.symmetry.commutant`, r generators, makes H block-diagonal in the
orbit x character basis of :class:`ktr.gevp.SectorBasis`, 2**r blocks of
k = 2**(n - r), and each block has its own cached eigenfactorization
H_b = Q_b L_b Q_b+; this module reads only the basis's flat block indices
and its shape (2**r, k).  A state enters that basis by a gather into
orbits and an orthonormal Walsh-Hadamard transform over each orbit,
applied as two small factors, so no matrix above O(2**n) entries is built;
it leaves by the same transform and a scatter.  Its reach is the set of
blocks where its coordinates exceed the rounding of that transform
(:attr:`ktr.gevp.SectorBasis.rounding_bound`).  A symmetry-projected start
state reaches only some (the plus state one, gauge-exact's projected start
state 32 of 64), and the plan factorizes a block only when a state reaches
it, in one batched ``eigh`` per fill.  Evolution and the curves below touch
reached blocks alone, and the weight dropped with the unreached ones is
reported.  A group with no generators is one block of 2**n, the dense
eigenfactorization.  Real H (every string with an even number of Y factors,
as in every model chain) gives float64 blocks and eigenvectors, which act
on the real and the imaginary part of the coefficients at once; a term with
an odd number of Y factors runs the same code in complex128.  States above
:data:`ktr.paulis.STATE_QUBIT_CAP` qubits are refused with
:class:`ResourceLimitError` before anything is allocated.

An involution T that anticommutes with H maps block b onto a block pi(b)
by a signed permutation P_b (:meth:`ktr.gevp.SectorBasis.image`), so
H_pi(b) = -P_b H_b P_b+, and a plan built with T pairs its eigenvectors
exactly (:meth:`EvolutionPlan.reversal`): T q_j = s_j q_p(j), with a sign
s_j = +-1 and L_p(j) = -L_j bit for bit.  A pair of blocks pi(b) != b takes
one ``eigh``, and a block that T keeps the SVD of H_b on the +-1
eigenvectors of P_b (the Jordan-Wielandt form; Golub & Van Loan, Matrix
Computations, section 8.6).  :func:`reversal_curves` then reads
<v(tau)|T|v(tau)> and <v(tau)|iHT|v(tau)>, v(tau) = exp(-i tau H)|v>, as one
weighted phase sum over the eigen-entries its start states reach, and
builds no amplitude vector.

All values are immutable after construction and no operation has a visible
side effect, so states and plans can be shared freely across threads.  Four
caches fill on first use, each with read-only arrays that any thread
computes bit for bit the same: the compiled actions, as in
:meth:`ktr.paulis.PauliSum.compiled`; an exact plan's factorization and,
with T, its pairing, filled block by block under a lock and handed out as
read-only views, a filled block never written again; its memo of the reach
and the block eigen-coefficients Q_b+ s of each start state s, in the block
shape and zero off the reach, so that a later evolution of s costs one
phase, one batched product over the reached blocks, the inverse transform
and a scatter; and a ``trotter2`` plan's merged step per step size dt (one
entry per grid increment, 16 B * 2**n per off-diagonal term and per Z
run).  The memo holds its states weakly and keeps nothing alive that the
caller has dropped.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass
import numpy as np

from .errors import InternalInconsistencyError, NotTimeReversalError
from .gevp import block_dtype, sector_basis
from .paulis import PauliString, PauliSum, apply_action, check_state_qubits
from .symmetry import verify_time_reversal
# no caller here, but the benchmark tracer wraps ktr.states.dense_matrix
from .paulis import dense_matrix  # noqa: F401

#: absolute imaginary residue tolerated in a Hermitian expectation
EXPECTATION_IMAG_TOL = 1e-12

#: relative Frobenius tolerance for the self-check of each block's
#: eigenfactorization, the blocks derived from a partner under T included
FACTORIZATION_TOL = 1e-10

#: bound on the work arrays of one chunk of :func:`reversal_curves`, which
#: takes K = CURVE_CHUNK_BYTES // (80 * 2**n) samples at a time (at least
#: one): its phase table and one group's columns of it, two complex (d, K)
#: arrays for d <= 2**n eigen-entries, take 2/5 of it, and the weights fit in
#: the rest, so memory does not grow with the number of samples
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


def check_steps_per_unit(steps_per_unit) -> int:
    """The ``trotter2`` step count as an int, refused unless it is integral
    and at least 1 (None included)."""
    if (steps_per_unit is None or not float(steps_per_unit).is_integer()
            or steps_per_unit < 1):
        raise ValueError("trotter2 mode needs an integral steps_per_unit >= 1")
    return int(steps_per_unit)


def plus_state(n: int) -> StateVector:
    check_state_qubits(n)
    return StateVector(n, np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex))


def apply_pauli_to_array(amps: np.ndarray, p: PauliString) -> np.ndarray:
    """Low-level Pauli action on a raw 1-D amplitude array."""
    if amps.shape != (2 ** p.n,):
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
    return float(_real(matrix_element(s, o, s)))


def _real(values):
    """The real part of Hermitian expectations, each imaginary residue
    checked against :data:`EXPECTATION_IMAG_TOL`."""
    residue = np.max(np.abs(np.imag(values)))
    if residue > EXPECTATION_IMAG_TOL:
        raise InternalInconsistencyError(
            f"Hermitian expectation has imaginary residue {residue:.3e}")
    return np.real(values)


class EvolutionPlan:
    """Reusable strategy for evolving states under one Hamiltonian H, and
    the one carrier of H and of an optional involution ``t``, checked here
    in both modes to anticommute with H: every pencil route reads both from
    the plan, and a time-reversal route refuses a plan without T
    (:meth:`involution`).

    ``exact`` mode builds the sector basis with the plan (more than
    :data:`ktr.paulis.DENSE_QUBIT_CAP` qubits are refused there, before
    anything is allocated) and factorizes a block (H_b = Q_b L_b Q_b+) only
    when some state reaches it: the plan memoizes, keyed weakly by the state
    object, the reach of each state s it evolves (the blocks where the sector
    coordinates of s exceed :attr:`ktr.gevp.SectorBasis.rounding_bound`) and
    its eigen-coefficients Q_b+ s, zero off those blocks, so evolving one start
    state to many times pays for the basis change and Q_b+ once; an entry is
    read-only and goes when its state is collected.  The blocks a state does
    not reach are dropped, and the largest weight so dropped is
    :attr:`dropped_weight`.  Built with T, it fills blocks in pairs
    {b, pi(b)} and pairs their eigenvectors under T (:meth:`reversal`);
    built without, it computes no image.  Filled blocks never change: fills
    run under one lock and write blocks no reader has been handed, and the
    arrays handed out are read-only views, so concurrent evolutions may share
    them.  ``trotter2`` mode builds no basis and applies the symmetric
    second-order splitting of :meth:`merged_step`: one ``evolve`` over an
    increment dtau takes ceil(|dtau| * steps_per_unit) equal steps.  A step
    count that fails :func:`check_steps_per_unit` is refused, and so is None
    by :meth:`trotter2` (here it makes an exact plan).
    """

    def __init__(self, h: PauliSum, steps_per_unit: int | None = None,
                 t: PauliString | None = None):
        if t is not None and not verify_time_reversal(t, h):
            raise NotTimeReversalError("T is not an anticommuting Hermitian involution of H")
        self.h = h
        # a step count is what makes a trotter2 plan
        self.mode = "exact" if steps_per_unit is None else "trotter2"
        self.steps_per_unit = None if steps_per_unit is None else check_steps_per_unit(steps_per_unit)
        self.t = t
        # guards every fill of the exact-mode caches below
        self._lock = threading.RLock()
        if self.mode == "exact":
            self._basis = sector_basis(h)
            shape = self._basis.shape
            # pi, and per column of each block its row in pi(b) and its sign;
            # without T, pi alone, which keeps every block in place
            self._image = ((np.arange(shape[0]),) if t is None
                           else self._basis.image(t, range(shape[0])))
            dtype = np.result_type(block_dtype(h), *self._image[2:])
            # read-only views of every block, zero where not filled: evals and
            # evecs, then (with T) the flat partner index and sign per entry
            self._arrays = tuple(_read_only(np.zeros(size, kind)) for size, kind in (
                (shape, float), (shape + shape[1:], dtype), (shape, np.int64), (shape, float)))
            self._filled = np.zeros(shape[0], dtype=bool)
        # (reach, Q_b+ s zero off the reach) per evolved state s, dropped with s
        self._coefficients: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._dropped = 0.0
        # the operations of one step per step size dt (trotter2 mode)
        self._steps: dict[float, tuple] = {}

    @classmethod
    def exact(cls, h: PauliSum, t: PauliString | None = None) -> "EvolutionPlan":
        return cls(h, t=t)

    @classmethod
    def trotter2(cls, h: PauliSum, steps_per_unit: int,
                 t: PauliString | None = None) -> "EvolutionPlan":
        # None would make an exact plan
        return cls(h, check_steps_per_unit(steps_per_unit), t)

    def involution(self) -> PauliString:
        """The plan's T, which every time-reversal route reads from here."""
        if self.t is None:
            raise NotTimeReversalError("the plan was built without an anticommuting involution T")
        return self.t

    @property
    def dropped_weight(self) -> float:
        """The largest squared norm of the sector coordinates dropped from one
        state as unreached, relative to the state's own, over every state
        this plan has taken coefficients of (0.0 before any)."""
        return self._dropped

    def factorization(self, blocks=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (2**r, k) and eigenvectors (2**r, k, k) of the
        symmetry blocks of H, read-only (exact mode).

        ``blocks`` (a slice, int array or boolean mask over the 2**r blocks;
        default all), and with T their images, are factorized if they are
        not yet, in one fill: one batched ``eigh`` of those blocks alone (with
        T, of one block of each pair b != pi(b), and an SVD per block that T
        keeps), each checked, derived ones included, to reproduce itself
        within :data:`FACTORIZATION_TOL`.  Blocks never asked for are zero."""
        if self.mode != "exact":
            raise ValueError("factorization needs an exact plan, not a trotter2 one")
        with self._lock:
            wanted = np.zeros(self._filled.size, dtype=bool)
            wanted[blocks] = True
            # with T the unit of a fill is the pair {b, pi(b)}
            new = np.flatnonzero((wanted | wanted[self._image[0]]) & ~self._filled)
            if new.size:
                assembled = self._basis.blocks(self.h, new)
                filled = np.linalg.eigh(assembled) if self.t is None else self._pair(new, assembled)
                evals, evecs = filled[:2]
                residual = np.linalg.norm(
                    (evecs * evals[:, None, :]) @ evecs.conj().transpose(0, 2, 1) - assembled,
                    axis=(1, 2))
                scale = np.maximum(np.linalg.norm(assembled, axis=(1, 2)), 1.0)
                worst = int(np.argmax(residual / scale))
                if residual[worst] > FACTORIZATION_TOL * scale[worst]:
                    raise InternalInconsistencyError(
                        f"eigenfactorization residual {residual[worst]:.3e} of block "
                        f"{int(new[worst])} exceeds tolerance")
                # a fill writes the bases of the read-only views handed out
                for view, values in zip(self._arrays, filled):
                    view.base[new] = values
                self._filled[new] = True
            return self._arrays[:2]

    def _pair(self, new: np.ndarray, assembled: np.ndarray) -> tuple:
        """The four arrays of :meth:`reversal` and :meth:`factorization` on
        the sorted, pi-closed blocks ``new``, H assembled on them."""
        perm, rows, signs = self._image
        k = assembled.shape[-1]
        evals, evecs = (np.zeros((new.size,) + view.shape[1:], view.dtype)
                        for view in self._arrays[:2])
        # T maps column j of b to column j of pi(b), sign 1, unless pi(b) = b
        partner, sign = perm[new][:, None] * k + np.arange(k), np.ones(evals.shape)
        # H_pi(b) = -P_b H_b P_b+, so L_pi(b) = -L_b and Q_pi(b) = P_b Q_b
        at = np.flatnonzero(new < perm[new])
        to = np.searchsorted(new, perm[new[at]])
        if at.size:
            evals[at], evecs[at] = np.linalg.eigh(assembled[at])
            evals[to] = -evals[at]
            evecs[to[:, None], rows[new[at]]] = signs[new[at]][..., None] * evecs[at]
        for i in np.flatnonzero(new == perm[new]):
            evals[i], evecs[i], columns, sign[i] = _jordan_wielandt(
                assembled[i], rows[new[i]], signs[new[i]])
            partner[i] = new[i] * k + columns
        return evals, evecs, partner, sign

    def coefficients(self, s: StateVector) -> tuple[np.ndarray, np.ndarray]:
        """The reach of s, a read-only boolean mask over the blocks, and its
        block eigen-coefficients Q_b+ s, shape (2**r, k), read-only and zero
        off the reach (exact mode, memoized per state).

        A block is reached when the norm of its sector coordinates
        (:meth:`ktr.gevp.SectorBasis.to_sectors`, the same norm as that of
        Q_b+ s) exceeds :attr:`ktr.gevp.SectorBasis.rounding_bound` times the
        norm of s, so only reached blocks (and with T their images) are
        factorized."""
        if self.mode != "exact":
            raise ValueError("coefficients needs an exact plan, not a trotter2 one")
        entry = self._coefficients.get(s)
        if entry is None:
            coords = self._basis.to_sectors(s.amps)
            norms = np.linalg.norm(coords, axis=1)
            size = s.norm
            # written so that a NaN block counts as reached and stays visible
            reach = ~(norms <= self._basis.rounding_bound * size)
            rows = np.flatnonzero(reach)
            evecs = self.factorization(rows)[1][rows]
            coeffs = np.zeros(coords.shape, dtype=complex)
            coeffs[rows] = _apply_blocks(evecs.conj().transpose(0, 2, 1), coords[rows])
            dropped = float(np.sum(norms[~reach] ** 2)) / size ** 2 if size > 0.0 else 0.0
            with self._lock:
                entry = self._coefficients.setdefault(s, (_read_only(reach), _read_only(coeffs)))
                self._dropped = max(self._dropped, dropped)
        return entry

    def reversal(self, blocks=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The plan's T in the block eigenbasis (exact mode): T q_j = s_j q_p(j)
        for each eigen-entry j = b * k + column, as the flat partner index
        p(j) and the sign s_j = +-1, both (2**r, k) and read-only, with
        L_p(j) = -L_j bit for bit, p(p(j)) = j and s_p(j) s_j = 1; filled
        with the factorization of ``blocks`` (as there) and their images,
        zero on blocks never asked for."""
        self.involution()
        self.factorization(blocks)
        return self._arrays[2:]

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
                coef = _read_only(-1j * math.sin(theta) * diag)
                half.append((False, (math.cos(theta), coef, src)))
            ops = []
            for diagonal, run in itertools.groupby(half + half[::-1], lambda term: term[0]):
                if diagonal:
                    ops.append(_read_only(np.exp(-1j * sum(angle for _, angle in run))))
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; the base stays writable for the fills."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _apply_blocks(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[b] @ vecs[b] for every block b of a complex (blocks, k) array.

    A real ``mats`` acts on the float view of ``vecs``, whose (re, im) pairs
    form two columns: numpy would otherwise copy it to complex128 on every
    call."""
    columns = np.ascontiguousarray(vecs)[..., None]
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
    to many times builds up no rounding; the reach of s and its block
    eigen-coefficients Q_b+ s come from the plan's memo after the first
    call on s, and each call then costs the phases and one batched block
    product on the reached blocks, the inverse Walsh-Hadamard transform and
    a scatter back to amplitudes.
    """
    if plan.h.n != s.n:
        raise ValueError(f"qubit counts differ: {plan.h.n} vs {s.n}")
    if t == 0.0:
        return s
    if plan.mode == "exact":
        reach, coeffs = plan.coefficients(s)
        rows = np.flatnonzero(reach)
        evals, evecs = plan.factorization(rows)
        coords = np.zeros(evals.shape, dtype=complex)
        coords[rows] = _apply_blocks(evecs[rows], np.exp(-1j * t * evals[rows]) * coeffs[rows])
        return StateVector(s.n, plan._basis.to_amplitudes(coords))
    steps = max(1, math.ceil(abs(t) * plan.steps_per_unit))
    ops = plan.merged_step(t / steps)
    amps = s.amps
    for _ in range(steps):
        amps = _trotter_step(amps, ops)
    return StateVector(s.n, amps)


def reversal_curves(plan: EvolutionPlan, starts: list[StateVector], step: float,
                    indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<v(tau)| iHT |v(tau)> and <v(tau)| T |v(tau)> at tau = k * step for
    each k of the sorted int array ``indices``, for each v in ``starts``:
    two (len(starts), len(indices)) arrays.

    The exact curves of the plan's T.  With c0 = Q+ v, the pairing
    T q_j = s_j q_p(j) of :meth:`EvolutionPlan.reversal` and
    w_j = s_j conj(c0_p(j)) c0_j, they are b = sum w_j exp(-2i L_j tau) and
    a = -i sum L_j w_j exp(-2i L_j tau): terms j and p(j) are complex
    conjugates, so both are real up to rounding, and each imaginary residue
    is checked against :data:`EXPECTATION_IMAG_TOL`.  The weights run over
    the d entries of the blocks that some start reaches (w_j is zero unless
    a start reaches j and p(j)).  The indices run in groups of a chunk of K
    samples (:data:`CURVE_CHUNK_BYTES`): a group starts at its first index k0
    and holds every later index below k0 + K, and its phases are columns of
    one table exp(-2i L r step) per call, over the offsets r below the widest
    group's span, times one shift exp(-2i L k0 step) on the weights: a call
    takes d * (span + groups) complex exponentials, and the five-point
    windows of a derivative stencil (20 samples per step at n = 10) make a
    group each, all sharing five table columns.
    """
    entries = [plan.coefficients(s) for s in starts]
    reach = np.logical_or.reduce([reached for reached, _ in entries])
    rows = np.flatnonzero(reach)
    partner, signs = (x[rows].ravel() for x in plan.reversal(reach))
    evals = plan.factorization(rows)[0][rows].ravel()
    # w of every start, then -i L w: the real parts of their sums are b and
    # a, the imaginary parts residue
    weights = np.array([signs * np.conjugate(c0.ravel()[partner]) * c0[rows].ravel()
                        for _, c0 in entries])
    weights = np.concatenate((weights, -1j * evals * weights))
    chunk = max(1, CURVE_CHUNK_BYTES // (80 * 2 ** plan.h.n))
    # each group starts at its first index and spans fewer than K grid indices
    cuts = [0]
    while cuts[-1] < indices.size:
        cuts.append(int(np.searchsorted(indices, indices[cuts[-1]] + chunk)))
    span = max((indices[hi - 1] - indices[lo] + 1 for lo, hi in zip(cuts, cuts[1:])), default=0)
    table = _phases(evals, 2.0 * step * np.arange(span))
    a, b = np.empty((2, len(starts), indices.size))
    for lo, hi in zip(cuts, cuts[1:]):
        group = indices[lo:hi]
        sums = (weights * _phases(evals, 2.0 * step * group[0])) @ np.take(
            table, group - group[0], axis=-1)
        b[:, lo:hi], a[:, lo:hi] = np.split(_real(sums), 2)
    return a, b


def _phases(evals: np.ndarray, taus) -> np.ndarray:
    """exp(-i L tau) for every eigenvalue and each tau: shape evals.shape +
    np.shape(taus)."""
    phases = np.zeros(evals.shape + np.shape(taus), dtype=complex)
    np.multiply.outer(evals, -taus, out=phases.imag)
    return np.exp(phases, out=phases)


def _jordan_wielandt(h_b: np.ndarray, rows: np.ndarray, signs: np.ndarray) -> tuple:
    """Eigenvalues, eigenvectors, partner columns and signs of a block that
    T maps to itself, as :meth:`EvolutionPlan.reversal` pairs them.

    T acts there as P, column j to row ``rows[j]`` times ``signs[j]``, with
    P = P+, P**2 = I and PH = -HP.  Its +1 and -1 eigenvectors W+ and W- are
    (e_j +- s_j e_l) / sqrt 2 on its 2-cycles and e_j on its fixed points, at
    most two entries a column, so C = W+^+ H_b W- in H_b = [[0, C], [C+, 0]]
    is gathered, not multiplied.  For C = U S V+, (W+ u +- W- v) / sqrt 2 are
    eigenvectors at +-sigma that P swaps (sign 1); the columns of U or V
    past the smaller side of C are zero modes that P keeps, at their side's
    sign."""
    k, half = rows.size, math.sqrt(0.5)
    lead = np.flatnonzero(np.arange(k) <= rows)
    other, sign = rows[lead], signs[lead]
    cycle = lead != other
    first, second = np.where(cycle, half, 1.0), half * cycle * sign
    # each column of W+ and of W-: f at row j and g at row l
    (j, l, f, g), (jm, lm, fm, gm) = sides = [
        (lead[keep], other[keep], first[keep], side * second[keep])
        for side, keep in ((1.0, cycle | (sign.real > 0)), (-1.0, cycle | (sign.real < 0)))]
    h_minus = h_b[:, jm] * fm + h_b[:, lm] * gm
    u, sigma, vh = np.linalg.svd(f[:, None] * h_minus[j] + np.conjugate(g)[:, None] * h_minus[l])
    wu, wv = (np.zeros((k, x.shape[0]), np.result_type(second, x)) for x in (u, vh))
    # W+ u and W- v: a row of the block lies in at most one column of a side
    for (j, l, f, g), out, coeffs in zip(sides, (wu, wv), (u, vh.conj().T)):
        out[j] = f[:, None] * coeffs
        out[l] += g[:, None] * coeffs
    m = sigma.size
    evecs = np.concatenate(((wu[:, :m] + wv[:, :m]) * half, (wu[:, :m] - wv[:, :m]) * half,
                            wu[:, m:], wv[:, m:]), axis=1)
    evals = np.concatenate((sigma, -sigma, np.zeros(k - 2 * m)))
    columns = np.concatenate((np.arange(m, 2 * m), np.arange(m), np.arange(2 * m, k)))
    return evals, evecs, columns, np.repeat([1.0, -1.0], [u.shape[0] + m, vh.shape[0] - m])

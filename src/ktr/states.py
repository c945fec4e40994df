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

An involution T that anticommutes with H maps each symmetry block onto
another, so in the block eigenbasis it is M_T[b] = Q_pi(b)+ P_T Q_b for a
block permutation pi, cached per involution by
:meth:`EvolutionPlan.reversal` from :meth:`ktr.gevp.SectorBasis.image`:
pi(b), and per column of block b its row in pi(b) and its sign.
:func:`reversal_curves` reads <v(tau)|T|v(tau)> and <v(tau)|iHT|v(tau)> for
v(tau) = exp(-i tau H)|v> from there: with phi(tau) = exp(-i L tau) Q+ v,
they are sum conj(phi_pi) . (M_T phi) and i sum L_pi conj(phi_pi) . (M_T
phi), and no amplitude vector is built.  A block b adds to them only if
phi is nonzero on b or on pi(b), so the sums run over the blocks its start
states reach and their images, and M_T is built on those alone.  It
evaluates only the grid indices k (tau = k * step) a route asks for, in
groups of fewer than K consecutive grid indices (the chunk size), each
starting at its own first index k0, and takes their phases from one table
exp(-i L r step) per call over the offsets r = k - k0 below the widest
group's span, times one shift exp(-i L k0 step) per group.

All values are immutable after construction and no operation has a visible
side effect, so states and plans can be shared freely across threads.  Four
caches fill on first use, each with read-only arrays that any thread
computes bit for bit the same: the compiled actions, as in
:meth:`ktr.paulis.PauliSum.compiled`; an exact plan's factorization and its
M_T per involution T, filled block by block under a lock and handed out as
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

from .errors import InternalInconsistencyError
from .gevp import block_dtype, sector_basis
from .paulis import PauliString, PauliSum, apply_action, check_state_qubits
# no caller here, but the benchmark tracer wraps ktr.states.dense_matrix
from .paulis import dense_matrix  # noqa: F401

#: absolute imaginary residue tolerated in a Hermitian expectation
EXPECTATION_IMAG_TOL = 1e-12

#: relative Frobenius tolerance for the self-check of each block's
#: eigenfactorization, and of M_T[pi] M_T = I (T**2 = I) in the block eigenbasis
FACTORIZATION_TOL = 1e-10

#: bound on the work arrays of one chunk of :func:`reversal_curves`: five
#: complex (d, K) arrays for the d <= 2**n block entries it reads, the phase
#: table of at most K columns among them, K = CURVE_CHUNK_BYTES // (80 * 2**n)
#: samples (at least one, and fewer if the blocks it copies leave less room),
#: so memory does not grow with the number of samples
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
    :attr:`dropped_weight`.  For each anticommuting involution T it caches the
    block permutation pi and M_T of :meth:`reversal`, filled on the blocks
    asked for and their images.  Filled blocks never change: fills run under
    one lock and write blocks no reader has been handed, and the arrays handed
    out are read-only views, so concurrent evolutions may share them.
    ``trotter2`` mode builds no basis and applies the symmetric second-order
    splitting of :meth:`merged_step`: one ``evolve`` over an increment dtau
    takes ceil(|dtau| * steps_per_unit) equal steps.
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
        # guards every fill of the exact-mode caches below
        self._lock = threading.RLock()
        if mode == "exact":
            self._basis = sector_basis(h)
            shape = self._basis.shape
            # read-only views (evals, evecs) of every block, zero where not filled
            self._factorization = (_read_only(np.zeros(shape)),
                                   _read_only(np.zeros(shape + shape[1:], block_dtype(h))))
            self._filled = np.zeros(shape[0], dtype=bool)
        # (reach, Q_b+ s zero off the reach) per evolved state s, dropped with s
        self._coefficients: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._dropped = 0.0
        # (pi, rows, signs, M_T, filled) per involution T
        self._reversals: dict[PauliString, tuple] = {}
        # the operations of one step per step size dt (trotter2 mode)
        self._steps: dict[float, tuple] = {}

    @classmethod
    def exact(cls, h: PauliSum) -> "EvolutionPlan":
        return cls(h, mode="exact")

    @classmethod
    def trotter2(cls, h: PauliSum, steps_per_unit: int) -> "EvolutionPlan":
        return cls(h, mode="trotter2", steps_per_unit=steps_per_unit)

    @property
    def dropped_weight(self) -> float:
        """The largest squared norm of the sector coordinates dropped from one
        state as unreached, relative to the state's own, over every state
        this plan has taken coefficients of (0.0 before any)."""
        return self._dropped

    def factorization(self, blocks=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (2**r, k) and eigenvectors (2**r, k, k) of the
        symmetry blocks of H, read-only.

        ``blocks`` (a slice, int array or boolean mask over the 2**r blocks;
        default all) are factorized if they are not yet: one batched ``eigh``
        of those blocks alone, each checked to reproduce itself within
        :data:`FACTORIZATION_TOL`.  Blocks never asked for are zero in both
        arrays."""
        with self._lock:
            wanted = np.arange(self._filled.size)[blocks]
            wanted = wanted[~self._filled[wanted]]
            if wanted.size:
                assembled = self._basis.blocks(self.h, wanted)
                evals, evecs = np.linalg.eigh(assembled)
                residual = np.linalg.norm(
                    (evecs * evals[:, None, :]) @ evecs.conj().transpose(0, 2, 1) - assembled,
                    axis=(1, 2))
                scale = np.maximum(np.linalg.norm(assembled, axis=(1, 2)), 1.0)
                worst = int(np.argmax(residual / scale))
                if residual[worst] > FACTORIZATION_TOL * scale[worst]:
                    raise InternalInconsistencyError(
                        f"eigenfactorization residual {residual[worst]:.3e} of block "
                        f"{int(wanted[worst])} exceeds tolerance")
                # a fill writes the bases of the read-only views handed out
                for view, values in zip(self._factorization, (evals, evecs)):
                    view.base[wanted] = values
                self._filled[wanted] = True
            return self._factorization

    def coefficients(self, s: StateVector) -> tuple[np.ndarray, np.ndarray]:
        """The reach of s, a read-only boolean mask over the blocks, and its
        block eigen-coefficients Q_b+ s, shape (2**r, k), read-only and zero
        off the reach (exact mode, memoized per state).

        A block is reached when the norm of its sector coordinates
        (:meth:`ktr.gevp.SectorBasis.to_sectors`, the same norm as that of
        Q_b+ s) exceeds :attr:`ktr.gevp.SectorBasis.rounding_bound` times the
        norm of s, so only reached blocks are factorized."""
        entry = self._coefficients.get(s)
        if entry is None:
            coords = self._basis.to_sectors(s.amps)
            norms = np.linalg.norm(coords, axis=1)
            size = s.norm
            # written so that a NaN block counts as reached and stays visible
            reach = ~(norms <= self._basis.rounding_bound * size)
            rows = _rows(reach)
            evecs = self.factorization(rows)[1][rows]
            coeffs = np.zeros(coords.shape, dtype=complex)
            coeffs[rows] = _apply_blocks(evecs.conj().transpose(0, 2, 1), coords[rows])
            dropped = float(np.sum(norms[~reach] ** 2)) / size ** 2 if size > 0.0 else 0.0
            with self._lock:
                entry = self._coefficients.setdefault(s, (_read_only(reach), _read_only(coeffs)))
                self._dropped = max(self._dropped, dropped)
        return entry

    def reversal(self, t: PauliString, blocks=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """An involution T that anticommutes with H in the block eigenbasis
        (exact mode, cached per T): the block permutation pi and
        M_T[b] = Q_pi(b)+ P_T Q_b, shape (2**r, k, k), both read-only, pi and
        the signed permutation P_T from :meth:`ktr.gevp.SectorBasis.image`.
        M_T is filled on ``blocks`` (an index over the blocks as for
        :meth:`factorization`; default all) and their images under pi, and is
        zero on blocks never asked for; each fill is checked to square to the
        identity (:func:`_check_involution`)."""
        with self._lock:
            cached = self._reversals.get(t)
            if cached is None:
                perm, rows, signs = self._basis.image(t, range(self._filled.size))
                shape = self._factorization[1].shape
                m_t = np.zeros(shape, np.result_type(block_dtype(self.h), signs))
                cached = self._reversals[t] = (_read_only(perm), rows, signs, _read_only(m_t),
                                               np.zeros(perm.size, dtype=bool))
            perm, rows, signs, m_t, filled = cached
            wanted = np.zeros(perm.size, dtype=bool)
            wanted[blocks] = True
            wanted |= wanted[perm]
            new = np.flatnonzero(wanted & ~filled)
            if new.size:
                evecs = self.factorization(wanted)[1]
                # P_T Q_b, its rows placed in block pi(b)
                moved = np.zeros((new.size,) + evecs.shape[1:], m_t.dtype)
                moved[np.arange(new.size)[:, None], rows[new]] = signs[new][..., None] * evecs[new]
                adjoint = np.ascontiguousarray(evecs[perm[new]].conj().transpose(0, 2, 1))
                # the read-only view's base, as in factorization
                m_t.base[new] = adjoint @ moved
                _check_involution(perm, m_t, new)
                filled[new] = True
            return perm, m_t

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


def _check_involution(perm: np.ndarray, m_t: np.ndarray, blocks=slice(None)) -> None:
    """Refuse M_T unless pi is an involution and M_T[pi(b)] M_T[b] = I on
    ``blocks`` (an index over the blocks; default all) within
    :data:`FACTORIZATION_TOL` (relative Frobenius)."""
    k = m_t.shape[-1]
    residual = np.linalg.norm(m_t[perm[blocks]] @ m_t[blocks] - np.eye(k),
                              axis=(1, 2)) / math.sqrt(k)
    worst = int(np.argmax(residual))
    if not np.array_equal(perm[perm], np.arange(perm.size)) or residual[worst] > FACTORIZATION_TOL:
        raise InternalInconsistencyError(
            f"involution in the block eigenbasis does not square to the identity "
            f"(residual {residual[worst]:.3e} at block {np.arange(perm.size)[blocks][worst]})")


def _rows(mask: np.ndarray) -> slice | np.ndarray:
    """The blocks of a boolean mask as an index: a slice, which takes views,
    when they are consecutive (all blocks among them), else their indices."""
    blocks = np.flatnonzero(mask)
    if blocks.size == 0:
        return slice(0, 0)
    first, last = int(blocks[0]), int(blocks[-1])
    return slice(first, last + 1) if last - first + 1 == blocks.size else blocks


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; the base stays writable for the fills."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _apply_blocks(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[b] @ vecs[b] for every block b of a complex (blocks, k) or
    (blocks, k, K) array.

    A real ``mats`` acts on the float view of ``vecs``, whose (re, im) pairs
    form twice the columns: numpy would otherwise copy it to complex128 on
    every call."""
    columns = np.ascontiguousarray(vecs).reshape(*vecs.shape[:2], math.prod(vecs.shape[2:]))
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
        rows = _rows(reach)
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


def reversal_curves(plan: EvolutionPlan, t: PauliString, starts: list[StateVector],
                    step: float, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<v(tau)| iHT |v(tau)> and <v(tau)| T |v(tau)> at tau = k * step for
    each k of the sorted int array ``indices``, for each v in ``starts``:
    two (len(starts), len(indices)) arrays.

    The exact curves, for an involution T that anticommutes with H.  Both are
    read in the block eigenbasis from the memoized coefficients c0 = Q+ v,
    with no amplitude vector: phi = exp(-i L tau) c0, then
    sum conj(phi_pi) . (M_T phi) and i sum L_pi conj(phi_pi) . (M_T phi),
    with pi and M_T from :meth:`EvolutionPlan.reversal`.  The sums run over
    the d entries of the blocks that some start reaches, and their images
    under pi: a block outside them has phi zero on it and on its image for
    every start.  When those blocks are consecutive (every block, for one)
    the plan's arrays, c0 among them, are read as views; otherwise L, M_T and
    each c0 on them are copied once per call.  The indices run in groups for
    a chunk of K samples, whose work arrays and copies take at most
    :data:`CURVE_CHUNK_BYTES`: a group starts at its first index k0 and holds
    every later index below k0 + K.  The phases come from one table
    exp(-i L r step) per call, over the offsets r = 0 ... span - 1 of the
    widest group (span <= K), and one shift exp(-i L k0 step) per group, so
    a call takes d * (span + groups) complex exponentials, not
    d * len(indices).  On ``np.arange(m)`` and on the whole fine grid the
    groups are the chunks q = k // K.  Where the five-point windows of a
    derivative stencil lie at least K apart (20 samples per step at n = 10),
    each makes one group and all share five table columns.  The imaginary
    residue of each value is checked against :data:`EXPECTATION_IMAG_TOL`, as
    :func:`expectation` checks it.
    """
    entries = [plan.coefficients(s) for s in starts]
    reach = np.logical_or.reduce([reached for reached, _ in entries])
    perm, m_t = plan.reversal(t, reach)
    # the blocks read: the union of the reaches and their images, which pi
    # permutes; from here on pi, L, M_T and each c0 are taken on them alone
    reach |= reach[perm]
    rows = _rows(reach)
    evals = plan.factorization(rows)[0][rows]
    m_t = m_t[rows]
    coeffs = [c0[rows] for _, c0 in entries]
    # what is copied (blocks not consecutive) counts against the chunk
    copied = 0 if isinstance(rows, slice) else sum(x.nbytes for x in [m_t, evals, *coeffs])
    blocks = np.flatnonzero(reach)
    perm = np.searchsorted(blocks, perm[blocks])
    dim = evals.size
    # rows: sum_j x_j and sum_j L_pi,j x_j over a (dim, K) array x
    weights = np.stack((np.ones(dim), evals[perm].ravel()))
    # K as for every block, so that the groups do not depend on the reach,
    # unless the copies leave less room
    chunk = max(1, min(CURVE_CHUNK_BYTES // (80 * 2 ** plan.h.n),
                       (CURVE_CHUNK_BYTES - copied) // (80 * max(dim, 1))))
    # each group starts at its first index and spans fewer than K grid indices
    cuts = [0]
    while cuts[-1] < indices.size:
        cuts.append(int(np.searchsorted(indices, indices[cuts[-1]] + chunk)))
    span = max((indices[hi - 1] - indices[lo] + 1 for lo, hi in zip(cuts, cuts[1:])), default=0)
    table = _phases(evals, step * np.arange(span))
    a = np.empty((len(starts), indices.size))
    b = np.empty((len(starts), indices.size))
    for lo, hi in zip(cuts, cuts[1:]):
        group = indices[lo:hi]
        base = group[0]
        shift = _phases(evals, step * base)
        # the table's columns for this group, shared by every start state
        phases = np.take(table, group - base, axis=-1)
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
    return (weights @ pair.reshape(weights.shape[1], phi.shape[-1]).view(float)).view(complex)

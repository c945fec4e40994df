"""Construction of involution-stabilized initial states.

A Hermitian involution that factors into blocks, T = T_1 (x) ... (x) T_s,
induces one orthogonal projector per sign pattern alpha in {0,1}^s,

    P_alpha = prod_j (I + (-1)**alpha[j] T_j) / 2,

and projecting any state onto P_alpha yields an eigenstate of T with
eigenvalue (-1)**sum(alpha).  The single-block patterns alpha = (0,) and
(1,) recover the complementary global projectors (I +- T) / 2.

Each factor T_j is held as an n-qubit string, T restricted to its window
(identity elsewhere); the windows are disjoint, so the factors commute and
multiply back to T.  Projections apply the factors' compiled actions to
the amplitudes one at a time, so no dense 2**n x 2**n matrix is ever
formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateProjectionError
from .paulis import PauliString, check_state_qubits
from .states import StateVector, apply_pauli_to_array, plus_state

#: projection probabilities below this are treated as a vanishing projection
PROJECTION_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ProjectorSpec:
    """Blockwise projector: n-qubit involution factors on disjoint supports
    plus a sign pattern."""

    t_blocks: tuple[PauliString, ...]
    alpha: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "t_blocks", tuple(self.t_blocks))
        if any(a not in (0, 1) for a in self.alpha):
            raise ValueError("alpha must be a bit pattern")
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        if not self.t_blocks:
            raise ValueError("need at least one block")
        if len(self.t_blocks) != len(self.alpha):
            raise ValueError("one sign bit per block is required")
        support = 0
        for block in self.t_blocks:
            if block.n != self.n:
                raise ValueError("all blocks must share the qubit count")
            if not block.hermitian():
                raise ValueError(f"block {block!r} is not Hermitian")
            if support & (block.x | block.z):
                raise ValueError("block supports must be disjoint")
            support |= block.x | block.z

    @classmethod
    def blocks_of(cls, t: PauliString, alpha: Sequence[int]) -> "ProjectorSpec":
        """Cut ``t`` into len(alpha) equal contiguous windows, one factor each.

        A factor is ``t`` masked to its window; canonical phases add over
        disjoint supports, so the factors multiply back to ``t`` exactly.
        """
        s = len(alpha)
        if s < 1 or t.n % s != 0:
            raise ValueError(f"cannot split {t.n} qubits into {s} equal blocks")
        if t.phase_exp != t.canonical_phase():
            raise ValueError("only canonical-phase strings can be split")
        size = t.n // s
        windows = [((1 << size) - 1) << (t.n - (j + 1) * size) for j in range(s)]
        return cls(tuple(PauliString.from_xz(t.n, t.x & w, t.z & w) for w in windows), alpha)

    @property
    def n(self) -> int:
        return self.t_blocks[0].n

    @property
    def parity(self) -> int:
        """Stabilizer sign (-1)**sum(alpha) of the projected states."""
        return -1 if sum(self.alpha) % 2 else 1


def project_array(amps: np.ndarray, spec: ProjectorSpec) -> np.ndarray:
    """Unnormalized P|phi> on raw amplitudes, one factor at a time."""
    work = amps
    for block, flip in zip(spec.t_blocks, spec.alpha):
        sign = -1.0 if flip else 1.0
        work = 0.5 * (work + sign * apply_pauli_to_array(work, block))
    return work


def project(phi: StateVector, spec: ProjectorSpec) -> StateVector:
    """Normalized projection of ``phi``, a state with T|v> = ``spec.parity`` |v>
    for T the product of the blocks; fails on a vanishing projection."""
    if phi.n != spec.n:
        raise ValueError(f"qubit counts differ: {phi.n} vs {spec.n}")
    work = project_array(phi.amps, spec)
    prob = float(np.vdot(work, work).real)
    if prob < PROJECTION_PROB_FLOOR:
        raise DegenerateProjectionError(
            f"projection probability {prob:.3e} is numerically zero")
    return StateVector(phi.n, work / math.sqrt(prob))


def enumerate_local_projectors(t_blocks: Sequence[PauliString]) -> list[ProjectorSpec]:
    """All 2**s sign patterns over the s given factors, in binary order."""
    return [ProjectorSpec(t_blocks, alpha)
            for alpha in itertools.product((0, 1), repeat=len(t_blocks))]


def build_block_state_w0(r: int) -> StateVector:
    """Block state ((-1)**(r/4) |+..+> + |-+-+..>) / sqrt(2) on r qubits.

    The two components are orthogonal (the first qubit differs), so the
    result is already unit norm.  r must be a multiple of 4 so that the
    state is stabilized by the alternating (Y X)-pattern involution.
    """
    if r < 4 or r % 4 != 0:
        raise ValueError("block size must be a positive multiple of 4")
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    uniform = plus_state(r).amps
    alternating = np.ones(1, dtype=complex)
    for j in range(r):
        alternating = np.kron(alternating, minus if j % 2 == 0 else plus)
    sign = (-1.0) ** (r // 4)
    return StateVector(r, (sign * uniform + alternating) / math.sqrt(2.0))


def build_block_product(r: int, s: int) -> StateVector:
    """s-fold tensor power of the block state, on r*s qubits."""
    check_state_qubits(r * s)
    w0 = build_block_state_w0(r).amps
    amps = w0
    for _ in range(s - 1):
        amps = np.kron(amps, w0)
    return StateVector(r * s, amps)

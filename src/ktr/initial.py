"""Construction of involution-stabilized initial states.

A Hermitian involution that factors into blocks, T = T_1 (x) ... (x) T_s,
induces one orthogonal projector per sign pattern alpha in {0,1}^s,

    P_alpha = prod_j (I + (-1)**alpha[j] T_j) / 2,

and projecting any state onto P_alpha yields an eigenstate of T with
eigenvalue (-1)**sum(alpha).  The single-block patterns alpha = (0,) and
(1,) recover the complementary global projectors (I +- T) / 2.

Projections are applied vectorially, one block at a time, so no dense
2**n x 2**n matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateProjectionError
from .paulis import PauliString, embed, split_blocks
from .states import StateVector, apply_pauli_to_array, plus_state, tensor_states

#: projection probabilities below this are treated as a vanishing projection
PROJECTION_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ProjectorSpec:
    """Blockwise projector: block involutions plus a sign pattern."""

    t_blocks: tuple[PauliString, ...]
    alpha: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "t_blocks", tuple(self.t_blocks))
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        if len(self.t_blocks) != len(self.alpha):
            raise ValueError("one sign bit per block is required")
        if any(a not in (0, 1) for a in self.alpha):
            raise ValueError("alpha must be a bit pattern")
        if sum(b.n for b in self.t_blocks) != self.n:
            raise ValueError("block sizes must sum to the qubit count")
        for block in self.t_blocks:
            if not block.hermitian():
                raise ValueError(f"block {block!r} is not Hermitian")

    @classmethod
    def single_block(cls, t: PauliString, flip: int = 0) -> "ProjectorSpec":
        """Global projector (I + (-1)**flip T) / 2."""
        return cls((t,), (flip,), t.n)

    @classmethod
    def blocks_of(cls, t: PauliString, alpha: Sequence[int]) -> "ProjectorSpec":
        """Split ``t`` into len(alpha) equal contiguous blocks."""
        s = len(alpha)
        if s < 1 or t.n % s != 0:
            raise ValueError(f"cannot split {t.n} qubits into {s} equal blocks")
        blocks = split_blocks(t, [t.n // s] * s)
        return cls(tuple(blocks), tuple(alpha), t.n)

    @property
    def parity(self) -> int:
        """Stabilizer sign (-1)**sum(alpha) of the projected states."""
        return -1 if sum(self.alpha) % 2 else 1

    @property
    def offsets(self) -> tuple[int, ...]:
        out = []
        pos = 0
        for block in self.t_blocks:
            out.append(pos)
            pos += block.n
        return tuple(out)


def project_array(amps: np.ndarray, spec: ProjectorSpec) -> np.ndarray:
    """Unnormalized P|phi> on raw amplitudes, block by block."""
    work = amps
    for offset, block, flip in zip(spec.offsets, spec.t_blocks, spec.alpha):
        sign = -1.0 if flip else 1.0
        reflected = apply_pauli_to_array(work, embed(block, spec.n, offset))
        work = 0.5 * (work + sign * reflected)
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
    """All 2**s sign patterns over the s given blocks, in binary order."""
    blocks = tuple(t_blocks)
    s = len(blocks)
    if s < 1:
        raise ValueError("need at least one block")
    n = sum(b.n for b in blocks)
    specs = []
    for i in range(2 ** s):
        alpha = tuple((i >> (s - 1 - j)) & 1 for j in range(s))
        specs.append(ProjectorSpec(blocks, alpha, n))
    return specs


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
    w0 = build_block_state_w0(r)
    out = w0
    for _ in range(s - 1):
        out = tensor_states(out, w0)
    return out

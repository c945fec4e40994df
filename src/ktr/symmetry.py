"""GF(2) search for anticommuting Hermitian involutions.

Each Hamiltonian term maps to a row ``(f_x | f_z)`` of a parity matrix F,
and a candidate operator maps to a vector ``t = (t_z | t_x)``; note the
component order is reversed with respect to the columns.  The GF(2) inner
product of a row with ``t`` counts anticommuting single-qubit factors mod
2, so the solutions of ``F t = 1`` are exactly the Pauli strings that
anticommute with every term.  The system is XORSAT, solved by Gaussian
elimination; an inconsistent reduced row ``(0 ... 0 | 1)`` is a definitive
certificate that no such operator exists.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .paulis import PauliString, PauliSum, multiply, symplectic_product


@dataclass(frozen=True)
class BitMatrix:
    """Dense 0/1 matrix over GF(2), row-major."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.uint8, copy=True)
        if arr.ndim != 2:
            raise ValueError("BitMatrix needs a 2-D array")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("entries must be bits")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        return cls(np.array(rows, dtype=np.uint8))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, BitMatrix) and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.data.shape, self.data.tobytes()))


def rref(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form over GF(2) with the pivot column list."""
    a = m.data.copy()
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        a[others] ^= a[r]
        pivots.append(c)
        r += 1
    return BitMatrix(a), tuple(pivots)


def build_parity_matrix(h: PauliSum) -> BitMatrix:
    """One row (f_x | f_z) per non-identity term with nonzero coefficient.

    Identity terms only shift the spectrum and cannot anticommute with
    anything, so they are stripped with a warning.
    """
    rows = []
    skipped = 0
    for coeff, string in h.terms:
        if coeff == 0.0:
            continue
        if string.is_identity_support():
            skipped += 1
            continue
        rows.append(string.x + string.z)
    if skipped:
        warnings.warn(
            f"ignored {skipped} identity term(s) while encoding the parity matrix",
            stacklevel=2)
    if not rows:
        raise ValueError("Hamiltonian has no non-identity terms to encode")
    return BitMatrix.from_rows(rows)


@dataclass(frozen=True)
class Infeasible:
    """Certificate that F t = 1 has no solution over GF(2)."""

    witness_row: int  # index of the (0 ... 0 | 1) row in the reduced system


@dataclass(frozen=True)
class SymmetrySolution:
    """Affine solution space of F t = 1, in (t_z | t_x) layout."""

    particular: np.ndarray
    nullspace_basis: tuple[np.ndarray, ...]
    n: int

    def __post_init__(self):
        part = np.array(self.particular, dtype=np.uint8, copy=True)
        part.flags.writeable = False
        object.__setattr__(self, "particular", part)
        basis = []
        for vec in self.nullspace_basis:
            v = np.array(vec, dtype=np.uint8, copy=True)
            v.flags.writeable = False
            basis.append(v)
        object.__setattr__(self, "nullspace_basis", tuple(basis))

    @property
    def count(self) -> int:
        return 2 ** len(self.nullspace_basis)

    def vectors(self, limit: int | None = None) -> Iterator[np.ndarray]:
        """Enumerate solution vectors, particular solution first."""
        total = self.count if limit is None else min(self.count, limit)
        for k in range(total):
            vec = self.particular.copy()
            for i, basis_vec in enumerate(self.nullspace_basis):
                if (k >> i) & 1:
                    vec ^= basis_vec
            yield vec

    def solutions(self, limit: int | None = None) -> Iterator[PauliString]:
        for vec in self.vectors(limit):
            yield decode_t(vec, self.n)


def solve_time_reversal(h: PauliSum) -> SymmetrySolution | Infeasible:
    """Solve F t = 1 over GF(2) for the full affine solution space."""
    parity = build_parity_matrix(h)
    width = parity.cols
    augmented = BitMatrix(np.hstack([parity.data, np.ones((parity.rows, 1), dtype=np.uint8)]))
    reduced, pivots = rref(augmented)
    if pivots and pivots[-1] == width:
        return Infeasible(witness_row=len(pivots) - 1)
    particular = np.zeros(width, dtype=np.uint8)
    for row_idx, col in enumerate(pivots):
        particular[col] = reduced.data[row_idx, width]
    free_cols = [c for c in range(width) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = np.zeros(width, dtype=np.uint8)
        vec[free] = 1
        for row_idx, col in enumerate(pivots):
            vec[col] = reduced.data[row_idx, free]
        basis.append(vec)
    return SymmetrySolution(particular, tuple(basis), h.n)


def decode_t(t: Sequence[int] | np.ndarray, n: int) -> PauliString:
    """Decode a (t_z | t_x) vector into the canonical Hermitian string."""
    vec = np.asarray(t, dtype=np.uint8)
    if vec.shape != (2 * n,):
        raise ValueError(f"expected a vector of length {2 * n}")
    return PauliString.from_xz(tuple(vec[n:]), tuple(vec[:n]))


def verify_time_reversal(t: PauliString, h: PauliSum) -> bool:
    """True iff t is a Hermitian involution anticommuting with every term."""
    if t.n != h.n:
        raise ValueError(f"qubit counts differ: {t.n} vs {h.n}")
    if not t.hermitian():
        return False
    square = multiply(t, t)
    if square.weight != 0 or square.phase_exp != 0:
        return False
    return all(symplectic_product(t, string) == 1 for _, string in h.terms)

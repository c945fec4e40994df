"""GF(2) search for anticommuting Hermitian involutions.

Each Hamiltonian term maps to a row ``(f_x | f_z)`` of a parity matrix F,
held as the int ``x << n | z`` over the masks of :mod:`ktr.paulis`, with
column 0 the most significant of the 2n bits.  A candidate operator maps
to the int vector ``t = t_z << n | t_x``; note the component order is
reversed with respect to the columns.  ``popcount(row & t) % 2`` counts
anticommuting single-qubit factors mod 2, so the solutions of ``F t = 1``
are exactly the Pauli strings that anticommute with every term.  The
system is XORSAT, solved by Gaussian elimination; an inconsistent reduced
row ``(0 ... 0 | 1)`` is a definitive certificate that no such operator
exists.

The same elimination with a zero right-hand side gives the commuting
strings, the symmetries of H.  :func:`commutant` keeps their X-type and
Z-type parts, the abelian group on whose sectors exact evolution splits H
(see :mod:`ktr.gevp`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

from .paulis import PauliString, PauliSum, symplectic_product


def rref(rows: Sequence[int], width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form over GF(2) with the pivot column list.

    Each row is an int of ``width`` bits, column 0 the most significant.
    """
    a = list(rows)
    pivots = []
    r = 0
    for c in range(width):
        if r == len(a):
            break
        bit = 1 << (width - 1 - c)
        p = next((i for i in range(r, len(a)) if a[i] & bit), None)
        if p is None:
            continue
        pivot = a[p]
        a[p] = a[r]
        a = [row ^ pivot if row & bit else row for row in a]
        a[r] = pivot
        pivots.append(c)
        r += 1
    return tuple(a), tuple(pivots)


def _nullspace(reduced: Sequence[int], pivots: Sequence[int], width: int) -> tuple[int, ...]:
    """Basis of {t : popcount(row & t) even for every row} from the output of
    :func:`rref`, one vector per free column."""

    def column(c: int) -> int:
        return 1 << (width - 1 - c)

    free_cols = sorted(set(range(width)) - set(pivots))
    return tuple(column(free) + sum(column(c) for row, c in zip(reduced, pivots) if row & column(free))
                 for free in free_cols)


def commutant(h: PauliSum) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """X-type and Z-type symmetry generators of H, as x masks and z masks.

    X**s commutes with a term (x, z) exactly when popcount(s & z) is even and
    Z**r when popcount(r & x) is even, so these are the X-type and the
    Z-type parts of the nullspace of the parity matrix.  Only Z-type strings
    that also commute with every X-type one are kept, so the generators
    commute pairwise; they are independent and carry the sign +1, so the
    group they generate is abelian and does not hold -I.  The x masks come
    in reduced row echelon form (:func:`rref`).  Identity terms give zero
    rows and need no special case.
    """
    n = h.n
    strings = [string for _, string in h.terms]
    x_rows = rref(_nullspace(*rref([p.z for p in strings], n), n), n)[0]
    z_rows = _nullspace(*rref([p.x for p in strings] + list(x_rows), n), n)
    return x_rows, z_rows


def build_parity_matrix(h: PauliSum) -> tuple[int, ...]:
    """One row ``x << n | z`` per non-identity term with nonzero coefficient.

    Identity terms only shift the spectrum and cannot anticommute with
    anything, so they are stripped with a warning.
    """
    rows = []
    skipped = 0
    for coeff, string in h.terms:
        if coeff == 0.0:
            continue
        if not string.x | string.z:
            skipped += 1
            continue
        rows.append(string.x << h.n | string.z)
    if skipped:
        warnings.warn(
            f"ignored {skipped} identity term(s) while encoding the parity matrix",
            stacklevel=2)
    if not rows:
        raise ValueError("Hamiltonian has no non-identity terms to encode")
    return tuple(rows)


@dataclass(frozen=True)
class Infeasible:
    """Certificate that F t = 1 has no solution over GF(2)."""

    witness_row: int  # index of the (0 ... 0 | 1) row in the reduced system


@dataclass(frozen=True)
class SymmetrySolution:
    """Affine solution space of F t = 1, as ``t_z << n | t_x`` ints."""

    particular: int
    nullspace_basis: tuple[int, ...]
    n: int

    @property
    def count(self) -> int:
        return 2 ** len(self.nullspace_basis)

    def solutions(self, limit: int | None = None) -> Iterator[PauliString]:
        """Canonical Hermitian strings of the space, particular solution first."""
        total = self.count if limit is None else min(self.count, limit)
        low = (1 << self.n) - 1
        for k in range(total):
            t = self.particular
            for i, basis_vec in enumerate(self.nullspace_basis):
                if (k >> i) & 1:
                    t ^= basis_vec
            yield PauliString.from_xz(self.n, t & low, t >> self.n)


def solve_time_reversal(h: PauliSum) -> SymmetrySolution | Infeasible:
    """Solve F t = 1 over GF(2) for the full affine solution space."""
    width = 2 * h.n
    # the right-hand side 1 is the least significant (last) column
    augmented = [row << 1 | 1 for row in build_parity_matrix(h)]
    reduced, pivots = rref(augmented, width + 1)
    if pivots and pivots[-1] == width:
        return Infeasible(witness_row=len(pivots) - 1)

    particular = sum(1 << (width - 1 - c) for row, c in zip(reduced, pivots) if row & 1)
    basis = _nullspace([row >> 1 for row in reduced], pivots, width)
    return SymmetrySolution(particular, basis, h.n)


def verify_time_reversal(t: PauliString, h: PauliSum) -> bool:
    """True iff t is a Hermitian involution anticommuting with every term.

    Every Hermitian Pauli string squares to the identity, so Hermiticity
    and anticommutation are all there is to check.
    """
    if t.n != h.n:
        raise ValueError(f"qubit counts differ: {t.n} vs {h.n}")
    if not t.hermitian():
        return False
    return all(symplectic_product(t, string) == 1 for _, string in h.terms)

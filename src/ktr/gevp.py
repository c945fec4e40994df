"""Regularized generalized eigenvalue solver and exact references.

The pencil A x = lambda B x is solved by eigendecomposing the Gram matrix
B, discarding the eigenspace below a relative threshold (B is positive
semidefinite in exact arithmetic, so negative eigenvalues are numerical
noise and always dropped), whitening A into the kept subspace and solving
the ordinary Hermitian problem there.

:class:`SectorBasis` is the orbit x character basis of an abelian group of
X-type and Z-type Pauli strings, the case of qubit tapering that needs no
Clifford (Bravyi, Gambetta, Mezzacapo & Temme, arXiv:1701.08213).  The reduced X-type rows
s_i carry the orbit S(a) = XOR of the s_i picked by the bits of a; a
representative b is zero in every X pivot column, and its Z parities name
its Z sector.  The basis vector of b and the character c sums
2**(-r_x/2) (-1)**popcount(a & c) |b ^ S(a)> over the 2**r_x orbit
elements.  A string P = (x, z) maps it to i**phase (-1)**popcount(b & z)
(:meth:`ktr.paulis.PauliString.signs`) (-1)**popcount(a0 & (c ^ delta))
times the vector of rep(b ^ x) = b ^ x ^ S(a0) and the character c ^ delta,
where delta_i = parity(z & s_i); rep(b ^ x) lies in the Z sector of b
flipped at the bits eps_j = parity(x & r_j) of the Z rows r_j.
:meth:`SectorBasis.image` hands this out in whole blocks: the block P
maps each to, and per column the row there and the sign.  A
term of H commutes with the group (delta = eps = 0), so H is assembled
block by block on the representatives alone: one k x k block per
character and Z sector, k = 2**(n - r).  An involution T that
anticommutes with H moves the blocks instead, a signed permutation of the
basis that :meth:`ktr.states.EvolutionPlan.reversal` reads.
Amplitudes enter the basis by a gather into orbits and a Walsh-Hadamard
transform over each orbit, and leave by the same transform and a scatter.

:func:`exact_reference` splits H on the group of
:func:`ktr.symmetry.commutant` and returns the sorted union of the block
spectra, which :class:`ktr.states.EvolutionPlan` factorizes the same way.
:func:`sector_ground_energy` reads one block, the joint +1 sector of
generators that are +-1 times one X-type or Z-type string: GF(2)
elimination of the signed rows finds their group, a pivot in the sign
column puts -I in it and empties the sector, and the signs of the reduced
rows name the character and the Z sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DegeneratePencilError, ResourceLimitError
from .paulis import DENSE_QUBIT_CAP, PauliString, PauliSum, _parity, commutes
# no caller here, but the benchmark tracer wraps ktr.gevp.dense_matrix
from .paulis import dense_matrix  # noqa: F401
from .symmetry import commutant, rref

if TYPE_CHECKING:  # krylov imports states, which imports this module
    from .krylov import ToeplitzPencil

DEFAULT_EPSILON = 1e-8

_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class SpectrumResult:
    """Low-lying spectrum estimate plus conditioning diagnostics."""

    eigenvalues: np.ndarray
    kept_dim: int
    threshold: float
    b_eigenvalues: np.ndarray

    def __post_init__(self):
        evals = np.array(self.eigenvalues, dtype=float, copy=True)
        bvals = np.array(self.b_eigenvalues, dtype=float, copy=True)
        evals.flags.writeable = False
        bvals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "b_eigenvalues", bvals)

    @property
    def ground(self) -> float:
        return float(self.eigenvalues[0])


def solve_dense(a: np.ndarray, b: np.ndarray,
                epsilon: float = DEFAULT_EPSILON) -> SpectrumResult:
    """Threshold-and-whiten solve on assembled Hermitian matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A and B must be square matrices of equal size")
    if np.max(np.abs(a - a.conj().T)) > _HERMITICITY_TOL:
        raise ValueError("A is not Hermitian within tolerance")
    if np.max(np.abs(b - b.conj().T)) > _HERMITICITY_TOL:
        raise ValueError("B is not Hermitian within tolerance")
    a = 0.5 * (a + a.conj().T)
    b = 0.5 * (b + b.conj().T)
    b_evals, b_evecs = np.linalg.eigh(b)
    b_max = float(b_evals[-1])
    if b_max <= 0.0:
        raise DegeneratePencilError("Gram matrix has no positive spectrum")
    keep = (b_evals > 0.0) & (b_evals >= epsilon * b_max)
    kept_dim = int(np.count_nonzero(keep))
    if kept_dim == 0:
        raise DegeneratePencilError(
            f"no Gram eigenvalue survives the threshold {epsilon:g}")
    whitener = b_evecs[:, keep] / np.sqrt(b_evals[keep])
    reduced = whitener.conj().T @ a @ whitener
    reduced = 0.5 * (reduced + reduced.conj().T)
    eigenvalues = np.linalg.eigvalsh(reduced)
    return SpectrumResult(eigenvalues=np.sort(eigenvalues), kept_dim=kept_dim,
                          threshold=epsilon, b_eigenvalues=b_evals)


def solve(pencil: ToeplitzPencil, epsilon: float = DEFAULT_EPSILON) -> SpectrumResult:
    """Solve the assembled pencil; see :func:`solve_dense`."""
    return solve_dense(pencil.matrix_a(), pencil.matrix_b(), epsilon)


def _hadamard(r: int) -> np.ndarray:
    """Orthonormal Sylvester-Hadamard matrix of order 2**r, entry a, c equal to
    (-1)**popcount(a & c) / 2**(r/2): symmetric and its own inverse."""
    index = np.arange(2 ** r)
    return (1.0 - 2.0 * _parity(index[:, None] & index)) * 2.0 ** (-r / 2)


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Orbit x character basis of the group of reduced X-type rows and
    Z-type masks; see the module docstring.  Arrays are read-only."""

    pivots: tuple[int, ...]   # pivot bit of each reduced X-type row
    orbit: np.ndarray         # orbit[a] = S(a), 2**r_x entries
    reps: np.ndarray          # (2**r_z, k) representatives, one row per Z sector
    slot: np.ndarray          # slot[rep] = index of rep in reps flattened, sector * k + column
    order: np.ndarray         # (2**r_x, 2**r_z * k): index of S(a) ^ rep, reps flattened
    hadamards: tuple[np.ndarray, np.ndarray]  # H_{2**hi}, H_{2**lo}, hi + lo = r_x

    @classmethod
    def build(cls, n: int, x_rows: Sequence[int], z_rows: Sequence[int]) -> "SectorBasis":
        """Basis of the group of X**s (s in ``x_rows``, reduced row echelon
        form as :func:`ktr.symmetry.rref` returns it) and Z**r (r in
        ``z_rows``, independent, commuting with every X**s).  More than
        :data:`ktr.paulis.DENSE_QUBIT_CAP` qubits are refused before anything
        is allocated."""
        if n > DENSE_QUBIT_CAP:
            raise ResourceLimitError(f"{n} qubits exceed the dense cap of {DENSE_QUBIT_CAP}")
        # in reduced row echelon form the leading bit of a row is its pivot
        pivots = tuple(1 << (row.bit_length() - 1) for row in x_rows)
        orbit = np.zeros(1, dtype=np.int64)
        for row in x_rows:
            orbit = np.concatenate((orbit, orbit ^ row))
        index = np.arange(2 ** n)
        reps = index[(index & sum(pivots)) == 0]
        sector = np.zeros_like(reps)
        for j, row in enumerate(z_rows):
            sector |= _parity(reps & row) << j
        # every Z sector holds the same number k of representatives
        reps = reps[np.argsort(sector, kind="stable")].reshape(2 ** len(z_rows), -1)
        slot = np.zeros_like(index)
        slot[reps] = np.arange(reps.size).reshape(reps.shape)
        order = orbit[:, None] ^ reps.ravel()
        rx = len(pivots)
        hadamards = (_hadamard((rx + 1) // 2), _hadamard(rx // 2))
        for arr in (orbit, reps, slot, order, *hadamards):
            arr.flags.writeable = False
        return cls(pivots, orbit, reps, slot, order, hadamards)

    def to_sectors(self, amps: np.ndarray) -> np.ndarray:
        """Coordinates of complex amplitudes, shape (2**r, k): row
        c * 2**r_z + zeta holds character c and Z sector zeta."""
        return self._walsh_hadamard(amps[self.order]).reshape(-1, self.reps.shape[1])

    def to_amplitudes(self, coords: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_sectors`."""
        amps = np.empty(self.order.size, dtype=complex)
        amps[self.order] = self._walsh_hadamard(coords.reshape(self.order.shape))
        return amps

    def _walsh_hadamard(self, coords: np.ndarray) -> np.ndarray:
        """The orthonormal transform over the orbit, the leading axis of a
        complex (2**r_x, K) array, as H_{2**hi} (x) H_{2**lo}: no matrix above
        O(2**n) entries, and the real factors act on the float view, real and
        imaginary parts at once.  It is its own inverse."""
        high, low = self.hadamards
        arr = np.ascontiguousarray(coords).view(float).reshape(high.shape[0], -1)
        arr = (high @ arr).reshape(high.shape[0], low.shape[0], -1)
        return (low @ arr).reshape(coords.shape[0], -1).view(complex)

    def image(self, p: PauliString, characters: Sequence[int]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the string P sends the basis vectors of the given characters:
        P|b, c> = sign * |b', c ^ delta>; see the module docstring.

        Returns, for each block c * 2**r_z + zeta of those characters (B of
        them, characters in the given order), the block P maps it to, shape
        (B,), and for each of its columns the row there and the sign, both
        shape (B, k)."""
        sectors, k = self.reps.shape
        v = self.reps ^ p.x
        a0 = np.zeros_like(v)
        delta = 0
        for i, bit in enumerate(self.pivots):
            a0[(v & bit) != 0] |= 1 << i
            delta |= (p.z & int(self.orbit[1 << i])).bit_count() % 2 << i
        characters = np.asarray(characters, dtype=np.int64)[:, None] ^ delta
        signs = p.signs(self.reps) * (1.0 - 2.0 * _parity(a0 & characters[..., None]))
        to_sector, rows = np.divmod(self.slot[v ^ self.orbit[a0]], k)
        # every representative of one Z sector lands in the same sector
        targets = (characters * sectors + to_sector[:, 0]).ravel()
        return targets, np.tile(rows, (characters.size, 1)), signs.reshape(-1, k)

    def blocks(self, h: PauliSum, characters: Sequence[int]) -> np.ndarray:
        """H on the blocks of the given characters, shape
        (len(characters) * 2**r_z, k, k) in the block order of :meth:`image`;
        float64 unless some term has an odd phase.  Every term must commute
        with the group."""
        sectors, k = self.reps.shape
        odd = any(p.phase_exp % 2 for _, p in h.terms)
        out = np.zeros((len(characters) * sectors, k, k), complex if odd else float)
        block = np.arange(out.shape[0])[:, None]
        for coeff, p in h.terms:
            # a commuting term keeps every block in place
            _, rows, signs = self.image(p, characters)
            out[block, rows, np.arange(k)] += coeff * signs
        return out


def symmetry_blocks(h: PauliSum) -> tuple[SectorBasis, np.ndarray]:
    """H split on the group of :func:`ktr.symmetry.commutant`: the basis and
    the 2**r blocks, shape (2**r, k, k), block c * 2**r_z + zeta holding
    character c and Z sector zeta."""
    x_rows, z_rows = commutant(h)
    basis = SectorBasis.build(h.n, x_rows, z_rows)
    return basis, basis.blocks(h, range(2 ** len(x_rows)))


def exact_reference(h: PauliSum) -> np.ndarray:
    """Full sorted spectrum of H (desk-scale oracle): the union of the
    spectra of its symmetry blocks, real symmetric ones when every term has
    an even Y count."""
    return np.sort(np.linalg.eigvalsh(symmetry_blocks(h)[1]), axis=None)


def sector_ground_energy(h: PauliSum, generators: list[PauliSum]) -> float:
    """Ground energy of H on the joint +1 eigenspace of the generators.

    Commutation is checked first, in the Pauli algebra
    (:func:`ktr.paulis.commutes`).  Generators other than +-1 times one
    X-type or Z-type string, an empty sector and more than
    :data:`ktr.paulis.DENSE_QUBIT_CAP` qubits are refused before anything is
    allocated.  H is restricted to one block of the generators'
    :class:`SectorBasis`, float64 for a real H.  With no generators the
    block is the dense H.
    """
    for i, g in enumerate(generators):
        if not commutes(g, h):
            raise ValueError(f"generator {i} does not commute with the Hamiltonian")
        for j in range(i):
            if not commutes(generators[j], g):
                raise ValueError(f"generators {i} and {j} do not commute")
    x_rows, z_rows = [], []
    for i, g in enumerate(generators):
        coeff, p = g.terms[0] if len(g) == 1 else (0.0, None)
        if abs(coeff) != 1.0 or (p.x and p.z):
            raise ValueError(f"generator {i} does not define a supported projector: "
                             f"need +-1 times one X-type or Z-type Pauli string")
        # a Hermitian X- or Z-type string carries the phase +1 or -1
        negative = (coeff < 0) != (p.phase_exp == 2)
        (z_rows if p.z else x_rows).append((p.x | p.z) << 1 | negative)
    n = h.n
    # column n is the sign; each reduced row is a group element with its sign
    x_reduced, x_pivots = rref(x_rows, n + 1)
    z_reduced, z_pivots = rref(z_rows, n + 1)
    if n in x_pivots + z_pivots:
        raise ValueError("the joint +1 sector is empty")
    x_reduced, z_reduced = x_reduced[:len(x_pivots)], z_reduced[:len(z_pivots)]
    basis = SectorBasis.build(n, [row >> 1 for row in x_reduced], [row >> 1 for row in z_reduced])
    # the +1 sector: character bit i and Z parity j equal the sign of row i and j
    character = sum((row & 1) << i for i, row in enumerate(x_reduced))
    sector = sum((row & 1) << j for j, row in enumerate(z_reduced))
    return float(np.linalg.eigvalsh(basis.blocks(h, [character])[sector])[0])

"""Regularized generalized eigenvalue solver and exact references.

The pencil A x = lambda B x is solved by eigendecomposing the Gram matrix
B, discarding the eigenspace below a relative threshold (B is positive
semidefinite in exact arithmetic, so negative eigenvalues are numerical
noise and always dropped), whitening A into the kept subspace and solving
the ordinary Hermitian problem there.  :func:`solve` takes a
:class:`ktr.krylov.ToeplitzPencil`, whose A and B are finite and exactly
Hermitian by construction, and neither checks nor rebuilds them.

Time reversal makes the matrix elements real (arXiv:2507.22559): B is then
real symmetric and A = iS with S real antisymmetric, as every stabilized
route builds them.  :func:`solve` recognizes these pencils from their rows
and takes the real ``eigh`` of B; the reduced A stays purely imaginary.

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
:meth:`SectorBasis.image` hands this out in whole blocks, by the flat
index b = c * 2**r_z + zeta that every method speaks: the block P maps
each to, and per column the row there and the sign.  A term of H commutes
with the group (delta = eps = 0), so :meth:`SectorBasis.blocks` assembles
H on the representatives alone, one k x k block per character and Z
sector, k = 2**(n - r).  An involution T that
anticommutes with H moves the blocks instead, a signed permutation of the
basis that :meth:`ktr.states.EvolutionPlan.reversal` reads.
Amplitudes enter the basis by a gather into orbits and a Walsh-Hadamard
transform over each orbit, and leave by the same transform and a scatter.

:func:`exact_reference` splits H on the group of
:func:`ktr.symmetry.commutant` and returns the sorted union of the block
spectra, which :class:`ktr.states.EvolutionPlan` factorizes the same way.
:func:`sector_ground_energy` reads one block, the joint +1 sector of
generators that are Hermitian X-type or Z-type strings, +-1 times the
literal product: each must commute with every term of H and with every
other generator, which :func:`ktr.paulis.symplectic_product` decides.
GF(2) elimination of the signed rows finds their group, a pivot in the
sign column puts -I in it and empties the sector, and the signs of the
reduced rows name the character and the Z sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DegeneratePencilError, ResourceLimitError
from .paulis import DENSE_QUBIT_CAP, PauliString, PauliSum, _parity, symplectic_product
# no caller here, but the benchmark tracer wraps ktr.gevp.dense_matrix
from .paulis import dense_matrix  # noqa: F401
from .symmetry import commutant, rref

if TYPE_CHECKING:  # krylov imports states, which imports this module
    from .krylov import ToeplitzPencil

DEFAULT_EPSILON = 1e-8


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


def solve(pencil: ToeplitzPencil, epsilon: float = DEFAULT_EPSILON) -> SpectrumResult:
    """Threshold-and-whiten solve of the pencil A x = lambda B x.

    It relies on the pencil's invariant (:class:`ktr.krylov.ToeplitzPencil`):
    A and B are finite and exactly Hermitian, so they are neither checked
    nor symmetrized here; the reduced matrix W+ A W is, because rounding
    leaves it not quite Hermitian.  The Gram eigenvalues kept are those
    with b > 0 and b >= epsilon * b_max; negative ones are noise (B is
    positive semidefinite) and always dropped.  A time-reversal pencil,
    whose B row has no nonzero imaginary part and whose A row no nonzero
    real part, takes a real ``eigh`` of B.  ``ktr`` commands run every BLAS
    call on one thread (:func:`ktr.cli._one_blas_thread`); outside
    :func:`ktr.cli.main`, an ``eigh`` with vectors of order >= 26 can wake
    a second OpenBLAS thread, which then spins for about 0.13 s of CPU
    (OpenBLAS 0.3.31, 2 cores)."""
    b = pencil.matrix_b()
    if not (pencil.row_b.imag.any() or pencil.row_a.real.any()):
        b = b.real
    b_evals, b_evecs = np.linalg.eigh(b)
    b_max = float(b_evals[-1])
    if b_max <= 0.0:
        raise DegeneratePencilError("Gram matrix has no positive spectrum")
    keep = (b_evals > 0.0) & (b_evals >= epsilon * b_max)
    if not keep.any():
        raise DegeneratePencilError(
            f"no Gram eigenvalue survives the threshold {epsilon:g}")
    whitener = b_evecs[:, keep] / np.sqrt(b_evals[keep])
    # a subnormal kept Gram eigenvalue can overflow A: refused below, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = whitener.conj().T @ pencil.matrix_a() @ whitener
        reduced = 0.5 * (reduced + reduced.conj().T)
    if not np.isfinite(reduced).all():
        raise DegeneratePencilError("the whitened matrix overflows")
    # eigvalsh returns them in ascending order
    return SpectrumResult(eigenvalues=np.linalg.eigvalsh(reduced),
                          kept_dim=int(np.count_nonzero(keep)),
                          threshold=epsilon, b_eigenvalues=b_evals)


def _hadamard(r: int) -> np.ndarray:
    """Orthonormal Sylvester-Hadamard matrix of order 2**r, entry a, c equal to
    (-1)**popcount(a & c) / 2**(r/2): symmetric and its own inverse."""
    index = np.arange(2 ** r)
    return (1.0 - 2.0 * _parity(index[:, None] & index)) * 2.0 ** (-r / 2)


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Orbit x character basis of the group of reduced X-type rows and
    Z-type masks; see the module docstring.  Arrays are read-only."""

    orbit: np.ndarray         # orbit[a] = S(a), 2**r_x entries
    reps: np.ndarray          # (2**r_z, k) representatives, one row per Z sector
    order: np.ndarray         # (2**r_x, 2**r_z * k): index of S(a) ^ rep, reps flattened
    place: np.ndarray         # inverse of order: place[S(a) ^ rep] = a * 2**r_z * k + slot
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
        order = orbit[:, None] ^ reps.ravel()
        place = np.empty_like(index)
        place[order.ravel()] = index
        rx = len(pivots)
        hadamards = (_hadamard((rx + 1) // 2), _hadamard(rx // 2))
        for arr in (orbit, reps, order, place, *hadamards):
            arr.flags.writeable = False
        return cls(orbit, reps, order, place, hadamards)

    @property
    def shape(self) -> tuple[int, int]:
        """(2**r, k): the number of blocks and the size of each."""
        return self.orbit.size * self.reps.shape[0], self.reps.shape[1]

    def to_sectors(self, amps: np.ndarray) -> np.ndarray:
        """Coordinates of complex amplitudes, shape :attr:`shape`: row
        c * 2**r_z + zeta holds character c and Z sector zeta."""
        return self._walsh_hadamard(amps[self.order]).reshape(self.shape)

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

    @property
    def rounding_bound(self) -> float:
        """The largest norm, relative to ||v||, that :meth:`to_sectors` can
        give the coordinates of a block where those of v are zero.

        The gather is exact.  The real factors H_{2**hi} and H_{2**lo} of the
        transform have entries +-2**(-m/2), so each output entry is a sum of
        N = 2**m products h_j x_j, off by at most gamma_{N+1} sum_j |h_j| |x_j|,
        gamma_j = j u / (1 - j u) with u = 2**-53 and the +1 for a rounded
        entry h_j, in any order of summation; sum_j |h_j| |x_j| <= ||x|| by
        Cauchy-Schwarz over N terms of weight 2**(-m/2).  Carried through both
        factors, a coordinate of one representative is off by at most
        (gamma_{2**hi+1} + gamma_{2**lo+1} (1 + gamma_{2**hi+1})) ||x||, x the
        representative's orbit amplitudes, real and imaginary parts alike,
        which is below (2**hi + 2**lo + 2) * 2u.  A block holds whole
        representatives, so its coordinates are off by at most that times
        ||v||: 4.0e-15 on the gauge model at n = 10 (r_x = 6), where the
        unreached blocks of its start states measure at most 2.8e-17 for
        ||v|| = 1 and the smallest reached block 0.18."""
        high, low = self.hadamards
        return (high.shape[0] + low.shape[0] + 2) * np.finfo(float).eps

    def image(self, p: PauliString, blocks: Sequence[int]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the string P sends the basis vectors of the given blocks:
        P|b, c> = sign * |b', c ^ delta>; see the module docstring.

        Returns, for each block c * 2**r_z + zeta in ``blocks`` (B of them,
        in the given order; each independent of the others), the block P
        maps it to, shape (B,), and per column the row there and the sign,
        both shape (B, k)."""
        sectors, k = self.reps.shape
        # rep ^ x = S(a0) ^ rep(rep ^ x), at a flat slot of the representatives
        a0, slots = np.divmod(self.place[self.reps ^ p.x], self.reps.size)
        # delta_i = parity(z & s_i), where s_i = S(2**i)
        delta = sum((p.z & int(self.orbit[1 << i])).bit_count() % 2 << i
                    for i in range(self.orbit.size.bit_length() - 1))
        characters, zetas = np.divmod(np.asarray(blocks, dtype=np.int64), sectors)
        characters ^= delta
        signs = p.signs(self.reps)[zetas] * (1.0 - 2.0 * _parity(a0[zetas] & characters[:, None]))
        to_sector, rows = np.divmod(slots, k)
        # every representative of one Z sector lands in the same sector
        return characters * sectors + to_sector[zetas, 0], rows[zetas], signs

    def blocks(self, h: PauliSum, blocks: Sequence[int]) -> np.ndarray:
        """H on the given blocks (indices as for :meth:`image`), shape
        (len(blocks), k, k); float64 unless some term has an odd phase.
        Every term must commute with the group."""
        k = self.reps.shape[1]
        out = np.zeros((len(blocks), k, k), block_dtype(h))
        block = np.arange(out.shape[0])[:, None]
        for coeff, p in h.terms:
            # a commuting term keeps every block in place
            _, rows, signs = self.image(p, blocks)
            out[block, rows, np.arange(k)] += coeff * signs
        return out


def block_dtype(h: PauliSum) -> type:
    """float64 for H on a :class:`SectorBasis`, complex128 if some term has
    an odd phase (an odd number of Y factors)."""
    return complex if any(p.phase_exp % 2 for _, p in h.terms) else float


def sector_basis(h: PauliSum) -> SectorBasis:
    """The :class:`SectorBasis` of the group of :func:`ktr.symmetry.commutant`."""
    x_rows, z_rows = commutant(h)
    return SectorBasis.build(h.n, x_rows, z_rows)


def exact_reference(h: PauliSum) -> np.ndarray:
    """Full sorted spectrum of H (desk-scale oracle): the union of the
    spectra of its 2**r symmetry blocks on :func:`sector_basis`, real
    symmetric ones when every term has an even Y count."""
    basis = sector_basis(h)
    return np.sort(np.linalg.eigvalsh(basis.blocks(h, range(basis.shape[0]))), axis=None)


def sector_ground_energy(h: PauliSum, generators: Sequence[PauliString]) -> float:
    """Ground energy of H on the joint +1 eigenspace of the generators.

    Each generator must be a Hermitian X-type or Z-type string on the qubits
    of H, phase +1 or -1, that commutes with every term of H and with every
    earlier generator; commutation is the symplectic product of the masks
    (:func:`ktr.paulis.symplectic_product`).  Other generators, an empty
    sector and more than :data:`ktr.paulis.DENSE_QUBIT_CAP` qubits are
    refused before anything is allocated.  H is restricted to one block of
    the generators' :class:`SectorBasis`, float64 for a real H.  With no
    generators the block is the dense H.
    """
    x_rows, z_rows = [], []
    for i, g in enumerate(generators):
        if g.n != h.n:
            raise ValueError(f"qubit counts differ: generator {i} has {g.n}, H has {h.n}")
        if not g.hermitian() or (g.x and g.z):
            raise ValueError(f"generator {i} does not define a supported projector: "
                             f"need +-1 times one X-type or Z-type Pauli string")
        if any(symplectic_product(g, p) for _, p in h.terms):
            raise ValueError(f"generator {i} does not commute with the Hamiltonian")
        for j in range(i):
            if symplectic_product(generators[j], g):
                raise ValueError(f"generators {i} and {j} do not commute")
        # a Hermitian X- or Z-type string has phase_exp 0 (+1) or 2 (-1)
        (z_rows if g.z else x_rows).append((g.x | g.z) << 1 | (g.phase_exp == 2))
    n = h.n
    # column n is the sign; each reduced row is a group element with its sign
    x_reduced, x_pivots = rref(x_rows, n + 1)
    z_reduced, z_pivots = rref(z_rows, n + 1)
    if n in x_pivots + z_pivots:
        raise ValueError("the joint +1 sector is empty")
    x_reduced, z_reduced = x_reduced[:len(x_pivots)], z_reduced[:len(z_pivots)]
    basis = SectorBasis.build(n, [row >> 1 for row in x_reduced], [row >> 1 for row in z_reduced])
    # the +1 block c * 2**r_z + zeta: Z parity j and character bit i equal
    # the signs of Z row j and X row i, the low bits zeta and the high bits c
    block = sum((row & 1) << j for j, row in enumerate(z_reduced + x_reduced))
    return float(np.linalg.eigvalsh(basis.blocks(h, [block])[0])[0])

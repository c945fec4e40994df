"""Regularized generalized eigenvalue solver and exact references.

The pencil A x = lambda B x is solved by eigendecomposing the Gram matrix
B, discarding the eigenspace below a relative threshold (B is positive
semidefinite in exact arithmetic, so negative eigenvalues are numerical
noise and always dropped), whitening A into the kept subspace and solving
the ordinary Hermitian problem there.  :func:`solve` takes a
:class:`ktr.krylov.ToeplitzPencil`, whose A and B are finite and exactly
Hermitian by construction, and neither checks nor rebuilds them.

Time reversal makes the matrix elements real (arXiv:2507.22559): B is then
real symmetric Toeplitz and A = iS with S real antisymmetric Toeplitz, as
every stabilized route builds them.  Such a B commutes with the exchange J
that reverses the time grid and S anticommutes with it, so B keeps the
J-even and J-odd halves apart and A couples only the one to the other.
:func:`solve` recognizes these pencils from their rows and solves them on
the two halves, with one real ``eigh`` of half the order each and one real
SVD, instead of the complex ``eigh`` of the whole; the kept dimension comes
from the same threshold over the same spectrum, the union of the halves'.

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
    nor symmetrized here.  A time-reversal pencil, whose B row has no
    nonzero imaginary part and whose A row no nonzero real part, is solved
    on its even and odd halves (:func:`_solve_halves`); any other on the
    whole: the reduced matrix W+ A W is symmetrized, because rounding leaves
    it not quite Hermitian.  The split keeps every ``eigh`` at order
    ceil(m / 2), at most 16 for m <= 32: below order 26, from which an
    ``eigh`` with vectors, real or complex, wakes a second OpenBLAS thread
    (OpenBLAS 0.3.31, 2 cores), which then spins for about 0.13 s of CPU."""
    if not (pencil.row_b.imag.any() or pencil.row_a.real.any()):
        return _solve_halves(pencil, epsilon)
    b_evals, b_evecs = np.linalg.eigh(pencil.matrix_b())
    keep = _kept(b_evals, epsilon)
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


def _kept(b_evals: np.ndarray, epsilon: float) -> np.ndarray:
    """The mask of the kept Gram eigenvalues: b > 0 and b >= epsilon * b_max.
    Negative eigenvalues are noise (B is positive semidefinite) and always
    dropped."""
    b_max = float(b_evals.max())
    if b_max <= 0.0:
        raise DegeneratePencilError("Gram matrix has no positive spectrum")
    keep = (b_evals > 0.0) & (b_evals >= epsilon * b_max)
    if not keep.any():
        raise DegeneratePencilError(
            f"no Gram eigenvalue survives the threshold {epsilon:g}")
    return keep


def _solve_halves(pencil: ToeplitzPencil, epsilon: float) -> SpectrumResult:
    """:func:`solve` for B real symmetric Toeplitz and A = iS, S real
    antisymmetric Toeplitz: the pencil time reversal makes.

    A symmetric Toeplitz B commutes with the exchange J that reverses the
    grid, and an antisymmetric Toeplitz S anticommutes with it (Cantoni &
    Butler, Linear Algebra Appl. 13, 275 (1976)).  In the orthonormal basis
    (e_j +- e_{p-1-j}) / sqrt 2, the middle index e_{p//2} of an odd p in the
    even half, B is diag(B+, B-) and A is [[0, iX], [-iX^T, 0]] with
    X = S+-.  Each half takes one real ``eigh`` (orders ceil(p/2) and
    floor(p/2)) and the threshold of the whole spectrum, their union; with
    W+- the whitened kept eigenvectors of each half, the reduced A is
    [[0, iC], [-iC^T, 0]], C = W+^T X W-, whose eigenvalues are +-sigma for
    the singular values sigma of C and |k+ - k-| zeros."""
    n_odd = pencil.grid.m // 2
    n_even = pencil.grid.m - n_odd
    # rows and columns j and p-1-j folded together
    b = pencil.matrix_b().real
    s = pencil.matrix_a().imag
    b_top, b_flip = b[:n_even, :n_even], b[:n_even, ::-1][:, :n_even]
    b_even = b_top + b_flip
    b_odd = (b_top - b_flip)[:n_odd, :n_odd]
    coupling = s[:n_even, :n_odd] - s[:n_even, ::-1][:, :n_odd]
    if n_even > n_odd:
        # the fold counts the middle index of an odd p twice
        b_even[-1] *= np.sqrt(0.5)
        b_even[:, -1] *= np.sqrt(0.5)
        coupling[-1] *= np.sqrt(0.5)
    (even_evals, even_evecs), (odd_evals, odd_evecs) = map(np.linalg.eigh, (b_even, b_odd))
    b_evals = np.concatenate((even_evals, odd_evals))
    keep = _kept(b_evals, epsilon)
    keep_even, keep_odd = keep[:n_even], keep[n_even:]
    # a subnormal kept Gram eigenvalue can overflow C: refused below, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = ((even_evecs[:, keep_even] / np.sqrt(even_evals[keep_even])).T @ coupling
                   @ (odd_evecs[:, keep_odd] / np.sqrt(odd_evals[keep_odd])))
    if not np.isfinite(reduced).all():
        raise DegeneratePencilError("the whitened matrix overflows")
    # descending singular values, so the spectrum below is ascending
    sigma = np.linalg.svd(reduced, compute_uv=False)
    zeros = np.zeros(abs(reduced.shape[0] - reduced.shape[1]))
    return SpectrumResult(eigenvalues=np.concatenate((-sigma, zeros, sigma[::-1])),
                          kept_dim=sum(reduced.shape), threshold=epsilon,
                          b_eigenvalues=np.sort(b_evals))


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
        v = self.reps ^ p.x
        a0 = np.zeros_like(v)
        delta = 0
        for i, bit in enumerate(self.pivots):
            a0[(v & bit) != 0] |= 1 << i
            delta |= (p.z & int(self.orbit[1 << i])).bit_count() % 2 << i
        characters, zetas = np.divmod(np.asarray(blocks, dtype=np.int64), sectors)
        characters ^= delta
        signs = p.signs(self.reps)[zetas] * (1.0 - 2.0 * _parity(a0[zetas] & characters[:, None]))
        to_sector, rows = np.divmod(self.slot[v ^ self.orbit[a0]], k)
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

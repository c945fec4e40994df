"""Regularized generalized eigenvalue solver and exact references.

The pencil A x = lambda B x is solved by eigendecomposing the Gram matrix
B, discarding the eigenspace below a relative threshold (B is positive
semidefinite in exact arithmetic, so negative eigenvalues are numerical
noise and always dropped), whitening A into the kept subspace and solving
the ordinary Hermitian problem there.

:func:`sector_ground_energy` restricts H to the joint +1 sector of
generators that are +-1 times one X-type or Z-type Pauli string, the X-type
case of qubit tapering (Bravyi, Gambetta, Mezzacapo & Temme,
arXiv:1701.08213).  GF(2) elimination of the signed rows finds the group; a
pivot in the sign column puts -I in it and empties the sector.  The basis
vector of a representative b (zero in every X pivot column, meeting every Z
parity) sums chi(s) |b ^ s> over the X-type subgroup, chi(s) the sign of
X**s in the group.  A term P = (x, z) that commutes with the group maps it
to diag[b ^ x] chi(s0) times the vector of rep(b ^ x) = b ^ x ^ s0, so H is
assembled on the representatives alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePencilError, ResourceLimitError
from .paulis import DENSE_QUBIT_CAP, PauliSum, _parity, commutes, dense_matrix
from .krylov import ToeplitzPencil
from .symmetry import rref

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


def exact_reference(h: PauliSum) -> np.ndarray:
    """Full sorted spectrum of the dense Hamiltonian (desk-scale oracle);
    a real symmetric eigenproblem when every term has an even Y count."""
    return np.linalg.eigvalsh(dense_matrix(h))


def sector_ground_energy(h: PauliSum, generators: list[PauliSum]) -> float:
    """Ground energy of H on the joint +1 eigenspace of the generators.

    Commutation is checked first, in the Pauli algebra
    (:func:`ktr.paulis.commutes`).  Generators other than +-1 times one
    X-type or Z-type string, an empty sector and more than
    :data:`ktr.paulis.DENSE_QUBIT_CAP` qubits are refused before anything is
    allocated.  H is restricted to the orbit basis of the module docstring,
    float64 for a real H.  With no generators the restricted H is the dense
    H.
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
    if n > DENSE_QUBIT_CAP:
        raise ResourceLimitError(f"{n} qubits exceed the dense cap of {DENSE_QUBIT_CAP}")
    # column n is the sign; each reduced row is a group element with its sign
    x_reduced, x_pivots = rref(x_rows, n + 1)
    z_reduced, z_pivots = rref(z_rows, n + 1)
    if n in x_pivots + z_pivots:
        raise ValueError("the joint +1 sector is empty")
    # (s, negative, pivot bit of s) per reduced X row
    orbit_rows = [(row >> 1, row & 1, 1 << (n - 1 - c)) for row, c in zip(x_reduced, x_pivots)]
    index = np.arange(2 ** n)
    keep = (index & sum(bit for *_, bit in orbit_rows)) == 0
    for row in z_reduced[:len(z_pivots)]:
        keep &= _parity(index & (row >> 1)) == (row & 1)
    reps = index[keep]
    pos = np.cumsum(keep) - 1  # position of each representative in reps
    terms = h.compiled()
    restricted = np.zeros((reps.size, reps.size),
                          np.result_type(float, *(diag for _, (_, diag) in terms)))
    for coeff, (src, diag) in terms:
        v = src[reps]  # rep ^ x
        entry = coeff * diag[v]
        for s, negative, bit in orbit_rows:
            hit = (v & bit) != 0
            v[hit] ^= s
            if negative:
                entry[hit] *= -1.0
        restricted[pos[v], np.arange(reps.size)] += entry
    return float(np.linalg.eigvalsh(restricted)[0])

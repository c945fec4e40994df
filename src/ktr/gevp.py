"""Regularized generalized eigenvalue solver and exact references.

The pencil A x = lambda B x is solved by eigendecomposing the Gram matrix
B, discarding the eigenspace below a relative threshold (B is positive
semidefinite in exact arithmetic, so negative eigenvalues are numerical
noise and always dropped), whitening A into the kept subspace and solving
the ordinary Hermitian problem there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePencilError
from .paulis import PauliSum, apply_sum, commutes, dense_matrix
from .krylov import ToeplitzPencil

DEFAULT_EPSILON = 1e-8

_HERMITICITY_TOL = 1e-10

#: largest residual projector diagonal allowed once the sector basis is
#: complete.  For an exact projector the residual is rounding, O(r * eps)
#: ~ 1e-14 at the dense cap; a rank that round(tr P) miscounts leaves at
#: least one unit of trace on the d diagonal entries, so some entry keeps
#: >= 1 / d >= 6e-5 (d <= 2**14).
_SECTOR_RESIDUAL_TOL = 1e-8


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


def _sector_basis(projector: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a projector, by pivoted Gram-Schmidt
    on its columns (largest remaining diagonal first), r = round(tr P) steps;
    the basis has the projector's dtype."""
    rank = int(round(np.trace(projector).real))
    if rank == 0:
        raise ValueError("the joint +1 sector is empty")
    rows = np.empty((rank, projector.shape[0]), dtype=projector.dtype)
    # residual[i] = |column i minus its part in the basis so far|^2, which
    # is P[i, i] - sum_k |basis[i, k]|^2 for a Hermitian idempotent P
    residual = projector.diagonal().real.copy()
    for k in range(rank):
        column = projector[:, int(np.argmax(residual))]
        column = column - rows[:k].T @ (rows[:k].conj() @ column)
        rows[k] = column / np.linalg.norm(column)
        residual -= np.abs(rows[k]) ** 2
    if np.max(np.abs(residual)) > _SECTOR_RESIDUAL_TOL:
        raise ValueError(
            f"generators do not define a projector: residual diagonal "
            f"{np.max(np.abs(residual)):.3e} after {rank} basis vectors")
    return rows.T


def sector_ground_energy(h: PauliSum, generators: list[PauliSum]) -> float:
    """Ground energy restricted to the joint +1 eigenspace of the generators.

    Commutation is checked in the Pauli algebra (:func:`ktr.paulis.commutes`):
    each generator with H, then with every earlier generator, before any
    matrix is built; no dense generator matrix is formed.  The projector
    P = prod_k (I + G_k) / 2 is built as P <- (P + G P) / 2 through the
    compiled Pauli actions, starting from a real identity, so it stays
    real for real generators.  The sector basis comes from round(tr P)
    steps of pivoted Gram-Schmidt on the columns of P; a sector with no
    states raises ValueError.
    """
    for i, g in enumerate(generators):
        if not commutes(g, h):
            raise ValueError(f"generator {i} does not commute with the Hamiltonian")
        for j in range(i):
            if not commutes(generators[j], g):
                raise ValueError(f"generators {i} and {j} do not commute")
    hd = dense_matrix(h)
    if not generators:
        return float(np.linalg.eigvalsh(hd)[0])
    projector = np.eye(hd.shape[0])
    for g in generators:
        projector = 0.5 * (projector + apply_sum(g, projector))
    basis = _sector_basis(projector)
    restricted = basis.conj().T @ (hd @ basis)
    restricted = 0.5 * (restricted + restricted.conj().T)
    return float(np.linalg.eigvalsh(restricted)[0])

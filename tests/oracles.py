"""Independent reference computations used by the tests.

Everything here goes through dense matrices and scipy, staying off the
library's own evolution/expectation code paths so that agreement between
the two is meaningful.  Dense Pauli matrices come from :func:`kron_matrix`,
a Kronecker-product loop that shares nothing with the library's compiled
Pauli action.
"""

import numpy as np
import scipy.linalg as sla

from ktr.paulis import PauliString, PauliSum

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# single-qubit X**x Z**z factors, keyed by (x, z)
_FACTORS = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
}


def kron_matrix(op) -> np.ndarray:
    """Exact 2**n x 2**n matrix of a string or sum via Kronecker products."""
    if isinstance(op, PauliString):
        mat = np.ones((1, 1), dtype=complex)
        for shift in range(op.n - 1, -1, -1):  # qubit 0 is the most significant bit
            mat = np.kron(mat, _FACTORS[(op.x >> shift & 1, op.z >> shift & 1)])
        return _PHASES[op.phase_exp] * mat
    if isinstance(op, PauliSum):
        total = np.zeros((2 ** op.n, 2 ** op.n), dtype=complex)
        for coeff, string in op.terms:
            total += coeff * kron_matrix(string)
        return total
    raise TypeError(f"unsupported operand type {type(op).__name__}")


def dense_evolution(hd: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) via scipy's Pade expm (independent of eigh)."""
    return sla.expm(-1j * t * hd)


def krylov_ritz_grounds(hd: np.ndarray, v0_amps: np.ndarray, dt: float, sizes) -> np.ndarray:
    """Lowest Rayleigh-Ritz value of H on span{U^j v0 : j < k}, U = exp(-i dt H),
    for each k in sizes.

    The Krylov vectors are formed explicitly by applying one propagator
    repeatedly, orthonormalised by QR, and H is projected onto them: the
    variational optimum of each space, with no Gram matrix and no threshold.
    """
    u = dense_evolution(hd, dt)
    vecs = np.empty((hd.shape[0], max(sizes)), dtype=complex)
    vecs[:, 0] = v0_amps
    for j in range(1, vecs.shape[1]):
        vecs[:, j] = u @ vecs[:, j - 1]
    grounds = []
    for k in sizes:
        q, _ = np.linalg.qr(vecs[:, :k])
        ritz = q.conj().T @ hd @ q
        grounds.append(np.linalg.eigvalsh(0.5 * (ritz + ritz.conj().T))[0])
    return np.array(grounds)


def overlap_matrices_direct(h: PauliSum, v0_amps: np.ndarray, grid):
    """Double-loop (a, b) oracle for the overlap matrices."""
    hd = kron_matrix(h)
    states = [dense_evolution(hd, float(t)) @ v0_amps for t in grid.dt * np.arange(grid.m)]
    m = grid.m
    a = np.zeros((m, m), dtype=complex)
    b = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            b[i, j] = np.vdot(states[i], states[j])
            a[i, j] = np.vdot(states[i], hd @ states[j])
    return a, b


def dense_projector(spec) -> np.ndarray:
    """prod_j (I + (-1)**alpha_j T_j) / 2 over the spec's n-qubit factors T_j."""
    mat = np.eye(2 ** spec.n, dtype=complex)
    for block, flip in zip(spec.t_blocks, spec.alpha):
        mat = mat @ ((np.eye(2 ** block.n) + (-1) ** flip * kron_matrix(block)) / 2.0)
    return mat


def sector_ground_penalty(h: PauliSum, generators) -> float:
    """Lowest eigenvalue of P H P + penalty (I - P), P = prod_k (I + G_k) / 2.

    The penalty exceeds the coefficient 1-norm of H, a bound on every
    eigenvalue, so the lowest eigenvalue is the ground energy of H on the
    joint +1 sector of the generators (scipy eigh, Kronecker matrices).
    """
    hd = kron_matrix(h)
    eye = np.eye(hd.shape[0])
    proj = eye.astype(complex)
    for g in generators:
        proj = proj @ (eye + kron_matrix(g)) / 2.0
    penalty = h.coeff_norm + 1.0
    return float(sla.eigh(proj @ hd @ proj + penalty * (eye - proj), eigvals_only=True)[0])


def all_pauli_strings(n: int):
    """Every Hermitian-canonical string on n qubits (4**n of them), the
    identity first."""
    for code in range(4 ** n):
        yield PauliString.from_xz(n, code >> n, code & ((1 << n) - 1))


def bits_to_mask(bits) -> int:
    """Mask of a qubit-0-first sequence of 0/1 values."""
    mask = 0
    for b in bits:
        mask = mask << 1 | int(b)
    return mask


def brute_force_reversals_dense(h: PauliSum) -> set:
    """Supports (x, z) of all Hermitian involutions with {P, H} = 0, by
    exhaustive dense anticommutator checks (n <= 4 only)."""
    hd = kron_matrix(h)
    found = set()
    for p in all_pauli_strings(h.n):
        if not p.x | p.z:
            continue
        pd = kron_matrix(p)
        if np.max(np.abs(pd @ hd + hd @ pd)) == 0.0:
            found.add((p.x, p.z))
    return found


def rref_by_columns(rows, width: int):
    """Reduced row echelon form over GF(2) by a scan over the columns: for
    each column, the whole row list is rebuilt with the pivot row XORed into
    every row that holds the column.  Rows are ints of ``width`` bits,
    column 0 the most significant; returns (reduced rows, pivot columns)."""
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


def random_hermitian_string(n: int, rng: np.random.Generator) -> PauliString:
    x = bits_to_mask(rng.integers(0, 2, size=n))
    z = bits_to_mask(rng.integers(0, 2, size=n))
    return PauliString.from_xz(n, x, z)


def random_pauli_sum(n: int, terms: int, rng: np.random.Generator) -> PauliSum:
    picked = []
    for _ in range(terms):
        string = random_hermitian_string(n, rng)
        while not string.x | string.z:
            string = random_hermitian_string(n, rng)
        picked.append((float(rng.normal()), string))
    return PauliSum(n, tuple(picked))


# single-qubit gates for circuit reconstructions
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
IDENTITY2 = np.eye(2, dtype=complex)


def kron_chain(factors) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def controlled_not(n: int, control: int, target: int) -> np.ndarray:
    """Dense CX with qubit 0 as the most significant index bit."""
    dim = 2 ** n
    mat = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        if (basis >> (n - 1 - control)) & 1:
            image = basis ^ (1 << (n - 1 - target))
        else:
            image = basis
        mat[image, basis] = 1.0
    return mat

"""Pauli-string algebra in symplectic (x | z) form.

An n-qubit Pauli operator is stored as bit vectors ``x``, ``z`` plus a
power of the imaginary unit,

    P = i**phase_exp * (X**x[0] Z**z[0]) (x) ... (x) (X**x[n-1] Z**z[n-1]),

where qubit 0 is the leftmost tensor factor (the most significant bit of
a computational-basis index).  A string is Hermitian exactly when
``phase_exp`` has the same parity as ``popcount(x & z)``; the canonical
Hermitian phase ``popcount(x & z) % 4`` makes the stored operator equal
to the literal product of {I, X, Y, Z} factors, since Y = i X Z.

Hamiltonians are real-weighted sums of Hermitian strings (:class:`PauliSum`)
with a line-oriented text interchange format, ``<coeff> <label>`` per term,
e.g. ``-1.0 XXII``.

Every action of a string on amplitudes runs through one kernel.  A string
compiles, on first use, into a read-only pair ``(src, diag)`` with

    (P v)[i] = diag[i] * v[src[i]],

where ``src = i ^ mask(x)`` and ``diag`` holds the phase times the sign
``(-1)**popcount(src & mask(z))``.  The pair takes 24 B * 2**n (an int64
index and a complex128 entry per basis state) and is cached on the string;
a :class:`PauliSum` caches its ``(coeff, (src, diag))`` list the same way.
Nothing compiles until a statevector operation, a dense matrix or
:func:`apply_sum` asks for it, so sums on hundreds of qubits stay cheap
for the GF(2) code.
:func:`apply_action` acts on the leading axis of 1-D and 2-D arrays, and
:func:`dense_matrix` scatters the same pairs into a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NotTimeReversalError, ResourceLimitError

#: Dense matrices above this many qubits are refused by default.
DENSE_QUBIT_CAP = 14

#: Statevectors and compiled string actions above this many qubits are
#: refused before anything is allocated.  At the cap one complex128 state
#: takes 16 B * 2**20 = 16 MiB and one compiled string 24 B * 2**20 = 24 MiB,
#: so a compiled 40-term Hamiltonian (the tfim chain at n = 20 has 39 terms)
#: stays under 1 GiB.
STATE_QUBIT_CAP = 20

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {xz: letter for letter, xz in _LETTER_TO_XZ.items()}


def check_state_qubits(n: int) -> None:
    """Refuse statevectors and compiled actions above :data:`STATE_QUBIT_CAP`."""
    if n > STATE_QUBIT_CAP:
        raise ResourceLimitError(
            f"{n} qubits exceed the statevector cap of {STATE_QUBIT_CAP}")


def _mask(bits: tuple[int, ...]) -> int:
    acc = 0
    for b in bits:
        acc = (acc << 1) | b
    return acc


def _parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry, folded over all 64 bits."""
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def _as_bits(values: Iterable[int]) -> tuple[int, ...]:
    bits = tuple(int(v) for v in values)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("supports must be 0/1 bit vectors")
    return bits


@dataclass(frozen=True)
class PauliString:
    """One n-qubit Pauli operator in (x | z | phase) form."""

    x: tuple[int, ...]
    z: tuple[int, ...]
    phase_exp: int
    _action: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x", _as_bits(self.x))
        object.__setattr__(self, "z", _as_bits(self.z))
        if len(self.x) != len(self.z):
            raise ValueError("x and z supports differ in length")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError("phase_exp must be an integer mod 4")

    @classmethod
    def from_xz(cls, x: Iterable[int], z: Iterable[int],
                phase_exp: int | None = None) -> "PauliString":
        """Build a string; with ``phase_exp=None`` picks the canonical
        Hermitian phase ``popcount(x & z) % 4``."""
        x = _as_bits(x)
        z = _as_bits(z)
        if phase_exp is None:
            phase_exp = sum(a & b for a, b in zip(x, z)) % 4
        return cls(x, z, phase_exp % 4)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a literal label over {I, X, Y, Z}, qubit 0 leftmost."""
        try:
            pairs = [_LETTER_TO_XZ[ch] for ch in label]
        except KeyError as exc:
            raise ValueError(f"invalid Pauli letter {exc.args[0]!r}") from None
        x = tuple(p[0] for p in pairs)
        z = tuple(p[1] for p in pairs)
        return cls.from_xz(x, z)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls((0,) * n, (0,) * n, 0)

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return sum(a | b for a, b in zip(self.x, self.z))

    def is_identity_support(self) -> bool:
        return self.weight == 0

    def hermitian(self) -> bool:
        return (self.phase_exp - sum(a & b for a, b in zip(self.x, self.z))) % 2 == 0

    def canonical_phase(self) -> int:
        return sum(a & b for a, b in zip(self.x, self.z)) % 4

    def label(self) -> str:
        """Literal {I,X,Y,Z} label; defined only for the canonical phase."""
        if self.phase_exp != self.canonical_phase():
            raise ValueError("string carries a non-canonical phase, no literal label")
        return "".join(_XZ_TO_LETTER[(a, b)] for a, b in zip(self.x, self.z))

    def action(self) -> tuple[np.ndarray, np.ndarray]:
        """Compiled ``(src, diag)`` with ``(P v)[i] = diag[i] * v[src[i]]``.

        Built on first use and cached; both arrays are read-only.
        """
        if self._action is None:
            check_state_qubits(self.n)
            src = np.arange(2 ** self.n) ^ _mask(self.x)
            diag = _PHASES[self.phase_exp] * (1.0 - 2.0 * _parity(src & _mask(self.z)))
            src.flags.writeable = False
            diag.flags.writeable = False
            object.__setattr__(self, "_action", (src, diag))
        return self._action

    def __repr__(self) -> str:
        letters = "".join(_XZ_TO_LETTER[(a, b)] for a, b in zip(self.x, self.z))
        if self.phase_exp == self.canonical_phase():
            return f"PauliString({letters!r})"
        return f"PauliString({letters!r}, extra_phase={(self.phase_exp - self.canonical_phase()) % 4})"


def symplectic_product(p: PauliString, q: PauliString) -> int:
    """GF(2) form whose value 1 marks anticommuting strings."""
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")
    acc = sum(a & b for a, b in zip(p.x, q.z)) + sum(a & b for a, b in zip(p.z, q.x))
    return acc % 2


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product p @ q, phase included."""
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")
    # commuting Z**z_p past X**x_q costs (-1) per overlapping qubit
    swaps = sum(a & b for a, b in zip(p.z, q.x))
    phase = (p.phase_exp + q.phase_exp + 2 * swaps) % 4
    x = tuple(a ^ b for a, b in zip(p.x, q.x))
    z = tuple(a ^ b for a, b in zip(p.z, q.z))
    return PauliString(x, z, phase)


def tensor(p: PauliString, q: PauliString) -> PauliString:
    """Kronecker product with p on the leftmost qubits."""
    return PauliString(p.x + q.x, p.z + q.z, (p.phase_exp + q.phase_exp) % 4)


def embed(p: PauliString, n: int, offset: int) -> PauliString:
    """Place ``p`` on qubits [offset, offset + p.n) of an n-qubit register."""
    if offset < 0 or offset + p.n > n:
        raise ValueError("embedding window out of range")
    pad_left = (0,) * offset
    pad_right = (0,) * (n - offset - p.n)
    return PauliString(pad_left + p.x + pad_right, pad_left + p.z + pad_right, p.phase_exp)


def split_blocks(p: PauliString, sizes: Sequence[int]) -> list[PauliString]:
    """Split a canonical Hermitian string into contiguous tensor blocks.

    The blocks multiply back to ``p`` exactly because canonical phases are
    additive over disjoint supports.
    """
    if sum(sizes) != p.n:
        raise ValueError("block sizes must sum to the qubit count")
    if p.phase_exp != p.canonical_phase():
        raise ValueError("only canonical-phase strings can be split")
    out = []
    start = 0
    for size in sizes:
        stop = start + size
        out.append(PauliString.from_xz(p.x[start:stop], p.z[start:stop]))
        start = stop
    return out


@dataclass(frozen=True)
class PauliSum:
    """Real-weighted sum of Hermitian Pauli strings on n qubits.

    Terms are kept in construction order and are not merged; use
    :meth:`normalize` to combine duplicate strings.
    """

    n: int
    terms: tuple[tuple[float, PauliString], ...]
    _compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        norm_terms = []
        for coeff, string in self.terms:
            coeff = float(coeff)
            if not np.isfinite(coeff):
                raise ValueError("coefficients must be finite reals")
            if string.n != self.n:
                raise ValueError("all terms must share the same qubit count")
            if not string.hermitian():
                raise ValueError(f"non-Hermitian term {string!r}")
            norm_terms.append((coeff, string))
        object.__setattr__(self, "terms", tuple(norm_terms))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[float, PauliString]]) -> "PauliSum":
        terms = tuple(terms)
        if not terms:
            raise ValueError("cannot infer qubit count from an empty term list")
        return cls(terms[0][1].n, terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def coeff_norm(self) -> float:
        """1-norm of the coefficients, an upper bound on the operator norm."""
        return float(sum(abs(c) for c, _ in self.terms))

    def normalize(self) -> "PauliSum":
        """Merge equal strings (first-occurrence order) and drop zeros."""
        order: list[PauliString] = []
        acc: dict[PauliString, float] = {}
        for coeff, string in self.terms:
            if string not in acc:
                acc[string] = 0.0
                order.append(string)
            acc[string] += coeff
        merged = tuple((acc[s], s) for s in order if acc[s] != 0.0)
        return PauliSum(self.n, merged)

    def scaled(self, factor: float) -> "PauliSum":
        return PauliSum(self.n, tuple((factor * c, s) for c, s in self.terms))

    def compiled(self) -> tuple[tuple[float, tuple[np.ndarray, np.ndarray]], ...]:
        """``(coeff, (src, diag))`` per term in stored order, built on first use
        and cached; see :meth:`PauliString.action`."""
        if self._compiled is None:
            object.__setattr__(self, "_compiled",
                               tuple((c, s.action()) for c, s in self.terms))
        return self._compiled


def apply_action(action: tuple[np.ndarray, np.ndarray], arr: np.ndarray) -> np.ndarray:
    """One compiled string on the leading axis of a 1-D or 2-D array."""
    src, diag = action
    if arr.ndim == 2:
        diag = diag[:, None]
    return diag * arr[src]


def apply_sum(op: PauliSum, arr: np.ndarray) -> np.ndarray:
    """O @ arr for a Pauli sum, on the leading axis of a 1-D or 2-D array."""
    out = np.zeros(arr.shape, dtype=complex)
    for coeff, action in op.compiled():
        out += coeff * apply_action(action, arr)
    return out


def build_iht_observable(h: PauliSum, t: PauliString) -> PauliSum:
    """Hermitian observable equal to i H T for an anticommuting involution T.

    Every term of ``h`` must anticommute with ``t``; the anticommutation is
    what makes each coefficient land on the real axis.
    """
    if t.n != h.n:
        raise ValueError(f"qubit counts differ: {t.n} vs {h.n}")
    if not t.hermitian():
        raise NotTimeReversalError("reversal operator must be Hermitian")
    out = []
    for coeff, string in h.terms:
        if symplectic_product(string, t) != 1:
            raise NotTimeReversalError(
                f"term {string!r} commutes with the reversal operator")
        prod = multiply(string, t)
        canon = prod.canonical_phase()
        # i * i**prod.phase  ==  i**k * (canonical Hermitian string)
        k = (1 + prod.phase_exp - canon) % 4
        assert k in (0, 2), "anticommutation guarantees a real coefficient"
        sign = 1.0 if k == 0 else -1.0
        out.append((sign * coeff, PauliString(prod.x, prod.z, canon)))
    return PauliSum(h.n, tuple(out))


def dense_matrix(op: PauliString | PauliSum, max_qubits: int | None = None) -> np.ndarray:
    """Exact 2**n x 2**n matrix, scattered from the compiled actions.

    Row i of a string holds ``diag[i]`` in column ``src[i]``; a sum adds
    ``coeff * diag`` term by term in stored order.
    """
    if not isinstance(op, (PauliString, PauliSum)):
        raise TypeError(f"unsupported operand type {type(op).__name__}")
    cap = DENSE_QUBIT_CAP if max_qubits is None else max_qubits
    if op.n > cap:
        raise ResourceLimitError(f"{op.n} qubits exceed the dense cap of {cap}")
    dim = 2 ** op.n
    idx = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    if isinstance(op, PauliString):
        src, diag = op.action()
        mat[idx, src] = diag
        return mat
    for coeff, (src, diag) in op.compiled():
        mat[idx, src] += coeff * diag
    return mat


def pauli_sum_to_text(h: PauliSum) -> str:
    """One ``<coeff> <label>`` line per term; round-trips bit-exactly."""
    return "".join(f"{coeff!r} {string.label()}\n" for coeff, string in h.terms)


def pauli_sum_from_text(text: str) -> PauliSum:
    terms = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<coeff> <label>'")
        coeff = float(parts[0])
        string = PauliString.from_label(parts[1])
        if n is None:
            n = string.n
        elif string.n != n:
            raise ValueError(f"line {lineno}: qubit count changed from {n} to {string.n}")
        terms.append((coeff, string))
    if n is None:
        raise ValueError("no terms found")
    return PauliSum(n, tuple(terms))

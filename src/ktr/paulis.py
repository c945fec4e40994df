"""Pauli-string algebra in symplectic (x | z) form.

An n-qubit Pauli operator is stored as two integer bit masks ``x``, ``z``
in [0, 2**n) plus a power of the imaginary unit,

    P = i**phase_exp * (X**x_0 Z**z_0) (x) ... (x) (X**x_{n-1} Z**z_{n-1}),

where x_j is bit n-1-j of ``x`` (likewise z_j).  Qubit 0 is the leftmost
tensor factor and the most significant bit, the same convention as a
computational-basis index, so the masks act on basis indices directly.
A string is Hermitian exactly when ``phase_exp`` has the same parity as
``popcount(x & z)``; the canonical Hermitian phase ``popcount(x & z) % 4``
makes the stored operator equal to the literal product of {I, X, Y, Z}
factors, since Y = i X Z.  Products and commutation are integer
operations on the masks, so strings on hundreds of qubits stay cheap for
the GF(2) code of :mod:`ktr.symmetry`, which reads the same masks.

Hamiltonians are real-weighted sums of Hermitian strings (:class:`PauliSum`)
with a line-oriented text interchange format, ``<coeff> <label>`` per term,
e.g. ``-1.0 XXII``.

Every action of a string on amplitudes runs through one kernel.  A string
compiles, on first use, into a read-only pair ``(src, diag)`` with

    (P v)[i] = diag[i] * v[src[i]],

where ``src = i ^ x`` and ``diag`` holds the phase times the sign
``(-1)**popcount(src & z)``, the rule :meth:`PauliString.signs` evaluates
for any set of source indices.  ``diag`` is float64 when the phase is
+-1 (``phase_exp`` 0 or 2, which covers every canonical string with an even
number of Y factors) and complex128 only for an odd phase.  The pair takes
16 B * 2**n for a real string (an int64 index and a float64 entry per basis
state), 24 B * 2**n for a complex one, and is cached on the string; a
:class:`PauliSum` caches its ``(coeff, (src, diag))`` list the same way.
Nothing compiles until a statevector operation or a dense matrix asks for
it; the symmetry blocks of :mod:`ktr.gevp` read the sign rule from the masks.
:func:`apply_action` acts on 1-D amplitude arrays, and
:func:`dense_matrix` scatters the same pairs into a matrix.  Both take
their dtype from their inputs, so a sum of real strings assembles a
float64 matrix and stays real through everything built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import NotTimeReversalError, ResourceLimitError

#: Dense matrices above this many qubits are refused.
DENSE_QUBIT_CAP = 14

#: Statevectors and compiled string actions above this many qubits are
#: refused before anything is allocated.  At the cap one complex128 state
#: takes 16 B * 2**20 = 16 MiB and one compiled real string 16 B * 2**20 =
#: 16 MiB (24 MiB for an odd phase), so a compiled 40-term Hamiltonian (the
#: tfim chain at n = 20 has 39 terms) stays under 1 GiB.
STATE_QUBIT_CAP = 20

# i**k with the real powers real, so that even-phase actions stay float64
_PHASES = (1.0, 1.0j, -1.0, -1.0j)

# deletes the Pauli letters: what a label keeps is its bad letters, in order
_NOT_LETTERS = str.maketrans("", "", "IXYZ")
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")

_XZ_TO_LETTER = {("0", "0"): "I", ("1", "0"): "X", ("1", "1"): "Y", ("0", "1"): "Z"}


def check_state_qubits(n: int) -> None:
    """Refuse statevectors and compiled actions above :data:`STATE_QUBIT_CAP`."""
    if n > STATE_QUBIT_CAP:
        raise ResourceLimitError(
            f"{n} qubits exceed the statevector cap of {STATE_QUBIT_CAP}")


def _parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry, as int64: callers shift it left
    by a row index, past the 8 bits of ``np.bitwise_count``'s uint8."""
    return (np.bitwise_count(values) & 1).astype(np.int64)


@dataclass(frozen=True)
class PauliString:
    """One n-qubit Pauli operator in (x | z | phase) form, x and z as bit masks."""

    n: int
    x: int
    z: int
    phase_exp: int
    _action: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for mask in (self.x, self.z):
            if type(mask) is not int or not 0 <= mask < 1 << self.n:
                raise ValueError(f"supports must be ints in [0, 2**{self.n})")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError("phase_exp must be an integer mod 4")

    @classmethod
    def from_xz(cls, n: int, x: int, z: int) -> "PauliString":
        """Build a string with the canonical Hermitian phase ``popcount(x & z) % 4``."""
        string = cls(n, x, z, 0)
        # set after construction: the canonical phase needs validated masks
        object.__setattr__(string, "phase_exp", string.canonical_phase())
        return string

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a literal label over {I, X, Y, Z}, qubit 0 leftmost."""
        bad = label.translate(_NOT_LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letter {bad[0]!r}")
        return cls(len(label), int("0" + label.translate(_X_DIGITS), 2),
                   int("0" + label.translate(_Z_DIGITS), 2), label.count("Y") % 4)

    def hermitian(self) -> bool:
        return (self.phase_exp - self.canonical_phase()) % 2 == 0

    def canonical_phase(self) -> int:
        return (self.x & self.z).bit_count() % 4

    def _letters(self) -> str:
        # the leading 1 pads each binary form to exactly n digits
        x_digits = bin(self.x | 1 << self.n)[3:]
        z_digits = bin(self.z | 1 << self.n)[3:]
        return "".join(_XZ_TO_LETTER[pair] for pair in zip(x_digits, z_digits))

    def label(self) -> str:
        """Literal {I,X,Y,Z} label; defined only for the canonical phase."""
        if self.phase_exp != self.canonical_phase():
            raise ValueError("string carries a non-canonical phase, no literal label")
        return self._letters()

    def action(self) -> tuple[np.ndarray, np.ndarray]:
        """Compiled ``(src, diag)`` with ``(P v)[i] = diag[i] * v[src[i]]``.

        Built on first use and cached; both arrays are read-only.
        """
        if self._action is None:
            check_state_qubits(self.n)
            src = np.arange(2 ** self.n) ^ self.x
            diag = self.signs(src)
            src.flags.writeable = False
            diag.flags.writeable = False
            object.__setattr__(self, "_action", (src, diag))
        return self._action

    def signs(self, sources: np.ndarray) -> np.ndarray:
        """The factor i**phase_exp * (-1)**popcount(source & z) by which the
        string sends each basis index ``source`` to ``source ^ x``: float64
        for phase +-1, complex128 for +-i."""
        return _PHASES[self.phase_exp] * (1.0 - 2.0 * _parity(sources & self.z))

    def __repr__(self) -> str:
        letters = self._letters()
        if self.phase_exp == self.canonical_phase():
            return f"PauliString({letters!r})"
        return f"PauliString({letters!r}, extra_phase={(self.phase_exp - self.canonical_phase()) % 4})"


def symplectic_product(p: PauliString, q: PauliString) -> int:
    """GF(2) form whose value 1 marks anticommuting strings."""
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")
    return ((p.x & q.z) ^ (p.z & q.x)).bit_count() & 1


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product p @ q, phase included."""
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")
    # commuting Z**z_p past X**x_q costs (-1) per overlapping qubit
    swaps = (p.z & q.x).bit_count()
    phase = (p.phase_exp + q.phase_exp + 2 * swaps) % 4
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, phase)


@dataclass(frozen=True)
class PauliSum:
    """Real-weighted sum of Hermitian Pauli strings on n qubits.

    Terms are kept in construction order and are not merged.
    """

    n: int
    terms: tuple[tuple[float, PauliString], ...]
    _compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        norm_terms = []
        for coeff, string in self.terms:
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite reals")
            if string.n != self.n:
                raise ValueError("all terms must share the same qubit count")
            if not string.hermitian():
                raise ValueError(f"non-Hermitian term {string!r}")
            norm_terms.append((coeff, string))
        object.__setattr__(self, "terms", tuple(norm_terms))

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def coeff_norm(self) -> float:
        """1-norm of the coefficients, an upper bound on the operator norm."""
        return float(sum(abs(c) for c, _ in self.terms))

    def compiled(self) -> tuple[tuple[float, tuple[np.ndarray, np.ndarray]], ...]:
        """``(coeff, (src, diag))`` per term in stored order, built on first use
        and cached; see :meth:`PauliString.action`."""
        if self._compiled is None:
            object.__setattr__(self, "_compiled",
                               tuple((c, s.action()) for c, s in self.terms))
        return self._compiled


def apply_action(action: tuple[np.ndarray, np.ndarray], arr: np.ndarray) -> np.ndarray:
    """One compiled string on a 1-D amplitude array; the result has the
    dtype ``np.result_type(diag, arr)``."""
    src, diag = action
    return diag * arr[src]


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
        out.append((sign * coeff, PauliString(h.n, prod.x, prod.z, canon)))
    return PauliSum(h.n, tuple(out))


def dense_matrix(op: PauliString | PauliSum) -> np.ndarray:
    """Exact 2**n x 2**n matrix, scattered from the compiled actions.

    Row i of a string holds ``diag[i]`` in column ``src[i]``; a sum adds
    ``coeff * diag`` term by term in stored order.  The matrix is float64
    unless some term has an odd phase.  Operators above
    :data:`DENSE_QUBIT_CAP` qubits are refused before anything is allocated.
    """
    if not isinstance(op, (PauliString, PauliSum)):
        raise TypeError(f"unsupported operand type {type(op).__name__}")
    if op.n > DENSE_QUBIT_CAP:
        raise ResourceLimitError(f"{op.n} qubits exceed the dense cap of {DENSE_QUBIT_CAP}")
    terms = op.compiled() if isinstance(op, PauliSum) else ((1.0, op.action()),)
    dim = 2 ** op.n
    idx = np.arange(dim)
    mat = np.zeros((dim, dim), np.result_type(float, *(diag for _, (_, diag) in terms)))
    for coeff, (src, diag) in terms:
        mat[idx, src] += coeff * diag
    return mat


def pauli_sum_from_text(text: str) -> PauliSum:
    """Parse one ``<coeff> <label>`` line per term ('#' starts a comment)."""
    terms = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<coeff> <label>'")
        try:
            coeff = float(parts[0])
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite reals")
            string = PauliString.from_label(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if n is None:
            n = string.n
        elif string.n != n:
            raise ValueError(f"line {lineno}: qubit count changed from {n} to {string.n}")
        terms.append((coeff, string))
    if n is None:
        raise ValueError("no terms found")
    return PauliSum(n, tuple(terms))

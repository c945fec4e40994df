"""Benchmark spin-chain Hamiltonians and their symmetry data.

All chains use open boundary conditions.  The gauge-Higgs layout places
matter (vertex) qubits at even indices and gauge (link) qubits at odd
indices, so a chain of n = 8 qubits reads v0 l1 v2 l3 v4 l5 v6 l7 and the
last link is dangling; three-body ZZZ couplings exist only where a link
has vertices on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ModelConsistencyError
from .paulis import PauliString, PauliSum, symplectic_product

MODEL_KINDS = ("tfim", "z2higgs", "cluster", "heisenberg")

PARAM_KEYS = {
    "tfim": ("gamma",),
    "z2higgs": ("mu", "g"),
    "cluster": ("g_x", "g_zz", "g_zxz"),
    "heisenberg": ("j_x", "j_y", "j_z"),
}


@dataclass(frozen=True)
class ModelSpec:
    """Which chain to build: kind, size and couplings."""

    kind: str
    n: int
    params: Mapping[str, float]

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        expected = set(PARAM_KEYS[self.kind])
        got = set(self.params)
        if got != expected:
            raise ValueError(
                f"{self.kind} expects parameters {sorted(expected)}, got {sorted(got)}")
        object.__setattr__(self, "params", dict(self.params))
        if self.n < 2:
            raise ValueError("need at least two qubits")
        if self.kind in ("tfim", "cluster") and self.n % 2 != 0:
            raise ValueError(f"{self.kind} needs an even qubit count")
        if self.kind == "z2higgs" and (self.n % 2 != 0 or self.n < 4):
            raise ValueError("the gauge model needs an even qubit count >= 4")


def _window(n: int, letters: str, start: int) -> PauliString:
    label = ["I"] * n
    for k, letter in enumerate(letters):
        label[start + k] = letter
    return PauliString.from_label("".join(label))


def build(spec: ModelSpec) -> PauliSum:
    """Assemble the Hamiltonian, dropping terms with zero coefficients."""
    n = spec.n
    p = spec.params
    terms: list[tuple[float, PauliString]] = []
    if spec.kind == "tfim":
        for i in range(n - 1):
            terms.append((-1.0, _window(n, "XX", i)))
        for i in range(n):
            terms.append((-p["gamma"], _window(n, "Z", i)))
    elif spec.kind == "z2higgs":
        for link in range(1, n, 2):
            if link + 1 < n:  # interior link: vertices on both sides
                terms.append((-1.0, _window(n, "ZZZ", link - 1)))
        for vertex in range(0, n, 2):
            terms.append((-p["mu"], _window(n, "X", vertex)))
        for link in range(1, n, 2):
            terms.append((-p["g"], _window(n, "X", link)))
    elif spec.kind == "cluster":
        for i in range(n):
            terms.append((-p["g_x"], _window(n, "X", i)))
        for i in range(n - 1):
            terms.append((-p["g_zz"], _window(n, "ZZ", i)))
        for i in range(n - 2):
            terms.append((p["g_zxz"], _window(n, "ZXZ", i)))
    else:  # heisenberg
        for j in range(n - 1):
            terms.append((-0.5 * p["j_x"], _window(n, "XX", j)))
            terms.append((-0.5 * p["j_y"], _window(n, "YY", j)))
            terms.append((-0.5 * p["j_z"], _window(n, "ZZ", j)))
    kept = tuple(t for t in terms if t[0] != 0.0)
    if not kept:
        raise ValueError("all couplings vanish; the Hamiltonian is empty")
    return PauliSum(n, kept)


def known_time_reversal(spec: ModelSpec) -> PauliString | None:
    """Canonical anticommuting involution for the model, if one is known.

    The Heisenberg chain with generic couplings admits none, so it always
    returns None here; special coupling choices may still have solutions
    through :func:`ktr.symmetry.solve_time_reversal`.
    """
    if spec.kind == "tfim":
        return PauliString.from_label("YX" * (spec.n // 2))
    if spec.kind == "z2higgs":
        return PauliString.from_label("Y" * spec.n)
    if spec.kind == "cluster":
        return PauliString.from_label("YZ" * (spec.n // 2))
    return None


def gauss_generators(spec: ModelSpec) -> list[PauliString]:
    """Gauss-law generators of the gauge model, one string per vertex.

    Each generator is X on a vertex and its two neighboring links, with
    link indices taken on the ring (the left link of vertex 0 is the
    dangling last link).  The ring closure keeps every generator at odd
    weight, which is what makes the averaged sum anticommute with the
    all-Y involution; every generator is checked against the involution,
    and a failure raises rather than silently accepting a wrong Gauss law.
    Commutation with the Hamiltonian is checked where the generators are
    used, by :func:`ktr.gevp.sector_ground_energy`.
    """
    if spec.kind != "z2higgs":
        raise ValueError("Gauss generators are defined for the gauge model only")
    n = spec.n
    t = known_time_reversal(spec)
    generators = []
    for vertex in range(0, n, 2):
        left = (vertex - 1) % n
        right = vertex + 1
        label = ["I"] * n
        for q in (left, vertex, right):
            label[q] = "X"
        g = PauliString.from_label("".join(label))
        if symplectic_product(g, t) != 1:
            raise ModelConsistencyError(
                f"generator at vertex {vertex} fails to anticommute with the involution")
        generators.append(g)
    return generators

"""Construction of the Krylov overlap pencils (A, B).

For Krylov states |v(t_j)> = exp(-i t_j H)|v0> on a uniform time grid,
both overlap matrices

    A[a, b] = <v(t_a)| H |v(t_b)>,      B[a, b] = <v(t_a)|v(t_b)>

are Hermitian-Toeplitz, so a pencil is stored as the pair of first rows.
Every route takes its start state or states, its grid and an
:class:`ktr.states.EvolutionPlan`, the one carrier of H and of the
involution T that anticommutes with it.  ``build_kqd`` is the canonical
route; its entries are full-time overlaps, complex in general.  For a start
state that T stabilizes, THT = -H makes the B row real and the A row purely
imaginary, and ``build_kqd`` on an exact plan returns them so, as every
other route's rows are: the pencils whose real B :func:`ktr.gevp.solve`
factorizes with a real ``eigh``.  Every other route evaluates one quantity
in one kernel, ``_signed_curves``, over a list of (weight, state) branches:

    a(tau) = sum_b w_b <v_b(tau)| iHT |v_b(tau)>,
    b(tau) = sum_b w_b <v_b(tau)| T |v_b(tau)>,    v_b(tau) = exp(-i tau H)|v_b>,

and differs only in its branch list and its times:

* ``build_ktr`` -- [(c, v0)] for a stabilized start state T|v0> = c|v0>,
  at half times t_j / 2: B row b (real), A row i a (purely imaginary).
  The sign c = +-1 is measured from v0 itself, in ``_stabilized``;
* ``extended_local_pencil`` -- an arbitrary start state phi split by the
  blockwise projectors P_alpha into [(parity_i p_i, v_i)] over the most
  probable projections, p_i the projection probabilities;
* ``implicit_hadamard_rows`` -- the local route on the one-block set, the
  complementary projectors (I +- T) / 2: [(+p, v+), (-p', v-)] gives
  B row Re <phi|U(t_j)|phi> and A row i Im <phi|U(t_j) H|phi>, with no
  controlled evolution anywhere;
* ``sample_expectation_curves`` -- the same [(c, v0)] on a fine grid:
  c-weighted curves, whose samples at h_j are the ``ktr`` rows, and from
  which ``reconstruct_b_from_a`` / ``reconstruct_a_from_b`` rebuild one
  row (quadrature and finite differences) from fine samples of the other.
  The quadrature is one cumulative Simpson sum; the derivative weights the
  five-point windows of the Krylov points, clipped at the curve's own end,
  and reads only them (``stencil_indices``, at most 5 m samples), which is
  all the ``derivative`` route evaluates.

Each asks the kernel for a sorted array of grid indices k, tau = k * step:
``np.arange(m)`` for the half-time routes, the whole fine grid or the
stencil for the reconstruction routes.  In ``trotter2`` mode each sample
advances the previous state by the grid increment: dt for ``kqd``, dt / 2 for the half-time routes, dt / (2 *
samples_per_step) on the fine grid.  A pencil then sees powers of one
Trotter step unitary and B is a Gram matrix; ``kqd`` and the half-time
routes differ when ceil(dt * spu) != 2 ceil(dt / 2 * spu) for
steps_per_unit spu.  ``trotter2`` still steps through every grid point up
to the last requested index and takes the two expectations only at the
requested ones.  Exact samples are taken at the full time from the
start state's block eigen-coefficients Q_b+ v0 on the symmetry sectors of
H, which the plan computes once per start state and caches, so rounding
does not build up along the grid.  ``build_kqd`` evolves amplitudes from
them (:func:`ktr.states.evolve`); ``_signed_curves`` builds no amplitudes
at all and reads both expectations in the block eigenbasis, where T is a
signed block permutation (:func:`ktr.states.reversal_curves`), at the
requested indices alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .initial import (PROJECTION_PROB_FLOOR, ProjectorSpec, enumerate_local_projectors,
                      project_array)
# no caller here, but the benchmark tracer wraps ktr.krylov.project
from .initial import project  # noqa: F401
from .paulis import PauliString, PauliSum, apply_action, build_iht_observable
from .states import (EvolutionPlan, StateVector, _real, apply_pauli, evolve,
                     expectation, inner, reversal_curves)
# no caller here, but the benchmark tracer wraps ktr.krylov.matrix_element
from .states import matrix_element  # noqa: F401

#: max-norm tolerance for the stabilizer precondition T|v0> = c|v0>
STABILIZER_TOL = 1e-12

#: allowed |norm - 1| of a start state.  A state normalized in float64 is
#: unit to ~1e-15, so any normalized input passes, while a scaled state
#: (2 phi is off by 1) fails.  The implicit and local routes read projection
#: probabilities as branch weights, so without the check a non-unit phi
#: would scale their rows silently.
UNIT_NORM_TOL = 1e-9

#: default fine-grid density for the reconstruction routes
SAMPLES_PER_STEP = 20


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time displacements t_j = (j - 1) dt, j = 1..m."""

    dt: float
    m: int

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if self.m < 2:
            raise ValueError("need at least two Krylov vectors")


def _toeplitz_from_row(row: np.ndarray) -> np.ndarray:
    m = row.shape[0]
    diff = np.arange(m)[None, :] - np.arange(m)[:, None]
    mat = row[np.abs(diff)]
    mat = np.where(diff >= 0, mat, np.conj(mat))
    # exactly Hermitian, as floating-point addition commutes; it also sets the
    # signed zeros that the eigensolvers read the way a solve always saw them.
    # The diagonal comes out as Re(row[0]) + 0j, as a Hermitian diagonal must:
    # the imaginary part of the leading entry is residue (machine noise, or
    # boundary noise from the finite-difference reconstruction route), and
    # x + (-x) is +0 in round-to-nearest
    mat = 0.5 * (mat + mat.conj().T)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class ToeplitzPencil:
    """First rows of the Hermitian-Toeplitz pair (A, B) on a time grid.

    The rows are refused if any entry is not finite, and A and B are
    assembled from them at construction, symmetrized as 0.5 (M + M+), so
    exactly Hermitian, and read-only.  A prefix reads the leading entries of
    both rows and the leading blocks of both matrices as views, and neither
    copies, checks nor assembles them again; assembly is elementwise, so
    these are the matrices it would assemble from its own rows, bit for bit."""

    row_a: np.ndarray
    row_b: np.ndarray
    grid: TimeGrid
    _matrices: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row_a = np.array(self.row_a, dtype=complex, copy=True)
        row_b = np.array(self.row_b, dtype=complex, copy=True)
        if row_a.shape != (self.grid.m,) or row_b.shape != (self.grid.m,):
            raise ValueError("rows must have one entry per Krylov vector")
        for name, row in (("row_a", row_a), ("row_b", row_b)):
            finite = np.isfinite(row)
            if not finite.all():
                raise ValueError(
                    f"{name} has a non-finite entry at index {int(np.argmin(finite))}")
        row_a.flags.writeable = False
        row_b.flags.writeable = False
        object.__setattr__(self, "row_a", row_a)
        object.__setattr__(self, "row_b", row_b)
        object.__setattr__(self, "_matrices", tuple(map(_toeplitz_from_row, (row_a, row_b))))

    def matrix_a(self) -> np.ndarray:
        return self._matrices[0]

    def matrix_b(self) -> np.ndarray:
        return self._matrices[1]

    def prefix(self, m: int) -> "ToeplitzPencil":
        """Leading m x m sub-pencil on the same grid spacing, its matrices
        views of this pencil's."""
        if not 2 <= m <= self.grid.m:
            raise ValueError(f"prefix size must be in [2, {self.grid.m}]")
        # read-only slices of rows already checked and assembled: the
        # sub-pencil skips the copy, the check and the assembly of __post_init__
        sub = object.__new__(ToeplitzPencil)
        for name, value in (("row_a", self.row_a[:m]), ("row_b", self.row_b[:m]),
                            ("grid", TimeGrid(self.grid.dt, m)),
                            ("_matrices", tuple(mat[:m, :m] for mat in self._matrices))):
            object.__setattr__(sub, name, value)
        return sub


def default_dt(h: PauliSum) -> float:
    """Grid spacing pi / (2 sum|h_i|), from the coefficient-norm bound."""
    return math.pi / (2.0 * h.coeff_norm)


def _check_unit_norm(phi: StateVector) -> None:
    # written so that a NaN norm fails too
    if not abs(phi.norm - 1.0) <= UNIT_NORM_TOL:
        raise ValueError("initial state must be unit norm")


def _sample_states(plan: EvolutionPlan, step: float, count: int,
                   starts: list[StateVector]) -> Iterator[list[StateVector]]:
    """exp(-i k step H)|s> for each s in ``starts``, one list per k < count.

    ``trotter2`` advances the last states by one ``evolve(plan, step, .)``;
    exact evolution, exact at any time, restarts from ``starts`` (from their
    cached eigen-coefficients) so that rounding does not build up over k."""
    states = starts
    yield states
    for k in range(1, count):
        if plan.mode == "trotter2":
            states = [evolve(plan, step, w) for w in states]
        else:
            states = [evolve(plan, k * step, s) for s in starts]
        yield states


def build_kqd(v0: StateVector, grid: TimeGrid, plan: EvolutionPlan) -> ToeplitzPencil:
    """Canonical first-row construction: B row <v0|v(t_j)> and A row
    <H v0|v(t_j)>, with H|v0> summed once.

    The entries are complex in general.  If the plan is exact and its T
    stabilizes v0 (T|v0> = +-|v0>, within ``STABILIZER_TOL`` as in
    ``_stabilized``), THT = -H gives <v0|exp(-iHt)|v0> = <v0|exp(iHt)|v0>,
    so the B row is real and the A row purely imaginary; both are returned
    so, each residue checked against :data:`ktr.states.EXPECTATION_IMAG_TOL`,
    and :func:`ktr.gevp.solve` takes its time-reversal path.  A Trotter step
    does not commute with H, so ``trotter2`` rows stay complex."""
    _check_unit_norm(v0)
    hv0 = StateVector(v0.n, sum(coeff * apply_action(action, v0.amps)
                                for coeff, action in plan.h.compiled()))
    row_a = np.zeros(grid.m, dtype=complex)
    row_b = np.zeros(grid.m, dtype=complex)
    for j, (vt,) in enumerate(_sample_states(plan, grid.dt, grid.m, [v0])):
        row_b[j] = inner(v0, vt)
        row_a[j] = inner(hv0, vt)
    if (plan.mode == "exact" and plan.t is not None
            and _stabilizer_sign(plan.t, v0)[0] <= STABILIZER_TOL):
        return ToeplitzPencil(1j * _real(-1j * row_a), _real(row_b), grid)
    return ToeplitzPencil(row_a, row_b, grid)


_Branches = list[tuple[float, StateVector]]


def _signed_curves(branches: _Branches, step: float, indices: np.ndarray,
                   plan: EvolutionPlan) -> tuple[np.ndarray, np.ndarray]:
    """The one pencil kernel: curves (a, b) of the plan's iHT and T at
    tau = k * step for each k of the sorted, distinct int array ``indices``.

    a[i] = sum_b w_b <v_b(tau)| iHT |v_b(tau)> at tau = indices[i] * step,
    and b[i] likewise with T, over the (w_b, v_b) ``branches``, where
    v_b(tau) = exp(-i tau H)|v_b>.  Exact mode reads every branch's curves
    in the plan's block eigenbasis (:func:`ktr.states.reversal_curves`);
    ``trotter2`` steps amplitude vectors along every grid point up to the
    last index and takes two expectations at each requested one.
    """
    t = plan.involution()
    starts = [state for _, state in branches]
    if plan.mode == "exact":
        weights = np.array([weight for weight, _ in branches])
        a, b = reversal_curves(plan, starts, step, indices)
        return weights @ a, weights @ b
    t_obs = PauliSum(t.n, ((1.0, t),))
    iht = build_iht_observable(plan.h, t)
    a = np.zeros(indices.size)
    b = np.zeros(indices.size)
    slots = {int(k): i for i, k in enumerate(indices)}
    for k, states in enumerate(_sample_states(plan, step, int(indices[-1]) + 1, starts)):
        i = slots.get(k)
        if i is None:
            continue
        for (weight, _), w in zip(branches, states):
            b[i] += weight * expectation(w, t_obs)
            a[i] += weight * expectation(w, iht)
    return a, b


def _stabilizer_sign(t: PauliString, v0: StateVector) -> tuple[float, int]:
    """(deviation, c): the sign c of +1 and -1 that fits T|v0> = c|v0> best,
    and the max-norm deviation of that fit."""
    reflected = apply_pauli(v0, t).amps
    return min((np.max(np.abs(reflected - sign * v0.amps)), sign) for sign in (1, -1))


def _stabilized(plan: EvolutionPlan, v0: StateVector) -> _Branches:
    """The branch list [(c, v0)], with c the sign of T|v0> = c|v0>, T the plan's.

    c is whichever of +1 and -1 fits within ``STABILIZER_TOL`` (max norm);
    a state that neither fits is not stabilized by T and is refused."""
    deviation, c = _stabilizer_sign(plan.involution(), v0)
    if deviation > STABILIZER_TOL:
        raise ValueError(
            f"initial state is not stabilized by the involution (deviation {deviation:.3e})")
    return [(c, v0)]


def _ranked_branches(phi: StateVector, projector_set: list[ProjectorSpec],
                     subset_size: int) -> _Branches:
    """(parity * p, P|phi> / sqrt(p)) for the ``subset_size`` projections of
    largest probability p (stable ties); a vanishing projection counts
    toward the subset but carries no branch."""
    ranked = []
    for idx, spec in enumerate(projector_set):
        work = project_array(phi.amps, spec)
        ranked.append((float(np.vdot(work, work).real), idx, spec, work))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return [(spec.parity * prob, StateVector(phi.n, work / math.sqrt(prob)))
            for prob, _, spec, work in ranked[:subset_size] if prob > PROJECTION_PROB_FLOOR]


def build_ktr(v0: StateVector, grid: TimeGrid, plan: EvolutionPlan) -> ToeplitzPencil:
    """Expectation-only route at half times for a stabilized start state.

    B row:  c <v(t_j/2)| T |v(t_j/2)>            (real)
    A row:  i c <v(t_j/2)| iHT |v(t_j/2)>        (purely imaginary)

    where T|v0> = c|v0>; v0 must be stabilized by T with either sign.
    """
    a, b = _signed_curves(_stabilized(plan, v0), 0.5 * grid.dt, np.arange(grid.m), plan)
    return ToeplitzPencil(1j * a, b, grid)


def implicit_hadamard_rows(phi: StateVector, grid: TimeGrid,
                           plan: EvolutionPlan) -> ToeplitzPencil:
    """Signed overlap rows for an arbitrary (unstabilized) start state.

    B row:  Re <phi| U(t_j) |phi>
          = w  <v(h_j)|T|v(h_j)>  -  (1 - w) <v_perp(h_j)|T|v_perp(h_j)>
    A row:  i Im <phi| U(t_j) H |phi>, same combination with iHT,
    where w = <phi|P|phi> and h_j = t_j / 2.  A projection whose weight
    vanishes drops out of the combination and is skipped, which covers
    symmetric start states where the route degenerates to ``build_ktr``.
    This is the local route on the one-block set {(I + T) / 2, (I - T) / 2}.
    """
    return extended_local_pencil(
        phi, enumerate_local_projectors((plan.involution(),)), grid, plan, 2)


def extended_local_pencil(phi: StateVector, projector_set: list[ProjectorSpec],
                          grid: TimeGrid, plan: EvolutionPlan,
                          subset_size: int) -> ToeplitzPencil:
    """Full pencil from the blockwise-projector route.

    The B row accumulates sum_i p(alpha_i) <phi| P_i (sqrtU+ T sqrtU) P_i |phi>
    over the ``subset_size`` projections of largest probability; with the
    full set this equals Re <phi| sum_i P_i U(t_j) P_i |phi>.  The A row
    applies the same signed combination to the observable iHT, mirroring
    the imaginary-part estimator of the implicit route; with a single block
    and the full set it is :func:`implicit_hadamard_rows`.
    """
    if not 1 <= subset_size <= len(projector_set):
        raise ValueError("subset size out of range")
    _check_unit_norm(phi)
    a, b = _signed_curves(_ranked_branches(phi, projector_set, subset_size),
                          0.5 * grid.dt, np.arange(grid.m), plan)
    return ToeplitzPencil(1j * a, b, grid)


def sample_expectation_curves(v0: StateVector, grid: TimeGrid, plan: EvolutionPlan,
                              samples_per_step: int = SAMPLES_PER_STEP,
                              indices: np.ndarray | None = None,
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Fine-grid curves a(tau) = c <v|iHT|v> and b(tau) = c <v|T|v>.

    The curves carry the stabilizer sign c of T|v0> = c|v0>, so their
    samples at h_j are the ``build_ktr`` rows (b, and a up to the factor i).
    The grid covers [0, (m-1) dt / 2] with ``samples_per_step`` points per
    Krylov step, matching the spacing the reconstruction routes expect.
    ``indices`` (sorted, distinct fine-grid indices; default all) picks the
    samples to evaluate, such as :func:`stencil_indices`.  The curves keep
    the fine-grid length and are NaN at every other sample, so a
    reconstruction that reads one of those gives a NaN row, which
    :class:`ToeplitzPencil` refuses.
    """
    total, delta = _fine_grid(grid, samples_per_step)
    indices = np.arange(total) if indices is None else np.asarray(indices)
    if (indices.size == 0 or indices[0] < 0 or indices[-1] >= total
            or np.any(np.diff(indices) <= 0)):
        raise ValueError(f"sample indices must be sorted, distinct and in [0, {total})")
    a, b = _signed_curves(_stabilized(plan, v0), delta, indices, plan)
    a_fine = np.full(total, np.nan)
    b_fine = np.full(total, np.nan)
    a_fine[indices] = a
    b_fine[indices] = b
    return a_fine, b_fine


# 4th-order 5-point derivative stencils, row by position inside the window
_FD_WEIGHTS = np.array([
    (-25.0, 48.0, -36.0, 16.0, -3.0),
    (-3.0, -10.0, 18.0, -6.0, 1.0),
    (1.0, -8.0, 0.0, 8.0, -1.0),
    (-1.0, 6.0, -18.0, 10.0, 3.0),
    (3.0, -16.0, 36.0, -48.0, 25.0),
])


def _fine_grid(grid: TimeGrid, samples_per_step: int, samples: int | None = None,
               five_point: bool = False) -> tuple[int, float]:
    """Size and spacing (total, delta) of the fine tau grid over
    [0, (m-1) dt / 2], after validating the inputs of a fine-grid route:
    a curve of ``samples`` given samples (if given) must have exactly the
    total, as one sampled at another density would be read at the wrong
    times, and the derivative stencil needs at least five."""
    if samples_per_step < 2 or samples_per_step % 2 != 0:
        raise ValueError("samples_per_step must be a positive even number")
    total = (grid.m - 1) * samples_per_step + 1
    if samples is not None and samples != total:
        raise ValueError(f"need exactly {total} samples, got {samples}")
    if five_point and total < 5:
        raise ValueError(f"grid too coarse for a five-point stencil: grid.m = {grid.m} at "
                         f"samples_per_step = {samples_per_step} gives {total} fine "
                         f"samples, the derivative route needs 5")
    return total, (0.5 * grid.dt) / samples_per_step


def _five_point_windows(grid: TimeGrid, samples_per_step: int,
                        total: int) -> tuple[np.ndarray, np.ndarray]:
    """The five-point windows that differentiate the Krylov points j *
    samples_per_step of a curve of ``total`` samples, centred and
    one-sided at the curve's ends: their fine-grid indices, shape (m, 5),
    and each point's position inside its window."""
    points = np.arange(grid.m) * samples_per_step
    starts = np.clip(points - 2, 0, total - 5)
    return starts[:, None] + np.arange(5), points - starts


def stencil_indices(grid: TimeGrid, samples_per_step: int = SAMPLES_PER_STEP) -> np.ndarray:
    """The sorted fine-grid indices that :func:`reconstruct_a_from_b` reads
    from a curve of the grid's own length: the union of the five-point
    windows at the Krylov points j * samples_per_step, at most 5 m."""
    total, _ = _fine_grid(grid, samples_per_step, five_point=True)
    return np.unique(_five_point_windows(grid, samples_per_step, total)[0])


def reconstruct_b_from_a(a_fine: np.ndarray, grid: TimeGrid,
                         samples_per_step: int = SAMPLES_PER_STEP) -> np.ndarray:
    """B row from fine samples of a(tau) = c <v(tau)|iHT|v(tau)>.

    The curve carries the stabilizer sign c, as
    :func:`sample_expectation_curves` returns it.  Uses the running-integral
    relation B[j] = 2 int_0^{h_j} a + 1 with the composite Simpson rule;
    h_j = (j - 1) dt / 2.
    """
    a_fine = np.asarray(a_fine, dtype=float)
    total, delta = _fine_grid(grid, samples_per_step, a_fine.shape[0])
    # Simpson's rule on each double panel, summed once from tau = 0
    panels = a_fine[:total - 2:2] + 4.0 * a_fine[1:total - 1:2] + a_fine[2:total:2]
    prefix = np.concatenate(([0.0], np.cumsum(panels) * (delta / 3.0)))
    return 2.0 * prefix[::samples_per_step // 2] + 1.0


def reconstruct_a_from_b(b_fine: np.ndarray, grid: TimeGrid,
                         samples_per_step: int = SAMPLES_PER_STEP) -> np.ndarray:
    """A row from fine samples of b(tau) = c <v(tau)|T|v(tau)>.

    The curve carries the stabilizer sign c, as
    :func:`sample_expectation_curves` returns it.  Uses A[j] = (i / 2) *
    db/dtau at h_j, estimated with 4th-order five-point finite differences
    (one-sided at the interval ends).
    """
    b_fine = np.asarray(b_fine, dtype=float)
    total, delta = _fine_grid(grid, samples_per_step, b_fine.shape[0], five_point=True)
    windows, position = _five_point_windows(grid, samples_per_step, total)
    # one (1 x 5) @ (5 x 1) product per Krylov point
    slope = (_FD_WEIGHTS[position][:, None] @ b_fine[windows][..., None]).ravel()
    return 0.5j * (slope / (12.0 * delta))

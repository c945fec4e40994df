"""Krylov subspace diagonalization of spin Hamiltonians via anticommuting
involutions, on statevectors evolved exactly on the Hamiltonian's symmetry
blocks or by second-order Trotter steps.

The subpackages follow the pipeline order: :mod:`ktr.paulis` (operator
algebra), :mod:`ktr.symmetry` (GF(2) search for reversal operators),
:mod:`ktr.states` (statevector kernel and time evolution),
:mod:`ktr.initial` (stabilized start states), :mod:`ktr.models`
(benchmark chains), :mod:`ktr.krylov` (overlap pencils), :mod:`ktr.gevp`
(regularized generalized eigensolver) and :mod:`ktr.cli` (experiment
runner).
"""

__version__ = "0.1.0"

from . import errors, gevp, initial, krylov, models, paulis, states, symmetry
from .errors import (ConfigError, DegeneratePencilError, DegenerateProjectionError,
                     InternalInconsistencyError, KtrError, ModelConsistencyError,
                     NotTimeReversalError, ResourceLimitError)
from .paulis import (PauliString, PauliSum, build_iht_observable, dense_matrix,
                     multiply, pauli_sum_from_text, symplectic_product)
from .symmetry import (Infeasible, SymmetrySolution, build_parity_matrix, rref,
                       solve_time_reversal, verify_time_reversal)
from .states import (EvolutionPlan, StateVector, apply_pauli, evolve, expectation,
                     inner, matrix_element, plus_state)
from .initial import (ProjectorSpec, build_block_product, build_block_state_w0,
                      enumerate_local_projectors, project)
from .krylov import (TimeGrid, ToeplitzPencil, build_kqd, build_ktr, default_dt,
                     extended_local_pencil, implicit_hadamard_rows,
                     reconstruct_a_from_b, reconstruct_b_from_a,
                     sample_expectation_curves)
from .gevp import SpectrumResult, exact_reference, sector_ground_energy, solve
from .models import ModelSpec, gauss_generators, known_time_reversal

__all__ = [name for name in dir() if not name.startswith("_")]

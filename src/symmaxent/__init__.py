"""Maximum-entropy quantum state estimation with symmetry constraints.

Estimates a density matrix from a partial set of expectation values by
maximizing the von Neumann entropy, optionally restricted by a declared
symmetry of the source (qubit-permutation invariance or invariance under
collective single-qubit unitaries). Includes canonical observable sets,
a photon-counting acquisition model, and a sweep harness that maps
reconstruction fidelity against the number of measured observables.
"""

__version__ = "0.1.0"

from .linalg import (
    eigh,
    psd_sqrtm,
)
from .maxent import (
    MaxEntProblem,
    MaxEntSolution,
    SolverOptions,
    gradient,
    objective,
    rho_of_lambda,
    solve,
)
from .measurement import (
    Modes,
    NoiseConfig,
    click_probability,
    estimate_expectations,
    projector_modes,
    simulate_counts,
    stack_modes,
)
from .observables import expectation, pauli_basis, sic_povm
from .states import (
    DensityMatrix,
    PureState,
    add_white_noise,
    dicke,
    fidelity,
    ghz,
    haar_pure,
    haar_symmetric_pure,
    purity,
    random_werner,
    von_neumann_entropy,
)
from .symmetry import (
    commutant_basis,
    independent_projections,
    project,
)
from .harness import ExperimentConfig, SweepResult, run_sweep, summarize

__all__ = [
    "eigh",
    "psd_sqrtm",
    "MaxEntProblem",
    "MaxEntSolution",
    "SolverOptions",
    "gradient",
    "objective",
    "rho_of_lambda",
    "solve",
    "Modes",
    "NoiseConfig",
    "click_probability",
    "estimate_expectations",
    "projector_modes",
    "simulate_counts",
    "stack_modes",
    "expectation",
    "pauli_basis",
    "sic_povm",
    "DensityMatrix",
    "PureState",
    "add_white_noise",
    "dicke",
    "fidelity",
    "ghz",
    "haar_pure",
    "haar_symmetric_pure",
    "purity",
    "random_werner",
    "von_neumann_entropy",
    "commutant_basis",
    "independent_projections",
    "project",
    "ExperimentConfig",
    "SweepResult",
    "run_sweep",
    "summarize",
]

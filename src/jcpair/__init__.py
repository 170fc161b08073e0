"""Two coupled Jaynes-Cummings cells: spectrum, eigenstates, susceptibility.

Closed forms for the one-excitation sector (energies, eigenstates, probe
response) together with a self-contained dense symmetric eigensolver that
serves as the independent numeric oracle for all of them.
"""

from .config import ConfigError, RunConfig, SweepSpec, dump_config, load_config, parse_config
from .eigenstates import (
    EigenAmplitudes,
    amplitudes,
    branch_detuning,
    eigenstate_vector,
    entanglement_deviation,
)
from .linalg import (
    ConvergenceError,
    EigenSystem,
    SymMatrix,
    eig_sym,
    eigenvalue_multiset_equal,
)
from .model import (
    DampingParams,
    SystemParams,
    jc_doublet_energies,
    jc_ground_energy,
    jc_mixing_angle,
)
from .sectors import (
    NU_CAP,
    BasisState,
    SectorBasis,
    SectorMatrix,
    build_collective_hamiltonian,
    build_hamiltonian,
    coupling_element,
    diagonal_energy,
    enumerate_sector,
)
from .spectrum import (
    BRANCHES,
    BranchLabel,
    SpectrumSweep,
    min_gap,
    one_excitation_energies,
    one_excitation_energies_perturbative,
    sweep_spectrum,
)
from .susceptibility import (
    AbsorptionCurve,
    TransitionTable,
    absorption_imag,
    peak_report,
    susceptibility_curve,
    symmetry_metric,
    transition_matrix_elements,
    transition_probabilities,
    transition_table,
)
from .validate import SuiteResult, all_passed, run_all, summary_text

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BRANCHES",
    "NU_CAP",
    "AbsorptionCurve",
    "BasisState",
    "BranchLabel",
    "ConfigError",
    "ConvergenceError",
    "DampingParams",
    "EigenAmplitudes",
    "EigenSystem",
    "RunConfig",
    "SectorBasis",
    "SectorMatrix",
    "SpectrumSweep",
    "SuiteResult",
    "SweepSpec",
    "SymMatrix",
    "SystemParams",
    "TransitionTable",
    "absorption_imag",
    "all_passed",
    "amplitudes",
    "branch_detuning",
    "build_collective_hamiltonian",
    "build_hamiltonian",
    "coupling_element",
    "diagonal_energy",
    "dump_config",
    "eig_sym",
    "eigenstate_vector",
    "eigenvalue_multiset_equal",
    "entanglement_deviation",
    "enumerate_sector",
    "jc_doublet_energies",
    "jc_ground_energy",
    "jc_mixing_angle",
    "load_config",
    "min_gap",
    "one_excitation_energies",
    "one_excitation_energies_perturbative",
    "parse_config",
    "peak_report",
    "run_all",
    "summary_text",
    "susceptibility_curve",
    "sweep_spectrum",
    "symmetry_metric",
    "transition_matrix_elements",
    "transition_probabilities",
    "transition_table",
]

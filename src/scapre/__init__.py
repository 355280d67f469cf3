"""Closed-form concept-unlearning edits for linear projection matrices.

The library edits a projection ``W0`` so that chosen concept directions map
to replacement outputs: it assembles an input-side stabilizer from context
statistics and gated concept-subspace energy, weights output channels by
their mutual information with the targets, solves the resulting matrix
equation in closed form for an edit anchored to ``W0``, and steps the
result back toward ``W0``. Brute-force oracles, evaluation metrics, a
synthetic benchmark harness, and a CLI with a bit-exact matrix format
round it out.
"""

__version__ = "0.1.0"

from .geometry import BW_GEODESIC, bures_distance, refine_weights
from .harness import (
    SyntheticModel,
    SyntheticModelSpec,
    confuse_benchmark,
    generate_model,
    scaling_sweep,
)
from .informax import DecouplerAlpha, JointCounts, build_decoupler, channel_mi, channel_thresholds
from .matkernel import kron_assemble, procrustes, psd_sqrt, svd, sym_eig
from .metrics import (
    MethodScore,
    overall_accuracy,
    probe_scores,
    uq_minmax,
    uq_rank,
    uq_sigmoid,
)
from .oracle import OracleConfig, gd_minimize, mi_bruteforce, objective_perturbation_check
from .pipeline import EditConfig, EditReport, run_edit, solve_edit
from .smatio import read_smat, write_smat
from .solver import (
    SUBSTITUTE_TARGET,
    ZERO_TARGET,
    EraseSpec,
    assemble_m,
    baseline_eq2,
    objective_value,
    sylvester_solve_kronecker,
    sylvester_solve_spectral,
)
from .stabilizer import StabilizerA, assemble_a, build_a, build_r, build_s, gate_singular

__all__ = [
    "BW_GEODESIC",
    "SUBSTITUTE_TARGET",
    "ZERO_TARGET",
    "DecouplerAlpha",
    "EditConfig",
    "EditReport",
    "EraseSpec",
    "JointCounts",
    "MethodScore",
    "OracleConfig",
    "StabilizerA",
    "SyntheticModel",
    "SyntheticModelSpec",
    "assemble_a",
    "assemble_m",
    "baseline_eq2",
    "build_a",
    "build_decoupler",
    "build_r",
    "build_s",
    "bures_distance",
    "channel_mi",
    "channel_thresholds",
    "confuse_benchmark",
    "gate_singular",
    "gd_minimize",
    "generate_model",
    "kron_assemble",
    "mi_bruteforce",
    "objective_perturbation_check",
    "objective_value",
    "overall_accuracy",
    "probe_scores",
    "procrustes",
    "psd_sqrt",
    "read_smat",
    "refine_weights",
    "run_edit",
    "scaling_sweep",
    "solve_edit",
    "svd",
    "sym_eig",
    "sylvester_solve_kronecker",
    "sylvester_solve_spectral",
    "uq_minmax",
    "uq_rank",
    "uq_sigmoid",
    "write_smat",
]

"""onticbench: an exact-arithmetic workbench for finite ontological models.

The package decides, with no floating point on any decision path, whether
finite hidden-variable models reproduce quantum statistics: it validates
models against the Born rule, analyzes preparation and local independence
and epistemic overlap, and settles response-function synthesis questions
by exact linear programming with independently checkable witnesses and
Farkas infeasibility certificates.
"""

from .numerics import (
    HALF,
    INV_SQRT2,
    ONE,
    QSqrt2,
    QUARTER,
    Rational,
    SQRT2,
    ZERO,
    is_probability,
    qmax,
    qmin,
)
from .verdicts import Verdict
from .hilbert import (
    MeasurementBasis,
    StateVector,
    born_probabilities,
    check_orthonormal,
    format_state,
    inner_product,
    ket,
    ket_product,
    parse_state,
    tensor_product,
)
from .ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    OntologicalModel,
    PredictionCell,
    PredictionReport,
    ResponseFunctions,
    check_born_agreement,
    format_point,
    predicted_statistics,
    simulate,
    validate_epistemic,
    validate_responses,
)
from .independence import (
    IndependenceReport,
    StateIndependence,
    analyze_independence,
    check_full_independence,
    check_local_independence,
    check_preparation_independence,
    classical_overlap,
    marginalize,
    product_state,
    single_factor_marginals,
)
from .synthesis import (
    Constraint,
    FeasibilityResult,
    LPProblem,
    MinViolationResult,
    SynthesisSpec,
    build_min_violation_lp,
    build_synthesis_lp,
    extract_responses,
    min_violation,
    responses_to_witness,
    solve_feasibility,
    solve_min_violation,
    verify_certificate,
)
from .scenarios import (
    PbrScenario,
    build_lhv_restriction,
    build_pbr_lhv_model,
    build_pbr_quantum_scenario,
    build_toy_nlhv_model,
    forbidden_cells,
    lhv_synthesis_spec,
    pbr_synthesis_spec,
    subsystem_states,
    toy_synthesis_spec,
)
from .modelfile import (
    ModelFormatError,
    ModelValidationError,
    dump_model,
    dumps,
    load_model,
    loads,
    read_model,
    validate_model,
)

__version__ = "0.1.0"

__all__ = [
    "QSqrt2", "Rational", "ZERO", "ONE", "HALF", "QUARTER", "SQRT2", "INV_SQRT2",
    "is_probability", "qmin", "qmax",
    "Verdict",
    "StateVector", "MeasurementBasis",
    "inner_product", "tensor_product", "born_probabilities", "check_orthonormal",
    "ket", "ket_product", "parse_state", "format_state",
    "Factor", "OnticSpace", "EpistemicState", "ResponseFunctions", "OntologicalModel",
    "PredictionCell", "PredictionReport", "format_point",
    "validate_epistemic", "validate_responses", "predicted_statistics",
    "check_born_agreement", "simulate",
    "product_state", "marginalize", "single_factor_marginals",
    "check_preparation_independence", "check_local_independence",
    "check_full_independence", "classical_overlap",
    "StateIndependence", "IndependenceReport", "analyze_independence",
    "SynthesisSpec", "Constraint", "LPProblem", "FeasibilityResult",
    "MinViolationResult", "build_synthesis_lp", "build_min_violation_lp",
    "solve_feasibility", "solve_min_violation", "min_violation",
    "verify_certificate", "extract_responses", "responses_to_witness",
    "PbrScenario", "build_pbr_quantum_scenario", "build_toy_nlhv_model",
    "build_lhv_restriction", "build_pbr_lhv_model", "subsystem_states",
    "toy_synthesis_spec", "lhv_synthesis_spec", "pbr_synthesis_spec", "forbidden_cells",
    "ModelFormatError", "ModelValidationError",
    "loads", "dumps", "read_model", "load_model", "dump_model", "validate_model",
]

"""Moment relaxations of semidefinite programs over finitely presented
*-algebras, a dense interior-point solver, and symmetry reduction."""

from .algebra import (
    AlgebraError, Letter, Polynomial, Presentation, RewriteRule, Word,
    is_normal_form, normal_form,
)
from .ipm import (
    FeasibilityReport, Solution, SolverOptions, Status,
    feasibility_check, solve,
)
from .oracles import (
    ConcreteRealization, EmptyFeasibleGrid, RealizationError,
    chsh_classical_max, chsh_tsirelson_realization, grid_min,
    realize_moments,
)
from .problems import (
    ProblemFile, ProblemSyntaxError,
    parse_polynomial, parse_problem, parse_problem_file,
    poly_to_str, word_to_str,
)
from .relaxation import (
    NotRepresentableError, RelaxationError, RelaxationModel,
    RelaxationResult, RelaxationWarning,
    build_relaxation, expand_gram, generate_basis, gram_representative,
    jnc_family, jnc_support,
)
from .sdpmodel import (
    Block, LinearConstraint, ModelError, SDPAFormatError,
    SDPModel, export_sdpa, export_sdpa_file, import_sdpa, import_sdpa_file,
    realify, realify_matrix, to_equality_form,
)
from .symmetry import (
    GroupError, GroupRep, InvarianceError, InvariantBasis, ReducedSDP,
    invariant_basis, parse_group_file, reduce_sdp,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "Letter", "Polynomial", "Presentation", "RewriteRule",
    "Word", "is_normal_form", "normal_form",
    "FeasibilityReport", "Solution", "SolverOptions", "Status",
    "feasibility_check", "solve",
    "ConcreteRealization", "EmptyFeasibleGrid", "RealizationError",
    "chsh_classical_max", "chsh_tsirelson_realization", "grid_min",
    "realize_moments",
    "ProblemFile", "ProblemSyntaxError", "parse_polynomial", "parse_problem",
    "parse_problem_file", "poly_to_str", "word_to_str",
    "NotRepresentableError", "RelaxationError", "RelaxationModel",
    "RelaxationResult", "RelaxationWarning", "build_relaxation",
    "expand_gram", "generate_basis", "gram_representative", "jnc_family",
    "jnc_support",
    "Block", "LinearConstraint", "ModelError",
    "SDPAFormatError", "SDPModel", "export_sdpa", "export_sdpa_file",
    "import_sdpa", "import_sdpa_file", "realify", "realify_matrix",
    "to_equality_form",
    "GroupError", "GroupRep", "InvarianceError", "InvariantBasis",
    "ReducedSDP", "invariant_basis", "parse_group_file", "reduce_sdp",
    "__version__",
]

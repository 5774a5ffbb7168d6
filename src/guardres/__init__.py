"""Stable models of normal logic programs via guarded unit resolution.

The package reads ground normal programs (`head :- a, not b.`), derives
per-atom supports by guarded resolution, characterizes stable models
through defining equations and candidate theories over an embedded DPLL
solver, and checks everything against the brute-force reduct oracle.
"""

from .completion import (
    CompletionTheory,
    Equation,
    build_completion,
    dung_transform,
    equivalent,
    format_equation,
    models_of_completion,
)
from .core import (
    AtomTable,
    Clause,
    Program,
    ResourceLimitError,
    all_interpretations,
    format_interpretation,
    interpretation,
    satisfies_clause,
    satisfies_program,
)
from .guarded import (
    ProofError,
    ProofTree,
    SupportTable,
    admits,
    enumerate_supports,
    format_proof,
    guarded_resolve,
    proof_from_sexp,
    proof_to_sexp,
    saturate_supports,
    verify_proof,
)
from .parse import ParseError, SourceSpan, parse_program, render_program
from .sat import (
    CnfTheory,
    dpll_solve,
    enumerate_models,
    export_dimacs,
    parse_dimacs,
    program_to_cnf,
)
from .semantics import (
    brute_force_stable,
    check_levels,
    compute_levels,
    gl_operator,
    gl_reduct,
    is_stable,
    is_supported,
    is_tight,
    is_tight_on,
    least_model,
)
from .solver import (
    CandidateTheory,
    SolveStats,
    candidate_theories,
    candidate_theory,
    check_candidate,
    format_certificate,
    solve_stable,
)

__version__ = "0.1.0"

__all__ = [
    "AtomTable",
    "CandidateTheory",
    "Clause",
    "CnfTheory",
    "CompletionTheory",
    "Equation",
    "ParseError",
    "Program",
    "ProofError",
    "ProofTree",
    "ResourceLimitError",
    "SolveStats",
    "SourceSpan",
    "SupportTable",
    "admits",
    "all_interpretations",
    "brute_force_stable",
    "build_completion",
    "candidate_theories",
    "candidate_theory",
    "check_candidate",
    "check_levels",
    "compute_levels",
    "dpll_solve",
    "dung_transform",
    "enumerate_models",
    "enumerate_supports",
    "equivalent",
    "export_dimacs",
    "format_certificate",
    "format_equation",
    "format_interpretation",
    "format_proof",
    "gl_operator",
    "gl_reduct",
    "guarded_resolve",
    "interpretation",
    "is_stable",
    "is_supported",
    "is_tight",
    "is_tight_on",
    "least_model",
    "models_of_completion",
    "parse_dimacs",
    "parse_program",
    "program_to_cnf",
    "proof_from_sexp",
    "proof_to_sexp",
    "render_program",
    "satisfies_clause",
    "satisfies_program",
    "saturate_supports",
    "solve_stable",
    "verify_proof",
]

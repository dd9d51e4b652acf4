"""First-order arithmetic workbench.

A proof kernel for a Hilbert-style first-order calculus and its
arithmetic extension, builders for the Goldbach sentence over the
admissible evens, concrete verification with a sieve, and a family of
coded interpretations with a bounded three-valued evaluator.
"""

from .syntax import (
    And,
    AnyTerm,
    Atom,
    CaptureError,
    Const,
    Exists,
    ForAll,
    FuncApp,
    Iff,
    Implies,
    NoMatch,
    Not,
    Or,
    ParseError,
    Term,
    Var,
    Wff,
    Witness,
    ZERO,
    eq,
    free_vars,
    is_core,
    is_free_for,
    lower,
    match_substitution_result,
    parse_core,
    parse_term,
    parse_wff,
    plus,
    print_term,
    print_wff,
    substitute,
    succ,
    term_vars,
    times,
)
from .kernel import (
    Gen,
    Justification,
    MP,
    Proof,
    ProofLine,
    ProperAxiom,
    Scheme,
    SchemeId,
    Theory,
    TheoryError,
    UNKNOWN,
    Unknown,
    Verdict,
    build_theory_K,
    build_theory_N,
    build_theory_N_eq,
    check_proof,
    discover,
    extend_theory,
    match_scheme,
    recognize_scheme,
    resolve_unknowns,
)
from .proofio import ProofFileError, format_proof, parse_proof_file
from .arith import admissible_wff, decode_numeral, goldbach_sentence, numeral, prime_wff
from .goldbach import (
    ScanReport,
    admissible_evens,
    is_admissible,
    is_prime,
    partitions,
    scan,
)
from .models import (
    AxiomCheck,
    CodedModel,
    CodedNat,
    CodingFunction,
    EvalResult,
    LimitRow,
    ModelError,
    ThreeValued,
    check_axioms,
    coded_model,
    default_coding,
    eval_bounded,
    limit_table,
    limit_table_csv,
)

__version__ = "0.1.0"

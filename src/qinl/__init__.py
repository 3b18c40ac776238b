"""qinl: a typed term calculus with schemas as equational theories, finite
instances, schema mappings, the three data migration operations, nested
relational expressions evaluated by the same evaluator as terms, and
comprehension queries, behind a batch CLI."""

from .kernel import (
    App,
    Base,
    Context,
    EngineError,
    Lit,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Signature,
    Term,
    TypeExpr,
    TypeMismatch,
    UNIT,
    UNIT_TERM,
    UnboundVariable,
    Unit,
    UnitTerm,
    UnknownBaseType,
    UnknownOperation,
    Var,
    check_context,
    format_term,
    format_type,
    infer_type,
    substitute,
    substitute_many,
)
from .equality import (
    Equation,
    IllTyped,
    Proved,
    Theory,
    Unknown,
    Verdict,
    check_theory,
    decide_equal,
    instantiate,
)
from .nrc import (
    BOOL,
    Empty,
    EqTest,
    FALSE,
    For,
    If,
    SetT,
    Singleton,
    TRUE,
    Union,
    UninterpretedOperation,
    nrc_infer_type,
    relational_library,
)
from .schema import (
    BuiltinRegistry,
    FqlSchema,
    Instance,
    InvalidInstance,
    LabelledNull,
    OpApplied,
    PartialFunction,
    SatisfactionReport,
    SetV,
    check_instance,
    default_builtins,
    eval_term,
    format_cell,
    instance_equal_upto_iso,
    make_set,
    validate_instance,
)
from .chase import FuelExhausted, InconsistentConstants, initial_model
from .mapping import (
    SchemaMapping,
    apply_to_term,
    apply_to_type,
    check_preservation,
    compose,
    identity_mapping,
    preservation_ok,
)
from .migration import (
    Homomorphism,
    TooLarge,
    UnstatedNull,
    UnverifiedMapping,
    delta,
    enumerate_homs,
    pi,
    sigma,
)
from .query import Comprehension, NonEntityBinding, QueryResult, eval_query, typecheck_query
from .surface import ParseError, SourceUnit, elaborate, parse, print_unit

__all__ = [name for name in dir() if not name.startswith("_")]

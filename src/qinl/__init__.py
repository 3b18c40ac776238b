"""qinl: a typed term calculus with schemas as equational theories, finite
instances, schema mappings, the three data migration operations, a set
semantics evaluator for nested relational expressions, and comprehension
queries, behind a batch CLI."""

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
    BaseV,
    Empty,
    EqTest,
    FALSE,
    For,
    If,
    PairV,
    SetT,
    SetV,
    Singleton,
    TRUE,
    Union,
    UninterpretedOperation,
    UnitV,
    Value,
    format_value,
    make_set,
    nrc_eval,
    nrc_infer_type,
    relational_library,
    value_type,
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
    check_instance,
    default_builtins,
    eval_term,
    instance_equal_upto_iso,
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

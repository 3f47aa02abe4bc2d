"""Clifford algebra kernel with quaternion-type classification and a typed DSL."""

from .algebra import (
    COMPLEX,
    EXACT,
    FLOAT,
    FLOAT_TOL,
    REAL,
    Multivector,
    Signature,
    anticommutator,
    blade_indices,
    blade_mul,
    commutator,
    mask_from_indices,
    sign_mask,
)
from .dsl import (
    TypeEnv,
    check_soundness,
    eval_expr,
    format_expr,
    format_program,
    free_symbols,
    infer_type,
    parse_program,
    random_instance,
)
from .errors import AlgebraError, BindingError, ParseError
from .mvtext import format_mv, mv_from_dict, mv_to_dict, parse_mv
from .qtype import (
    CONJUGATIONS_COMPLEX,
    CONJUGATIONS_REAL,
    TypeSet,
    anticommutator_type,
    apply_conjugation,
    classify_by_conjugation,
    classify_by_rank,
    commutator_type,
    conjugation_action,
    eigenspace,
    main_type_dim,
    member,
    parse_typeset,
    product_type,
    qtype_project,
)

__version__ = "0.1.0"

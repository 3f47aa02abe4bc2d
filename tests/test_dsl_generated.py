"""Properties of generated typed DSL programs: sound, no looser than the
compositional type, and stable under format and parse."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cliffqt import COMPLEX, REAL, Signature, TypeEnv, TypeSet, check_soundness, infer_type
from cliffqt.dsl import (
    Add,
    AntiComm,
    Comm,
    Conj,
    IMul,
    Neg,
    Prod,
    ScalarMul,
    Sym,
    _infer_compositional,
    format_program,
    parse_program,
)

MAX_DEPTH = 5
_NAMES = ("x", "y", "z")
_SIGNATURES = (Signature(2, 1), Signature(1, 3))

# factors the parser can produce: a minus sign parses as Neg, so none is negative
_FACTORS = st.fractions(min_value=0, max_value=5, max_denominator=4).map(
    lambda q: int(q) if q.denominator == 1 else q
)


@st.composite
def programs(draw):
    """A typed program over every node kind, in either field, up to MAX_DEPTH deep."""
    field = draw(st.sampled_from((REAL, COMPLEX)))
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3, unique=True))
    full = TypeSet.full(field).bits
    types = {name: TypeSet(field, draw(st.integers(1, full))) for name in names}
    kinds = ["sym", "add", "neg", "scalar", "prod", "comm", "acomm", "conj"]
    ops = ["rev", "gri"]
    if field == COMPLEX:
        kinds.append("imul")
        ops += ["conj", "phc"]

    def node(depth):
        kind = draw(st.sampled_from(kinds)) if depth < MAX_DEPTH else "sym"
        if kind == "sym":
            return Sym(draw(st.sampled_from(names)))
        if kind == "neg":
            return Neg(node(depth + 1))
        if kind == "scalar":
            return ScalarMul(draw(_FACTORS), node(depth + 1))
        if kind == "imul":
            return IMul(node(depth + 1))
        if kind == "conj":
            return Conj(draw(st.sampled_from(ops)), node(depth + 1))
        binary = {"add": Add, "prod": Prod, "comm": Comm, "acomm": AntiComm}[kind]
        return binary(node(depth + 1), node(depth + 1))

    return TypeEnv(field, types), node(1)


@settings(max_examples=300)
@given(programs())
def test_generated_programs_are_sound_and_round_trip(program):
    env, expr = program
    inferred = infer_type(expr, env)
    assert inferred <= _infer_compositional(expr, env)
    for sig in _SIGNATURES:
        report = check_soundness(expr, env, sig, trials=2)
        assert report.passed, report.format_text()
    env2, expr2 = parse_program(format_program(env, expr), env.field)
    assert expr2 == expr
    assert env2.types == env.types

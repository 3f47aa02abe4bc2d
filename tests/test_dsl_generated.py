"""Properties of generated typed DSL programs: sound, no looser than the
compositional type, equal to the reference inference that builds every
conjugated copy of the normal form, and stable under format and parse."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cliffqt import COMPLEX, REAL, Signature, TypeEnv, TypeSet, check_soundness, infer_type
from conftest import relabel_and_compare_type
from cliffqt.dsl import (
    Add,
    Bracket,
    Conj,
    Prod,
    Scale,
    Sym,
    _infer_compositional,
    format_program,
    parse_program,
)

MAX_DEPTH = 5
_NAMES = ("x", "y", "z")
_SIGNATURES = (Signature(2, 1), Signature(1, 3))

_MAGNITUDES = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def programs(draw):
    """A typed program over every node kind, in either field, up to MAX_DEPTH deep."""
    field = draw(st.sampled_from((REAL, COMPLEX)))
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3, unique=True))
    full = TypeSet.full(field).bits
    types = {name: TypeSet(field, draw(st.integers(0, full))) for name in names}
    ops = ["rev", "gri"] + (["conj", "phc"] if field == COMPLEX else [])
    imaginary = [False, True] if field == COMPLEX else [False]

    def operands(depth):
        return [node(depth + 1) for _ in range(draw(st.integers(2, 4)))]

    def node(depth):
        kind = "sym" if depth >= MAX_DEPTH else draw(
            st.sampled_from(["sym", "add", "prod", "scale", "bracket", "conj"])
        )
        if kind == "sym":
            return Sym(draw(st.sampled_from(names)))
        if kind == "add":
            return Add(operands(depth))
        if kind == "prod":
            return Prod(operands(depth))
        if kind == "scale":
            q = draw(_MAGNITUDES)
            return Scale((0, q) if draw(st.sampled_from(imaginary)) else (q, 0), node(depth + 1))
        if kind == "bracket":
            return Bracket(draw(st.sampled_from((-1, 1))), node(depth + 1), node(depth + 1))
        return Conj(draw(st.sampled_from(ops)), node(depth + 1))

    return TypeEnv(field, types), node(1)


@settings(max_examples=300)
@given(programs())
def test_generated_programs_are_sound_and_round_trip(program):
    env, expr = program
    inferred = infer_type(expr, env)
    assert inferred <= _infer_compositional(expr, env)
    assert inferred == relabel_and_compare_type(expr, env)
    for sig in _SIGNATURES:
        report = check_soundness(expr, env, sig, trials=2)
        assert report.passed, report.format_text()
    env2, expr2 = parse_program(format_program(env, expr), env.field)
    assert expr2 == expr
    assert env2.types == env.types

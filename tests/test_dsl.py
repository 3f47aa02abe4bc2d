import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from cliffqt import (
    COMPLEX,
    REAL,
    AlgebraError,
    BindingError,
    Multivector,
    ParseError,
    Signature,
    TypeEnv,
    TypeSet,
    check_soundness,
    classify_by_rank,
    eval_expr,
    format_expr,
    format_program,
    infer_type,
    parse_mv,
    parse_program,
    parse_typeset,
    random_instance,
)
from cliffqt import dsl, qtype
from cliffqt.corpus import CORPUS
from cliffqt.dsl import (
    Add,
    Bracket,
    Conj,
    MAX_MONOMIALS,
    Prod,
    Scale,
    Sym,
    _eigen_sign,
    _infer_compositional,
    _unrank_subset,
    canonical_form,
    free_symbols,
    trial_seed,
)
from cliffqt.mvtext import format_mv
from cliffqt.qtype import conjugation_codes, member
from conftest import reference_sign, relabel_and_compare_type


def ts(text, field=REAL):
    return parse_typeset(text, field)


# ---------------------------------------------------------------- parsing

def test_parse_declarations_and_comm():
    env, expr = parse_program("let x:2; let y:2; [x,y]")
    assert expr == Bracket(-1, Sym("x"), Sym("y"))
    assert env.types == {"x": ts("2"), "y": ts("2")}


def test_parse_conjugation_nesting():
    env, expr = parse_program("let u:01; [u, rev(u)]")
    assert expr == Bracket(-1, Sym("u"), Conj("rev", Sym("u")))
    env, expr = parse_program("gri(rev(x))")
    assert expr == Conj("gri", Conj("rev", Sym("x")))


def test_parse_precedence_and_unary():
    _, expr = parse_program("x + y*z")
    assert expr == Add((Sym("x"), Prod((Sym("y"), Sym("z")))))
    _, expr = parse_program("3/2*x - y")
    assert expr == Add((Scale((Fraction(3, 2), 0), Sym("x")), Scale((-1, 0), Sym("y"))))
    _, expr = parse_program("i*x", COMPLEX)
    assert expr == Scale((0, 1), Sym("x"))
    _, expr = parse_program("{x, y} + [y, x]")
    assert expr == Add((Bracket(1, Sym("x"), Sym("y")), Bracket(-1, Sym("y"), Sym("x"))))
    _, expr = parse_program("(x + y)*z")
    assert expr == Prod((Add((Sym("x"), Sym("y"))), Sym("z")))
    # chains are n-ary, and a nested chain of the same kind is spliced in
    x, y, z = Sym("x"), Sym("y"), Sym("z")
    _, expr = parse_program("x - (y + z)*x*(y*z)")
    assert expr == Add((x, Scale((-1, 0), Prod((Add((y, z)), x, y, z)))))
    assert parse_program("x + (y + z)")[1] == parse_program("(x + y) + z")[1] == Add((x, y, z))
    # prefixes multiply into one Scale
    _, expr = parse_program("-3*-i*2*x", COMPLEX)
    assert expr == Scale((0, 6), Sym("x"))


def test_scale_coefficients_are_normalized_and_checked():
    x = Sym("x")
    assert Scale((-1, 0), Scale((3, 0), x)) == Scale((-3, 0), x)
    re, im = Scale((Fraction(2), 0), x).coef
    assert (re, im) == (2, 0) and type(re) is int
    assert Scale((0, 1), Scale((0, 1), x)) == Scale((-1, 0), x)
    with pytest.raises(ValueError, match="neither real nor imaginary"):
        Scale((1, 1), x)
    with pytest.raises(ValueError, match="two or more"):
        Add((x,))


@pytest.mark.parametrize("coef", [(-3, 0), (0, -2), (Fraction(-3, 2), 0), (-1, 0), (1, 0), (0, 0)])
def test_negative_and_imaginary_factors_round_trip(coef):
    x, y = Sym("x"), Sym("y")
    for expr in (Scale(coef, x), Add((y, Scale(coef, x))), Prod((y, Scale(coef, x), y))):
        assert parse_program(format_expr(expr), COMPLEX)[1] == expr
    assert format_expr(Add((y, Scale((-3, 0), x)))) == "y - 3*x"


def test_deepest_trees_compare_without_recursion():
    # 99 nestings build a tree about 300 levels deep
    deep = parse_program("let x:1; " + "rev(x + x*" * 99 + "x" + ")" * 99)[1]
    other = parse_program("let x:1; " + "rev(x + x*" * 99 + "y" + ")" * 99)[1]
    assert deep == parse_program(format_expr(deep))[1]
    assert hash(deep) == hash(parse_program(format_expr(deep))[1])
    assert deep != other
    x = Sym("x")
    assert Scale((2, 0), x) != Scale((3, 0), x)
    assert Bracket(1, x, x) != Bracket(-1, x, x)
    assert Conj("rev", x) != Conj("gri", x)
    assert Add((x, x)) != Add((x, x, x))


def test_undeclared_symbols_default_to_full():
    env, _ = parse_program("x * rev(y)")
    assert env.types == {"x": TypeSet.full(REAL), "y": TypeSet.full(REAL)}
    env, _ = parse_program("x", COMPLEX)
    assert env.types == {"x": TypeSet.full(COMPLEX)}


def test_parse_complex_gates():
    for program, col in (("{x, conj(x)}", 5), ("phc(x)", 1), ("rev(phc(x))", 5)):
        with pytest.raises(ParseError, match="needs the complex field") as info:
            parse_program(program)
        assert (info.value.line, info.value.col) == (1, col)
    with pytest.raises(ParseError, match="complex"):
        parse_program("i*x")
    with pytest.raises(ParseError, match="complex"):
        parse_program("let x:i01; x")
    parse_program("{x, conj(x)}", COMPLEX)  # fine in complex mode


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown conjugation name 'foo'"):
        parse_program("foo(x)")
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("let x:1; let x:2; x")
    with pytest.raises(ParseError):
        parse_program("let x:5; x")
    with pytest.raises(ParseError):
        parse_program("[x, y")
    with pytest.raises(ParseError):
        parse_program("x +")
    with pytest.raises(ParseError):
        parse_program("let x:1 x")
    err = None
    try:
        parse_program("x * \x40y")
    except ParseError as exc:
        err = exc
    assert err is not None and (err.line, err.col) == (1, 5)


@pytest.mark.parametrize(
    "program, message, col",
    [
        ("(x", "expected ')', got end of input", 3),
        ("x+", "unexpected end of input", 3),
        ("let x:1", "expected ';', got end of input", 8),
        ("[x, y", "expected ']', got end of input", 6),
    ],
)
def test_the_end_of_input_is_named_in_errors(program, message, col):
    with pytest.raises(ParseError) as info:
        parse_program(program)
    assert message in str(info.value) and "None" not in str(info.value)
    assert (info.value.line, info.value.col) == (1, col)


@pytest.mark.parametrize(
    "program, line, col",
    [("1e3", 1, 1), ("x + 2x", 1, 5), ("let x:1; 3i*x", 1, 10), ("x*\n  1.5_y", 2, 3)],
)
def test_number_runs_into_a_name_is_a_parse_error(program, line, col):
    with pytest.raises(ParseError, match="runs into") as info:
        parse_program(program, COMPLEX)
    assert (info.value.line, info.value.col) == (line, col)


@pytest.mark.parametrize("program, col", [("\u00b2*x", 1), ("x + 1\u00b2", 6), ("1.\u0663 * x", 2)])
def test_only_ascii_digits_are_numbers(program, col):
    with pytest.raises(ParseError) as info:
        parse_program(program)
    assert (info.value.line, info.value.col) == (1, col)


def test_folded_coefficient_past_the_digit_limit_fails_at_its_number():
    big = "9" * 4000
    for program, col in (
        (f"let x:1; {big}*{big}*x", 10),
        (f"let x:1; 2*({big}*{big}*x)", 13),
        (f"let x:1; 1/{big}*1/{big}*x", 10),
    ):
        with pytest.raises(ParseError, match="folded coefficient has more than 4300 digits") as info:
            parse_program(program)
        assert (info.value.line, info.value.col) == (1, col)
    # a fold of 4300 digits is accepted, and its tree formats and reads back
    half = "9" * 2150
    env, expr = parse_program(f"let x:1; {half}*{half}*x")
    assert expr.coef == ((10**2150 - 1) ** 2, 0)
    assert parse_program(format_program(env, expr))[1] == expr


def test_table_entries_keep_their_order():
    from cliffqt.corpus import CorpusEntry, _table_entries

    entries = _table_entries()
    assert len(entries) == 64 and len({e.name for e in entries}) == 64
    # one pinned entry of each variant: comm and acomm, real and complex
    assert entries[12] == CorpusEntry("comm-12", REAL, "let x:1; let y:2; [x, y]", "1")
    assert entries[27] == CorpusEntry("acomm-31", REAL, "let x:3; let y:1; {x, y}", "2")
    assert entries[54] == CorpusEntry("comm-i2-3", COMPLEX, "let x:i2; let y:3; [x, y]", "i3")
    assert entries[35] == CorpusEntry("acomm-i0-i1", COMPLEX, "let x:i0; let y:i1; {x, y}", "1")


def test_scalar_prefix_needs_a_star_or_a_space():
    _, expr = parse_program("2*x")
    assert parse_program("2 x")[1] == expr
    assert parse_program("let x:1; 3 i*x", COMPLEX)[1] == parse_program("let x:1; 3*i*x", COMPLEX)[1]


def test_typeset_declaration_forms():
    env, _ = parse_program("let a:0123; a")
    assert env.types["a"] == TypeSet.full(REAL)
    env, _ = parse_program("let a:01+i23; a", COMPLEX)
    assert env.types["a"] == ts("01+i23", COMPLEX)
    env, _ = parse_program("let a:i2; a", COMPLEX)
    assert env.types["a"] == ts("i2", COMPLEX)
    env, _ = parse_program("let a: 01 + i23 ; a", COMPLEX)
    assert env.types["a"] == ts("01+i23", COMPLEX)
    for text in ("let a:∅; a", "let a: 0set ; a"):
        env, _ = parse_program(text, COMPLEX)
        assert env.types["a"] == TypeSet.empty(COMPLEX)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_typeset_second_group_needs_its_i(field):
    # '01+23' is not '01+i23': the declaration is read exactly as written
    with pytest.raises(ParseError, match="bad type set") as info:
        parse_program("let x:01+23; x", field)
    assert (info.value.line, info.value.col) == (1, 7)


def test_format_program_roundtrip_corpus():
    for entry in CORPUS:
        env, expr = parse_program(entry.program, entry.field)
        text = format_program(env, expr)
        env2, expr2 = parse_program(text, entry.field)
        assert expr2 == expr, entry.name
        assert env2.types == env.types, entry.name
        # formatting is idempotent
        assert format_program(env2, expr2) == text


# ---------------------------------------------------------------- inference

@pytest.mark.parametrize(
    "program,field,expected",
    [
        ("let x:2; let y:2; [x,y]", REAL, "2"),
        ("let x:1; let y:3; {x,y}", REAL, "2"),
        ("rev(x)*x", REAL, "01"),
        ("x*rev(x)", REAL, "01"),
        ("let u:01; [u, rev(u)]", REAL, "∅"),
        ("let u:03; [u, gri(rev(u))]", REAL, "∅"),
        ("x*phc(x)*x*phc(x)", COMPLEX, "01+i23"),
        ("let x:0; let y:1; x+y", REAL, "01"),
        ("let a:01; let b:2; [a, b]", REAL, "01"),
        ("i*rev(x)*x", COMPLEX, "01+i01"),
        ("2*[x, gri(x)] - [x, gri(x)]", REAL, "13"),
        ("[x, x]", REAL, "∅"),
        ("let a:0; let b:0; {a, b} + [a, b]", REAL, "02"),
        # brackets expand into words, so free-algebra identities cancel
        ("let y:02; [y, y*y]", REAL, "∅"),
        ("[[x,y],z] + [[y,z],x] + [[z,x],y]", REAL, "∅"),  # Jacobi
        ("[x*y, z] - x*[y, z] - [x, z]*y", REAL, "∅"),  # Leibniz
        ("i*x + i*conj(x)", COMPLEX, "i0123"),  # conj negates i
        ("let x:∅; x", REAL, "∅"),
        ("let x:0set; let y:2; [x, y]", REAL, "∅"),
        ("x*rev(x) + x*x", REAL, "0123"),  # rev fixes the first word only
    ],
)
def test_infer_examples(program, field, expected):
    env, expr = parse_program(program, field)
    assert infer_type(expr, env) == ts(expected, field)


def test_infer_matches_corpus_expectations():
    for entry in CORPUS:
        if entry.expected is None:
            continue
        env, expr = parse_program(entry.program, entry.field)
        assert infer_type(expr, env) == ts(entry.expected, entry.field), entry.name


def test_infer_matches_the_relabel_and_compare_reference_on_corpus():
    signs = Counter()
    for entry in CORPUS:
        env, expr = parse_program(entry.program, entry.field)
        assert infer_type(expr, env) == relabel_and_compare_type(expr, env), entry.name
        form = canonical_form(expr)
        for bits in conjugation_codes(entry.field) if form else ():
            sign = _eigen_sign(form, bits)
            assert sign == reference_sign(form, bits), (entry.name, bits)
            signs[sign] += 1
    assert all(signs[s] for s in (-1, 0, 1))


def test_infer_monotone_under_env_enlargement(rng):
    programs = [e for e in CORPUS if e.field == REAL][:40]
    for entry in programs:
        env, expr = parse_program(entry.program, REAL)
        base = infer_type(expr, env)
        bigger = {
            name: TypeSet(REAL, t.bits | rng.randrange(16)) for name, t in env.types.items()
        }
        widened = infer_type(expr, TypeEnv(REAL, bigger))
        assert base <= widened, entry.name


def test_infer_unbound_symbol_raises():
    _, expr = parse_program("x + y")
    env = TypeEnv(REAL, {"x": TypeSet.full(REAL)})
    with pytest.raises(BindingError, match="unbound symbol 'y'"):
        infer_type(expr, env)


def test_conjugation_rewrite_is_involutive():
    # applying the same conjugation twice normalizes back to the original
    for entry in CORPUS[:40]:
        env, expr = parse_program(entry.program, entry.field)
        ops = ("rev", "gri", "conj", "phc") if entry.field == COMPLEX else ("rev", "gri")
        for op in ops:
            twice = Conj(op, Conj(op, expr))
            assert canonical_form(twice) == canonical_form(expr), (entry.name, op)


def test_normal_form_coefficients_stay_integers():
    env, expr = parse_program("2*x + 3.0*[x, y] - i*{x, y} + 1/2*y", COMPLEX)
    assert expr.terms[0] == Scale((2, 0), Sym("x")) and type(expr.terms[0].coef[0]) is int
    assert expr.terms[1].coef == (3, 0) and type(expr.terms[1].coef[0]) is int
    form = canonical_form(expr)
    y = (("y", 0),)
    assert form.pop(y) == (Fraction(1, 2), 0)  # the only non-integral factor
    assert all(type(c) is int for coef in form.values() for c in coef)


def test_monomial_cap_falls_back_to_the_compositional_type():
    # P*rev(P) with P a product of k (x+y) factors combines 2^k x 2^k term pairs
    def program(k):
        factors = "*".join(["(x+y)"] * k)
        return parse_program(f"let x:1; let y:3; {factors}*rev({factors})")

    env, expr = program(6)
    assert 4 ** 6 <= MAX_MONOMIALS
    assert str(infer_type(expr, env)) == "0"  # refined through rev
    env, expr = program(7)
    assert str(_infer_compositional(expr, env)) == "02"
    assert str(infer_type(expr, env)) == "02"
    with pytest.raises(AlgebraError, match="more than 4096"):
        canonical_form(expr)

    # an expanded bracket doubles the words, so a deep nest of brackets over
    # two-word operands passes the cap too
    text = "x*rev(x)"
    for _ in range(20):
        text = f"[{text}, {{x, rev(x)}}]"
    env, expr = parse_program(f"let x:1; {text}")
    with pytest.raises(AlgebraError, match="more than 4096"):
        canonical_form(expr)
    assert str(_infer_compositional(expr, env)) == "02"
    assert str(infer_type(expr, env)) == "02"
    assert check_soundness(expr, env, Signature(2, 1), trials=3).passed


def test_scalar_zero_annihilates():
    env, expr = parse_program("0*x + 0/5*y")
    assert infer_type(expr, env).is_empty


@pytest.mark.parametrize("program", ["x*(x - x)*x", "0*x*y*y"])
def test_a_zero_factor_makes_the_product_zero(program):
    # the zero factor sits inside the chain, with factors after it
    env, expr = parse_program(program)
    assert canonical_form(expr) == {}
    assert infer_type(expr, env).is_empty


def test_products_fold_left_to_right():
    # Q has 80 three-word factors; a left fold combines at most 159 x 3 term
    # pairs per step, where a fold by halves would combine 81 x 81 > 4096 and
    # fall back to the compositional type 0123
    q = "*".join(["(x + x*x + x*x*x)"] * 80)
    env, expr = parse_program(f"let x:1; {q} + rev({q})")
    assert str(infer_type(expr, env)) == "01"


# ---------------------------------------------------------------- evaluation

def test_eval_examples():
    sig = Signature(3, 0)
    env, expr = parse_program("[x, y]")
    bindings = {"x": parse_mv("e12", sig), "y": parse_mv("e13", sig)}
    assert eval_expr(expr, env, bindings) == parse_mv("-2*e23", sig)

    env, expr = parse_program("rev(x)")
    assert eval_expr(expr, env, {"x": parse_mv("e12", sig)}) == parse_mv("-e12", sig)

    env, expr = parse_program("3/2*x - x")
    assert eval_expr(expr, env, {"x": parse_mv("2*e1", sig)}) == parse_mv("e1", sig)

    env, expr = parse_program("i*x", COMPLEX)
    got = eval_expr(expr, env, {"x": parse_mv("e1", sig, COMPLEX)})
    assert got == parse_mv("i*e1", sig, COMPLEX)


def test_eval_rejects_bad_bindings():
    sig = Signature(3, 0)
    env, expr = parse_program("let x:1; x")
    with pytest.raises(BindingError, match="declared"):
        eval_expr(expr, env, {"x": parse_mv("e12", sig)})
    with pytest.raises(BindingError, match="no binding"):
        eval_expr(expr, env, {})
    with pytest.raises(BindingError, match="field"):
        eval_expr(expr, env, {"x": parse_mv("e1", sig, COMPLEX)})


def test_eval_matches_inference_on_corpus_spot(rng):
    sig = Signature(2, 2)
    for entry in CORPUS[:60]:
        env, expr = parse_program(entry.program, entry.field)
        inferred = infer_type(expr, env)
        bindings = {
            name: random_instance(env.types[name], sig, seed=rng.randrange(10**6))
            for name in free_symbols(expr)
        }
        value = eval_expr(expr, env, bindings)
        assert qtype.member(value, inferred), entry.name


# ---------------------------------------------------------------- random instances

def test_random_instance_rank_support():
    u = random_instance(ts("2"), Signature(4, 0), seed=5, density=1.0)
    assert u.grades() == (2,)
    big = random_instance(ts("2"), Signature(20, 0), seed=5, density=0.001)
    assert set(big.grades()) <= {2, 6, 10, 14, 18}


def test_random_instance_classifies_inside(rng):
    sig = Signature(3, 2)
    for trial in range(1000):
        bits = rng.randrange(1, 256)
        t = TypeSet(COMPLEX, bits)
        u = random_instance(t, sig, seed=trial)
        assert classify_by_rank(u) <= t


def test_random_instance_deterministic():
    t = ts("12")
    a = random_instance(t, Signature(3, 1), seed=99)
    b = random_instance(t, Signature(3, 1), seed=99)
    assert a == b
    c = random_instance(t, Signature(3, 1), seed=100)
    assert not (a == c)


def test_random_instance_empty_and_density():
    assert random_instance(ts("∅"), Signature(3, 0), seed=1).is_zero()
    with pytest.raises(AlgebraError):
        random_instance(ts("1"), Signature(3, 0), seed=1, density=0.0)
    u = random_instance(ts("0123"), Signature(3, 0), seed=1, density=1.0)
    assert len(u) == 8  # full density fills every blade


def test_random_instance_imaginary_atoms():
    u = random_instance(ts("i1", COMPLEX), Signature(4, 0), seed=3)
    for _, (re, im) in u.terms():
        assert re == 0 and im != 0


def test_random_instance_density_one_stream_is_pinned():
    # density 1 keeps its random stream, so old counterexample seeds replay
    u = random_instance(ts("02+i13", COMPLEX), Signature(2, 1), 7)
    assert format_mv(u) == "2 - 7i*e1 + 9i*e2 - 6i*e3 - 5*e12 + 4*e13 - 8*e23 + 3i*e123"
    u = random_instance(ts("0123"), Signature(3, 0), 1, 1.0)
    assert format_mv(u) == "-5 - 7*e1 - e2 - 6*e3 + 7*e12 + 6*e13 + 7*e23 + 4*e123"


def test_random_instance_sparse_stream_is_pinned():
    # below density 1 the stream is pinned too, so old counterexample seeds replay
    u = random_instance(ts("2"), Signature(20, 0), 5, 0.0001)
    assert format_mv(u) == (
        "8*e{1,5,8,12,13,18} + 6*e{1,6,8,10,14,18} - 2*e{4,5,8,12,14,20} "
        "- 6*e{3,4,5,6,7,9,12,14,15,18} - 2*e{1,4,6,8,9,10,11,15,16,18} "
        "- 6*e{1,3,4,5,8,9,12,14,17,18} - 9*e{4,6,7,8,9,11,15,16,17,18} "
        "+ 5*e{3,4,6,7,11,12,14,15,16,19} + 4*e{2,3,5,6,7,11,13,14,17,19} "
        "- 7*e{1,2,5,7,8,11,13,15,17,19} + 6*e{1,3,8,9,11,12,14,15,17,19} "
        "- 9*e{3,4,5,7,8,10,12,16,17,19} - 9*e{2,3,4,5,8,9,10,13,16,20} "
        "- 3*e{1,5,6,10,11,12,13,14,16,20} - 4*e{2,5,6,9,11,13,14,17,18,20} "
        "+ e{1,4,6,9,12,14,15,16,19,20} - 3*e{1,2,5,10,11,13,14,17,19,20} "
        "- 3*e{1,3,6,8,14,15,16,17,19,20} - 3*e{1,3,6,7,9,12,13,18,19,20} "
        "+ e{2,3,4,5,6,7,8,10,11,12,15,17,19,20} + 5*e{1,2,3,6,8,9,10,11,12,13,15,17,19,20} "
        "- 5*e{1,2,4,5,6,7,8,10,12,15,16,17,19,20} + 2*e{1,3,5,6,8,9,10,12,13,14,15,18,19,20} "
        "- 9*e{2,3,4,5,6,7,8,9,12,14,17,18,19,20}"
    )
    u = random_instance(ts("1+i3", COMPLEX), Signature(9, 3), 9, 0.01)
    assert format_mv(u) == (
        "-6i*e{4,6,8} - 5*e{1,2,6,7,8} - 9*e{2,3,5,6,9} + 6*e{3,5,6,8,9} - 7*e{3,4,6,9,11} "
        "- 8*e{1,2,3,10,11} - 4*e{1,3,6,8,12} + 6*e{1,5,8,10,12} - 2i*e{1,2,3,5,7,8,9} "
        "+ 5i*e{1,2,4,5,6,9,11} - i*e{1,3,4,6,7,9,12} + 4i*e{1,3,4,7,9,11,12} "
        "- 8i*e{3,4,6,8,9,11,12} - 9i*e{1,3,4,5,10,11,12} - 4*e{3,4,5,6,7,8,9,10,11} "
        "- 6*e{1,2,4,5,6,8,9,10,12} - 7*e{1,4,5,6,7,8,9,10,12} "
        "+ 4i*e{1,2,3,4,5,6,8,9,10,11,12}"
    )


def test_random_instance_default_density_stream_is_pinned():
    # by default density 1 up to DENSE_MAX_N generators and 0.002 above; both streams are pinned
    assert dsl.DENSE_MAX_N == 10
    u = random_instance(ts("2"), Signature(6, 4), 3)
    assert len(u) == 256 and u == random_instance(ts("2"), Signature(6, 4), 3, 1.0)
    assert hashlib.sha256(format_mv(u).encode()).hexdigest()[:16] == "8892e124deaeb08c"
    u = random_instance(ts("0123+i0123", COMPLEX), Signature(7, 4), 1)
    assert format_mv(u) == (
        "6*e{1,2,4} - 2*e{1,10,11} + 6*e{4,5,6,9,11} + 6i*e{3,7,8,9,11} + 4*e{4,6,7,8,9,11} "
        "+ 2*e{2,3,4,5,7,8,10} - 9*e{2,3,4,5,6,9,10}"
    )
    assert u == random_instance(ts("0123+i0123", COMPLEX), Signature(7, 4), 1, 0.002)


def test_unrank_subset_is_a_bijection():
    # position i in colex order is the i-th smallest mask with r bits below bit n
    for n in range(11):
        for r in range(n + 1):
            masks = [_unrank_subset(i, n, r) for i in range(math.comb(n, r))]
            combos = itertools.combinations(range(n), r)
            assert masks == sorted(sum(1 << b for b in combo) for combo in combos)


def _colex_rank(mask):
    """Position of a mask among the masks of its bit count: sum of C(c_j, j)
    over its set bits c_1 < c_2 < ..."""
    bits = [c for c in range(mask.bit_length()) if mask >> c & 1]
    return sum(math.comb(c, j) for j, c in enumerate(bits, start=1))


def test_unrank_subset_inverts_the_colex_rank_at_large_n():
    rng = random.Random(15)
    for n in (20, 40):
        for r in range(n + 1):
            size = math.comb(n, r)
            for index in {0, size - 1, *(rng.randrange(size) for _ in range(20))}:
                mask = _unrank_subset(index, n, r)
                assert mask.bit_count() == r and mask >> n == 0
                assert _colex_rank(mask) == index
            assert _unrank_subset(0, n, r) == (1 << r) - 1
            assert _unrank_subset(size - 1, n, r) == ((1 << r) - 1) << (n - r)


def test_sparse_sampling_keeps_each_eligible_blade_at_the_density():
    sig, density, seeds = Signature(6, 0), 0.3, 2000
    t = ts("01+i12", COMPLEX)
    eligible = {(m, imag) for m in range(64) for k, imag in t.atoms() if m.bit_count() % 4 == k}
    kept = Counter()
    for seed in range(seeds):
        for m, (re, im) in random_instance(t, sig, seed, density).terms():
            kept[m, False] += re != 0
            kept[m, True] += im != 0
    assert {pair for pair, count in kept.items() if count} <= eligible
    sigma = math.sqrt(seeds * density * (1 - density))
    for pair in eligible:
        assert abs(kept[pair] - seeds * density) < 5 * sigma, pair


def test_sparse_sampling_scales_with_the_kept_terms():
    # 2^38 eligible blades: only skipping over them can finish
    u = random_instance(ts("2"), Signature(40, 0), seed=3, density=1e-9)
    assert 150 < len(u) < 450  # about 275 expected
    assert all(m.bit_count() % 4 == 2 for m, _ in u.terms())


# ---------------------------------------------------------------- soundness checking

def test_check_soundness_passes_simple():
    env, expr = parse_program("let x:0; let y:1; x+y")
    report = check_soundness(expr, env, Signature(2, 2), trials=100, seed=0)
    assert report.passed and report.failures == 0
    assert report.inferred == ts("01")
    assert report.trials == 100
    assert report.first_counterexample is None
    data = report.as_dict()
    assert data["passed"] is True and data["inferred"] == "01"


def test_check_soundness_trials_validation():
    env, expr = parse_program("x")
    with pytest.raises(AlgebraError):
        check_soundness(expr, env, Signature(2, 2), trials=0)


def test_check_soundness_detects_corrupted_table(monkeypatch):
    # corrupt [2,2] -> 0 and check the harness reports a reproducible witness
    bad = ((2, 3, 0, 1), (3, 2, 1, 0), (0, 1, 0, 3), (1, 0, 3, 2))
    monkeypatch.setattr(qtype, "_COMM_MAIN", bad)
    env, expr = parse_program("let x:2; let y:2; [x,y]")
    report = check_soundness(expr, env, Signature(2, 2), trials=50, seed=7)
    assert not report.passed
    ce = report.first_counterexample
    assert ce is not None and ce["observed"] == "2"
    # reproduce the recorded trial from its seed and bindings
    sig = Signature(2, 2)
    rebound = {
        name: parse_mv(text, sig) for name, text in ce["bindings"].items()
    }
    value = eval_expr(expr, TypeEnv(REAL, dict(env.types)), rebound)
    monkeypatch.undo()
    assert classify_by_rank(value) == ts("2")
    from cliffqt.dsl import trial_seed

    expected_bindings = {
        name: random_instance(env.types[name], sig, trial_seed(7, ce["trial"]) * 131 + j)
        for j, name in enumerate(sorted(free_symbols(expr)))
    }
    assert expected_bindings == rebound


def test_each_trial_draws_its_own_bindings(monkeypatch):
    drawn = []

    def recording(*args):
        drawn.append(random_instance(*args))
        return drawn[-1]

    monkeypatch.setattr(dsl, "random_instance", recording)
    env, expr = parse_program("let x:0123; let y:0123; x*y")
    for seed in (0, 5):
        drawn.clear()
        assert check_soundness(expr, env, Signature(2, 1), trials=4, seed=seed).passed
        per_trial = [(format_mv(x), format_mv(y)) for x, y in zip(drawn[::2], drawn[1::2])]
        assert len(per_trial) == 4 and len(set(per_trial)) == 4, per_trial


def test_infer_drops_the_type_of_a_zero_scaled_term():
    # 0*x is zero whatever x is: the sum is y's, atom 0 alone, written out here
    env, expr = parse_program("let x:1; let y:0; 0*x + y")
    assert infer_type(expr, env) == TypeSet(REAL, 0b0001)
    assert check_soundness(expr, env, Signature(3, 0), trials=5).passed


def test_report_text_contains_counterexample(monkeypatch):
    bad = ((2, 3, 0, 1), (3, 0, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2))
    monkeypatch.setattr(qtype, "_COMM_MAIN", bad)
    env, expr = parse_program("let x:1; let y:1; [x,y]")
    report = check_soundness(expr, env, Signature(4, 0), trials=30, seed=2)
    assert not report.passed
    text = report.format_text()
    assert "counterexample" in text and "observed type" in text


def test_a_fault_injected_after_a_check_fails_the_same_tree(monkeypatch):
    # the reverse of acceptance 8b: nothing kept from the healthy check may hide the fault
    env, expr = parse_program("let x:1; let y:1; [x,y]")
    sig = Signature(2, 2)
    assert check_soundness(expr, env, sig, trials=100, seed=11).passed
    bad = ((2, 3, 0, 1), (3, 0, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2))
    monkeypatch.setattr(qtype, "_COMM_MAIN", bad)
    assert not check_soundness(expr, env, sig, trials=100, seed=11).passed


def test_a_second_signature_reuses_the_normal_form(monkeypatch):
    calls = []

    def counted(expr):
        calls.append(expr)
        return canonical_form(expr)

    monkeypatch.setattr(dsl, "canonical_form", counted)
    env, expr = parse_program("let x:1; let y:3; {x, rev(y)} * x")
    first = check_soundness(expr, env, Signature(2, 2), trials=3)
    second = check_soundness(expr, env, Signature(4, 1), trials=3)
    assert sum(node is expr for node in calls) == 1
    assert first.inferred == second.inferred == infer_type(expr, env)
    # one tree is kept: after another tree, the first one is walked again
    other_env, other = parse_program("let x:2; x*x")
    check_soundness(other, other_env, Signature(2, 2), trials=1)
    check_soundness(expr, env, Signature(2, 2), trials=1)
    assert sum(node is expr for node in calls) == 2


@pytest.mark.parametrize(
    "program, field",
    [("let x:1; let y:3; {x, y} - 2*x", REAL), ("let u:0+i2; i*u*rev(u) + 1/2*conj(u) - v", COMPLEX)],
)
def test_report_program_text_is_the_formatted_program(program, field):
    env, expr = parse_program(program, field)
    report = check_soundness(expr, env, Signature(2, 1), trials=2)
    text = format_program(env, expr)
    assert report.program == report.as_dict()["program"] == text
    assert report.format_text().split("\n")[0] == f"program:  {text}"

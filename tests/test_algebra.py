import random
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliffqt import (
    COMPLEX,
    REAL,
    AlgebraError,
    Multivector,
    ParseError,
    Signature,
    anticommutator,
    blade_indices,
    blade_mul,
    commutator,
    format_mv,
    mask_from_indices,
    mv_from_dict,
    mv_to_dict,
    parse_mv,
    qtype_project,
    sign_mask,
)

from cliffqt import algebra
from cliffqt.algebra import swap_mask
from cliffqt.qtype import atom_components
from cliffqt.verify import naive_blade_product
from conftest import random_mv


def mv(text, p, q, field=REAL):
    return parse_mv(text, Signature(p, q), field)


# ---------------------------------------------------------------- signatures

def test_signature_validation():
    Signature(0, 1)
    Signature(3, 2)
    Signature(algebra.MAX_N - 1, 1)
    for p, q in ((0, 0), (-1, 2), (algebra.MAX_N, 1), (0, algebra.MAX_N + 1), (99_999_999_999, 0),
                 (1.5, 0), ("3", 0), (True, 0), (2, None)):
        with pytest.raises(AlgebraError, match="invalid signature"):
            Signature(p, q)


def test_eta_diagonal():
    sig = Signature(2, 3)
    assert [sig.eta(a) for a in range(1, 6)] == [1, 1, -1, -1, -1]
    with pytest.raises(AlgebraError):
        sig.eta(6)


# ---------------------------------------------------------------- blade product

def test_blade_mul_generator_squares():
    sig = Signature(1, 1)
    assert blade_mul(0b01, 0b01, sig) == (1, 0)   # e1*e1 = +e
    assert blade_mul(0b10, 0b10, sig) == (-1, 0)  # e2*e2 = -e


def test_sign_mask_examples():
    # e123 * e2 = -e13: the mask of e123 is (0b11 ^ 0b1) = 0b10 below p
    assert sign_mask(0b111, 3) == 0b010
    assert blade_mul(0b111, 0b010, Signature(3, 0)) == (-1, 0b101)
    # with p = 0 every shared generator squares to -1
    assert sign_mask(0b1, 0) == 0b1
    assert sign_mask(0, 2) == 0


def _per_bit_sign_mask(a, p):
    """The reference: one XOR of a shifted copy of ``a`` per bit position."""
    mask = a >> p << p
    t = a >> 1
    while t:
        mask ^= t
        t >>= 1
    return mask


def test_sign_mask_folds_like_the_per_bit_loop():
    rng = random.Random(17)
    for n in [*range(1, 70), 200, 1000]:
        for _ in range(200):
            a, p = rng.getrandbits(n), rng.randint(0, n)
            assert sign_mask(a, p) == _per_bit_sign_mask(a, p), (n, a, p)
        for p in range(n + 1):
            for a in (rng.getrandbits(n), (1 << n) - 1, 1 << (n - 1)):
                assert sign_mask(a, p) == _per_bit_sign_mask(a, p), (n, a, p)


def test_blade_mul_identity():
    sig = Signature(2, 1)
    for b in range(8):
        assert blade_mul(0, b, sig) == (1, b)
        assert blade_mul(b, 0, sig) == (1, b)


def test_blade_mul_symmetric_difference():
    # e12 * e13 = -e23 in Cl(3,0)
    sig = Signature(3, 0)
    assert blade_mul(0b011, 0b101, sig) == (-1, 0b110)


def test_blade_helpers():
    assert blade_indices(0b1011) == (1, 2, 4)
    assert mask_from_indices((1, 2, 4), 4) == 0b1011
    for indices in ((1, 1), (3, 1), (1, 3, 2)):
        with pytest.raises(AlgebraError, match="^blade indices must be strictly increasing$"):
            mask_from_indices(indices, 4)
    for indices in ((5,), (0,), (2, 0), (True,), ("1",), (1.0,)):
        with pytest.raises(AlgebraError, match="out of range 1..4"):
            mask_from_indices(indices, 4)
    # e3 e1 = -e13: every door that reads an index list refuses the order the text grammar refuses
    sig = Signature(3, 0)
    data = mv_to_dict(mv("e13", 3, 0))
    data["terms"][0]["blade"] = [3, 1]
    doors = (lambda: parse_mv("e{3,1}", sig), lambda: Multivector.basis_blade(sig, (3, 1)),
             lambda: mv_from_dict(data))
    for door in doors:
        with pytest.raises((AlgebraError, ParseError), match="strictly increasing"):
            door()


def test_blade_indices_invert_mask_from_indices():
    for mask in range(1 << 10):
        indices = blade_indices(mask)
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert mask_from_indices(indices, 10) == mask


def test_generator_relations_exhaustive():
    # e^a e^b + e^b e^a = 2 eta^{ab} e, all signatures n <= 8
    for n in range(1, 9):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    ea = Multivector.basis_blade(sig, (a,))
                    eb = Multivector.basis_blade(sig, (b,))
                    lhs = anticommutator(ea, eb)
                    want = 2 * (sig.eta(a) if a == b else 0)
                    assert lhs == Multivector.scalar(sig, want)


# ---------------------------------------------------------------- products

def test_product_examples():
    assert mv("e1", 2, 0) * mv("e2", 2, 0) == mv("e12", 2, 0)
    assert mv("2", 2, 0) * mv("3", 2, 0) == mv("6", 2, 0)
    assert mv("e12", 2, 0) * mv("e12", 2, 0) == mv("-1", 2, 0)


def test_product_mismatch_errors():
    with pytest.raises(AlgebraError):
        mv("e1", 2, 0) * mv("e1", 1, 1)
    with pytest.raises(AlgebraError):
        mv("e1", 2, 0) * mv("e1", 2, 0, field=COMPLEX)


def test_additive_examples():
    sig = Signature(2, 0)
    e1 = mv("e1", 2, 0)
    assert (e1 + e1.scale(-1)).is_zero()
    assert mv("e1 + e12", 2, 0).scale(0).is_zero()
    assert mv("1 + e1", 2, 0) + mv("e1 + e12", 2, 0) == mv("1 + 2*e1 + e12", 2, 0)
    assert 2 * e1 == mv("2*e1", 2, 0)
    assert e1 * Fraction(1, 2) == mv("1/2*e1", 2, 0)


def test_scalar_i_multiplication():
    u = mv("e1", 3, 0, field=COMPLEX)
    assert u.scale((0, 1)) == mv("i*e1", 3, 0, field=COMPLEX)
    assert u.scale((0, 1)).scale((0, 1)) == mv("-e1", 3, 0, field=COMPLEX)
    with pytest.raises(AlgebraError):
        mv("e1", 3, 0).scale((0, 1))  # real field


# ---------------------------------------------------------------- grades

def test_grade_projection_examples():
    u = mv("1 + e1 + e12", 2, 0)
    assert u.grade(1) == mv("e1", 2, 0)
    assert u.grade(2) == mv("e12", 2, 0)
    assert mv("e1", 2, 0).grade(0).is_zero()
    with pytest.raises(AlgebraError):
        u.grade(3)
    with pytest.raises(AlgebraError):
        u.grade(-1)


def test_grade_projections_sum_to_identity(rng):
    for _ in range(50):
        sig = Signature(rng.randint(1, 4), rng.randint(0, 2))
        u = random_mv(sig, rng)
        total = Multivector.zero(sig)
        for k in range(sig.n + 1):
            total = total + u.grade(k)
        assert total == u


def test_even_odd_parts(rng):
    assert mv("1 + e1", 2, 0).even_part() == mv("1", 2, 0)
    assert mv("e123", 3, 0).odd_part() == mv("e123", 3, 0)
    for _ in range(30):
        sig = Signature(3, 1)
        u = random_mv(sig, rng)
        assert u.even_part() + u.odd_part() == u
        # fixed-point projector of the grade involution
        half = Fraction(1, 2)
        assert u.even_part() == (u + u.grade_involution()).scale(half)
        assert u.odd_part() == (u - u.grade_involution()).scale(half)


# ---------------------------------------------------------------- conjugations

def test_reversion_examples():
    assert mv("5", 2, 0).reversion() == mv("5", 2, 0)
    assert mv("e12", 2, 0).reversion() == mv("-e12", 2, 0)
    assert mv("e1 + e123", 3, 0).reversion() == mv("e1 - e123", 3, 0)


def test_reversion_sign_by_rank():
    sig = Signature(4, 2)
    for mask in range(1 << 6):
        k = mask.bit_count()
        u = Multivector.basis_blade(sig, mask)
        want = u if (k * (k - 1) // 2) % 2 == 0 else -u
        assert u.reversion() == want


def test_grade_involution_examples():
    assert mv("e1", 2, 0).grade_involution() == mv("-e1", 2, 0)
    assert mv("7", 2, 0).grade_involution() == mv("7", 2, 0)
    assert mv("1 + e1 + e12", 2, 0).grade_involution() == mv("1 - e1 + e12", 2, 0)


def test_complex_conjugate_examples():
    assert mv("i*e1", 3, 0, COMPLEX).complex_conjugate() == mv("-i*e1", 3, 0, COMPLEX)
    assert mv("e12", 3, 0, COMPLEX).complex_conjugate() == mv("e12", 3, 0, COMPLEX)
    u = mv("2 + 3i + i*e12", 3, 0, COMPLEX)
    assert u.complex_conjugate() == mv("2 - 3i - i*e12", 3, 0, COMPLEX)
    with pytest.raises(AlgebraError):
        mv("e1", 3, 0).complex_conjugate()


def test_pseudo_hermitian_examples():
    assert mv("i", 2, 2, COMPLEX).pseudo_hermitian() == mv("-i", 2, 2, COMPLEX)
    assert mv("e12", 2, 2, COMPLEX).pseudo_hermitian() == mv("-e12", 2, 2, COMPLEX)
    assert mv("i*e12", 2, 2, COMPLEX).pseudo_hermitian() == mv("i*e12", 2, 2, COMPLEX)
    with pytest.raises(AlgebraError):
        mv("e1", 2, 2).pseudo_hermitian()


@st.composite
def sig_and_terms(draw, field=REAL):
    n = draw(st.integers(1, 4))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    size = 1 << n
    coeff = st.integers(-5, 5)
    terms = draw(
        st.dictionaries(
            st.integers(0, size - 1),
            st.tuples(coeff, coeff if field == COMPLEX else st.just(0)),
            max_size=size,
        )
    )
    return Multivector(sig, terms, field)


@given(sig_and_terms(), sig_and_terms())
def test_antiautomorphism_laws(u, v):
    if u.sig != v.sig:
        return
    uv = u * v
    assert uv.reversion() == v.reversion() * u.reversion()
    assert uv.grade_involution() == u.grade_involution() * v.grade_involution()


@given(sig_and_terms(field=COMPLEX))
def test_involutions(u):
    assert u.reversion().reversion() == u
    assert u.grade_involution().grade_involution() == u
    assert u.complex_conjugate().complex_conjugate() == u
    # pseudo-Hermitian conjugation factors both ways
    assert u.pseudo_hermitian() == u.complex_conjugate().reversion()
    assert u.pseudo_hermitian().pseudo_hermitian() == u


@given(sig_and_terms(), sig_and_terms(), sig_and_terms())
def test_associativity_and_distributivity(u, v, w):
    if not (u.sig == v.sig == w.sig):
        return
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w


@given(sig_and_terms(field=COMPLEX), sig_and_terms(field=COMPLEX))
def test_complex_conjugation_is_automorphism(u, v):
    if u.sig != v.sig:
        return
    assert (u * v).complex_conjugate() == u.complex_conjugate() * v.complex_conjugate()


# ---------------------------------------------------------------- brackets

def test_bracket_examples():
    u = mv("1 + 2*e1 + e12", 2, 1)
    assert commutator(u, u).is_zero()
    for p, q in ((2, 0), (1, 1), (0, 2), (3, 2)):
        assert anticommutator(mv("e1", p, q), mv("e2", p, q)).is_zero()
    assert commutator(mv("e12", 3, 0), mv("e13", 3, 0)) == mv("-2*e23", 3, 0)


# One signature past TABLE_MAX_N, so the sign-mask path runs too.
MASK_PATH_SIG = (4, algebra.TABLE_MAX_N - 3)


def test_products_refuse_more_than_the_pair_bound(monkeypatch):
    monkeypatch.setattr(algebra, "MAX_PRODUCT_PAIRS", 5)
    for p, q in ((2, 0), MASK_PATH_SIG):
        u = mv("1 + e1 + e2", p, q)
        v = mv("e1 + e12", p, q)
        for op in (lambda a, b: a * b, commutator, anticommutator):
            with pytest.raises(AlgebraError, match="more than 5 term pairs"):
                op(u, v)
        assert (v * v).is_zero()  # 4 pairs stay within the bound


def test_bracket_reconstructs_product(rng):
    half = Fraction(1, 2)
    for _ in range(30):
        sig = Signature(2, 2)
        u, v = random_mv(sig, rng), random_mv(sig, rng)
        assert (commutator(u, v) + anticommutator(u, v)).scale(half) == u * v


ALL_SIGNATURES_N6 = [(p, n - p) for n in range(1, 7) for p in range(n + 1)]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p,q", ALL_SIGNATURES_N6 + [MASK_PATH_SIG])
def test_brackets_equal_two_products_exactly(p, q, field, rng):
    sig = Signature(p, q)
    for _ in range(6):
        u = random_mv(sig, rng, field, max_terms=12)
        w = random_mv(sig, rng, field, max_terms=12)
        # operands sharing terms with u make pairs whose products cancel
        for v in (w, u, u + w, w - u.scale(2)):
            uv, vu = u * v, v * u
            assert commutator(u, v)._terms == (uv - vu)._terms
            assert anticommutator(u, v)._terms == (uv + vu)._terms


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_float_brackets_match_two_products(field, rng):
    # floats read exactly: the operands are multiplied as integers over denominators up to 2^53
    for p, q in ((3, 0), (2, 2), (4, 2), (0, 5), MASK_PATH_SIG):
        sig = Signature(p, q)
        for _ in range(10):
            u = random_mv(sig, rng, field, from_floats=True, max_terms=16)
            v = random_mv(sig, rng, field, from_floats=True, max_terms=16)
            uv, vu = u * v, v * u
            assert commutator(u, v)._terms == (uv - vu)._terms
            assert anticommutator(u, v)._terms == (uv + vu)._terms


def test_blade_tables_match_naive_products():
    # every entry of every table: s(A, B) for the product, 2 s(A, B) on the
    # anticommuting pairs for [,] and on the commuting pairs for {,}, else 0
    for p, q in [(p, n - p) for n in range(1, algebra.TABLE_MAX_N + 1) for p in range(n + 1)]:
        sig = Signature(p, q)
        size = 1 << sig.n
        naive = [[naive_blade_product(a, b, sig) for b in range(size)] for a in range(size)]
        product = algebra._blade_table(p, sig.n, None)
        comm = algebra._blade_table(p, sig.n, 1)
        acomm = algebra._blade_table(p, sig.n, 0)
        for a in range(size):
            for b in range(size):
                s_ab, out = naive[a][b]
                assert out == a ^ b
                commute = s_ab == naive[b][a][0]
                assert product[a][b] == s_ab, (p, q, a, b)
                assert comm[a][b] == (0 if commute else 2 * s_ab), (p, q, a, b)
                assert acomm[a][b] == (2 * s_ab if commute else 0), (p, q, a, b)


def test_swap_mask_matches_naive_commutation():
    for n in range(1, 7):
        sig = Signature(n // 2, n - n // 2)
        for a in range(1 << n):
            t = swap_mask(a)
            for b in range(1 << n):
                s_ab, _ = naive_blade_product(a, b, sig)
                s_ba, _ = naive_blade_product(b, a, sig)
                anticommute = (b & t).bit_count() & 1
                closed_form = ((a.bit_count() & b.bit_count() & 1) ^ (a & b).bit_count()) & 1
                assert anticommute == closed_form == (s_ab != s_ba), (n, a, b)


def test_exact_backend_stays_rational(rng):
    sig = Signature(2, 1)
    u = Multivector(sig, {0b001: Fraction(1, 3), 0b011: Fraction(-2, 7)})
    v = Multivector(sig, {0b101: Fraction(5, 2), 0b010: 4})
    w = u * v + u
    for _, (re, im) in w.terms():
        assert isinstance(re, (int, Fraction))
        assert im == 0


# ---------------------------------------------------------------- dimensions

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dimension_counts(n):
    masks = list(range(1 << n))
    assert len(masks) == 2 ** n
    for k in range(n + 1):
        assert sum(1 for m in masks if m.bit_count() == k) == comb(n, k)
    assert sum(1 for m in masks if m.bit_count() % 2 == 0) == 2 ** (n - 1)


def test_equality_contract():
    a = mv("e1", 2, 0)
    with pytest.raises(AlgebraError):
        a == mv("e1", 1, 1)
    with pytest.raises(AlgebraError):
        a == mv("e1", 2, 0, field=COMPLEX)
    assert (a == "e1") is False or True  # non-multivector comparison does not raise


def test_values_past_the_float_range_keep_every_digit():
    sig = Signature(2, 0)
    big = mv("1" + "0" * 200 + "*e1", 2, 0)
    assert big * big == Multivector.scalar(sig, 10**400)
    assert big.scale(10**200) + big.scale(10**200) == Multivector.basis_blade(sig, (1,), 2 * 10**400)
    tiny = Multivector.basis_blade(sig, (1,), Fraction(1, 10**200))
    assert commutator(tiny, tiny.scale(-1)).is_zero()
    assert tiny * tiny == Multivector.scalar(sig, Fraction(1, 10**400))


def _assert_no_zero_term(u):
    """No stored term has both parts zero, so is_zero, len and grades read the value."""
    nonzero = {m for m, (re, im) in u._terms.items() if re or im}
    assert nonzero == set(u._terms), u._terms
    assert u.is_zero() == (not nonzero)
    assert len(u) == len(nonzero)
    assert u.grades() == tuple(sorted({m.bit_count() for m in nonzero}))


@pytest.mark.parametrize("from_floats", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_no_operation_stores_a_zero_term(field, from_floats):
    tiny = Fraction(1e-200) if from_floats else Fraction(1, 10**200)
    values = []
    for n in (12, 4):  # the sign-mask path and the blade-table path
        sig = Signature(n, 0)

        def make(terms):
            return Multivector(sig, terms, field)

        u, v = make({1: tiny}), make({2: tiny})  # u * v would underflow a float
        if field == COMPLEX:
            u, v = make({1: (tiny, tiny)}), make({2: (tiny, -tiny)})
        e1, e2, w = make({1: 1}), make({2: 1}), make({0: 1, 3: 3, 7: -2})
        results = [u * v, commutator(u, v), anticommutator(u, v), u.scale(tiny), v.scale(tiny),
                   e1 * e2 + e2 * e1, anticommutator(e1, e2), commutator(w, w), w + -w, w - w,
                   w * w, w.scale(0), w.scale(1)]
        kept = results[:2] + results[3:5]  # {u, v} is 0, as e1 e2 = -e2 e1
        assert not any(r.is_zero() for r in kept), [r._terms for r in kept]
        values += results + [u, v, w]
    for x in values:
        unary = [x, x.reversion(), x.grade_involution(), x.even_part(), x.odd_part()]
        unary += [x.grade(k) for k in range(x.sig.n + 1)]
        unary += [qtype_project(x, k) for k in range(4)]
        unary += [part for _, part in atom_components(x)]
        unary += [parse_mv(format_mv(x), x.sig, field), mv_from_dict(mv_to_dict(x))]
        if field == COMPLEX:
            unary += [x.complex_conjugate(), x.pseudo_hermitian()]
        for y in unary:
            _assert_no_zero_term(y)


def test_constructor_value_types_do_not_depend_on_term_order():
    sig = Signature(3, 0)
    for terms in ([(1, 1), (1, Fraction(0))], [(1, Fraction(0)), (1, 1)]):
        re, im = Multivector(sig, terms)._terms[1]
        assert (type(re), type(im)) == (int, int) and re == 1, terms


@pytest.mark.parametrize("from_floats", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize(
    "value", ["1.5", True, Decimal("0.1"), "abc", None, [1], 1j, (1, "2"), (True, 0), (1, 2, 3)],
    ids=["str", "bool", "decimal", "word", "none", "list", "complex", "str-im", "bool-re", "triple"],
)
def test_both_backends_refuse_a_coefficient_that_is_not_a_number(from_floats, value):
    # the scaled operand holds an int, or a float read exactly
    sig = Signature(2, 0)
    one = Multivector.scalar(sig, Fraction(0.1) if from_floats else 1, COMPLEX)
    for make in (lambda: Multivector(sig, {1: value}, COMPLEX),
                 lambda: Multivector.scalar(sig, value, COMPLEX),
                 lambda: one.scale(value)):
        with pytest.raises(AlgebraError, match="must be int or Fraction|two entries"):
            make()


def test_each_backend_takes_its_number_types():
    # one number contract: ints and Fractions, kept as given
    sig = Signature(2, 0)
    for value in (3, Fraction(1, 3)):
        u = Multivector.scalar(sig, value)
        assert u.coeff(0) == (value, 0) and type(u.coeff(0)[0]) is type(value)
    e1 = Multivector.basis_blade(sig, (1,))
    assert 2 * e1 == e1 * 2 == e1.scale(2)
    assert Fraction(1, 2) * e1 == e1 * Fraction(1, 2) == e1.scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        e1 * True


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("value", [2.5, 1.0, -0.0, float("inf"), float("nan"), (1, 0.5), (0.5, 0)])
def test_a_float_coefficient_is_refused_at_every_door(field, value):
    sig = Signature(2, 0)
    e1 = Multivector.basis_blade(sig, (1,), field=field)
    doors = [lambda: Multivector(sig, {1: value}, field), lambda: Multivector.scalar(sig, value, field),
             lambda: Multivector.basis_blade(sig, (1,), value, field), lambda: e1.scale(value)]
    if not isinstance(value, tuple):
        doors += [lambda: value * e1, lambda: e1 * value]
    for door in doors:
        with pytest.raises(AlgebraError, match="must be int or Fraction"):
            door()


@pytest.mark.parametrize("terms", [5, [1], [(1, 2, 3)], "ab", [(1,)]])
def test_constructor_refuses_terms_that_are_not_pairs(terms):
    with pytest.raises(AlgebraError, match="terms must be"):
        Multivector(Signature(3, 0), terms)


@pytest.mark.parametrize("mask", [1.5, 1.0, "1", None, True, False])
def test_constructor_refuses_a_mask_that_is_not_an_int(mask):
    with pytest.raises(AlgebraError, match="blade mask .* invalid for n=3"):
        Multivector(Signature(3, 0), {mask: 1})


def test_an_int_mask_out_of_range_keeps_its_message():
    sig = Signature(3, 0)
    for make in (lambda: Multivector(sig, {8: 1}), lambda: Multivector.basis_blade(sig, 8)):
        with pytest.raises(AlgebraError, match="^blade mask 0x8 invalid for n=3$"):
            make()
    with pytest.raises(AlgebraError, match="^blade mask -0x1 invalid for n=3$"):
        Multivector.basis_blade(sig, -1)


@pytest.mark.parametrize("make, value", [
    (lambda: mask_from_indices(5, 4), "5"),
    (lambda: mask_from_indices(None, 4), "None"),
    (lambda: Multivector.basis_blade(Signature(3, 0), 1.5), "1.5"),
], ids=["int", "none", "float"])
def test_an_index_list_that_is_not_iterable_is_named(make, value):
    with pytest.raises(AlgebraError, match=f"^blade indices must be an iterable of ints, got {value}$"):
        make()


@pytest.mark.parametrize("from_floats", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_terms_are_sorted_by_rank_then_mask(field, from_floats):
    rng = random.Random(2502)
    values = [Multivector.zero(Signature(3, 0), field)]
    for p in (3, 8, 64, 65, 70, 200):  # n = p + p // 3, past bit 64 from p = 64 on
        sig = Signature(p, p // 3)
        masks = [rng.getrandbits(sig.n) >> rng.randrange(sig.n) for _ in range(60)]
        masks += [1 << (sig.n - 1), (1 << sig.n) - 1, 1 << min(64, sig.n - 1), 0]
        terms = {mask: Fraction(0.1 * (1 + k)) if from_floats else 1 + k for k, mask in enumerate(masks)}
        values.append(Multivector(sig, terms, field))
    for u in values:
        items = list(u._terms.items())
        assert u.terms() == sorted(items, key=lambda kv: (kv[0].bit_count(), kv[0]))
    assert values[0].terms() == []

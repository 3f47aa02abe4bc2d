from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cliffqt import (
    COMPLEX,
    EXACT,
    FLOAT,
    REAL,
    AlgebraError,
    Multivector,
    ParseError,
    Signature,
    format_mv,
    mv_from_dict,
    mv_to_dict,
    parse_mv,
)
from cliffqt.algebra import blade_indices
from cliffqt.mvtext import BYTE_TEXT_MAX, MAX_DIGITS, _blade_text, _byte_text

from conftest import random_mv


def test_parse_basic_terms():
    sig = Signature(5, 0)
    u = parse_mv("2 + 3*e12 - e{1,5}", sig)
    assert dict(u.terms()) == {0: (2, 0), 0b00011: (3, 0), 0b10001: (-1, 0)}


def test_parse_zero_and_scalars():
    sig = Signature(2, 0)
    assert parse_mv("0", sig).is_zero()
    assert parse_mv("3/2", sig) == Multivector.scalar(sig, Fraction(3, 2))
    assert parse_mv("-7", sig) == Multivector.scalar(sig, -7)
    assert parse_mv("2.5", sig) == Multivector.scalar(sig, Fraction(5, 2))


def test_parse_imaginary_coefficients():
    sig = Signature(2, 0)
    u = parse_mv("i + 2i*e1 - 3/2i*e12", sig, COMPLEX)
    assert dict(u.terms()) == {0: (0, 1), 0b01: (0, 2), 0b11: (0, Fraction(-3, 2))}
    with pytest.raises(ParseError):
        parse_mv("i*e1", sig, REAL)


def test_parse_merges_repeated_blades():
    sig = Signature(2, 0)
    assert parse_mv("e1 + e1", sig) == parse_mv("2*e1", sig)
    assert parse_mv("e1 - e1", sig).is_zero()


def test_parse_is_whitespace_insensitive():
    sig = Signature(3, 0)
    assert parse_mv("1+2*e12-e3", sig) == parse_mv(" 1 + 2 * e12 - e3 ", sig)


def test_parse_errors_carry_position():
    sig = Signature(3, 0)
    with pytest.raises(ParseError, match="strictly increasing"):
        parse_mv("e21", sig)
    with pytest.raises(ParseError, match="out of range"):
        parse_mv("e4", sig)
    with pytest.raises(ParseError, match="out of range"):
        parse_mv("e{1,7}", sig)
    with pytest.raises(ParseError, match="strictly increasing"):
        parse_mv("e{2,2}", sig)
    with pytest.raises(ParseError, match="malformed token"):
        parse_mv("2 + \x24e1", sig)
    with pytest.raises(ParseError):
        parse_mv("2 +", sig)
    with pytest.raises(ParseError):
        parse_mv("e1 e2", sig)
    err = None
    try:
        parse_mv("1 + e9", sig)
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 1 and err.col == 5
    err = None
    try:
        parse_mv("1 +\n  e9", sig)
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 2 and err.col == 3


def test_number_runs_into_a_blade_is_a_parse_error():
    # 1e3 is neither the float 1000 nor the product 1*e3
    sig = Signature(3, 0)
    for text in ("1e3", "2e12", "3ie12", "1 + 2 e1", "2.5e1"):
        with pytest.raises(ParseError):
            parse_mv(text, sig, COMPLEX)
    assert dict(parse_mv("3i*e12", sig, COMPLEX).terms()) == {0b011: (0, 3)}
    assert dict(parse_mv("2*e1 + 3i", sig, COMPLEX).terms()) == {0: (0, 3), 0b001: (2, 0)}


@pytest.mark.parametrize(
    "text, col", [("\u00b2", 1), ("e\u00b2", 2), ("e{\u00b2}", 1), ("e\u0663", 2), ("1\u00b2*e1", 2)]
)
def test_only_ascii_digits_are_numbers_and_indices(text, col):
    # '²' and '٣' pass str.isdigit, but int() refuses the one and reads the other as 3
    with pytest.raises(ParseError) as info:
        parse_mv(text, Signature(3, 0))
    assert (info.value.line, info.value.col) == (1, col)


# (literal, n, field, line, col): malformed literals and the position of their first fault
MALFORMED = [
    ("e21", 3, REAL, 1, 1),
    ("e4", 3, REAL, 1, 1),
    ("e{1,7}", 3, REAL, 1, 1),
    ("e{2,2}", 3, REAL, 1, 1),
    ("e{0}", 3, REAL, 1, 1),
    ("2 + \x24e1", 3, REAL, 1, 5),
    ("2 +", 3, REAL, 1, 4),
    ("2 + e1 +", 3, REAL, 1, 9),
    ("e1 e2", 3, REAL, 1, 4),
    ("1 + e9", 3, REAL, 1, 5),
    ("1 +\n  e9", 3, REAL, 2, 3),
    ("1 + e1\n - 2*e12\n + 3 e3", 3, REAL, 3, 6),
    ("1 +\n\n  \x24", 3, REAL, 3, 3),
    ("1e3", 3, COMPLEX, 1, 2),
    ("2e12", 3, COMPLEX, 1, 2),
    ("3ie12", 3, COMPLEX, 1, 3),
    ("3ie12", 3, REAL, 1, 1),
    ("1 + 2 e1", 3, COMPLEX, 1, 7),
    ("2.5e1", 3, COMPLEX, 1, 4),
    ("1 + e{1, 2} e3", 3, REAL, 1, 13),
    ("\u00b2", 3, REAL, 1, 1),
    ("e\u00b2", 3, REAL, 1, 2),
    ("e{\u00b2}", 3, REAL, 1, 1),
    ("e\u0663", 3, REAL, 1, 2),
    ("1\u00b2*e1", 3, REAL, 1, 2),
    ("1/0", 3, REAL, 1, 3),
    ("1/ 0", 3, REAL, 1, 4),
    ("1/x", 3, REAL, 1, 3),
    ("1/2.5", 3, REAL, 1, 3),
    ("3 / 2.0", 3, REAL, 1, 5),
    ("1/", 3, REAL, 1, 3),
    ("1/-2", 3, REAL, 1, 3),
    ("1.5/2", 3, REAL, 1, 4),
    ("e{1,2", 3, REAL, 1, 1),
    ("e{}", 3, REAL, 1, 1),
    ("e{1,,2}", 3, REAL, 1, 1),
    ("e{1,x}", 3, REAL, 1, 1),
    ("e{1,2}}", 3, REAL, 1, 7),
    ("e {1}", 3, REAL, 1, 3),
    ("e 1", 3, REAL, 1, 3),
    ("e12", 10, REAL, 1, 1),
    ("2*", 3, REAL, 1, 3),
    ("2*3", 3, REAL, 1, 3),
    ("2 * * e1", 3, REAL, 1, 5),
    ("*e1", 3, REAL, 1, 1),
    ("e1*e2", 3, REAL, 1, 3),
    ("+", 3, REAL, 1, 2),
    ("", 3, REAL, 1, 1),
    ("--e1", 3, REAL, 1, 2),
    ("1 - - 2", 3, REAL, 1, 5),
    ("1 2", 3, REAL, 1, 3),
    ("1.", 3, REAL, 1, 2),
    (".5", 3, REAL, 1, 1),
    ("1.5.2", 3, REAL, 1, 4),
    ("ii", 3, COMPLEX, 1, 2),
    ("2i i", 3, COMPLEX, 1, 4),
    ("i", 2, REAL, 1, 1),
    ("i*e", 3, REAL, 1, 1),
    ("1 + 3i*e1", 2, REAL, 1, 5),
    ("e1 - 2.5i", 2, REAL, 1, 6),
]


@pytest.mark.parametrize("text, n, field, line, col", MALFORMED)
def test_malformed_literal_fails_at_its_position(text, n, field, line, col):
    with pytest.raises(ParseError) as info:
        parse_mv(text, Signature(n, 0), field)
    assert (info.value.line, info.value.col) == (line, col)


# (literal, message with its position) at n = 3: a malformed index is named before one out of
# range or order, wherever it stands in the list
INDEX_ERRORS = [
    ("e{1,,2}", "bad blade index '' (line 1, column 1)"),
    ("e{ }", "bad blade index '' (line 1, column 1)"),
    ("e{1 2}", "bad blade index '1 2' (line 1, column 1)"),
    ("e{1,}", "bad blade index '' (line 1, column 1)"),
    ("e{1,201\xa0,}", "bad blade index '' (line 1, column 1)"),
    ("e{2,1}", "blade indices must be strictly increasing (line 1, column 1)"),
    ("e{0}", "blade index 0 out of range 1..3 (line 1, column 1)"),
    ("e{1,2", "unterminated blade index list (line 1, column 1)"),
    ("e{1,a}", "bad blade index 'a' (line 1, column 1)"),
    ("e{١}", "bad blade index '١' (line 1, column 1)"),
    ("e{1_0}", "bad blade index '1_0' (line 1, column 1)"),
    ("0 1", "expected '+' or '-', got '1' (line 1, column 3)"),
    ("2 + e{3, 1}", "blade indices must be strictly increasing (line 1, column 5)"),
]


@pytest.mark.parametrize("text, message", INDEX_ERRORS)
def test_blade_index_errors_name_the_first_fault(text, message):
    with pytest.raises(ParseError) as info:
        parse_mv(text, Signature(3, 0))
    assert str(info.value) == message


@pytest.mark.parametrize("space", [chr(c) for c in range(0x110000) if chr(c).isspace()], ids=ascii)
def test_every_space_inside_an_index_list_reads_as_a_space(space):
    # int() keeps U+001C..U+001F, which str.isspace and the grammar's \s count as spaces
    text = "e{ 1 , 2 }".replace(" ", space)
    assert parse_mv(text, Signature(3, 0)) == parse_mv("e{1,2}", Signature(3, 0))


# (numeral, value) pairs a literal term may carry, zeros of both types among them
_NUMERALS = [("0", 0), ("3", 3), ("10", 10), ("0.0", Fraction(0)), ("2.5", Fraction(5, 2)),
             ("1/2", Fraction(1, 2)), ("0/4", Fraction(0)), ("2.0", Fraction(2))]


def _random_literal(rng, n, field):
    """A literal of random terms, some on one blade, and the (mask, (re, im)) list it spells."""
    pieces, terms = [], []
    for _ in range(rng.randint(1, 8)):
        mask = rng.choice((0, 1, rng.getrandbits(n)))
        numeral, value = rng.choice(_NUMERALS)
        imag = field == COMPLEX and rng.random() < 0.4
        sign = rng.choice("+-")
        blade = "e{" + ",".join(map(str, blade_indices(mask))) + "}" if mask else "e"
        pieces.append(f"{sign} {numeral}{'i' if imag else ''}*{blade}")
        value = -value if sign == "-" else value
        terms.append((mask, (0, value) if imag else (value, 0)))
    return " ".join(pieces), terms


def _typed(tmap):
    return {mask: tuple((type(v), v) for v in pair) for mask, pair in tmap.items()}


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_parse_gives_the_constructors_terms(rng, field, backend):
    sig = Signature(5, 0)
    cases = [("e1 + e1", [(1, (1, 0))] * 2), ("0*e1 + e2", [(1, (0, 0)), (2, (1, 0))]),
             ("e1 - e1", [(1, (1, 0)), (1, (-1, 0))]), ("2.0", [(0, (Fraction(2), 0))]),
             ("1/2*e1 + 1/2*e1", [(1, (Fraction(1, 2), 0))] * 2),
             ("e1 + 0.0*e1", [(1, (1, 0)), (1, (Fraction(0), 0))])]
    cases += [_random_literal(rng, sig.n, field) for _ in range(300)]
    for text, terms in cases:
        got = parse_mv(text, sig, field, backend)._terms
        assert _typed(got) == _typed(Multivector(sig, terms, field, backend)._terms), text


@pytest.mark.parametrize("text", ["e1 + 0.0*e1", "0.0*e1 + e1", "e1 + 0/2i*e1"])
def test_a_zero_term_leaves_an_int_coefficient_an_int(text):
    re, im = parse_mv(text, Signature(3, 0), COMPLEX)._terms[1]
    assert (type(re), type(im)) == (int, int) and (re, im) == (1, 0)


def test_imaginary_coefficient_in_the_real_field_fails_at_the_coefficient():
    sig = Signature(2, 0)
    for text, col in (("1 + 3i*e1", 5), ("i", 1), ("e1 - 2.5i", 6)):
        with pytest.raises(ParseError, match="needs the complex field") as info:
            parse_mv(text, sig)
        assert (info.value.line, info.value.col) == (1, col)


def test_float_backend_refuses_non_finite_coefficients():
    sig = Signature(2, 0)
    huge = "1" + "0" * 400
    for text in (huge, huge + "/3", huge + ".5*e1", f"e1 - {huge}i"):
        with pytest.raises(AlgebraError, match="too large"):
            parse_mv(text, sig, COMPLEX, FLOAT)
    # each term fits, their sum does not
    with pytest.raises(AlgebraError, match="finite"):
        parse_mv(f"{huge[:309]} + {huge[:309]}", sig, COMPLEX, FLOAT)
    # the exact backend keeps every digit
    assert parse_mv(huge, sig) == Multivector.scalar(sig, 10**400)


def _one_term(backend, re, im="0"):
    """The structured form of a complex Cl(2,0) value with one e1 term."""
    return {
        "signature": {"p": 2, "q": 0},
        "field": COMPLEX,
        "backend": backend,
        "terms": [{"blade": [1], "re": re, "im": im}],
    }


def test_float_structured_input_reads_like_text():
    # both forms read each numeral exactly, then round it once
    sig = Signature(2, 0)
    numerals = ("3", "-12", "3/2", "-2/3", "0.1", "1" * 300, "0." + "0" * 330 + "1", "1/" + "7" * 320)
    for re in numerals:
        for im in ("0", "5/7", "-0.25"):
            sign, mag = ("-", im[1:]) if im[0] == "-" else ("+", im)
            text = f"{re}*e1 {sign} {mag}i*e1"
            u, v = mv_from_dict(_one_term(FLOAT, re, im)), parse_mv(text, sig, COMPLEX, FLOAT)
            assert u == v and format_mv(u) == format_mv(v)
    for value in ("nan", "inf", "-inf", "abc", "1/0", "1e400", "1e99999999", float("inf")):
        with pytest.raises(AlgebraError, match="bad coefficient"):
            mv_from_dict(_one_term(FLOAT, "1.0", value))
    with pytest.raises(AlgebraError, match="too large"):
        mv_from_dict(_one_term(FLOAT, "1" * 400))


def test_float_zero_parts_print_as_float_zero():
    sig = Signature(2, 0)
    u = parse_mv("1+e1", sig, backend=FLOAT)
    v = parse_mv("e1", sig, backend=FLOAT)
    for w in (u * v, -v):
        terms = mv_to_dict(w)["terms"]
        assert terms and all(t["im"] == "0.0" for t in terms)


def test_format_examples():
    sig = Signature(3, 0)
    assert format_mv(parse_mv("0", sig)) == "0"
    assert format_mv(parse_mv("-e23", sig)) == "-e23"
    assert format_mv(parse_mv("3/2 * e12 + 1", sig)) == "1 + 3/2*e12"
    assert format_mv(parse_mv("-1 - e1", sig)) == "-1 - e1"
    u = parse_mv("2i*e12 + e12 + i", sig, COMPLEX)
    assert format_mv(u) == "i + e12 + 2i*e12"


def test_format_uses_braces_above_nine():
    sig = Signature(12, 0)
    u = parse_mv("e{1,11}", sig)
    assert format_mv(u) == "e{1,11}"
    assert parse_mv(format_mv(u), sig) == u


def test_digit_blade_form_needs_small_n():
    with pytest.raises(ParseError, match="ambiguous"):
        parse_mv("e12", Signature(10, 0))
    # the bare identity blade is fine at any n
    assert parse_mv("2*e", Signature(10, 0)) == Multivector.scalar(Signature(10, 0), 2)


def test_roundtrip_exact(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        for field in (REAL, COMPLEX):
            u = random_mv(sig, rng, field=field)
            assert parse_mv(format_mv(u), sig, field) == u


def test_roundtrip_fractions():
    sig = Signature(2, 1)
    u = Multivector(
        sig,
        {0: Fraction(-7, 3), 0b011: (Fraction(1, 2), 0), 0b111: 4},
        COMPLEX,
    )
    assert parse_mv(format_mv(u), sig, COMPLEX) == u


def test_roundtrip_float(rng):
    sig = Signature(3, 1)
    for _ in range(40):
        u = random_mv(sig, rng, field=COMPLEX, backend=FLOAT)
        again = parse_mv(format_mv(u), sig, COMPLEX, FLOAT)
        assert again == u  # repr of a float is exact


def test_roundtrip_fifty_terms(rng):
    sig = Signature(6, 0)
    terms = {m: (rng.randint(-99, 99) or 1, 0) for m in rng.sample(range(64), 50)}
    u = Multivector(sig, terms)
    assert parse_mv(format_mv(u), sig) == u


def test_canonical_text_is_stable():
    sig = Signature(4, 0)
    text = "1 - 2*e1 + 3/2*e12 - e1234"
    canon = format_mv(parse_mv(text, sig))
    assert format_mv(parse_mv(canon, sig)) == canon


def test_json_structured_form():
    sig = Signature(2, 2)
    u = parse_mv("3/2*e1 - i*e12 + 2", sig, COMPLEX)
    data = mv_to_dict(u)
    assert data["signature"] == {"p": 2, "q": 2}
    assert data["field"] == COMPLEX
    assert data["backend"] == EXACT
    assert {"blade": [1], "re": "3/2", "im": "0"} in data["terms"]
    assert mv_from_dict(data) == u


def _spoil(path, value):
    """The structured form of 1 + 2*e12 with the entry at path set to value (None: removed)."""
    data = mv_to_dict(parse_mv("1 + 2*e12", Signature(2, 0)))
    *keys, last = path
    target = data
    for key in keys:
        target = target[key]
    if value is None and last != "terms":
        del target[last]
    else:
        target[last] = value
    return data


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("signature",), None, "'signature'"),
        (("terms", 1, "re"), None, "term 1 has no 're'"),
        (("terms", 0, "blade"), None, "term 0 has no 'blade'"),
        (("terms", 1, "blade"), 3, "'blade' of term 1"),
        (("signature", "p"), "2", "'p' of 'signature'"),
        (("terms",), None, "'terms' of the input"),
        (("terms", 0), "e1", "term 0 has no 'blade'"),
        (("terms", 1, "blade"), ["1", "2"], "blade index '1'"),
        (("terms", 1, "blade"), [2, 1], "strictly increasing"),
        (("terms", 1, "blade"), [1, 1], "strictly increasing"),
    ],
    ids=["no-signature", "no-re", "no-blade", "int-blade", "str-p", "terms-none", "str-term",
         "str-index", "unsorted-index", "repeated-index"],
)
def test_malformed_structure_is_an_algebra_error(path, value, named):
    with pytest.raises(AlgebraError) as info:
        mv_from_dict(_spoil(path, value))
    assert named in str(info.value)


def test_empty_structure_is_an_algebra_error():
    with pytest.raises(AlgebraError, match="no 'signature'"):
        mv_from_dict({})


def test_json_roundtrip_random(rng):
    for _ in range(30):
        sig = Signature(2, 2)
        u = random_mv(sig, rng, field=COMPLEX)
        assert mv_from_dict(mv_to_dict(u)) == u


_EXACT_COEFFS = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**12, min_value=-10**12, max_value=10**12),
)
_FLOAT_COEFFS = st.one_of(_EXACT_COEFFS, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def multivectors(draw):
    """Random values for n = 1..12, both fields and both backends."""
    n = draw(st.integers(1, 12))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    field = draw(st.sampled_from((REAL, COMPLEX)))
    backend = draw(st.sampled_from((EXACT, FLOAT)))
    coeffs = _EXACT_COEFFS if backend == EXACT else _FLOAT_COEFFS
    part = coeffs if field == COMPLEX else st.just(0)
    # one entry per blade: two huge floats on one blade sum past the float range
    terms = draw(st.dictionaries(st.integers(0, (1 << n) - 1), st.tuples(coeffs, part), max_size=12))
    return Multivector(sig, terms, field, backend)


@seed(20261018)
@settings(max_examples=100)
@given(multivectors())
def test_text_and_dict_forms_round_trip(u):
    assert parse_mv(format_mv(u), u.sig, u.field, u.backend) == u
    assert mv_from_dict(mv_to_dict(u)) == u


def _naive_blade_text(mask, n):
    indices = [str(a) for a in blade_indices(mask)]
    if not indices:
        return "e"
    return "e" + "".join(indices) if n <= 9 else "e{" + ",".join(indices) + "}"


def test_blade_text_matches_the_index_list(rng):
    for n in range(1, 11):
        for mask in range(1 << n):
            assert _blade_text(mask, _byte_text(n > 9)) == _naive_blade_text(mask, n)
    for n in range(11, 71):
        # every byte edge (8/9, 16/17, 64/65) is crossed by some mask
        masks = [rng.getrandbits(n) for _ in range(40)] + [(1 << n) - 1, 1 << (n - 1), 0x1FF, 0x1FF00]
        for mask in masks:
            mask &= (1 << n) - 1
            assert _blade_text(mask, _byte_text(n > 9)) == _naive_blade_text(mask, n)


@pytest.mark.parametrize(
    "text, col",
    [
        ("1" * (MAX_DIGITS + 1), 1),
        ("e{1} + 2/" + "1" * (MAX_DIGITS + 1), 10),
        ("e{1} - 1." + "1" * MAX_DIGITS, 8),
        ("3*e{1, " + "1" * (MAX_DIGITS + 1) + "}", 3),
    ],
    ids=["integer", "denominator", "decimal", "index"],
)
def test_numbers_past_the_digit_limit_fail_at_their_position(text, col):
    with pytest.raises(ParseError, match="more than 4300 digits") as info:
        parse_mv(text, Signature(12, 0))
    assert (info.value.line, info.value.col) == (1, col)


def test_numbers_at_the_digit_limit_round_trip():
    sig = Signature(2, 0)
    for text in ("9" * MAX_DIGITS, "1/" + "7" * MAX_DIGITS, "0." + "5" * (MAX_DIGITS - 1)):
        u = parse_mv(text, sig)
        assert parse_mv(format_mv(u), sig) == u
        assert mv_from_dict(mv_to_dict(u)) == u


def test_unprintable_or_unreadable_coefficients_are_algebra_errors():
    sig = Signature(2, 0)
    u = parse_mv("1" * 3000, sig)
    with pytest.raises(AlgebraError, match="digits to print"):
        format_mv(u * u)
    with pytest.raises(AlgebraError, match="digits to print"):
        mv_to_dict(u * u)
    # an exponent is refused before Fraction builds its value
    for value in ("1" * (MAX_DIGITS + 1), "1/" + "1" * (MAX_DIGITS + 1), "abc", "1/0", "1E99999999",
                  float("inf"), float("nan")):
        data = {
            "signature": {"p": 2, "q": 0},
            "field": REAL,
            "backend": EXACT,
            "terms": [{"blade": [1], "re": value, "im": "0"}],
        }
        with pytest.raises(AlgebraError, match="bad coefficient"):
            mv_from_dict(data)


def test_dict_form_reads_the_numerals_of_the_text_grammar():
    def read(value):
        return mv_from_dict(_one_term(EXACT, value)).coeff(0b01)[0]

    for value in (" 12 ", "1_000", "١٢", "1_0.5", ".5", "5.", "1e3", "0x10", "+-1", "1 /2"):
        with pytest.raises(AlgebraError, match="bad coefficient"):
            read(value)
    for value, expected in (("12", 12), ("-3/4", Fraction(-3, 4)), ("+2.50", Fraction(5, 2)),
                            ("007", 7), (7, 7), (0.5, Fraction(1, 2))):
        assert read(value) == expected and type(read(value)) is type(expected)


def test_dict_form_reads_ints_as_ints():
    data = mv_to_dict(parse_mv("3 - 12*e1 + 5/2*e2 + 0.25*e12", Signature(2, 0)))
    u = mv_from_dict(data)
    assert [type(re) for _, (re, _) in u.terms()] == [int, int, Fraction, Fraction]
    assert all(type(im) is int for _, (_, im) in u.terms())


def test_blade_text_tables_stay_bounded():
    sig = Signature(1_000_000, 0)
    for indices in ([1_000_000], [1, 9, 64, 65, 999_999, 1_000_000]):
        u = Multivector.basis_blade(sig, indices)
        assert format_mv(u) == "e{" + ",".join(map(str, indices)) + "}"
        assert format_mv(u) == _naive_blade_text(u.terms()[0][0], sig.n)
    assert all(len(_byte_text(brace)) == BYTE_TEXT_MAX for brace in (0, 1))

"""Text and JSON forms of multivectors.

Grammar (UTF-8)::

    mv       := ['+'|'-'] term (('+'|'-') term)*
    term     := coeff ('*' blade)? | blade
    coeff    := rational 'i'? | 'i'
    rational := number | integer '/' integer
    number   := [0-9]+ ('.' [0-9]+)?     -- an integer when it has no '.'
    blade    := 'e'                      -- identity
              | 'e' [0-9]*               -- single-digit indices, n <= 9
              | 'e{' index (',' index)* '}'

Whitespace may appear between any two symbols of ``mv``, ``term``, ``coeff``
and ``rational`` and around each ``index``, but not inside a number or between
``e`` and its digits or ``{``.  Digits, in numbers and blade indices alike,
are the ASCII digits 0-9, and a number or index has at most ``MAX_DIGITS``
(4300) of them.  Blade indices 1..64 are read and written through tables built
once.  A coefficient, of this text or a string of the structured form
``mv_from_dict`` reads (a signed ``rational``, no space), is read exactly, as
an int or a Fraction.  ``0`` is the zero multivector (a scalar term with
coefficient 0).  Complex coefficients are written as separate
real and imaginary terms, e.g. ``2*e12 + 3i*e12``.  Formatting always produces
the canonical form: terms sorted by (rank, mask), real part before imaginary,
explicit ``*``.

The float backend is gone: ``parse_mv`` has no ``backend`` parameter,
``_format_float`` is deleted, ``mv_to_dict`` writes no ``"backend"`` key, and
``mv_from_dict`` ignores one, so documents written before still load.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .algebra import (
    COMPLEX, REAL, Multivector, Signature, _accumulate, blade_indices, mask_from_indices,
)
from .errors import AlgebraError, ParseError


def _fail_at(text: str, pos: int, msg: str):
    """Raise ParseError for character offset ``pos`` of ``text``, 1-based line and column."""
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    raise ParseError(msg, line, col)


#: The one number lexeme of both grammars, this one and the DSL's.
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")
#: A coefficient string of the structured form: a signed number or integer fraction of the text.
_EXACT_TEXT = re.compile(r"[+-]?" + _NUMBER.pattern + r"(?:/[0-9]+)?")

#: Most digits a number may have: the interpreter's default int-string
#: conversion limit, which would otherwise end a longer one in a ValueError.
MAX_DIGITS = 4300
#: Bit of each index text "1".."64"; parse_mv reads unspaced blades of n <= 64 here.
_INDEX_BIT = {str(a): 1 << (a - 1) for a in range(1, 65)}


def _check_digits(text: str, pos: int, number: str) -> None:
    """Raise ParseError at ``pos`` when the ``_NUMBER`` lexeme ``number`` is too long."""
    if len(number) - ("." in number) > MAX_DIGITS:
        _fail_at(text, pos, f"number has more than {MAX_DIGITS} digits")


# One term at a time, every part optional; parse_mv checks which parts are
# there.  ``slash`` and ``star`` take their trailing space, so each group
# ends where the next symbol starts.
_TERM = re.compile(
    r"""
    \s* (?P<sign>[+-])? \s*
    (?:
        (?: (?P<num>NUMBER) \s* (?: (?P<slash>/\s*) (?P<den>NUMBER)? \s* )? (?P<imag>i)?
          | (?P<unit>i) )
        \s* (?P<star>\*\s*)?
    )?
    (?P<blade>e (?: \{ (?P<braced>[0-9,\s]*) \}      # e{1,12}, read by parse_mv
                  | (?P<bad>\{[^}]*\}?)                # e{1_0}: int() must not read it
                  | (?P<digits>[0-9]*) ))?              # e, e12
    \s*
    """.replace("NUMBER", _NUMBER.pattern),
    re.VERBOSE,
)
_TOKEN_START = "0123456789ei+-*/"


def _fail_near(text: str, pos: int, msg: str):
    """Raise ``msg`` at ``pos``, or name the character there when nothing can start with it."""
    if pos < len(text) and text[pos] not in _TOKEN_START:
        msg = f"malformed token {text[pos]!r}"
    _fail_at(text, pos, msg)


def _index_mask(text: str, at: int, parts, n: int) -> int:
    """Mask of the index texts ``parts``, else a ParseError at ``at``: bad, then long, then misplaced."""
    parts = [part.strip() for part in parts]
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            _fail_at(text, at, f"bad blade index {part!r}")
    _check_digits(text, at, max(parts, key=len))
    try:
        return mask_from_indices(map(int, parts), n)
    except AlgebraError as exc:
        _fail_at(text, at, str(exc))


def parse_mv(text: str, sig: Signature, field: str = REAL) -> Multivector:
    """Parse a multivector literal; raises ParseError with position on bad input.  Indices are
    read through ``_INDEX_BIT`` if n <= 64 and unspaced, else by int(); ``_index_mask`` names a fault."""
    n = sig.n
    terms = []
    pos = 0
    end = len(text)
    while True:
        m = _TERM.match(text, pos)
        sign, num, slash, den, imag, unit, star, blade, braced, bad, digits = m.groups()
        if pos and sign is None:
            _fail_near(text, pos, f"expected '+' or '-', got {text[pos]!r}")
        if num is not None:
            if len(num) > MAX_DIGITS:
                _check_digits(text, m.start("num"), num)
            value = Fraction(num) if "." in num else int(num)
            if slash is not None:
                if "." in num:
                    _fail_at(text, m.start("slash"), "fraction numerator must be an integer")
                if den is None or "." in den:
                    _fail_near(text, m.end("slash"), "fraction denominator must be an integer")
                _check_digits(text, m.start("den"), den)
                if not int(den):
                    _fail_at(text, m.start("den"), "zero denominator")
                value = Fraction(value, int(den))
        elif unit is not None:
            value, imag = 1, unit
        elif blade is None:
            _fail_near(text, m.end(), "expected a term")
        else:
            value = 1
        if imag is not None and field != COMPLEX:
            at = m.start("num" if num is not None else "unit")
            _fail_at(text, at, "imaginary coefficient needs the complex field")
        mask = 0
        if blade is None:
            if star is not None:
                _fail_near(text, m.end("star"), "expected blade after '*'")
        else:
            if star is None and (num is not None or unit is not None):
                _fail_at(text, m.start("blade"), "coefficient runs into a blade; write '*' between them")
            if braced is not None:
                indices = braced.split(",")
            elif bad is not None:
                if not bad.endswith("}"):
                    _fail_at(text, m.start("blade"), "unterminated blade index list")
                _index_mask(text, m.start("blade"), bad[1:-1].split(","), n)  # raises
            elif digits and n > 9:
                _fail_at(text, m.start("blade"), "digit blade form is ambiguous for n > 9; use e{i,j,...}")
            else:
                indices = digits
            mask = -1  # -1 >> n is -1: a blade the table does not read takes the int() pass
            if n <= 64 and " " not in blade:  # every index of the algebra has its entry
                bits = [_INDEX_BIT.get(part, 0) for part in indices]
                mask = sum(bits)
            if mask >> n or mask.bit_count() != len(bits) or bits != sorted(bits):
                try:  # past the table: one int() pass, each index checked in turn
                    if len(blade) > MAX_DIGITS:
                        raise ValueError  # count each index's digits before int() reads it
                    mask = prev = 0
                    for a in map(int, indices):
                        if not prev < a <= n:
                            raise ValueError
                        prev = a
                        mask |= 1 << (a - 1)
                except ValueError:  # a bad, long or misplaced index
                    mask = _index_mask(text, m.start("blade"), indices, n)
        if sign == "-":
            value = -value
        if value:  # a zero term is skipped, as the constructor skips it
            terms.append((mask, (value, 0) if imag is None else (0, value)))
        pos = m.end()
        if pos == end:
            if field in (REAL, COMPLEX):  # range-checked: merge, no re-check
                return Multivector._raw(sig, field, _accumulate({}, terms))
            return Multivector(sig, terms, field)  # it refuses the field


def _format_number(v) -> str:
    try:
        return str(v)
    except ValueError:  # the interpreter's int-string conversion limit
        raise AlgebraError(f"coefficient has more than {MAX_DIGITS} digits to print") from None


def format_mv(u: Multivector) -> str:
    """Canonical text form; ``parse_mv`` of the result reproduces ``u``."""
    pieces = []
    table = _byte_text(u.sig.n > 9)
    for mask, (re, im) in u.terms():
        for value, imag in ((re, False), (im, True)):
            if value == 0:
                continue
            neg = value < 0
            mag = -value if neg else value
            if mask == 0:
                if imag:
                    body = "i" if mag == 1 else _format_number(mag) + "i"
                else:
                    body = _format_number(mag)
            else:
                blade = _blade_text(mask, table)
                if mag == 1:
                    body = ("i*" if imag else "") + blade
                else:
                    body = _format_number(mag) + ("i*" if imag else "*") + blade
            pieces.append(("- " if neg else "+ ") + body)
    if not pieces:
        return "0"
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


#: Byte offsets the blade-text tables cover (generators 1..64); a blade with a
#: higher generator joins its blade_indices.
BYTE_TEXT_MAX = 8


@functools.cache
def _byte_text(brace: bool) -> list:
    """Table [k][b] of the indices of the set bits of ``b << 8*k``, k < BYTE_TEXT_MAX,
    in the digit form (brace False, "124") or comma-led for the brace form (",1,2,4")."""
    sep = "," if brace else ""
    return [
        ["".join(sep + str(8 * k + j + 1) for j in range(8) if b >> j & 1) for b in range(256)]
        for k in range(BYTE_TEXT_MAX)
    ]


def _blade_text(mask: int, table: list) -> str:
    """Text of a blade, joined from ``table``, the ``_byte_text(n > 9)`` of its algebra."""
    if not mask:
        return "e"
    size = (mask.bit_length() + 7) >> 3
    if size > BYTE_TEXT_MAX:  # n > 64, so the brace form
        return "e{" + ",".join(map(str, blade_indices(mask))) + "}"
    text = "".join(map(list.__getitem__, table, mask.to_bytes(size, "little")))
    return "e{" + text[1:] + "}" if text[0] == "," else "e" + text


def mv_to_dict(u: Multivector) -> dict:
    """JSON-ready structured form with exact coefficient strings."""
    return {
        "signature": {"p": u.sig.p, "q": u.sig.q},
        "field": u.field,
        "terms": [
            {
                "blade": list(blade_indices(mask)),
                "re": _format_number(re),
                "im": _format_number(im),
            }
            for mask, (re, im) in u.terms()
        ],
    }


def _read_exact(text):
    """Exact value of a coefficient: an int, else a Fraction (``a/b``, decimals)."""
    try:
        if type(text) is str and not _EXACT_TEXT.fullmatch(text):
            raise ValueError  # " 12 ", "1_000", ".5", "1e9": Fraction("1e99999999") builds every digit
        value = Fraction(text)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise AlgebraError(
            f"bad coefficient {text!r:.40}: not a number, or more than {MAX_DIGITS} digits"
        ) from None
    return value.numerator if value.denominator == 1 else value


def _get(obj, key, where: str, kind=object):
    """``obj[key]``, or an AlgebraError naming where, when obj has no key or no ``kind`` there."""
    if not isinstance(obj, dict) or key not in obj:
        raise AlgebraError(f"malformed structured input: {where} has no {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise AlgebraError(f"malformed structured input: {key!r} of {where} is {value!r:.40}")
    return value


def mv_from_dict(data: dict) -> Multivector:
    """Inverse of :func:`mv_to_dict`; a malformed structure is an AlgebraError.  A
    ``"backend"`` key, which the structured form held before, is ignored."""
    sig_data = _get(data, "signature", "the input")
    sig = Signature(_get(sig_data, "p", "'signature'", int), _get(sig_data, "q", "'signature'", int))
    field = _get(data, "field", "the input")
    terms = {}
    for k, entry in enumerate(_get(data, "terms", "the input", (list, tuple))):
        where = f"term {k}"
        blade = _get(entry, "blade", where, (list, tuple))
        mask = mask_from_indices(blade, sig.n)
        re, im = (_read_exact(_get(entry, key, where)) for key in ("re", "im"))
        if mask in terms:
            raise AlgebraError(f"duplicate blade {blade} in structured input")
        terms[mask] = (re, im)
    return Multivector(sig, terms, field)

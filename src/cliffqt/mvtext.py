"""Text and JSON forms of multivectors.

Grammar (UTF-8, whitespace-insensitive)::

    mv       := ['+'|'-'] term (('+'|'-') term)*
    term     := coeff ('*' blade)? | blade
    coeff    := rational 'i'? | 'i'
    rational := integer | integer '/' integer | decimal
    blade    := 'e'                      -- identity
              | 'e' digits               -- single-digit indices, n <= 9
              | 'e{' index (',' index)* '}'

Digits, in numbers and blade indices alike, are the ASCII digits 0-9.
``0`` is the zero multivector (a scalar term with coefficient 0).  Complex
coefficients are written as separate real and imaginary terms, e.g.
``2*e12 + 3i*e12``.  Formatting always produces the canonical form: terms
sorted by (rank, mask), real part before imaginary, explicit ``*``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import COMPLEX, EXACT, REAL, Multivector, Signature, blade_indices, mask_from_indices
from .errors import AlgebraError, ParseError


def _fail_at(text: str, pos: int, msg: str):
    """Raise ParseError for character offset ``pos`` of ``text``, 1-based line and column."""
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    raise ParseError(msg, line, col)


_DIGITS = frozenset("0123456789")


def _digits_end(text: str, i: int) -> int:
    """Offset just past the run of ASCII digits starting at ``text[i]``."""
    end = len(text)
    while i < end and text[i] in _DIGITS:
        i += 1
    return i


def _lex_number(text: str, i: int) -> tuple[str, int]:
    """Kind (``INT`` or ``DECIMAL``) and end offset of the number at ``text[i]``.

    Only 0-9 are digits: ``str.isdigit`` also accepts '²', which ``int`` refuses.
    """
    j = _digits_end(text, i + 1)
    if j + 1 < len(text) and text[j] == "." and text[j + 1] in _DIGITS:
        return "DECIMAL", _digits_end(text, j + 2)
    return "INT", j


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Tokens as ``(kind, value, character offset)``, ending with EOF."""
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch in _DIGITS:
            kind, i = _lex_number(text, start)
            tokens.append((kind, text[start:i], start))
        elif ch == "e":
            j = i + 1
            if j < len(text) and text[j] == "{":
                j += 1
                k = text.find("}", j)
                if k < 0:
                    _fail_at(text, start, "unterminated blade index list")
                body = text[j:k]
                indices = []
                for part in body.split(","):
                    part = part.strip()
                    if not (part.isascii() and part.isdigit()):
                        _fail_at(text, start, f"bad blade index {part!r}")
                    indices.append(int(part))
                tokens.append(("BLADE", (tuple(indices), True), start))
                i = k + 1
            else:
                i = _digits_end(text, j)
                tokens.append(("BLADE", (tuple(int(d) for d in text[j:i]), False), start))
        elif ch == "i":
            tokens.append(("I", "i", start))
            i += 1
        elif ch in "+-*/":
            tokens.append((ch, ch, start))
            i += 1
        else:
            _fail_at(text, start, f"malformed token {ch!r}")
    tokens.append(("EOF", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature, field: str, backend: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.sig = sig
        self.field = field
        self.backend = backend

    def _peek(self):
        return self.toks[self.i]

    def _next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _fail(self, msg, tok=None):
        tok = tok or self._peek()
        _fail_at(self.text, tok[2], msg)

    def parse(self) -> Multivector:
        terms = []
        sign = 1
        kind, _, _ = self._peek()
        if kind in ("+", "-"):
            sign = 1 if self._next()[0] == "+" else -1
        terms.append(self._term(sign))
        while self._peek()[0] != "EOF":
            tok = self._next()
            if tok[0] not in ("+", "-"):
                self._fail(f"expected '+' or '-', got {tok[0]}", tok)
            terms.append(self._term(1 if tok[0] == "+" else -1))
        return Multivector(self.sig, terms, self.field, self.backend)

    def _term(self, sign: int):
        kind = self._peek()[0]
        if kind == "BLADE":
            mask = self._blade(self._next())
            return mask, self._pair_value(self._one() if sign > 0 else -self._one(), False)
        if kind in ("INT", "DECIMAL", "I"):
            value, imag = self._coeff()
            mask = 0
            if self._peek()[0] == "*":
                self._next()
                if self._peek()[0] != "BLADE":
                    self._fail("expected blade after '*'")
                mask = self._blade(self._next())
            if sign < 0:
                value = -value
            return mask, self._pair_value(value, imag)
        self._fail("expected a term")

    def _coeff(self):
        tok = self._next()
        kind, lexeme, _ = tok
        if kind == "I":
            value = self._one()
        elif kind == "INT":
            num = int(lexeme)
            if self._peek()[0] == "/":
                self._next()
                dtok = self._next()
                if dtok[0] != "INT":
                    self._fail("fraction denominator must be an integer", dtok)
                den = int(dtok[1])
                if den == 0:
                    self._fail("zero denominator", dtok)
                value = self._rat(num, den)
            else:
                value = num if self.backend == EXACT else float(num)
        elif kind == "DECIMAL":
            value = Fraction(lexeme) if self.backend == EXACT else float(lexeme)
        else:
            self._fail(f"expected a coefficient, got {kind}", tok)
        imag = kind == "I"
        if not imag and self._peek()[0] == "I":
            self._next()
            imag = True
        if imag and self.field != COMPLEX:
            self._fail("imaginary coefficient needs the complex field", tok)
        return value, imag

    def _one(self):
        return 1 if self.backend == EXACT else 1.0

    def _rat(self, num, den):
        if self.backend == EXACT:
            return Fraction(num, den)
        return num / den

    def _pair_value(self, value, imag):
        zero = 0 if self.backend == EXACT else 0.0
        return (zero, value) if imag else (value, zero)

    def _blade(self, tok) -> int:
        _, (indices, braced), _ = tok
        if not braced and indices and self.sig.n > 9:
            self._fail("digit blade form is ambiguous for n > 9; use e{i,j,...}", tok)
        mask = 0
        prev = 0
        for a in indices:
            if not 1 <= a <= self.sig.n:
                self._fail(f"blade index {a} out of range 1..{self.sig.n}", tok)
            if a <= prev:
                self._fail("blade indices must be strictly increasing", tok)
            prev = a
            mask |= 1 << (a - 1)
        return mask


def parse_mv(text: str, sig: Signature, field: str = REAL, backend: str = EXACT) -> Multivector:
    """Parse a multivector literal; raises ParseError with position on bad input."""
    return _Parser(text, sig, field, backend).parse()


def _format_float(v: float) -> str:
    if v == 0:
        return "0.0"  # negating a zero part gives -0.0; print both zeros alike
    s = repr(v)
    if "e" in s or "E" in s:
        # expand tiny/huge magnitudes positionally; keep 17 significant digits
        exp = math.floor(math.log10(abs(v)))
        decimals = max(0, 17 - exp) if exp < 17 else 0
        s = f"{v:.{decimals}f}"
    return s


def _format_number(v) -> str:
    if isinstance(v, float):
        return _format_float(v)
    return str(v)


def format_mv(u: Multivector) -> str:
    """Canonical text form; ``parse_mv`` of the result reproduces ``u``."""
    pieces = []
    n = u.sig.n
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
                blade = _blade_text(mask, n)
                if mag == 1:
                    body = ("i*" if imag else "") + blade
                else:
                    body = _format_number(mag) + ("i*" if imag else "*") + blade
            pieces.append(("-" if neg else "+", body))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _blade_text(mask: int, n: int) -> str:
    indices = blade_indices(mask)
    if not indices:
        return "e"
    if n <= 9:
        return "e" + "".join(str(a) for a in indices)
    return "e{" + ",".join(str(a) for a in indices) + "}"


def mv_to_dict(u: Multivector) -> dict:
    """JSON-ready structured form with exact coefficient strings."""
    return {
        "signature": {"p": u.sig.p, "q": u.sig.q},
        "field": u.field,
        "backend": u.backend,
        "terms": [
            {
                "blade": list(blade_indices(mask)),
                "re": _format_number(re),
                "im": _format_number(im),
            }
            for mask, (re, im) in u.terms()
        ],
    }


def mv_from_dict(data: dict) -> Multivector:
    sig = Signature(data["signature"]["p"], data["signature"]["q"])
    field = data["field"]
    backend = data["backend"]
    terms = {}
    for entry in data["terms"]:
        mask = mask_from_indices(entry["blade"], sig.n)
        if backend == EXACT:
            re = Fraction(entry["re"])
            im = Fraction(entry["im"])
            re = re.numerator if re.denominator == 1 else re
            im = im.numerator if im.denominator == 1 else im
        else:
            re = float(entry["re"])
            im = float(entry["im"])
        if mask in terms:
            raise AlgebraError(f"duplicate blade {entry['blade']} in structured input")
        terms[mask] = (re, im)
    return Multivector(sig, terms, field, backend)

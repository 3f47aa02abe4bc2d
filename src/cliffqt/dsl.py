"""Expression language over typed symbolic multivectors.

Grammar::

    program := (decl ';')* expr
    decl    := 'let' IDENT ':' typeset
    typeset := [0123]+ ('+' 'i' [0123]+)? | 'i' [0123]+ | '∅' | '0set'
    expr    := prod (('+'|'-') prod)*
    prod    := unary ('*' unary)*
    unary   := rational ['*'] unary | 'i' ['*'] unary | '-' unary | atom
    atom    := IDENT | '(' expr ')' | '[' expr ',' expr ']' | '{' expr ',' expr '}'
             | ('rev'|'gri'|'conj'|'phc') '(' expr ')'

``rev``/``gri``/``conj``/``phc`` are reversion, grade involution, complex
conjugation and pseudo-Hermitian conjugation; compositions nest, e.g.
``gri(rev(x))``.  Undeclared symbols get the full TypeSet.  A type set
is read by :func:`cliffqt.qtype.parse_typeset` from the source between
``:`` and ``;``.  Numbers match the number pattern of
:mod:`cliffqt.mvtext` (ASCII digits 0-9 only), and a number may not run
straight into a name: ``2*x`` and ``2 x`` parse, ``2x`` and ``1e3`` are
parse errors.

The tree has one node per operation.  ``Add`` and ``Prod`` hold two or more
operands and splice in a nested node of their own kind, so ``x + (y + z)``
and ``x + y + z`` are the same tree.  ``Scale`` is a field scalar times its
child, with an (re, im) coefficient that is real or purely imaginary; a
minus sign, a number and ``i`` all build one, and nested ones multiply into
one, so ``-3*x`` is ``Scale((-3, 0), x)``.  ``Bracket`` is ``[a, b]`` with
sign -1 or ``{a, b}`` with sign +1.  Formatting a tree and parsing the text
back gives the same tree.

Type inference runs two passes.  The compositional pass folds the closure
tables over the tree.  The refinement pass builds the expression's normal
form once: a polynomial whose words are products of conjugated symbols,
with conjugations pushed down to the symbols and brackets expanded
(``[a, b] = ab - ba``, ``{a, b} = ab + ba``).  A conjugation maps each
word to one relabelled word: reversed under an anti-automorphism, with the
conjugation's bits flipped at every symbol, and with the coefficient
conjugated under an antilinear one.  When a conjugation maps the form to
+-itself, tested word by word with no conjugated copy built, the type is
intersected with that sign's eigenspace.  That second pass is what recovers
the U*rev(U)-style identities that no per-node rule can see.  Its type, the
intersection of those eigenspaces, depends on the tree and the field alone,
so it is kept for the last tree inferred: ``check_soundness`` at a second
signature reuses it and still folds the closure tables afresh.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    COMPLEX,
    EXACT,
    FLOAT,
    REAL,
    Multivector,
    Signature,
    _accumulate,
    anticommutator,
    commutator,
)
from .errors import AlgebraError, BindingError
from .mvtext import _NUMBER, MAX_DIGITS, _check_digits, _fail_at, format_mv
from .qtype import (
    _CCONJ,
    _REV,
    TypeSet,
    anticommutator_type,
    apply_conjugation,
    classify_by_rank,
    commutator_type,
    conjugation_bits,
    conjugation_codes,
    eigenspace,
    main_type_dim,
    member,
    parse_typeset,
    product_type,
)

# ------------------------------------------------------------------ AST

class Expr:
    """A node of the expression tree.

    Equality and hashing compare the nodes in preorder, listed with an
    explicit stack, so they work on the deepest tree the parser accepts at
    any recursion limit.
    """

    __slots__ = ()

    def _preorder(self) -> list:
        """(type, label) of every node; a node's type and label fix its child count."""
        return [(type(node), _label(node)) for node in _walk(self)]

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self):
        return hash(tuple(self._preorder()))


@dataclass(frozen=True, eq=False)
class Sym(Expr):
    name: str


@dataclass(frozen=True, eq=False)
class _Chain(Expr):
    """Two or more operands; a nested chain of the same kind is spliced in."""

    terms: tuple

    def __post_init__(self):
        terms = []
        for term in self.terms:
            terms.extend(term.terms if type(term) is type(self) else (term,))
        if len(terms) < 2:
            raise ValueError(f"{type(self).__name__} needs two or more operands")
        object.__setattr__(self, "terms", tuple(terms))


class Add(_Chain):
    """Sum of its terms."""


class Prod(_Chain):
    """Product of its factors, in order."""


@dataclass(frozen=True, eq=False)
class Scale(Expr):
    """``coef * child``, with coef an (re, im) pair whose re or im is zero."""

    coef: tuple
    child: Expr

    def __post_init__(self):
        coef, child = self.coef, self.child
        if isinstance(child, Scale):
            coef, child = _cmul(coef, child.coef), child.child
        re, im = (q.numerator if q.denominator == 1 else q for q in map(Fraction, coef))
        if re and im:
            raise ValueError(f"coefficient {coef} is neither real nor imaginary")
        object.__setattr__(self, "coef", (re, im))
        object.__setattr__(self, "child", child)


@dataclass(frozen=True, eq=False)
class Bracket(Expr):
    """``left*right + sign*right*left``: [l, r] with sign -1, {l, r} with +1."""

    sign: int
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Conj(Expr):
    op: str  # rev | gri | conj | phc
    child: Expr


def _label(expr: Expr):
    """What a node holds besides its children; with its type and its children
    it determines the node."""
    if isinstance(expr, _Chain):
        return len(expr.terms)
    if isinstance(expr, Sym):
        return expr.name
    if isinstance(expr, Scale):
        return expr.coef
    if isinstance(expr, Bracket):
        return expr.sign
    return expr.op


def _children(expr: Expr) -> tuple:
    if isinstance(expr, _Chain):
        return expr.terms
    if isinstance(expr, Bracket):
        return (expr.left, expr.right)
    if isinstance(expr, (Scale, Conj)):
        return (expr.child,)
    return ()


@dataclass(frozen=True)
class TypeEnv:
    field: str
    types: dict

    def lookup(self, name: str) -> TypeSet:
        try:
            return self.types[name]
        except KeyError:
            raise BindingError(f"unbound symbol {name!r}") from None


def _walk(expr: Expr):
    """Every node of expr in preorder, listed with an explicit stack."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def free_symbols(expr: Expr) -> set[str]:
    return {node.name for node in _walk(expr) if isinstance(node, Sym)}


# ------------------------------------------------------------------ lexer / parser

_CONJ_NAMES = {"rev", "gri", "conj", "phc"}
_KEYWORDS = _CONJ_NAMES | {"let", "i"}

# One token per match: finditer steps over the space between tokens, and
# ``bad`` is any other character that starts no token.  A ':' token runs to the
# next ';'.  ``\w`` also admits numeric non-letters such as '²', so a name's
# first character is checked apart.
_TOKEN = re.compile(
    rf"(?P<number>{_NUMBER.pattern})|(?P<IDENT>\w+)|(?P<mark>:[^;]*|[-+*/()[\]{{}},;])|(?P<bad>\S)"
)


def _tokenize(text: str):
    """Tokens as ``(kind, lexeme, character offset)``, ending with EOF."""
    tokens, end = [], len(text)
    for m in _TOKEN.finditer(text):
        kind, lexeme, i = m.lastgroup, m.group(), m.start()
        if kind == "mark":
            kind = lexeme[0]
        elif kind == "number":
            _check_digits(text, i, lexeme)
            kind = "DECIMAL" if "." in lexeme else "INT"
            j = m.end()
            if j < end and (text[j].isalpha() or text[j] == "_"):
                # '1e3' is neither a float nor 1*e3: ask for an explicit product
                _fail_at(text, i, f"number {lexeme!r} runs into {text[j]!r}; write '*' or a space")
        elif kind == "bad" or not (lexeme[0].isalpha() or lexeme[0] == "_"):
            _fail_at(text, i, f"malformed token {lexeme[0]!r}")
        tokens.append((kind, lexeme, i))
    tokens.append(("EOF", None, end))
    return tokens


class _DslParser:
    # Deepest nesting of brackets, parentheses and prefixes; a chain of '+',
    # '-' or '*' adds no nesting.  A nesting level costs the parser five
    # frames and adds at most three tree levels (a sum, a product and the
    # bracket, conjugation or scalar), and each recursive pass
    # (canonical_form, inference, evaluation, formatting) spends at most two
    # frames per tree level.  100 keeps all of them far below Python's
    # default recursion limit of 1000.
    MAX_DEPTH = 100
    # Bound on a folded coefficient's numerator and denominator: each tree formats and reads back.
    _FOLD_BOUND = 10**MAX_DIGITS

    def __init__(self, text: str, field: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.field = field
        self.types: dict[str, TypeSet] = {}

    def _peek(self):
        return self.toks[self.i]

    def _next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _expect(self, kind):
        tok = self._next()
        if tok[0] != kind:
            got = "end of input" if tok[0] == "EOF" else repr(tok[1])
            self._fail(f"expected {kind!r}, got {got}", tok[2])
        return tok

    def _fail(self, msg, pos=None):
        """Raise ParseError at character offset ``pos``, default the next token's."""
        _fail_at(self.text, self._peek()[2] if pos is None else pos, msg)

    def parse_program(self) -> tuple[TypeEnv, Expr]:
        while self._peek()[0] == "IDENT" and self._peek()[1] == "let":
            self._decl()
        expr = self._expr()
        tok = self._peek()
        if tok[0] != "EOF":
            self._fail(f"unexpected trailing input {tok[1]!r}")
        for name in sorted(free_symbols(expr)):
            self.types.setdefault(name, TypeSet.full(self.field))
        return TypeEnv(self.field, self.types), expr

    def _decl(self):
        self._next()  # let
        kind, name, pos = self._next()
        if kind != "IDENT" or name in _KEYWORDS:
            self._fail("expected a symbol name after 'let'", pos)
        if name in self.types:
            self._fail(f"duplicate declaration of {name!r}", pos)
        _, source, pos = self._expect(":")
        try:
            self.types[name] = parse_typeset(source[1:], self.field)
        except AlgebraError as exc:
            self._fail(str(exc), pos + 1)
        self._expect(";")

    def _expr(self) -> Expr:
        terms = [self._prod()]
        while self._peek()[0] in ("+", "-"):
            minus = self._next()[0] == "-"
            term = self._prod()
            terms.append(Scale(_MINUS_ONE, term) if minus else term)
        return terms[0] if len(terms) == 1 else Add(terms)

    def _prod(self) -> Expr:
        factors = [self._unary()]
        while self._peek()[0] == "*":
            self._next()
            factors.append(self._unary())
        return factors[0] if len(factors) == 1 else Prod(factors)

    def _unary(self) -> Expr:
        """Every nesting of brackets, parentheses and prefixes passes through here."""
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            self._fail(f"expression nested deeper than {self.MAX_DEPTH} levels")
        node = self._prefixed()
        self.depth -= 1
        return node

    def _prefixed(self) -> Expr:
        kind, lexeme, pos = self._peek()
        if kind == "-":
            self._next()
            return Scale(_MINUS_ONE, self._unary())
        if kind in ("INT", "DECIMAL"):
            self._next()
            if kind == "INT" and self._peek()[0] == "/":
                self._next()
                dkind, dlex, dpos = self._next()
                if dkind != "INT":
                    self._fail("fraction denominator must be an integer", dpos)
                if int(dlex) == 0:
                    self._fail("zero denominator", dpos)
                coef = (Fraction(int(lexeme), int(dlex)), 0)
            else:
                coef = (Fraction(lexeme), 0)
        elif kind == "IDENT" and lexeme == "i":
            self._next()
            if self.field != COMPLEX:
                self._fail("'i' needs the complex field", pos)
            coef = (0, 1)
        else:
            return self._atom()
        if self._peek()[0] == "*":
            self._next()
        node = Scale(coef, self._unary())
        q = node.coef[0] or node.coef[1]
        if abs(q.numerator) >= self._FOLD_BOUND or q.denominator >= self._FOLD_BOUND:
            self._fail(f"folded coefficient has more than {MAX_DIGITS} digits", pos)
        return node

    def _atom(self) -> Expr:
        kind, lexeme, pos = self._next()
        if kind == "IDENT":
            if lexeme in _CONJ_NAMES:
                try:
                    conjugation_bits(lexeme, self.field)
                except AlgebraError as exc:
                    self._fail(str(exc), pos)
                self._expect("(")
                inner = self._expr()
                self._expect(")")
                return Conj(lexeme, inner)
            if lexeme in _KEYWORDS:
                self._fail(f"unexpected keyword {lexeme!r}", pos)
            if self._peek()[0] == "(":
                self._fail(f"unknown conjugation name {lexeme!r}", pos)
            return Sym(lexeme)
        if kind == "(":
            inner = self._expr()
            self._expect(")")
            return inner
        if kind in ("[", "{"):
            left = self._expr()
            self._expect(",")
            right = self._expr()
            self._expect("]" if kind == "[" else "}")
            return Bracket(-1 if kind == "[" else 1, left, right)
        self._fail("unexpected end of input" if kind == "EOF" else f"unexpected token {lexeme!r}", pos)


def parse_program(text: str, field: str = REAL) -> tuple[TypeEnv, Expr]:
    """Parse declarations plus one expression; undeclared symbols get the full set."""
    return _DslParser(text, field).parse_program()


# ------------------------------------------------------------------ formatting

def format_expr(expr: Expr, prec: int = 0) -> str:
    if isinstance(expr, Sym):
        return expr.name
    if isinstance(expr, Conj):
        return f"{expr.op}({format_expr(expr.child)})"
    if isinstance(expr, Bracket):
        left, right = format_expr(expr.left), format_expr(expr.right)
        return f"[{left}, {right}]" if expr.sign < 0 else f"{{{left}, {right}}}"
    if isinstance(expr, Scale):
        return "".join(_scale_text(expr))
    if isinstance(expr, Add):
        parts = [format_expr(expr.terms[0], 1)]
        for term in expr.terms[1:]:
            sign, text = _scale_text(term) if isinstance(term, Scale) else ("", format_expr(term, 1))
            parts.append(f" {sign or '+'} {text}")
        text = "".join(parts)
        return f"({text})" if prec > 0 else text
    if isinstance(expr, Prod):
        text = "*".join([format_expr(factor, 2) for factor in expr.terms])
        return f"({text})" if prec > 1 else text
    raise TypeError(f"not an Expr: {expr!r}")


def _scale_text(expr: Scale) -> tuple[str, str]:
    """The sign of a Scale, '-' or '', and the text that reads back as its
    child times the coefficient's magnitude: ``x`` after a minus sign, else
    ``1*x``, ``q*x``, ``i*x`` or ``q*i*x``."""
    re, im = expr.coef
    q = re or im
    text = format_expr(expr.child, 2)
    if im:
        text = f"i*{text}"
    if abs(q) != 1 or not (im or q < 0):
        text = f"{abs(q)}*{text}"
    return ("-" if q < 0 else ""), text


def format_program(env: TypeEnv, expr: Expr) -> str:
    decls = "".join(f"let {name}:{tset}; " for name, tset in env.types.items())
    return decls + format_expr(expr)


# ------------------------------------------------------------------ normal form

# A normal form is a polynomial in the free associative algebra of conjugated
# symbols: {word: (re, im)} with int parts, or Fraction parts where a
# non-integral scalar factor enters.  A word is a tuple of (name, conj_bits)
# factors in product order.  Brackets are expanded, [a, b] = ab - ba and
# {a, b} = ab + ba, so two forms are equal exactly when the expressions agree
# in the free algebra.  A conjugation acts on a form by relabelling its words
# (see _conjugate), so one tree walk gives the form under every conjugation,
# and _eigen_sign compares a form with its image word by word.

_ONE = (1, 0)
_MINUS_ONE = (-1, 0)

# Most term pairs one product of normal forms may combine.  The expansion of
# (x+y)*...*(x+y) doubles per factor, and a bracket is two products; past
# this bound inference keeps the compositional type, which is sound, only
# less precise.
MAX_MONOMIALS = 4096


class _TooManyMonomials(AlgebraError):
    """A normal form would combine more than MAX_MONOMIALS term pairs."""


def _cmul(c1, c2):
    a, b = c1
    c, d = c2
    return (a * c - b * d, a * d + b * c)


def _poly_scale(p: dict, c) -> dict:
    if c[0] == 0 and c[1] == 0:
        return {}
    return {word: _cmul(coef, c) for word, coef in p.items()}


def _poly_mul(p1: dict, p2: dict) -> dict:
    if len(p1) * len(p2) > MAX_MONOMIALS:
        raise _TooManyMonomials(
            f"normal form would combine {len(p1)} x {len(p2)} monomials, "
            f"more than {MAX_MONOMIALS}"
        )
    pairs = ((w1 + w2, _cmul(c1, c2)) for w1, c1 in p1.items() for w2, c2 in p2.items())
    return _accumulate({}, pairs)


def _poly_prod(forms: list) -> dict:
    """Product of normal forms, folded left to right.

    A run of one-word forms is joined into one word in one step, so
    ``x*x*...*x`` is linear in its length; a one-word factor never reaches
    MAX_MONOMIALS, so the join changes no result.
    """
    if not all(forms):
        return {}
    acc = {(): _ONE}
    for one_word, run in itertools.groupby(forms, lambda form: len(form) == 1):
        if one_word:
            words, coefs = zip(*(next(iter(form.items())) for form in run))
            run = [{tuple(itertools.chain.from_iterable(words)): functools.reduce(_cmul, coefs)}]
        for form in run:
            acc = _poly_mul(acc, form)
    return acc


def _conjugate(poly: dict, bits: int) -> dict:
    """Conjugation ``bits`` of a normal form; one to one on words, so no terms merge."""
    step = -1 if bits & _REV else 1  # an anti-automorphism reverses products
    sign = -1 if bits & _CCONJ else 1  # an antilinear one conjugates scalars
    return {
        tuple((name, b ^ bits) for name, b in word[::step]): (re, sign * im)
        for word, (re, im) in poly.items()
    }


def canonical_form(expr: Expr) -> dict:
    """Normal form of expr, with every conjugation pushed down to the symbols.

    Raises ``AlgebraError`` when a product would combine more than
    ``MAX_MONOMIALS`` term pairs.
    """
    if isinstance(expr, Sym):
        return {((expr.name, 0),): _ONE}
    if isinstance(expr, Conj):
        return _conjugate(canonical_form(expr.child), conjugation_bits(expr.op))
    if isinstance(expr, Scale):
        return _poly_scale(canonical_form(expr.child), expr.coef)
    if isinstance(expr, Add):
        out: dict = {}
        for term in expr.terms:
            _accumulate(out, canonical_form(term).items())
        return out
    if isinstance(expr, Prod):
        return _poly_prod([canonical_form(factor) for factor in expr.terms])
    if isinstance(expr, Bracket):
        lhs, rhs = canonical_form(expr.left), canonical_form(expr.right)
        swapped = _poly_scale(_poly_mul(rhs, lhs), (expr.sign, 0))
        return _accumulate(_poly_mul(lhs, rhs), swapped.items())
    raise TypeError(f"not an Expr: {expr!r}")


# ------------------------------------------------------------------ inference

def _infer_compositional(expr: Expr, env: TypeEnv) -> TypeSet:
    if isinstance(expr, Sym):
        return env.lookup(expr.name)
    if isinstance(expr, Conj):
        # every conjugation maps each atom subspace to itself
        return _infer_compositional(expr.child, env)
    if isinstance(expr, Scale):
        child = _infer_compositional(expr.child, env)
        re, im = expr.coef
        if im:
            return child.i_flip()
        return child if re else TypeSet.empty(env.field)
    if isinstance(expr, (Add, Prod)):
        types = [_infer_compositional(term, env) for term in expr.terms]
        return functools.reduce(operator.or_ if isinstance(expr, Add) else product_type, types)
    if isinstance(expr, Bracket):
        rule = commutator_type if expr.sign < 0 else anticommutator_type
        return rule(_infer_compositional(expr.left, env), _infer_compositional(expr.right, env))
    raise TypeError(f"not an Expr: {expr!r}")


def infer_type(expr: Expr, env: TypeEnv) -> TypeSet:
    """Sound TypeSet over-approximation of the expression's value: the
    compositional type cut down by the refinement pass's type."""
    return _infer_compositional(expr, env) & _refinement(expr, env.field)[3]


# (tree, field, sorted free symbols, refined type) of the last tree refined, a
# function of the tree and field alone; holding the tree keeps its id unused.
_last_refinement: tuple = (None, None, (), None)


def _refinement(expr: Expr, field: str) -> tuple:
    """That record for expr, made unless expr is the last tree.  The refined
    type is full past ``MAX_MONOMIALS``, empty when the normal form cancels,
    and otherwise the intersection of the eigenspaces of the conjugations that
    map the form to +-itself."""
    global _last_refinement
    record = _last_refinement
    if record[0] is not expr or record[1] != field:
        refined = TypeSet.full(field)
        try:
            base = canonical_form(expr)
        except _TooManyMonomials:
            pass
        else:
            if not base:
                refined = TypeSet.empty(field)
            for bits in conjugation_codes(field):
                sign = _eigen_sign(base, bits)
                if sign:
                    refined &= eigenspace(bits, sign, field)
        record = _last_refinement = (expr, field, tuple(sorted(free_symbols(expr))), refined)
    return record


def _eigen_sign(poly: dict, bits: int) -> int:
    """+1 or -1 when conjugation ``bits`` maps the nonzero form poly to
    +-itself, else 0: the test ``_conjugate(poly, bits) == +-poly`` without
    building the image.

    The image of the first word fixes the only sign that can hold, and the
    walk stops at the first word whose image does not carry the matching
    coefficient.  Relabelling is one to one on words, so when every word's
    image is in poly, the images are exactly poly's words.
    """
    step = -1 if bits & _REV else 1  # an anti-automorphism reverses products
    flip = -1 if bits & _CCONJ else 1  # an antilinear one conjugates scalars
    sign = 0
    for word, (re, im) in poly.items():
        found = poly.get(tuple([(name, b ^ bits) for name, b in word[::step]]))
        if sign:
            if found != (sign * re, flip * im):
                return 0
        elif found == (re, flip * im):
            sign = 1
        elif found == (-re, -flip * im):
            sign, flip = -1, -flip
        else:
            return 0
    return sign


# ------------------------------------------------------------------ evaluation

def eval_expr(expr: Expr, env: TypeEnv, bindings: dict) -> Multivector:
    """Evaluate with concrete multivector bindings, checking declared types."""
    for name in sorted(free_symbols(expr)):
        declared = env.lookup(name)
        value = bindings.get(name)
        if value is None:
            raise BindingError(f"no binding for symbol {name!r}")
        if value.field != env.field:
            raise BindingError(f"binding for {name!r} has field {value.field}, env is {env.field}")
        observed = classify_by_rank(value)
        if not observed <= declared:
            raise BindingError(f"binding for {name!r} has type {observed}, declared {declared}")
    return _eval(expr, bindings)


def _eval(expr: Expr, bindings: dict, peaks: list | None = None) -> Multivector:
    """Value of expr; when peaks is a list, each node's largest coefficient
    is appended to it."""
    if isinstance(expr, Sym):
        out = bindings[expr.name]
    elif isinstance(expr, Conj):
        out = apply_conjugation(_eval(expr.child, bindings, peaks), expr.op)
    elif isinstance(expr, Scale):
        out = _eval(expr.child, bindings, peaks).scale(expr.coef)
    elif isinstance(expr, (Add, Prod)):
        values = [_eval(term, bindings, peaks) for term in expr.terms]
        out = functools.reduce(operator.add if isinstance(expr, Add) else operator.mul, values)
    elif isinstance(expr, Bracket):
        bracket = commutator if expr.sign < 0 else anticommutator
        out = bracket(_eval(expr.left, bindings, peaks), _eval(expr.right, bindings, peaks))
    else:
        raise TypeError(f"not an Expr: {expr!r}")
    if peaks is not None:
        peaks.append(out.max_abs())
    return out


# ------------------------------------------------------------------ random instances

# Bound on a draw's expected term count, density times the eligible blades.
# It admits every dense draw up to n = 20 (2^21 terms for the full complex
# type) and refuses a dense type-2 draw at n = 30 (2^28 terms).
MAX_EXPECTED_TERMS = 1 << 21

# Most generators at which draws default to density 1 and dense blade lists stay cached (40 of <= 2^10).
DENSE_MAX_N = 10


def _unrank_subset(index: int, n: int, r: int) -> int:
    """Mask of the r-subset of range(n) at position ``index`` in colex order.

    Combinatorial number system: ``index = C(c_r, r) + ... + C(c_1, 1)`` with
    ``n > c_r > ... > c_1 >= 0``, each ``c_j`` the largest that fits: bit ``c_j`` of the mask.
    """
    comb = math.comb
    mask = 0
    c = n
    for j in range(r, 0, -1):
        c -= 1
        size = comb(c, j)
        while size > index:
            c -= 1
            size = comb(c, j)
        index -= size
        mask |= 1 << c
    return mask


# The exact backend draws each coefficient uniformly from these 18 values.
_DRAWN_COEFFICIENTS = (-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9)


@functools.lru_cache(maxsize=None)
def _dense_masks(n: int, k: int) -> tuple:
    """Masks of the blades of rank k mod 4 among n generators, in draw order:
    by rank, then in ``itertools.combinations`` order."""
    return tuple(
        sum(1 << b for b in combo)
        for r in range(k, n + 1, 4)
        for combo in itertools.combinations(range(n), r)
    )


def _sparse_masks(rng: random.Random, n: int, k: int, density: float):
    """Masks of the rank-k-mod-4 blades, each kept independently with probability density.

    Walks each rank r's colex positions in geometric gaps, P(gap >= g) = (1 - density)^g,
    so the work is proportional to the blades kept, not to C(n, r).
    """
    log_miss = math.log1p(-density)
    for r in range(k, n + 1, 4):
        last = math.comb(n, r) - 1
        index = -1
        while True:
            gap = math.log(1.0 - rng.random()) / log_miss
            if gap >= last - index:  # floor(gap) reaches past the last position
                break
            index += 1 + int(gap)
            yield _unrank_subset(index, n, r)


def random_instance(
    tset: TypeSet,
    sig: Signature,
    seed: int,
    density: float | None = None,
    backend: str = EXACT,
) -> Multivector:
    """Random multivector inside the TypeSet's subspace, deterministic per seed.

    Supported blades have rank = k mod 4 for the set's atoms; imaginary atoms
    get purely imaginary coefficients.  Each eligible blade is kept with the
    given probability: by default 1 up to ``DENSE_MAX_N`` generators, where
    the dense blade lists stay cached, and 0.002 above.  Below density 1 the
    kept blades are reached by geometric skips, so a draw takes time
    proportional to its expected number of terms, density times the eligible
    blades; a draw expecting more than ``MAX_EXPECTED_TERMS`` raises ``AlgebraError``.
    """
    if density is None:
        density = 1.0 if sig.n <= DENSE_MAX_N else 0.002
    if not 0 < density <= 1:
        raise AlgebraError(f"density must be in (0, 1], got {density}")
    # count * density > MAX_EXPECTED_TERMS, exactly (the quotient overflows at a subnormal density);
    # a blade is eligible for at most two atoms, so count is summed only if 2^(n+1) may be too many
    num, den = density.as_integer_ratio()
    limit = MAX_EXPECTED_TERMS * den
    if (2 << sig.n) * num > limit and sum(main_type_dim(sig.n, k) for k, _ in tset.atoms()) * num > limit:
        raise AlgebraError(
            f"a draw of type {tset} in Cl({sig.p},{sig.q}) at density {density} "
            f"expects more than {MAX_EXPECTED_TERMS} terms; lower the density"
        )
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    # no drawn coefficient is zero and a blade lies in one main type, so a
    # term is written once, or twice when its real atom k came before ik
    terms: dict[int, tuple] = {}
    zero = 0.0 if backend == FLOAT else 0
    n = sig.n
    for k, imag in tset.atoms():
        if density < 1.0:
            masks = _sparse_masks(rng, n, k, density)
        elif n <= DENSE_MAX_N:
            masks = _dense_masks(n, k)
        else:
            masks = _dense_masks.__wrapped__(n, k)
        for mask in masks:
            if backend == FLOAT:
                value = rng.uniform(-1.0, 1.0) or 1.0
            else:
                # the draw rng.choice makes: 5 random bits, redrawn while past 17
                index = getrandbits(5)
                while index >= 18:
                    index = getrandbits(5)
                value = _DRAWN_COEFFICIENTS[index]
            if imag:
                terms[mask] = (terms.get(mask, (zero,))[0], value)
            else:
                terms[mask] = (value, zero)
    return Multivector._raw(sig, tset.field, backend, terms)


# ------------------------------------------------------------------ soundness checking

@dataclass
class SoundnessReport:
    env: TypeEnv
    expr: Expr
    inferred: TypeSet
    trials: int
    failures: int
    first_counterexample: dict | None

    @property
    def program(self) -> str:
        """The program text, formatted only when it is read."""
        return format_program(self.env, self.expr)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {
            "program": self.program,
            "inferred": str(self.inferred),
            "trials": self.trials,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "passed": self.passed,
        }

    def format_text(self) -> str:
        lines = [
            f"program:  {self.program}",
            f"inferred: {self.inferred}",
            f"trials:   {self.trials}, failures: {self.failures}",
        ]
        if self.first_counterexample:
            ce = self.first_counterexample
            lines.append(f"first counterexample (trial {ce['trial']}, seed {ce['seed']}):")
            for name, text in ce["bindings"].items():
                lines.append(f"  {name} = {text}")
            lines.append(f"  observed type: {ce['observed']}")
        return "\n".join(lines)


def trial_seed(seed: int, trial: int) -> int:
    """Seed of one trial; recorded in counterexamples so runs reproduce."""
    return seed * 1_000_003 + trial


def check_soundness(
    expr: Expr,
    env: TypeEnv,
    sig: Signature,
    trials: int = 100,
    seed: int = 0,
    backend: str = EXACT,
    density: float | None = None,
) -> SoundnessReport:
    """Instantiate symbols randomly and test membership in the inferred type.

    Failures are reported, not raised; the first one records the trial seed
    and the exact bindings.  On the float backend ``member`` judges the value
    with ``FLOAT_TOL`` relative to the largest coefficient of any binding or
    intermediate value, so a value that cancels to rounding residue is judged
    against the magnitude it cancelled from.  The same tree object checked
    again, at any signature, reuses its normal form's signs and symbol names.
    """
    if trials < 1:
        raise AlgebraError(f"trials must be >= 1, got {trials}")
    inferred = infer_type(expr, env)
    names = _refinement(expr, env.field)[2]
    failures = 0
    first = None
    for trial in range(trials):
        tseed = trial_seed(seed, trial)
        bindings = {
            name: random_instance(env.lookup(name), sig, tseed * 131 + j, density, backend)
            for j, name in enumerate(names)
        }
        peaks = [] if backend == FLOAT else None
        result = _eval(expr, bindings, peaks)
        if not member(result, inferred, max(peaks) if peaks else None):
            failures += 1
            if first is None:
                first = {
                    "trial": trial,
                    "seed": tseed,
                    "bindings": {name: format_mv(mv) for name, mv in bindings.items()},
                    "observed": str(classify_by_rank(result)),
                }
    return SoundnessReport(env, expr, inferred, trials, failures, first)

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from cliffqt import COMPLEX, REAL, Multivector, TypeSet, eigenspace
from cliffqt.dsl import _conjugate, _infer_compositional, _TooManyMonomials, canonical_form
from cliffqt.qtype import conjugation_codes

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_mv(sig, rng, field=REAL, from_floats=False, max_terms=None):
    """Small random multivector with integer coefficients, or with floats in
    [-1, 1] read exactly (``Fraction(x)``, denominators up to 2^53)."""
    size = 1 << sig.n
    count = rng.randrange(0, max_terms or size) + 1
    terms = {}
    for _ in range(count):
        mask = rng.randrange(size)
        if from_floats:
            re = Fraction(rng.uniform(-1, 1))
            im = Fraction(rng.uniform(-1, 1)) if field == COMPLEX else 0
        else:
            re = rng.randint(-9, 9)
            im = rng.randint(-9, 9) if field == COMPLEX else 0
        terms[mask] = (re, im)
    return Multivector(sig, terms, field)


def reference_sign(form, bits):
    """+1 or -1 when conjugation bits maps the normal form to +-itself, else 0,
    read off a fully built conjugated copy of the form."""
    image = _conjugate(form, bits)
    if image == form:
        return 1
    if image == {word: (-re, -im) for word, (re, im) in form.items()}:
        return -1
    return 0


def relabel_and_compare_type(expr, env):
    """Reference inference: the compositional type, cut down to an eigenspace
    of every conjugation whose copy of the normal form is +-the form."""
    result = _infer_compositional(expr, env)
    try:
        form = canonical_form(expr)
    except _TooManyMonomials:
        return result
    if not form:
        return TypeSet.empty(env.field)
    for bits in conjugation_codes(env.field):
        sign = reference_sign(form, bits)
        if sign:
            result = result & eigenspace(bits, sign, env.field)
    return result


def reference_member(u, tset):
    """Reference membership: every term's nonzero parts checked one by one
    against the atoms of the term's rank."""
    for mask, (re, im) in u._terms.items():
        k = mask.bit_count() & 3
        if not tset.bits >> k & 1 and re != 0:
            return False
        if not tset.bits >> (4 + k) & 1 and im != 0:
            return False
    return True


def reference_classify_by_rank(u):
    """Reference classification: the atoms of every nonzero part of every term."""
    bits = 0
    for mask, (re, im) in u._terms.items():
        k = mask.bit_count() & 3
        if re != 0:
            bits |= 1 << k
        if im != 0:
            bits |= 1 << (4 + k)
    return TypeSet(u.field, bits)


@pytest.fixture
def rng():
    return random.Random(20260810)

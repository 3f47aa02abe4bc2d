"""A versor's inner automorphism keeps every quaternion type, on dense rational operands.

The paper defines the types by conjugations; for V a product of vectors with
nonzero squares, V rev(V) is a nonzero scalar and u -> V u rev(V) / (V rev(V))
commutes with rev, gri and conj, so it maps each atom subspace onto itself.
Every product the test forms is also checked against a per-pair Fraction
reference built on the swap-and-contract oracle, so the integer kernel's one
division per output part is checked on off-axis operands with mixed
denominators, through both the table path (n <= 6) and the mask path.
"""

import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cliffqt import COMPLEX, REAL, Multivector, Signature, TypeSet
from cliffqt.qtype import classify_by_conjugation, classify_by_rank
from cliffqt.verify import naive_blade_product


def reference_product(u, v):
    """Term map of u*v: each term pair multiplied in Fractions, its sign from the oracle."""
    out = {}
    for a, (ra, ia) in u._terms.items():
        for b, (rb, ib) in v._terms.items():
            sign, m = naive_blade_product(a, b, u.sig)
            re, im = out.get(m, (Fraction(0), Fraction(0)))
            out[m] = (re + sign * (Fraction(ra) * rb - Fraction(ia) * ib),
                      im + sign * (Fraction(ra) * ib + Fraction(ia) * rb))
    return {m: c for m, c in out.items() if c != (0, 0)}


def checked_product(u, v):
    """u*v, asserted equal to the reference, with every integral part an int."""
    w = u * v
    assert w._terms == reference_product(u, v)
    for re, im in w._terms.values():
        assert type(re) is int or re.denominator > 1
        assert type(im) is int or im.denominator > 1
    return w


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def _vector(rng, sig, field):
    """A random rational vector over all n generators with a nonzero square."""
    while True:
        terms = {1 << a: _rational(rng) for a in range(sig.n)}
        square = sum(sig.eta(a + 1) * c * c for a, c in enumerate(terms.values()))
        if square:
            return Multivector(sig, terms, field)


def _typed_instance(rng, sig, tset):
    """About half the blades of each atom of tset, each with a rational coefficient."""
    terms = {}
    for k, imag in tset.atoms():
        for mask in range(1 << sig.n):
            if mask.bit_count() & 3 == k and rng.random() < 0.5:
                re, im = terms.get(mask, (0, 0))
                terms[mask] = (re, _rational(rng) or 1) if imag else (_rational(rng) or 1, im)
    return Multivector(sig, terms, tset.field)


@given(
    n=st.integers(1, 8),
    p_share=st.floats(0, 1),
    field=st.sampled_from((REAL, COMPLEX)),
    vectors=st.integers(1, 3),
    bits=st.integers(1, 255),
    seed=st.integers(0, 2**32),
)
def test_versor_conjugation_keeps_the_type(n, p_share, field, vectors, bits, seed):
    rng = random.Random(seed)
    sig = Signature(round(p_share * n), n - round(p_share * n))
    tset = TypeSet(field, bits if field == COMPLEX else bits & 0x0F or 1)
    versor = _vector(rng, sig, field)
    for _ in range(vectors - 1):
        versor = checked_product(versor, _vector(rng, sig, field))
    norm = checked_product(versor, versor.reversion())
    assert norm.grades() == (0,)  # V rev(V) is the product of the squares
    scalar = norm.coeff(0)[0]
    u = _typed_instance(rng, sig, tset)
    w = checked_product(checked_product(versor, u), versor.reversion()).scale(1 / Fraction(scalar))
    assert classify_by_rank(w) == classify_by_conjugation(w) == classify_by_rank(u)
    assert classify_by_rank(w) <= tset

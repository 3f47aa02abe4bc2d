"""Exact multivector arithmetic in Cl(p,q) over the reals or complexes.

Basis blades are bit masks: generator ``a`` (1-based) occupies bit ``a - 1``
and the empty mask is the identity ``e``.  A multivector is a sparse map
from blade mask to a coefficient pair ``(re, im)`` of Python ints or
:class:`fractions.Fraction`, so every algebraic identity holds with literal
equality; no term stored is zero.  A float coefficient is refused.  The float
backend is gone, and with it ``FLOAT``, ``EXACT``, ``FLOAT_TOL``,
``_check_finite``, ``Multivector.max_abs`` and the ``backend`` slot and
parameter of ``Multivector`` and its factories.

Products and brackets take one of two paths, chosen by the number of
generators n.  Up to ``TABLE_MAX_N`` (6) each term pair reads its factor
from a table built once per signature and bracket kind and adds into a
dense array of 2^n slots; the three tables of one signature take about 8,
29 and 105 KiB at n = 4, 5 and 6.  Above it each pair's sign is a popcount
against :func:`sign_mask` and the terms gather in a sparse map.  Both paths
take their signs from the same two masks.  An operand holding a Fraction is
multiplied as integers over one common denominator d, the lcm of its
denominators; each output part is divided by d_u d_v once, and an integral
result is an int again.

Multivectors are immutable values: every operation returns a fresh object,
so instances can be shared freely between threads.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .errors import AlgebraError

REAL = "real"
COMPLEX = "complex"

#: Most term pairs one product or bracket may visit, about 12 s at the
#: sign-mask path's ~1.3 M pairs/s.
MAX_PRODUCT_PAIRS = 1 << 24

#: Most generators for which products read blade factors from a table.
TABLE_MAX_N = 6

#: Most generators a signature may have: 2^24 = 16,777,216.  A blade mask of
#: n bits, and the 2^(n+1) of a draw's size guard, then stay a few MB.
MAX_N = 1 << 24


@dataclass(frozen=True)
class Signature:
    """Diagonal quadratic form with ``p`` entries +1 followed by ``q`` entries -1."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if type(p) is not int or type(q) is not int or p < 0 or q < 0 or not 1 <= p + q <= MAX_N:
            raise AlgebraError(
                f"invalid signature ({p!r},{q!r}): need ints p >= 0, q >= 0, 1 <= p+q <= {MAX_N}"
            )

    @property
    def n(self) -> int:
        return self.p + self.q

    def eta(self, a: int) -> int:
        """Square of generator ``a`` (1-based): +1 for a <= p, else -1."""
        if not 1 <= a <= self.n:
            raise AlgebraError(f"generator index {a} out of range 1..{self.n}")
        return 1 if a <= self.p else -1


def blade_indices(mask: int) -> tuple[int, ...]:
    """1-based generator indices of a blade mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def mask_from_indices(indices: Iterable[int], n: int) -> int:
    """Mask of 1-based generator indices, strictly increasing in 1..n as the text grammar
    writes them: order carries a sign (e3 e1 = -e13), so an unsorted or repeated list is refused."""
    if not isinstance(indices, Iterable):
        raise AlgebraError(f"blade indices must be an iterable of ints, got {indices!r:.40}")
    prev = mask = 0
    for a in indices:
        if type(a) is not int or not prev < a <= n:
            if type(a) is int and 1 <= a <= n:
                raise AlgebraError("blade indices must be strictly increasing")
            raise AlgebraError(f"blade index {a!r} out of range 1..{n}")
        prev = a
        mask |= 1 << (a - 1)
    return mask


def sign_mask(a: int, p: int) -> int:
    """Mask S with e_a * e_b negative exactly when popcount(b & S) is odd.

    The sign of e_a * e_b is the parity of the transpositions that sort the
    concatenated index lists, sum over t >= 1 of popcount((a >> t) & b), plus
    one for every shared generator past position p (eta = -1).  Popcount
    parity adds under XOR, so the shifted copies of ``a`` fold into one mask,
    a suffix XOR of ``a >> 1`` whose reach doubles each step: log2(n) steps.
    """
    t, s = a >> 1, 1
    while t >> s:
        t ^= t >> s
        s <<= 1
    return a >> p << p ^ t


def swap_mask(a: int) -> int:
    """Mask T with e_a * e_b = -e_b * e_a exactly when popcount(b & T) is odd.

    The swap sign is (-1)^(|a||b| - |a & b|).  For even |a| its parity is
    that of popcount(a & b); for odd |a| it is that of |b| + |a & b|, the
    parity of popcount(b & ~a).
    """
    return ~a if a.bit_count() & 1 else a


def blade_mul(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Product of two basis blades as ``(sign, result mask)``.

    The result blade is the symmetric difference of the index sets; the sign
    comes from :func:`sign_mask`.
    """
    return (-1 if (b & sign_mask(a, sig.p)).bit_count() & 1 else 1), a ^ b


def _coerce_pair(value, field: str) -> tuple:
    """Normalize a user coefficient, a number or an (re, im) pair of int or Fraction parts."""
    if isinstance(value, tuple):
        if len(value) != 2:
            raise AlgebraError(f"coefficient pair must have two entries, got {value!r}")
        re, im = value
    else:
        re, im = value, 0
    # Fraction last, as its ABC isinstance is slow; never a bool
    if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))) or bool in (type(re), type(im)):
        raise AlgebraError(f"coefficients must be int or Fraction, got {value!r:.40}")
    if field == REAL and im != 0:
        raise AlgebraError("real field cannot carry an imaginary coefficient")
    return re, im


def _accumulate(out: dict, terms) -> dict:
    """Add each (blade mask or normal-form word, (re, im)) of terms into out, dropping cancelled keys."""
    for key, c in terms:
        cur = out.get(key)
        if cur is None:
            out[key] = c
        else:
            re, im = cur[0] + c[0], cur[1] + c[1]
            if re == 0 and im == 0:
                del out[key]
            else:
                out[key] = (re, im)
    return out


class Multivector:
    """Immutable sparse multivector over a fixed signature and field."""

    __slots__ = ("sig", "field", "_terms")

    def __init__(self, sig: Signature, terms=None, field: str = REAL):
        """Multivector from (blade mask, coefficient) items, a dict or an iterable.

        Each coefficient is coerced once by _coerce_pair; a zero term is skipped and the
        rest merge by _accumulate, so no value type depends on term order.  A mask is an
        int in 0..2^n - 1.  Each refusal is an AlgebraError."""
        if field not in (REAL, COMPLEX):
            raise AlgebraError(f"unknown field {field!r}")
        pairs = []
        try:
            for mask, value in terms.items() if isinstance(terms, dict) else terms or ():
                if type(mask) is not int or mask < 0 or mask >> sig.n:
                    shown = f"{mask:#x}" if type(mask) is int else repr(mask)
                    raise AlgebraError(f"blade mask {shown} invalid for n={sig.n}")
                c = _coerce_pair(value, field)
                if c[0] or c[1]:
                    pairs.append((mask, c))
        except AlgebraError:
            raise
        except (TypeError, ValueError):  # not an iterable of pairs
            raise AlgebraError(f"terms must be (mask, coefficient) pairs, got {terms!r:.40}") from None
        self.sig = sig
        self.field = field
        self._terms = _accumulate({}, pairs)

    @classmethod
    def _raw(cls, sig, field, tmap):
        """Internal constructor for already-normalized, zero-pruned term maps."""
        mv = object.__new__(cls)
        mv.sig = sig
        mv.field = field
        mv._terms = tmap
        return mv

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls, sig, field=REAL):
        return cls(sig, None, field)

    @classmethod
    def scalar(cls, sig, value, field=REAL):
        return cls(sig, {0: value}, field)

    @classmethod
    def basis_blade(cls, sig, indices, coeff=1, field=REAL):
        """Blade from a mask (int) or strictly increasing 1-based indices."""
        mask = indices if isinstance(indices, int) else mask_from_indices(indices, sig.n)
        return cls(sig, {mask: coeff}, field)

    # ---------------------------------------------------------------- inspection

    def terms(self) -> list[tuple[int, tuple]]:
        """Term list sorted by (rank, mask); deterministic across runs."""
        return [(mask, self._terms[mask]) for mask in sorted(sorted(self._terms), key=int.bit_count)]

    def coeff(self, mask: int) -> tuple:
        return self._terms.get(mask, (0, 0))

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({m.bit_count() for m in self._terms}))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        from .mvtext import format_mv

        return f"<Multivector {format_mv(self)!r} sig=({self.sig.p},{self.sig.q}) {self.field}>"

    # ---------------------------------------------------------------- comparisons

    def _compat(self, other: "Multivector"):
        if self.sig != other.sig:
            raise AlgebraError(
                f"signature mismatch: ({self.sig.p},{self.sig.q}) vs ({other.sig.p},{other.sig.q})"
            )
        if self.field != other.field:
            raise AlgebraError(f"field mismatch: {self.field} vs {other.field}")

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._compat(other)
        return self._terms == other._terms

    __hash__ = None

    # ---------------------------------------------------------------- linear ops

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._compat(other)
        return Multivector._raw(self.sig, self.field, _accumulate(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self):
        out = {m: (-re, -im) for m, (re, im) in self._terms.items()}
        return Multivector._raw(self.sig, self.field, out)

    def scale(self, value) -> "Multivector":
        """Multiply by a scalar; accepts a number or an (re, im) pair."""
        cr, ci = _coerce_pair(value, self.field)
        if cr == 0 and ci == 0:
            return Multivector._raw(self.sig, self.field, {})
        out = {}
        if ci == 0:
            for m, (re, im) in self._terms.items():
                out[m] = (cr * re, cr * im)
        else:
            for m, (re, im) in self._terms.items():
                out[m] = (cr * re - ci * im, cr * im + ci * re)
        return Multivector._raw(self.sig, self.field, out)

    def __rmul__(self, other):
        # every real number goes to scale, which names int or Fraction when it refuses one
        if isinstance(other, Real) and type(other) is not bool:
            return self.scale(other)
        return NotImplemented

    # ---------------------------------------------------------------- products

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return _product(self, other)
        return self.__rmul__(other)

    # ---------------------------------------------------------------- gradings

    def grade(self, k: int) -> "Multivector":
        """Projection onto the rank-k terms."""
        if not 0 <= k <= self.sig.n:
            raise AlgebraError(f"rank {k} out of range 0..{self.sig.n}")
        out = {m: c for m, c in self._terms.items() if m.bit_count() == k}
        return Multivector._raw(self.sig, self.field, out)

    def even_part(self) -> "Multivector":
        out = {m: c for m, c in self._terms.items() if not m.bit_count() & 1}
        return Multivector._raw(self.sig, self.field, out)

    def odd_part(self) -> "Multivector":
        out = {m: c for m, c in self._terms.items() if m.bit_count() & 1}
        return Multivector._raw(self.sig, self.field, out)

    # ---------------------------------------------------------------- conjugations

    def reversion(self) -> "Multivector":
        """Anti-automorphism scaling rank k by (-1)^(k(k-1)/2)."""
        out = {}
        for m, (re, im) in self._terms.items():
            # k(k-1)/2 is odd exactly when k = 2, 3 mod 4
            out[m] = (-re, -im) if m.bit_count() & 2 else (re, im)
        return Multivector._raw(self.sig, self.field, out)

    def grade_involution(self) -> "Multivector":
        """Automorphism scaling rank k by (-1)^k."""
        out = {}
        for m, (re, im) in self._terms.items():
            out[m] = (-re, -im) if m.bit_count() & 1 else (re, im)
        return Multivector._raw(self.sig, self.field, out)

    def complex_conjugate(self) -> "Multivector":
        """Coefficient-wise conjugation relative to the generator basis."""
        if self.field != COMPLEX:
            raise AlgebraError("complex conjugation needs the complex field")
        out = {m: (re, -im) for m, (re, im) in self._terms.items()}
        return Multivector._raw(self.sig, self.field, out)

    def pseudo_hermitian(self) -> "Multivector":
        """Composition of complex conjugation and reversion."""
        if self.field != COMPLEX:
            raise AlgebraError("pseudo-Hermitian conjugation needs the complex field")
        return self.reversion().complex_conjugate()


def _product(u: Multivector, v: Multivector, keep: int | None = None) -> Multivector:
    """Sum over term pairs of s(A, B) u_A v_B e_(A ^ B), with s from sign_mask.

    ``keep`` None takes every pair (the geometric product).  Otherwise a pair
    is taken, with its coefficient doubled, only when the parity of
    ``(B & swap_mask(A)).bit_count()`` equals ``keep``: 1 keeps the
    anticommuting pairs (the commutator), 0 the commuting ones (the
    anticommutator).  More than ``MAX_PRODUCT_PAIRS`` pairs raise AlgebraError.

    The kernels see ints only: each operand comes from :func:`_over_integers`
    as a common denominator and an integer term map, and each output part is
    divided by the two denominators' product once.  Up to ``TABLE_MAX_N``
    generators the pairs read their factor from :func:`_blade_table` and add
    into a dense array; above it the signs come from the masks pair by pair
    into a sparse map.
    """
    u._compat(v)
    if len(u) * len(v) > MAX_PRODUCT_PAIRS:
        raise AlgebraError(f"{len(u)} by {len(v)} terms: more than {MAX_PRODUCT_PAIRS} term pairs")
    du, uterms = _over_integers(u._terms)
    dv, vterms = _over_integers(v._terms)
    kernel = _table_product if u.sig.n <= TABLE_MAX_N else _mask_product
    out = kernel(u.sig, u.field == REAL, uterms, vterms, keep)
    d = du * dv
    if d != 1:
        out = {m: (_divide(re, d), _divide(im, d)) for m, (re, im) in out.items()}
    return Multivector._raw(u.sig, u.field, out)


def _over_integers(tmap: dict) -> tuple[int, dict]:
    """``(d, d * tmap)``, d the lcm of tmap's denominators, so every part is an int.

    An all-int map is returned as it is, d = 1, after one type scan.
    """
    for re, im in tmap.values():
        if type(re) is not int or type(im) is not int:
            break
    else:
        return 1, tmap
    d = math.lcm(*[x.denominator for pair in tmap.values() for x in pair])
    return d, {
        m: (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))
        for m, (re, im) in tmap.items()
    }


def _divide(x: int, d: int):
    """x / d, an int when d divides x, else a Fraction."""
    return x // d if not x % d else Fraction(x, d)


@functools.lru_cache(maxsize=None)  # one entry per (p, n, keep) with n <= TABLE_MAX_N
def _blade_table(p: int, n: int, keep: int | None) -> tuple:
    """Rows ``[A][B]`` of the factor each blade pair contributes in ``_product``.

    For the geometric product (``keep`` None) the factor is s(A, B) = +-1;
    for a bracket it is 2 s(A, B) on the kept pairs and 0 on the others.
    Built from sign_mask and swap_mask, so it is the same kernel in a table.
    """
    size = 1 << n
    scale = 1 if keep is None else 2
    rows = []
    for a in range(size):
        sa, ta = sign_mask(a, p), swap_mask(a)
        rows.append(tuple(
            0 if keep is not None and (b & ta).bit_count() & 1 != keep
            else -scale if (b & sa).bit_count() & 1 else scale
            for b in range(size)
        ))
    return tuple(rows)


def _table_product(sig: Signature, real: bool, uterms: dict, vterms: dict, keep: int | None) -> dict:
    """Term map of ``_product`` for n <= TABLE_MAX_N, accumulated in 2^n slots."""
    table = _blade_table(sig.p, sig.n, keep)
    size = 1 << sig.n
    if real:
        vreal = [(mb, rb) for mb, (rb, _) in vterms.items()]
        acc = [0] * size
        for ma, (ra, _) in uterms.items():
            row = table[ma]
            scaled = (0, ra, ra + ra, -(ra + ra), -ra)  # scaled[s] is s * ra
            for mb, rb in vreal:
                s = row[mb]
                if s:
                    acc[ma ^ mb] += scaled[s] * rb
        return {m: (re, 0) for m, re in enumerate(acc) if re}
    acc_re = [0] * size
    acc_im = [0] * size
    vterms = list(vterms.items())
    for ma, (ra, ia) in uterms.items():
        row = table[ma]
        for mb, (rb, ib) in vterms:
            s = row[mb]
            if s:
                m = ma ^ mb
                acc_re[m] += s * (ra * rb - ia * ib)
                acc_im[m] += s * (ra * ib + ia * rb)
    return {m: (re, im) for m, (re, im) in enumerate(zip(acc_re, acc_im)) if re or im}


def _mask_product(sig: Signature, real: bool, uterms: dict, vterms: dict, keep: int | None) -> dict:
    """Term map of ``_product``, with each pair's sign taken from the masks."""
    p = sig.p
    vterms = list(vterms.items())
    out: dict[int, tuple] = {}
    get = out.get
    for ma, (ra, ia) in uterms.items():
        sa = sign_mask(ma, p)
        pairs = vterms
        if keep is not None:
            ta = swap_mask(ma)
            pairs = [t for t in vterms if (t[0] & ta).bit_count() & 1 == keep]
            ra += ra
            ia += ia
        if real:
            for mb, (rb, _) in pairs:
                re = -ra * rb if (mb & sa).bit_count() & 1 else ra * rb
                m = ma ^ mb
                cur = get(m)
                if cur is None:
                    out[m] = (re, 0)
                else:
                    re += cur[0]
                    if re == 0:
                        del out[m]
                    else:
                        out[m] = (re, 0)
        else:
            for mb, (rb, ib) in pairs:
                re = ra * rb - ia * ib
                im = ra * ib + ia * rb
                if (mb & sa).bit_count() & 1:
                    re = -re
                    im = -im
                m = ma ^ mb
                cur = get(m)
                if cur is None:
                    out[m] = (re, im)
                else:
                    re += cur[0]
                    im += cur[1]
                    if re == 0 and im == 0:
                        del out[m]
                    else:
                        out[m] = (re, im)
    return out


def commutator(u: Multivector, v: Multivector) -> Multivector:
    """[u, v] = u*v - v*u, computed in one pass over the term pairs.

    e_A e_B = (-1)^(|A||B| - |A & B|) e_B e_A, so a commuting pair cancels
    and an anticommuting pair contributes 2 s(A, B) u_A v_B e_(A ^ B).  Only
    the anticommuting pairs are multiplied, and the result equals u*v - v*u.
    """
    return _product(u, v, 1)


def anticommutator(u: Multivector, v: Multivector) -> Multivector:
    """{u, v} = u*v + v*u: 2 s(A, B) u_A v_B e_(A ^ B) over the commuting pairs, in one pass."""
    return _product(u, v, 0)

"""Exact multivector arithmetic in Cl(p,q) over the reals or complexes.

Basis blades are bit masks: generator ``a`` (1-based) occupies bit ``a - 1``
and the empty mask is the identity ``e``.  A multivector is a sparse map
from blade mask to a coefficient pair ``(re, im)``.  On the exact backend
coefficients are Python ints or :class:`fractions.Fraction`, so every
algebraic identity holds with literal equality; on the float backend they
are floats and approximate comparisons elsewhere use ``FLOAT_TOL``.  No term
stored is zero: a float term that underflows to 0.0 (1e-200 * 1e-200) is dropped.

Products and brackets take one of two paths, chosen by the number of
generators n.  Up to ``TABLE_MAX_N`` (6) each term pair reads its factor
from a table built once per signature and bracket kind and adds into a
dense array of 2^n slots; the three tables of one signature take about 8,
29 and 105 KiB at n = 4, 5 and 6.  Above it each pair's sign is a popcount
against :func:`sign_mask` and the terms gather in a sparse map.  Both paths
take their signs from the same two masks.

Multivectors are immutable values: every operation returns a fresh object,
so instances can be shared freely between threads.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlgebraError

REAL = "real"
COMPLEX = "complex"
EXACT = "exact"
FLOAT = "float"

#: Relative tolerance for float-backend membership and classification.
FLOAT_TOL = 1e-9

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


#: Coefficient types per backend, never a bool; Fraction last, as its ABC isinstance is slow.
_NUMBER_TYPES = {EXACT: (int, Fraction), FLOAT: (float, int, Fraction)}


def _is_scalar(v) -> bool:
    """Whether v is a coefficient of either backend; ``scale`` refuses a float on the exact one."""
    return isinstance(v, _NUMBER_TYPES[FLOAT]) and type(v) is not bool


def _coerce_pair(value, field: str, backend: str) -> tuple:
    """Normalize a user coefficient, a number or an (re, im) pair, for the backend."""
    if isinstance(value, tuple):
        if len(value) != 2:
            raise AlgebraError(f"coefficient pair must have two entries, got {value!r}")
        re, im = value
    else:
        re, im = value, 0
    kinds = _NUMBER_TYPES[backend]
    if not (isinstance(re, kinds) and isinstance(im, kinds)) or bool in (type(re), type(im)):
        names = "int or Fraction" if backend == EXACT else "int, Fraction or float"
        raise AlgebraError(f"{backend} backend needs {names} coefficients, got {value!r:.40}")
    if backend == FLOAT:
        try:
            re = float(re)
            im = float(im)
        except OverflowError:
            raise AlgebraError("coefficient too large for the float backend") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise AlgebraError(f"float backend needs finite coefficients, got {value!r}")
    if field == REAL and im != 0:
        raise AlgebraError("real field cannot carry an imaginary coefficient")
    return re, im


def _check_finite(tmap: dict) -> dict:
    """Refuse inf or nan in a float-backend term map; return it without its all-zero terms."""
    isfinite = math.isfinite
    for re, im in tmap.values():
        if not (isfinite(re) and isfinite(im)):
            raise AlgebraError("float backend overflow: a result coefficient is not finite")
    return {m: c for m, c in tmap.items() if c[0] or c[1]}


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
    """Immutable sparse multivector over a fixed signature, field and backend."""

    __slots__ = ("sig", "field", "backend", "_terms")

    def __init__(self, sig: Signature, terms=None, field: str = REAL, backend: str = EXACT):
        """Multivector from (blade mask, coefficient) items, a dict or an iterable.

        Each coefficient is coerced once by _coerce_pair; a zero term is skipped and the
        rest merge by _accumulate, so no value type depends on term order.  A float map is
        finished by _check_finite.  A mask is an int in 0..2^n - 1.  Each refusal is an AlgebraError."""
        if field not in (REAL, COMPLEX):
            raise AlgebraError(f"unknown field {field!r}")
        if backend not in (EXACT, FLOAT):
            raise AlgebraError(f"unknown backend {backend!r}")
        pairs = []
        try:
            for mask, value in terms.items() if isinstance(terms, dict) else terms or ():
                if type(mask) is not int or mask < 0 or mask >> sig.n:
                    shown = f"{mask:#x}" if type(mask) is int else repr(mask)
                    raise AlgebraError(f"blade mask {shown} invalid for n={sig.n}")
                c = _coerce_pair(value, field, backend)
                if c[0] or c[1]:
                    pairs.append((mask, c))
        except AlgebraError:
            raise
        except (TypeError, ValueError):  # not an iterable of pairs
            raise AlgebraError(f"terms must be (mask, coefficient) pairs, got {terms!r:.40}") from None
        tmap = _accumulate({}, pairs)
        self.sig = sig
        self.field = field
        self.backend = backend
        self._terms = _check_finite(tmap) if backend == FLOAT else tmap

    @classmethod
    def _raw(cls, sig, field, backend, tmap):
        """Internal constructor for already-normalized, zero-pruned term maps."""
        mv = object.__new__(cls)
        mv.sig = sig
        mv.field = field
        mv.backend = backend
        mv._terms = tmap
        return mv

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls, sig, field=REAL, backend=EXACT):
        return cls(sig, None, field, backend)

    @classmethod
    def scalar(cls, sig, value, field=REAL, backend=EXACT):
        return cls(sig, {0: value}, field, backend)

    @classmethod
    def basis_blade(cls, sig, indices, coeff=1, field=REAL, backend=EXACT):
        """Blade from a mask (int) or strictly increasing 1-based indices."""
        mask = indices if isinstance(indices, int) else mask_from_indices(indices, sig.n)
        return cls(sig, {mask: coeff}, field, backend)

    # ---------------------------------------------------------------- inspection

    def terms(self) -> list[tuple[int, tuple]]:
        """Term list sorted by (rank, mask); deterministic across runs."""
        return [(mask, self._terms[mask]) for mask in sorted(sorted(self._terms), key=int.bit_count)]

    def coeff(self, mask: int) -> tuple:
        zero = 0.0 if self.backend == FLOAT else 0
        return self._terms.get(mask, (zero, zero))

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({m.bit_count() for m in self._terms}))

    def is_zero(self) -> bool:
        return not self._terms

    def max_abs(self):
        """Largest absolute coefficient component (0 for the zero element)."""
        best = 0
        for re, im in self._terms.values():
            for v in (re, im):
                a = -v if v < 0 else v
                if a > best:
                    best = a
        return best

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        from .mvtext import format_mv

        return (
            f"<Multivector {format_mv(self)!r} sig=({self.sig.p},{self.sig.q})"
            f" {self.field}/{self.backend}>"
        )

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
        if self.backend != other.backend:
            raise AlgebraError(f"backend mismatch: {self.backend} vs {other.backend}")
        out = _accumulate(dict(self._terms), other._terms.items())
        if self.backend == FLOAT:
            out = _check_finite(out)
        return Multivector._raw(self.sig, self.field, self.backend, out)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self):
        out = {m: (-re, -im) for m, (re, im) in self._terms.items()}
        return Multivector._raw(self.sig, self.field, self.backend, out)

    def scale(self, value) -> "Multivector":
        """Multiply by a scalar; accepts a number or an (re, im) pair."""
        cr, ci = _coerce_pair(value, self.field, self.backend)
        if cr == 0 and ci == 0:
            return Multivector._raw(self.sig, self.field, self.backend, {})
        out = {}
        if ci == 0:
            for m, (re, im) in self._terms.items():
                out[m] = (cr * re, cr * im)
        else:
            for m, (re, im) in self._terms.items():
                out[m] = (cr * re - ci * im, cr * im + ci * re)
        if self.backend == FLOAT:
            out = _check_finite(out)
        return Multivector._raw(self.sig, self.field, self.backend, out)

    def __rmul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    # ---------------------------------------------------------------- products

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return _product(self, other)

    # ---------------------------------------------------------------- gradings

    def grade(self, k: int) -> "Multivector":
        """Projection onto the rank-k terms."""
        if not 0 <= k <= self.sig.n:
            raise AlgebraError(f"rank {k} out of range 0..{self.sig.n}")
        out = {m: c for m, c in self._terms.items() if m.bit_count() == k}
        return Multivector._raw(self.sig, self.field, self.backend, out)

    def even_part(self) -> "Multivector":
        out = {m: c for m, c in self._terms.items() if not m.bit_count() & 1}
        return Multivector._raw(self.sig, self.field, self.backend, out)

    def odd_part(self) -> "Multivector":
        out = {m: c for m, c in self._terms.items() if m.bit_count() & 1}
        return Multivector._raw(self.sig, self.field, self.backend, out)

    # ---------------------------------------------------------------- conjugations

    def reversion(self) -> "Multivector":
        """Anti-automorphism scaling rank k by (-1)^(k(k-1)/2)."""
        out = {}
        for m, (re, im) in self._terms.items():
            # k(k-1)/2 is odd exactly when k = 2, 3 mod 4
            out[m] = (-re, -im) if m.bit_count() & 2 else (re, im)
        return Multivector._raw(self.sig, self.field, self.backend, out)

    def grade_involution(self) -> "Multivector":
        """Automorphism scaling rank k by (-1)^k."""
        out = {}
        for m, (re, im) in self._terms.items():
            out[m] = (-re, -im) if m.bit_count() & 1 else (re, im)
        return Multivector._raw(self.sig, self.field, self.backend, out)

    def complex_conjugate(self) -> "Multivector":
        """Coefficient-wise conjugation relative to the generator basis."""
        if self.field != COMPLEX:
            raise AlgebraError("complex conjugation needs the complex field")
        out = {m: (re, -im) for m, (re, im) in self._terms.items()}
        return Multivector._raw(self.sig, self.field, self.backend, out)

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
    anticommutator).  More than ``MAX_PRODUCT_PAIRS`` pairs raise AlgebraError,
    and a float-backend result is finished by :func:`_check_finite`.

    Up to ``TABLE_MAX_N`` generators the pairs read their factor from
    :func:`_blade_table` and add into a dense array; above it the signs come
    from the masks pair by pair into a sparse map.
    """
    u._compat(v)
    if u.backend != v.backend:
        raise AlgebraError(f"backend mismatch: {u.backend} vs {v.backend}")
    if len(u) * len(v) > MAX_PRODUCT_PAIRS:
        raise AlgebraError(f"{len(u)} by {len(v)} terms: more than {MAX_PRODUCT_PAIRS} term pairs")
    if u.sig.n <= TABLE_MAX_N:
        out = _table_product(u, v, keep)
    else:
        out = _mask_product(u, v, keep)
    if u.backend == FLOAT:
        out = _check_finite(out)
    return Multivector._raw(u.sig, u.field, u.backend, out)


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


def _table_product(u: Multivector, v: Multivector, keep: int | None) -> dict:
    """Term map of ``_product`` for n <= TABLE_MAX_N, accumulated in 2^n slots."""
    table = _blade_table(u.sig.p, u.sig.n, keep)
    size = 1 << u.sig.n
    zero = 0.0 if u.backend == FLOAT else 0
    start = -zero  # -0.0 is the float identity of addition: a first term keeps its sign
    vterms = list(v._terms.items())
    if u.field == REAL:
        acc = [start] * size
        for ma, (ra, _) in u._terms.items():
            row = table[ma]
            scaled = (zero, ra, ra + ra, -(ra + ra), -ra)  # scaled[s] is s * ra
            for mb, (rb, _) in vterms:
                s = row[mb]
                if s:
                    acc[ma ^ mb] += scaled[s] * rb
        return {m: (re, zero) for m, re in enumerate(acc) if re}
    acc_re = [start] * size
    acc_im = [start] * size
    for ma, (ra, ia) in u._terms.items():
        row = table[ma]
        for mb, (rb, ib) in vterms:
            s = row[mb]
            if s:
                m = ma ^ mb
                acc_re[m] += s * (ra * rb - ia * ib)
                acc_im[m] += s * (ra * ib + ia * rb)
    return {m: (re, im) for m, (re, im) in enumerate(zip(acc_re, acc_im)) if re or im}


def _mask_product(u: Multivector, v: Multivector, keep: int | None) -> dict:
    """Term map of ``_product``, with each pair's sign taken from the masks."""
    p = u.sig.p
    real = u.field == REAL
    zero = 0.0 if u.backend == FLOAT else 0
    vterms = list(v._terms.items())
    out: dict[int, tuple] = {}
    get = out.get
    for ma, (ra, ia) in u._terms.items():
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
                    out[m] = (re, zero)
                else:
                    re += cur[0]
                    if re == 0:
                        del out[m]
                    else:
                        out[m] = (re, zero)
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
    the anticommuting pairs are multiplied.  On the exact backend the result
    equals u*v - v*u; on the float backend it may differ in the last bits,
    because cancelled pairs are now exactly zero instead of rounding residues.
    """
    return _product(u, v, 1)


def anticommutator(u: Multivector, v: Multivector) -> Multivector:
    """{u, v} = u*v + v*u: 2 s(A, B) u_A v_B e_(A ^ B) over the commuting pairs.

    One pass, as in :func:`commutator`; the same float-backend note applies.
    """
    return _product(u, v, 0)

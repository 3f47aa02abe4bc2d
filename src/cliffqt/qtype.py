"""Quaternion-type calculus: atoms, type sets, projectors, closure tables.

The four main types split Cl(p,q) by rank mod 4.  Over the complexes each
main type further splits into a real-coefficient atom ``k`` and an
imaginary-coefficient atom ``ik``, giving 8 atoms.  A :class:`TypeSet` is
a set of atoms and denotes the direct sum of the atom subspaces; the 15
nonempty real sets are the quaternion types.

Every conjugation acts on each atom subspace as +1 or -1:

==========  ===  ===  ===  ===  ====  ====  ====  ====
operation    0    1    2    3    i0    i1    i2    i3
==========  ===  ===  ===  ===  ====  ====  ====  ====
rev   (~)    +    +    -    -    +     +     -     -
gri   (^)    +    -    +    -    +     -     +     -
grirev(^~)   +    -    -    +    +     -     -     +
conj  (-)    +    +    +    +    -     -     -     -
phc   (‡)    +    +    -    -    -     -     +     +
griconj      +    -    +    -    -     +     -     +
griphc       +    -    -    +    -     +     +     -
==========  ===  ===  ===  ===  ====  ====  ====  ====

The bracketed symbols are the paper's notation; a conjugation is passed by
one of the 7 names of ``CONJUGATIONS_COMPLEX`` or by its bit code 1..7.

With the identity, the conjugations form a group G (3 of them over the
reals, 7 over the complexes, composing by XOR of their bit codes), and each
atom a is one of its characters chi_a, the column above.  The table has one
closed form: rev negates the atoms {2, 3, i2, i3} (mask 0xCC), gri negates
{1, 3, i1, i3} (0xAA), conj negates {i0..i3} (0xF0), and a composite code c
negates the XOR of its generators' masks, ``_NEGATES[c]``; so
``chi_a(c) = (-1)^[bit a of _NEGATES[c]]``.  The component of u in atom a
is the group average ``P_a(u) = (1/|G|) sum_s chi_a(s) s(u)``.  Every blade
term (its real part, and its imaginary part) is an eigenvector of every
conjugation at once, so P_a keeps exactly the parts that generator j of
(gri, rev, conj) negates just when bit j of a is set, and that is how it is
computed: :func:`atom_components`, :func:`qtype_project` and
:func:`classify_by_conjugation` read each part's signs from the generator
images, using the conjugations and never the ranks, which
:func:`classify_by_rank` reads instead.

The main types form a Klein four-group under XOR of their labels, and both
closure tables are closed forms in it: {U,V} of main types k1, k2 has type
``k1 ^ k2`` and [U,V] has type ``k1 ^ k2 ^ 2``; imaginary flags combine by
XOR too.  :func:`table_witnesses` derives the tables from exhaustive blade
arithmetic instead, and the import checks the XOR law against it at n=5, so
a wrong law fails the import.  :func:`commutator_type` and
:func:`anticommutator_type` read the table they are given for each pair of
atom bitmasks once, and keep the result in a bounded memo keyed by that
table and the two masks.

:func:`member` is strict on every value.  With the float backend, its
``scale`` parameter and threshold are gone, and so is ``_rank_atom_bits``,
whose threshold-free loop is now :func:`classify_by_rank`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import (
    COMPLEX,
    REAL,
    Multivector,
    Signature,
    _accumulate,
    blade_indices,
    swap_mask,
)
from .errors import AlgebraError

# ------------------------------------------------------------------ type sets

_GLYPH_EMPTY = "∅"


@dataclass(frozen=True)
class TypeSet:
    """Set of type atoms; bit k is atom k, bit 4+k is atom ik."""

    field: str
    bits: int

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise AlgebraError(f"unknown field {self.field!r}")
        width = 0xFF if self.field == COMPLEX else 0x0F
        if not 0 <= self.bits <= width:
            raise AlgebraError(f"atom bits {self.bits:#x} invalid for {self.field} field")

    @classmethod
    def empty(cls, field: str = REAL) -> "TypeSet":
        return cls(field, 0)

    @classmethod
    def full(cls, field: str = REAL) -> "TypeSet":
        return cls(field, 0xFF if field == COMPLEX else 0x0F)

    def atoms(self) -> tuple[tuple[int, bool], ...]:
        """Atoms as (main type, imaginary) pairs, real atoms first."""
        return tuple((i & 3, i >= 4) for i in _SET_BITS[self.bits])

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def _check(self, other: "TypeSet"):
        if self.field != other.field:
            raise AlgebraError(f"field mismatch: {self.field} vs {other.field}")

    def __or__(self, other):
        self._check(other)
        return TypeSet(self.field, self.bits | other.bits)

    def __and__(self, other):
        self._check(other)
        return TypeSet(self.field, self.bits & other.bits)

    def __le__(self, other):
        self._check(other)
        return self.bits & ~other.bits == 0

    def __contains__(self, atom) -> bool:
        k, imag = atom
        return bool(self.bits & _atom_bit(k, imag))

    def i_flip(self) -> "TypeSet":
        """TypeSet of i times an element of this set (real <-> imaginary)."""
        if self.field != COMPLEX:
            raise AlgebraError("i multiplication needs the complex field")
        return TypeSet(self.field, (self.bits & 0x0F) << 4 | self.bits >> 4)

    def __str__(self) -> str:
        if self.bits == 0:
            return _GLYPH_EMPTY
        real = "".join(str(k) for k in range(4) if self.bits >> k & 1)
        imag = "".join(str(k) for k in range(4) if self.bits >> (4 + k) & 1)
        if real and imag:
            return f"{real}+i{imag}"
        if imag:
            return f"i{imag}"
        return real

    def __repr__(self) -> str:
        return f"TypeSet({self.field!r}, {str(self)!r})"


def _atom_bit(k: int, imag: bool) -> int:
    if not 0 <= k <= 3:
        raise AlgebraError(f"main type {k} out of range 0..3")
    return 1 << (k + 4 if imag else k)


def parse_typeset(text: str, field: str = REAL) -> TypeSet:
    """Parse the digit-string syntax: '01', 'i23', '01+i23', '∅'/'0set'."""
    raw = text.strip()
    if raw in (_GLYPH_EMPTY, "0set"):
        return TypeSet.empty(field)
    bits = 0
    groups = raw.split("+")
    if not raw or len(groups) > 2:
        raise AlgebraError(f"bad type set {text!r}")
    for pos, group in enumerate(groups):
        group = group.strip()
        imag = group.startswith("i")
        if len(groups) == 2 and imag != (pos == 1):
            raise AlgebraError(f"bad type set {text!r}: expected digits '+' i-digits")
        if imag:
            group = group[1:]
        if not group or any(c not in "0123" for c in group):
            raise AlgebraError(f"bad type set {text!r}: expected digits 0-3")
        if imag and field != COMPLEX:
            raise AlgebraError(f"imaginary atoms in {text!r} need the complex field")
        for c in group:
            bits |= _atom_bit(int(c), imag)
    return TypeSet(field, bits)


# ------------------------------------------------------------------ closure tables

# Main-type closure of the commutator / anticommutator, row = left atom,
# column = right atom.  Imaginary flags combine by XOR.
_COMM_MAIN = tuple(tuple(k1 ^ k2 ^ 2 for k2 in range(4)) for k1 in range(4))
_ACOMM_MAIN = tuple(tuple(k1 ^ k2 for k2 in range(4)) for k1 in range(4))


# The set bits of every atom bitmask, in increasing order.
_SET_BITS = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))


@functools.lru_cache(maxsize=4096)
def _pairwise_memo(table, field: str, abits: int, bbits: int) -> TypeSet:
    """Closure of the atom bitmasks abits and bbits under the table passed.

    The memo holds every real pair of both tables (512 entries) with room for
    the complex pairs a run meets; all 2 x 256 x 256 complex ones would not fit.
    """
    bits = 0
    for i in _SET_BITS[abits]:
        row = table[i & 3]
        for j in _SET_BITS[bbits]:
            # atom i or j is imaginary when its bit 2 is set; the flags XOR
            bits |= 1 << (row[j & 3] + ((i ^ j) & 4))
    return TypeSet(field, bits)


def commutator_type(a: TypeSet, b: TypeSet) -> TypeSet:
    """TypeSet containing [U,V] for U, V of the given types."""
    a._check(b)
    return _pairwise_memo(_COMM_MAIN, a.field, a.bits, b.bits)


def anticommutator_type(a: TypeSet, b: TypeSet) -> TypeSet:
    """TypeSet containing {U,V} for U, V of the given types."""
    a._check(b)
    return _pairwise_memo(_ACOMM_MAIN, a.field, a.bits, b.bits)


def product_type(a: TypeSet, b: TypeSet) -> TypeSet:
    """TypeSet containing UV; the union of the two bracket closures."""
    return commutator_type(a, b) | anticommutator_type(a, b)


# ------------------------------------------------------------------ conjugations

_REV, _GRI, _CCONJ = 1, 2, 4

CONJUGATIONS_REAL = ("rev", "gri", "grirev")
CONJUGATIONS_COMPLEX = CONJUGATIONS_REAL + ("conj", "phc", "griconj", "griphc")
_CODES = {name: code for code, name in enumerate(CONJUGATIONS_COMPLEX, 1)}


def conjugation_codes(field: str) -> range:
    """Bit codes of the field's conjugations; code c is named CONJUGATIONS_*[c - 1].

    With the identity 0 they form the group, composing by XOR, whose
    characters are the atoms and that type refinement rewrites under.
    """
    return range(1, 8) if field == COMPLEX else range(1, 4)


# Atom bitmask each conjugation code negates (the closed form above).
_NEGATES = tuple(
    (0xCC if c & _REV else 0) ^ (0xAA if c & _GRI else 0) ^ (0xF0 if c & _CCONJ else 0)
    for c in range(8)
)


def conjugation_bits(op, field: str = COMPLEX) -> int:
    """(rev, gri, conj) bit code of a conjugation of the field, given by code or by name."""
    bits = op if isinstance(op, int) and 1 <= op <= 7 else _CODES.get(op)
    if bits is None:
        raise AlgebraError(f"unknown conjugation {op!r}")
    if bits & _CCONJ and field != COMPLEX:
        raise AlgebraError(f"conjugation {CONJUGATIONS_COMPLEX[bits - 1]!r} needs the complex field")
    return bits


def conjugation_action(op, field: str = REAL) -> tuple[int, ...]:
    """Per-atom eigenvalue of a conjugation: 4 signs (real) or 8 (complex).

    Order: atoms 0,1,2,3 then i0,i1,i2,i3.
    """
    neg = _NEGATES[conjugation_bits(op, field)]
    return tuple(-1 if neg >> i & 1 else 1 for i in range(8 if field == COMPLEX else 4))


@functools.lru_cache(maxsize=256)
def eigenspace(op, sign: int, field: str = REAL) -> TypeSet:
    """Atoms on which the conjugation acts as the given sign (+1 or -1)."""
    if sign not in (1, -1):
        raise AlgebraError(f"eigenvalue must be +1 or -1, got {sign}")
    neg = _NEGATES[conjugation_bits(op, field)]
    return TypeSet(field, (neg if sign < 0 else ~neg) & TypeSet.full(field).bits)


def apply_conjugation(u: Multivector, op) -> Multivector:
    """Apply a conjugation (any composition of rev, gri, conj) to a multivector."""
    bits = conjugation_bits(op, u.field)
    out = u
    if bits & _REV:
        out = out.reversion()
    if bits & _GRI:
        out = out.grade_involution()
    if bits & _CCONJ:
        out = out.complex_conjugate()
    return out


# ------------------------------------------------------------------ classification

def classify_by_rank(u: Multivector) -> TypeSet:
    """Minimal TypeSet containing u: the atoms of its nonzero coefficient parts,
    read off the ranks of their terms."""
    bits = 0
    for mask, (re, im) in u._terms.items():
        k = mask.bit_count() & 3
        if re:
            bits |= 1 << k
        if im:
            bits |= 1 << (4 + k)
    return TypeSet(u.field, bits)


def _atom_parts(u: Multivector) -> list[dict]:
    """Term maps of u's atom components, entry a for atom a & 3 (imaginary when a >= 4).

    Each part of a term is stored, with its own coefficient, in atom a where
    bit j of a is set when the part is negated in the image of u under
    generator j of (gri, rev, conj) (:func:`apply_conjugation`), which negates
    exactly the atoms with bit j set.  A part that is not +-itself in an
    image is an internal fault: RuntimeError.
    """
    gens = (_GRI, _REV, _CCONJ) if u.field == COMPLEX else (_GRI, _REV)
    images = [apply_conjugation(u, s)._terms for s in gens]
    parts = [{} for _ in range(1 << len(gens))]
    for m, pair in u._terms.items():
        for part, x in enumerate(pair):
            if not x:
                continue
            atom = 0
            for j, image in enumerate(images):
                y = image.get(m, (None, None))[part]
                if y != x:
                    if y != -x:
                        raise RuntimeError(
                            f"conjugation {CONJUGATIONS_COMPLEX[gens[j] - 1]!r} maps the "
                            f"{('real', 'imaginary')[part]} part {x} of blade {blade_indices(m)} "
                            f"to {'nothing' if y is None else y}, not +-{x}"
                        )
                    atom |= 1 << j
            parts[atom][m] = (0, x) if part else (x, 0)
    return parts


def qtype_project(u: Multivector, k: int) -> Multivector:
    """Component of u in main type k (atoms k and ik), via the conjugation projectors."""
    if not 0 <= k <= 3:
        raise AlgebraError(f"main type {k} out of range 0..3")
    parts = _atom_parts(u)
    out = parts[k]
    if u.field == COMPLEX:
        # atom ik holds the imaginary parts, atom k the real parts
        _accumulate(out, parts[k + 4].items())
    return Multivector._raw(u.sig, u.field, out)


def atom_components(u: Multivector):
    """Yield ``((k, imaginary), component)`` of u for k = 0..3, atom k before ik.

    Every component comes from the conjugation signs of u's terms.
    """
    parts = _atom_parts(u)
    for k in range(4):
        for imag in (False, True) if u.field == COMPLEX else (False,):
            yield (k, imag), Multivector._raw(u.sig, u.field, parts[k + 4 * imag])


def classify_by_conjugation(u: Multivector) -> TypeSet:
    """Atoms of every nonzero part of u, read off the conjugation signs of its
    terms; on every value it equals classify_by_rank(u)."""
    return TypeSet(u.field, sum(1 << a for a, part in enumerate(_atom_parts(u)) if part))


def member(u: Multivector, tset: TypeSet) -> bool:
    """True when u lies in the subspace the TypeSet denotes: no nonzero part outside it.

    u is a member when the set holds all atoms (real, and imaginary over the
    complexes) of each of u's rank classes; only otherwise are its parts read.
    """
    if u.field != tset.field:
        raise AlgebraError(f"field mismatch: {u.field} vs {tset.field}")
    held = tset.bits & tset.bits >> 4 if u.field == COMPLEX else tset.bits  # real terms: im == 0
    ranks = set(map(int.bit_count, u._terms))  # at most n+1
    if not sum({1 << (r & 3) for r in ranks}) & ~held:
        return True
    return classify_by_rank(u) <= tset


def main_type_dim(n: int, k: int) -> int:
    """Real dimension of one atom subspace, the sum of C(n, r) over r = k mod 4: filtering
    (1 + x)^n by the 4th roots of unity gives ``(2^n + c 2^(n//2 + 1)) / 4``, c = +-1 or 0."""
    if n == 0:
        return int(k == 0)
    c = (1, -1, -1, 1) if n & 1 else (1, 0, -1, 0)
    return ((1 << n) + c[((n >> 1) - k) & 3] * (2 << (n >> 1))) >> 2


# ------------------------------------------------------------------ startup self-check

_TABLE_OPS = ("anticommutator", "commutator")


def table_witnesses(sig: Signature) -> dict:
    """First blade pair ``(a, b)`` for each ``(op, row, column, atom)`` of the tables.

    [e_a, e_b] and {e_a, e_b} are (s1 -+ s2) e_{a xor b} with s1, s2 the two
    blade product signs, which differ exactly when e_a and e_b anticommute
    (:func:`swap_mask`), so every pair lands in exactly one table.  Pairs are
    visited in (a, b) order and the keys keep the order they were found in.
    """
    size = 1 << sig.n
    found: dict = {}
    for a in range(size):
        ta = swap_mask(a)
        ka = a.bit_count() & 3
        for b in range(size):
            op = _TABLE_OPS[(b & ta).bit_count() & 1]
            found.setdefault((op, ka, b.bit_count() & 3, (a ^ b).bit_count() & 3), (a, b))
    return found


def _startup_self_check():
    derived = set(table_witnesses(Signature(5, 0)))
    stored = {
        (op, k1, k2, table[k1][k2])
        for op, table in zip(_TABLE_OPS, (_ACOMM_MAIN, _COMM_MAIN))
        for k1 in range(4)
        for k2 in range(4)
    }
    if derived != stored:
        raise RuntimeError(
            "closure table self-check failed; (op, row, column, atom) entries where "
            f"blade arithmetic and the XOR law differ: {sorted(derived ^ stored)}"
        )


_startup_self_check()

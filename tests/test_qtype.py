import functools
import operator
import random

import pytest

from cliffqt import (
    COMPLEX,
    EXACT,
    FLOAT,
    REAL,
    AlgebraError,
    Multivector,
    Signature,
    TypeSet,
    anticommutator,
    anticommutator_type,
    apply_conjugation,
    classify_by_conjugation,
    classify_by_rank,
    commutator,
    commutator_type,
    conjugation_action,
    eigenspace,
    main_type_dim,
    member,
    parse_mv,
    parse_typeset,
    product_type,
    qtype_project,
    random_instance,
)

from cliffqt import qtype
from cliffqt.mvtext import format_mv
from conftest import random_mv, reference_classify_by_rank, reference_member


def ts(text, field=REAL):
    return parse_typeset(text, field)


def mv(text, p, q, field=REAL, backend=EXACT):
    return parse_mv(text, Signature(p, q), field, backend)


# ---------------------------------------------------------------- TypeSet basics

def test_typeset_parse_format_roundtrip():
    for text in ("0", "2", "01", "23", "0123", "013"):
        assert str(ts(text)) == text
    for text in ("i01", "01+i23", "0123+i0123", "2+i2"):
        assert str(ts(text, COMPLEX)) == text
    assert ts("∅").is_empty
    assert ts("0set").is_empty
    assert str(TypeSet.empty()) == "∅"


def test_typeset_validation():
    with pytest.raises(AlgebraError):
        ts("04")
    with pytest.raises(AlgebraError):
        ts("i01")  # imaginary atoms need complex field
    with pytest.raises(AlgebraError):
        ts("")
    with pytest.raises(AlgebraError):
        ts("01+23")
    with pytest.raises(AlgebraError):
        ts("01", COMPLEX) | ts("01", REAL)


def test_typeset_lattice_ops():
    assert ts("01") | ts("12") == ts("012")
    assert ts("01") & ts("12") == ts("1")
    assert ts("01") <= ts("0123")
    assert not ts("01") <= ts("0")
    assert (1, False) in ts("01")
    assert (2, False) not in ts("01")
    assert ts("01", COMPLEX).i_flip() == ts("i01", COMPLEX)
    assert ts("0+i1", COMPLEX).i_flip() == ts("1+i0", COMPLEX)


def test_fifteen_real_types():
    seen = {str(TypeSet(REAL, bits)) for bits in range(1, 16)}
    assert len(seen) == 15


# ---------------------------------------------------------------- classification

def test_classify_by_rank_examples():
    assert classify_by_rank(mv("1 + e1234", 4, 0)) == ts("0")
    assert classify_by_rank(mv("e1 + e12", 2, 0)) == ts("12")
    assert classify_by_rank(mv("0", 3, 0)) == ts("∅")
    assert classify_by_rank(mv("e1 + i*e23", 5, 0, COMPLEX)) == ts("1+i2", COMPLEX)
    assert classify_by_rank(mv("e1 + i*e123", 5, 0, COMPLEX)) == ts("1+i3", COMPLEX)
    assert classify_by_rank(mv("e1 + e5", 5, 0)) == ts("1")


def test_classify_by_conjugation_examples():
    assert classify_by_conjugation(mv("e123", 3, 0)) == ts("3")
    assert classify_by_conjugation(mv("42", 3, 0)) == ts("0")
    assert classify_by_conjugation(mv("0", 3, 0)).is_empty


def test_dual_classifiers_agree_on_blades():
    # every basis blade (and i times it), every signature with n <= 6
    for n in range(1, 7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for mask in range(1 << n):
                u = Multivector.basis_blade(sig, mask)
                assert classify_by_rank(u) == classify_by_conjugation(u)
                c = Multivector.basis_blade(sig, mask, coeff=(0, 1), field=COMPLEX)
                assert classify_by_rank(c) == classify_by_conjugation(c)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("field", [REAL, COMPLEX, "complex-sparse-n20"])
def test_dual_classifiers_agree_on_random(field, backend):
    rng = random.Random(f"{field}/{backend}")  # str seeds, unlike hash(), replay across runs
    if field == "complex-sparse-n20":
        # about 1,000 parts over the 8 atoms, read back from their brace-blade literal
        sig = Signature(20, 0)
        samples = []
        for _ in range(5):
            u = random_instance(TypeSet.full(COMPLEX), sig, rng.randrange(1 << 30), 0.0005, backend)
            samples.append(parse_mv(format_mv(u), sig, COMPLEX, backend))
        assert all("e{" in format_mv(u) and len(u) > 500 for u in samples)
    else:
        sig = Signature(2, 2)
        samples = [random_mv(sig, rng, field=field, backend=backend) for _ in range(1000)]
        if backend == FLOAT:
            # a part far below FLOAT_TOL * max_abs on a rank class u lacks counts on both routes
            for u in samples[:200]:
                held = classify_by_rank(u).bits
                lacking = [k for k in range(4) if not held >> k & 1]
                if lacking and not u.is_zero():
                    tiny = {(1 << lacking[0]) - 1: 1e-3 * qtype.FLOAT_TOL * u.max_abs()}
                    samples.append(u + Multivector(sig, tiny, u.field, FLOAT))
            assert len(samples) > 1000
    for u in samples:
        assert classify_by_rank(u) == classify_by_conjugation(u)


def test_wrong_reversion_breaks_only_the_conjugation_route(monkeypatch):
    # negate rank 1 too: the sign rule of ranks 1, 2, 3 mod 4
    def wrong_reversion(self):
        out = {m: (-re, -im) if m.bit_count() & 3 else (re, im) for m, (re, im) in self._terms.items()}
        return Multivector._raw(self.sig, self.field, self.backend, out)

    sig = Signature(2, 2)
    rng = random.Random(7)
    samples = [random_mv(sig, rng, field=field) for field in (REAL, COMPLEX) for _ in range(20)]
    ranks = [classify_by_rank(u) for u in samples]
    monkeypatch.setattr(Multivector, "reversion", wrong_reversion)
    assert [classify_by_rank(u) for u in samples] == ranks
    assert any(classify_by_conjugation(u) != t for u, t in zip(samples, ranks))
    e1 = Multivector.basis_blade(sig, [1])
    assert qtype_project(e1, 1) != e1


def test_a_conjugation_that_is_not_a_sign_flip_is_an_internal_fault(monkeypatch):
    def doubling_involution(self):
        out = {m: (2 * re, 2 * im) for m, (re, im) in self._terms.items()}
        return Multivector._raw(self.sig, self.field, self.backend, out)

    u = parse_mv("3 + e12", Signature(2, 0))
    monkeypatch.setattr(Multivector, "grade_involution", doubling_involution)
    with pytest.raises(RuntimeError, match="conjugation 'gri' maps the real part 3 of blade"):
        classify_by_conjugation(u)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_float_atom_components_sum_exactly_to_the_input(field):
    rng = random.Random(11)
    sig = Signature(3, 2)
    for _ in range(200):
        u = random_mv(sig, rng, field=field, backend=FLOAT)
        total = Multivector.zero(sig, field, FLOAT)
        for _, w in qtype.atom_components(u):
            total = total + w
        assert total == u


# ---------------------------------------------------------------- projectors

def test_projector_example():
    u = mv("1 + e1 + e12 + e123", 3, 0)
    assert qtype_project(u, 0) == mv("1", 3, 0)
    assert qtype_project(u, 1) == mv("e1", 3, 0)
    assert qtype_project(u, 2) == mv("e12", 3, 0)
    assert qtype_project(u, 3) == mv("e123", 3, 0)


def test_projector_algebra(rng):
    sig = Signature(3, 2)
    for _ in range(25):
        u = random_mv(sig, rng, field=COMPLEX)
        total = Multivector.zero(sig, COMPLEX)
        for k in range(4):
            pk = qtype_project(u, k)
            total = total + pk
            assert qtype_project(pk, k) == pk  # idempotent
            for l in range(4):
                if l != k:
                    assert qtype_project(pk, l).is_zero()  # annihilating
        assert total == u  # completeness


def test_projector_fixes_members(rng):
    sig = Signature(4, 1)
    for k in range(4):
        masks = [m for m in range(1 << 5) if m.bit_count() % 4 == k]
        u = Multivector(sig, {m: rng.randint(1, 5) for m in masks})
        assert qtype_project(u, k) == u


def test_projector_keeps_ints_exact():
    u = mv("3*e1 + 5*e12345", 5, 0)
    p1 = qtype_project(u, 1)
    for _, (re, im) in p1.terms():
        assert isinstance(re, int)
    assert p1 == mv("3*e1 + 5*e12345", 5, 0)


# ---------------------------------------------------------------- closure tables

def test_commutator_type_examples():
    assert commutator_type(ts("2"), ts("2")) == ts("2")
    assert commutator_type(ts("0"), ts("1")) == ts("3")
    assert commutator_type(ts("01"), ts("2")) == ts("01")
    assert commutator_type(ts("i1", COMPLEX), ts("3", COMPLEX)) == ts("i0", COMPLEX)
    assert commutator_type(ts("∅"), ts("0123")).is_empty
    assert commutator_type(ts("0123"), ts("∅")).is_empty


def test_anticommutator_type_examples():
    assert anticommutator_type(ts("1"), ts("3")) == ts("2")
    for k in "0123":
        assert anticommutator_type(ts(k), ts("0")) == ts(k)
    assert anticommutator_type(ts("03"), ts("0")) == ts("03")


def test_product_type_examples():
    assert product_type(ts("1"), ts("1")) == ts("02")
    assert product_type(ts("0"), ts("0")) == ts("02")
    assert product_type(ts("∅"), ts("0123")).is_empty


def test_tables_symmetric_in_arguments():
    for b1 in range(1, 16):
        for b2 in range(1, 16):
            a, b = TypeSet(REAL, b1), TypeSet(REAL, b2)
            assert commutator_type(a, b) == commutator_type(b, a)
            assert anticommutator_type(a, b) == anticommutator_type(b, a)


def _per_atom_closures(table, field):
    """Closure bits of every pair of atom bitmasks, as a list of rows: the union,
    over the atoms of the left set, of that atom's closure with the right set,
    itself the union over the right set's atoms of one table entry each, with
    the XOR of the two imaginary flags."""
    masks = range(TypeSet.full(field).bits + 1)
    atoms = [TypeSet(field, m).atoms() for m in masks]
    one_atom = {}
    for k1 in range(4):
        for i1 in (False, True):
            row = one_atom[k1, i1] = []
            for m in masks:
                bits = 0
                for k2, i2 in atoms[m]:
                    bits |= 1 << (table[k1][k2] + (4 if i1 != i2 else 0))
                row.append(bits)
    out = []
    for a in masks:
        rows = [one_atom[atom] for atom in atoms[a]]
        out.append([functools.reduce(operator.or_, (row[b] for row in rows), 0) for b in masks])
    return out


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_closure_types_match_a_per_atom_loop_on_every_pair(field):
    comm = _per_atom_closures(qtype._COMM_MAIN, field)
    acomm = _per_atom_closures(qtype._ACOMM_MAIN, field)
    sets = [TypeSet(field, m) for m in range(len(comm))]
    for a in sets:
        for b in sets:
            c, ac = comm[a.bits][b.bits], acomm[a.bits][b.bits]
            assert commutator_type(a, b).bits == c, (a, b)
            assert anticommutator_type(a, b).bits == ac, (a, b)
            assert product_type(a, b).bits == c | ac, (a, b)
    assert commutator_type(sets[-1], sets[-1]).field == field


def test_closure_types_read_the_table_they_are_given(monkeypatch):
    x = ts("1")
    healthy = commutator_type(x, x)
    bad = ((2, 3, 0, 1), (3, 0, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2))
    monkeypatch.setattr(qtype, "_COMM_MAIN", bad)
    assert commutator_type(x, x) == ts("0") != healthy
    monkeypatch.undo()
    assert commutator_type(x, x) == healthy == ts("2")


def test_table_witnesses_reproduce_their_atom():
    sig = Signature(2, 1)
    bracket = {"commutator": commutator, "anticommutator": anticommutator}
    found = qtype.table_witnesses(sig)
    assert {op for op, *_ in found} == set(bracket)
    for (op, ka, kb, k), (a, b) in found.items():
        assert (a.bit_count() & 3, b.bit_count() & 3) == (ka, kb)
        u = Multivector.basis_blade(sig, a)
        v = Multivector.basis_blade(sig, b)
        assert classify_by_rank(bracket[op](u, v)) == ts(str(k))


def test_closure_soundness_on_blades_small_n():
    # brackets of single blades land in the table's atom, n <= 4 here
    # (the n <= 5 exhaustive run lives in the acceptance suite)
    for n in range(1, 5):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for a in range(1 << n):
                ka = a.bit_count() % 4
                u = Multivector.basis_blade(sig, a)
                for b in range(1 << n):
                    kb = b.bit_count() % 4
                    v = Multivector.basis_blade(sig, b)
                    assert classify_by_rank(commutator(u, v)) <= commutator_type(
                        ts(str(ka)), ts(str(kb))
                    )
                    assert classify_by_rank(anticommutator(u, v)) <= anticommutator_type(
                        ts(str(ka)), ts(str(kb))
                    )


# ---------------------------------------------------------------- conjugation actions

def test_conjugation_action_real():
    assert conjugation_action("rev") == (1, 1, -1, -1)
    assert conjugation_action(1) == (1, 1, -1, -1)
    assert conjugation_action("gri") == (1, -1, 1, -1)
    assert conjugation_action("grirev") == (1, -1, -1, 1)
    with pytest.raises(AlgebraError):
        conjugation_action("conj", REAL)
    with pytest.raises(AlgebraError):
        conjugation_action("phc", REAL)
    with pytest.raises(AlgebraError):
        conjugation_action("nope")


# per-atom signs over (0,1,2,3,i0,i1,i2,i3)
_COMPLEX_ACTIONS = {
    "gri": (1, -1, 1, -1, 1, -1, 1, -1),
    "rev": (1, 1, -1, -1, 1, 1, -1, -1),
    "grirev": (1, -1, -1, 1, 1, -1, -1, 1),
    "conj": (1, 1, 1, 1, -1, -1, -1, -1),
    "phc": (1, 1, -1, -1, -1, -1, 1, 1),
    "griconj": (1, -1, 1, -1, -1, 1, -1, 1),
    "griphc": (1, -1, -1, 1, -1, 1, 1, -1),
}


@pytest.mark.parametrize("op,signs", sorted(_COMPLEX_ACTIONS.items()))
def test_conjugation_action_complex(op, signs):
    assert conjugation_action(op, COMPLEX) == signs


def test_conjugation_bits_reads_the_seven_names_and_codes():
    for code, name in enumerate(qtype.CONJUGATIONS_COMPLEX, 1):
        assert qtype.conjugation_bits(name) == qtype.conjugation_bits(code) == code
        for op in (name, code):
            if name in qtype.CONJUGATIONS_REAL:
                assert qtype.conjugation_bits(op, REAL) == code
            else:  # the conj family exists only over the complexes
                with pytest.raises(AlgebraError, match="needs the complex field"):
                    qtype.conjugation_bits(op, REAL)
    assert qtype.CONJUGATIONS_REAL == qtype.CONJUGATIONS_COMPLEX[:3]
    for op in ("~", "revgri", "‡", "", 0, 8, -1):
        for field in (REAL, COMPLEX):
            with pytest.raises(AlgebraError, match="unknown conjugation"):
                qtype.conjugation_bits(op, field)


def test_phc_action_on_i2_atom():
    signs = conjugation_action("phc", COMPLEX)
    assert signs[4 + 2] == 1  # i2 is fixed by pseudo-Hermitian conjugation


def test_conjugation_preserves_atom_subspaces(rng):
    sig = Signature(2, 2)
    for op in ("rev", "gri", "grirev", "conj", "phc", "griconj", "griphc"):
        for _ in range(20):
            u = random_mv(sig, rng, field=COMPLEX)
            assert classify_by_rank(apply_conjugation(u, op)) <= classify_by_rank(u)
            for k in range(4):
                w = qtype_project(u, k)
                assert qtype_project(apply_conjugation(w, op), k) == apply_conjugation(w, op)


# ---------------------------------------------------------------- eigenspaces

_REAL_EIGENSPACES = [
    ("rev", 1, "01"),
    ("rev", -1, "23"),
    ("gri", 1, "02"),
    ("gri", -1, "13"),
    ("grirev", 1, "03"),
    ("grirev", -1, "12"),
]

_COMPLEX_EIGENSPACES = [
    ("rev", 1, "01+i01"),
    ("rev", -1, "23+i23"),
    ("gri", 1, "02+i02"),
    ("gri", -1, "13+i13"),
    ("conj", 1, "0123"),
    ("conj", -1, "i0123"),
    ("phc", 1, "01+i23"),
    ("phc", -1, "23+i01"),
    ("grirev", 1, "03+i03"),
    ("grirev", -1, "12+i12"),
    ("griconj", 1, "02+i13"),
    ("griconj", -1, "13+i02"),
    ("griphc", 1, "03+i12"),
    ("griphc", -1, "12+i03"),
]


@pytest.mark.parametrize("op,sign,expected", _REAL_EIGENSPACES)
def test_real_eigenspaces(op, sign, expected):
    assert eigenspace(op, sign, REAL) == ts(expected)


@pytest.mark.parametrize("op,sign,expected", _COMPLEX_EIGENSPACES)
def test_complex_eigenspaces(op, sign, expected):
    assert eigenspace(op, sign, COMPLEX) == ts(expected, COMPLEX)


def test_eigenspace_members_are_fixed_or_negated(rng):
    from cliffqt.dsl import random_instance

    sig = Signature(3, 1)
    for op, sign, expected in _COMPLEX_EIGENSPACES:
        for trial in range(20):
            u = random_instance(ts(expected, COMPLEX), sig, seed=trial)
            assert apply_conjugation(u, op) == u.scale(sign)


# ---------------------------------------------------------------- membership

def test_member_examples():
    assert member(mv("e1 + e5", 5, 0), ts("1"))
    assert member(mv("0", 5, 0), ts("∅"))
    assert not member(mv("e12", 5, 0), ts("01"))
    with pytest.raises(AlgebraError):
        member(mv("e1", 2, 0), ts("1", COMPLEX))


def test_member_float_tolerance():
    sig = Signature(2, 0)
    u = Multivector(sig, {0b01: 1.0, 0b11: 1e-13}, backend=FLOAT)
    assert member(u, ts("1"))           # tiny rank-2 leakage is below tol
    assert not member(u, ts("2"))       # the rank-1 part is genuine
    assert not member(u, ts("1"), scale=1e-5)  # judged against 1e-5, the leakage shows


def _blade_of_class(n, k, rng):
    """A random blade mask of rank k mod 4 among n generators (n >= 3)."""
    return sum(1 << b for b in rng.sample(range(n), rng.choice(range(k, n + 1, 4))))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_member_and_classify_by_rank_match_the_per_term_reference(field, backend):
    rng = random.Random(f"{field} {backend}")
    width = TypeSet.full(field).bits
    one = 1.0 if backend == FLOAT else 1
    for n in range(3, 21):
        sig = Signature(n - n // 3, n // 3)
        for density in (1.0, 0.01) if n <= 10 else (0.01,):
            drawn = TypeSet(field, rng.randrange(1, width + 1))
            u = random_instance(drawn, sig, rng.randrange(1 << 30), density, backend)
            values = [u]
            outside = [k for k in range(4) if not drawn.bits >> k & 1]
            if outside:
                # a genuine term on a rank class the set leaves out fails
                stray = u + Multivector(sig, {_blade_of_class(n, rng.choice(outside), rng): one},
                                        field, backend)
                assert not member(stray, drawn)
                values.append(stray)
                if backend == FLOAT and not u.is_zero():
                    # rounding residue on it, below the tolerance, passes
                    residue = 1e-3 * qtype.FLOAT_TOL * u.max_abs()
                    m = _blade_of_class(n, rng.choice(outside), rng)
                    leaky = u + Multivector(sig, {m: residue}, field, backend)
                    assert member(leaky, drawn)
                    values.append(leaky)
            half = [k for k in range(4) if drawn.bits >> k & 1 and not drawn.bits >> (4 + k) & 1]
            if field == COMPLEX and half:
                # the real atom of the rank class is in the set, the imaginary one is not
                m = _blade_of_class(n, rng.choice(half), rng)
                imag = u + Multivector(sig, {m: (0, one)}, field, backend)
                assert not member(imag, drawn)
                values.append(imag)
            sets = [drawn, TypeSet(field, drawn.bits & 0x0F), TypeSet.full(field),
                    TypeSet.empty(field)] + [TypeSet(field, rng.randrange(width + 1)) for _ in range(4)]
            for v in values:
                assert classify_by_rank(v) == reference_classify_by_rank(v)
                for tset in sets:
                    for scale in (None, 10, 1e-6):
                        assert member(v, tset, scale) == reference_member(v, tset, scale), (
                            n, density, format_mv(v)[:80], tset, scale)


# ---------------------------------------------------------------- structure facts

def test_even_odd_types_match_parity(rng):
    sig = Signature(3, 1)
    for _ in range(25):
        u = random_mv(sig, rng)
        assert member(u.even_part(), ts("02"))
        assert member(u.odd_part(), ts("13"))


def test_type_rank_coincide_below_four():
    for n in (1, 2, 3):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for k in range(4):
                dim = main_type_dim(n, k)
                from math import comb

                assert dim == (comb(n, k) if k <= n else 0)
                for mask in range(1 << n):
                    if mask.bit_count() % 4 == k:
                        u = Multivector.basis_blade(sig, mask)
                        assert qtype_project(u, k) == u
                        assert u.grade(mask.bit_count()) == u


def test_main_type_dims():
    assert [main_type_dim(4, k) for k in range(4)] == [2, 4, 6, 4]
    assert [main_type_dim(20, k) for k in range(4)] == [261632, 262144, 262656, 262144]
    assert sum(main_type_dim(6, k) for k in range(4)) == 64
    from math import comb

    # the closed form against the binomial sums it replaces
    for n in range(301):
        for k in range(4):
            assert main_type_dim(n, k) == sum(comb(n, r) for r in range(k, n + 1, 4))


def test_classify_minimality_and_zero():
    # zero belongs to every subspace but classifies to the empty set
    z = mv("0", 3, 0)
    assert classify_by_rank(z).is_empty
    for bits in range(16):
        assert member(z, TypeSet(REAL, bits))

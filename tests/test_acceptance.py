"""Acceptance suite: one test per shipping criterion, each printing PASS.

Everything runs in exact arithmetic with strict equality; runtime caps are
asserted where the criterion sets one.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import time

import pytest

from cliffqt import (
    COMPLEX,
    REAL,
    Multivector,
    Signature,
    TypeSet,
    anticommutator,
    anticommutator_type,
    apply_conjugation,
    check_soundness,
    classify_by_rank,
    commutator,
    commutator_type,
    eigenspace,
    main_type_dim,
    member,
    parse_mv,
    parse_program,
    parse_typeset,
    qtype_project,
    random_instance,
)
from cliffqt import qtype
from cliffqt.cli import main as cli_main
from cliffqt.corpus import CORPUS
from cliffqt.dsl import eval_expr
from cliffqt.verify import derive_tables, dimension_audit, oracle_sweep, signatures_up_to


def ts(text, field=REAL):
    return parse_typeset(text, field)


def _report(num, name, elapsed, limit=None):
    budget = f" ({elapsed:.1f}s < {limit}s)" if limit else f" ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num} ({name}): PASS{budget}")


# -------------------------------------------------------------- criterion 1

def test_criterion_1_closure_table_reproduction(capsys):
    t0 = time.monotonic()
    code = cli_main(["selftest", "--max-n", "5"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "mismatches: 0" in out
    comm, acomm = derive_tables(5)
    assert comm.ok and comm.complete and comm.mismatches == []
    assert acomm.ok and acomm.complete and acomm.mismatches == []
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    with capsys.disabled():
        _report(1, "closure tables from exhaustive blades, n<=5", elapsed, 60)


# -------------------------------------------------------------- criterion 2

def test_criterion_2_quaternion_pattern_conditions():
    t0 = time.monotonic()
    # (E,I,J,K) assignments under which each bracket satisfies the
    # quaternion multiplication pattern
    assignments = {
        "anticommutator": (0, 1, 2, 3),
        "commutator": (2, 3, 0, 1),
    }
    # the 16 pattern conditions as (left role, right role, result role)
    pattern = [
        (0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0),
        (0, 1, 1), (1, 0, 1), (3, 2, 1), (2, 3, 1),
        (0, 2, 2), (2, 0, 2), (1, 3, 2), (3, 1, 2),
        (0, 3, 3), (3, 0, 3), (1, 2, 3), (2, 1, 3),
    ]
    checked = 0
    for opname, roles in assignments.items():
        conditions = {}
        for lx, rx, tx in pattern:
            conditions[(roles[lx], roles[rx])] = roles[tx]
        assert len(conditions) == 16
        for sig in signatures_up_to(5):
            size = 1 << sig.n
            for a in range(size):
                u = Multivector.basis_blade(sig, a)
                ka = a.bit_count() % 4
                for b in range(size):
                    v = Multivector.basis_blade(sig, b)
                    target = conditions[(ka, b.bit_count() % 4)]
                    w = anticommutator(u, v) if opname == "anticommutator" else commutator(u, v)
                    assert member(w, ts(str(target))), (opname, sig, a, b)
                    checked += 1
    assert checked == 2 * sum((1 << n) ** 2 * (n + 1) for n in range(1, 6))
    _report(2, "16 quaternion-pattern conditions on blades, n<=5", time.monotonic() - t0)


# -------------------------------------------------------------- criterion 3

_REAL_CONJS = ("rev", "gri", "grirev")
_COMPLEX_CONJS = ("rev", "gri", "grirev", "conj", "phc", "griconj", "griphc")


def test_criterion_3_eigenspaces():
    t0 = time.monotonic()
    sigs = (Signature(2, 2), Signature(3, 1))
    for field, ops in ((REAL, _REAL_CONJS), (COMPLEX, _COMPLEX_CONJS)):
        for op in ops:
            for sign in (1, -1):
                space = eigenspace(op, sign, field)
                for sig in sigs:
                    for trial in range(500):
                        u = random_instance(space, sig, seed=trial * 7 + sign)
                        assert apply_conjugation(u, op) == u.scale(sign)
                # eigenspace dimension at n=4 equals the binomial sums
                expected_dim = sum(main_type_dim(4, k) for k, _ in space.atoms())
                counted = 0
                units = ((1, 0), (0, 1)) if field == COMPLEX else ((1, 0),)
                for mask in range(1 << 4):
                    for unit in units:
                        b = Multivector.basis_blade(
                            Signature(2, 2), mask, coeff=unit, field=field
                        )
                        if apply_conjugation(b, op) == b.scale(sign):
                            counted += 1
                assert counted == expected_dim, (field, op, sign)
    # the atom dimensions themselves at n=4
    assert [main_type_dim(4, k) for k in range(4)] == [2, 4, 6, 4]
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report(3, "conjugation eigenspaces: 500 draws each + dims", elapsed, 30)


# -------------------------------------------------------------- criterion 4

_REAL_FORMS = [
    ("u*rev(u)", lambda u: u * u.reversion(), "01"),
    ("rev(u)*u", lambda u: u.reversion() * u, "01"),
    ("[u,rev(u)]", lambda u: commutator(u, u.reversion()), "01"),
    ("{u,rev(u)}", lambda u: anticommutator(u, u.reversion()), "01"),
    ("[u,gri(u)]", lambda u: commutator(u, u.grade_involution()), "13"),
    ("{u,gri(u)}", lambda u: anticommutator(u, u.grade_involution()), "02"),
    ("u*grirev(u)", lambda u: u * apply_conjugation(u, "grirev"), "03"),
    ("grirev(u)*u", lambda u: apply_conjugation(u, "grirev") * u, "03"),
    ("[u,grirev(u)]", lambda u: commutator(u, apply_conjugation(u, "grirev")), "03"),
    ("{u,grirev(u)}", lambda u: anticommutator(u, apply_conjugation(u, "grirev")), "03"),
]

_COMPLEX_FORMS = [
    ("u*rev(u)", lambda u: u * u.reversion(), "01+i01"),
    ("rev(u)*u", lambda u: u.reversion() * u, "01+i01"),
    ("[u,rev(u)]", lambda u: commutator(u, u.reversion()), "01+i01"),
    ("{u,rev(u)}", lambda u: anticommutator(u, u.reversion()), "01+i01"),
    ("[u,gri(u)]", lambda u: commutator(u, u.grade_involution()), "13+i13"),
    ("{u,gri(u)}", lambda u: anticommutator(u, u.grade_involution()), "02+i02"),
    ("[u,conj(u)]", lambda u: commutator(u, u.complex_conjugate()), "i0123"),
    ("{u,conj(u)}", lambda u: anticommutator(u, u.complex_conjugate()), "0123"),
    ("u*phc(u)", lambda u: u * u.pseudo_hermitian(), "01+i23"),
    ("phc(u)*u", lambda u: u.pseudo_hermitian() * u, "01+i23"),
    ("[u,phc(u)]", lambda u: commutator(u, u.pseudo_hermitian()), "01+i23"),
    ("{u,phc(u)}", lambda u: anticommutator(u, u.pseudo_hermitian()), "01+i23"),
    ("u*grirev(u)", lambda u: u * apply_conjugation(u, "grirev"), "03+i03"),
    ("grirev(u)*u", lambda u: apply_conjugation(u, "grirev") * u, "03+i03"),
    ("[u,grirev(u)]", lambda u: commutator(u, apply_conjugation(u, "grirev")), "03+i03"),
    ("{u,grirev(u)}", lambda u: anticommutator(u, apply_conjugation(u, "grirev")), "03+i03"),
    ("[u,griconj(u)]", lambda u: commutator(u, apply_conjugation(u, "griconj")), "13+i02"),
    ("{u,griconj(u)}", lambda u: anticommutator(u, apply_conjugation(u, "griconj")), "02+i13"),
    ("u*griphc(u)", lambda u: u * apply_conjugation(u, "griphc"), "03+i12"),
    ("griphc(u)*u", lambda u: apply_conjugation(u, "griphc") * u, "03+i12"),
    ("[u,griphc(u)]", lambda u: commutator(u, apply_conjugation(u, "griphc")), "03+i12"),
    ("{u,griphc(u)}", lambda u: anticommutator(u, apply_conjugation(u, "griphc")), "03+i12"),
]


def test_criterion_4_arbitrary_element_identities():
    t0 = time.monotonic()
    sig = Signature(2, 2)
    for field, forms in ((REAL, _REAL_FORMS), (COMPLEX, _COMPLEX_FORMS)):
        full = TypeSet.full(field)
        for trial in range(1000):
            u = random_instance(full, sig, seed=trial)
            for name, build, expected in forms:
                w = build(u)
                assert member(w, ts(expected, field)), (field, name, trial)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(4, "identities of arbitrary elements, 1000 draws per case", elapsed, 60)


def test_mixed_coefficient_counterexample_for_real_span():
    # {U, grirev(U)} can leave the real-coefficient span: the honest bound is
    # 03+i03, not 0123.  Witness: U = (1+i) e1.
    sig = Signature(1, 0)
    u = Multivector(sig, {0b1: (1, 1)}, COMPLEX)
    w = anticommutator(u, apply_conjugation(u, "grirev"))
    assert classify_by_rank(w) == ts("i0", COMPLEX)
    assert not member(w, ts("0123", COMPLEX))
    assert member(w, ts("03+i03", COMPLEX))
    # the conj-based pair does land in the real span
    w2 = anticommutator(u, u.complex_conjugate())
    assert member(w2, ts("0123", COMPLEX))


# -------------------------------------------------------------- criterion 5

_REAL_VANISHING = [
    ("rev", ("01", "23")),
    ("gri", ("02", "13")),
    ("grirev", ("03", "12")),
]

_COMPLEX_VANISHING = [
    ("rev", ("01+i01", "23+i23")),
    ("gri", ("02+i02", "13+i13")),
    ("conj", ("0123", "i0123")),
    ("phc", ("01+i23", "23+i01")),
    ("grirev", ("03+i03", "12+i12")),
    ("griconj", ("02+i13", "13+i02")),
    ("griphc", ("03+i12", "12+i03")),
]


def test_criterion_5_vanishing_commutators():
    t0 = time.monotonic()
    sig = Signature(3, 1)
    for field, cases in ((REAL, _REAL_VANISHING), (COMPLEX, _COMPLEX_VANISHING)):
        for op, spaces in cases:
            for space_text in spaces:
                space = ts(space_text, field)
                for trial in range(1000):
                    u = random_instance(space, sig, seed=trial * 3 + 1)
                    assert commutator(u, apply_conjugation(u, op)).is_zero(), (
                        field,
                        op,
                        space_text,
                        trial,
                    )
    # small-n note: [U, grirev(U)] = 0 for every U when n <= 3, shown on a
    # spanning set via the polarized form [u, grirev(v)] + [v, grirev(u)]
    for sig3 in signatures_up_to(3):
        size = 1 << sig3.n
        for a in range(size):
            u = Multivector.basis_blade(sig3, a)
            for b in range(size):
                v = Multivector.basis_blade(sig3, b)
                polarized = commutator(u, apply_conjugation(v, "grirev")) + commutator(
                    v, apply_conjugation(u, "grirev")
                )
                assert polarized.is_zero(), (sig3, a, b)
    _report(5, "eigenspace-constrained commutators vanish exactly", time.monotonic() - t0)


# -------------------------------------------------------------- criterion 6

def test_criterion_6_sparse_high_dimension():
    t0 = time.monotonic()
    sig = Signature(20, 0)
    t2 = ts("2")
    u = random_instance(t2, sig, seed=2026, density=0.002)
    v = random_instance(t2, sig, seed=810, density=0.002)
    assert set(u.grades()) <= {2, 6, 10, 14, 18}
    assert set(v.grades()) <= {2, 6, 10, 14, 18}
    assert len(u) > 100 and len(v) > 100  # genuinely sparse but non-trivial
    w = commutator(u, v)
    assert not w.is_zero()
    assert classify_by_rank(w) <= t2
    assert member(w, t2)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(6, "n=20 sparse commutator stays in type 2", elapsed, 120)


# -------------------------------------------------------------- criterion 7

def test_criterion_7_type_rank_coincidence():
    t0 = time.monotonic()
    # n < 4: each atom subspace is a single rank subspace
    for n in (1, 2, 3):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            audit = dimension_audit(sig)
            assert audit.ok
            for k in range(4):
                from math import comb

                assert main_type_dim(n, k) == (comb(n, k) if k <= n else 0)
            for mask in range(1 << n):
                u = Multivector.basis_blade(sig, mask)
                k = mask.bit_count()
                assert qtype_project(u, k % 4) == u
                assert classify_by_rank(u) == ts(str(k % 4))
    # n = 4: types 1,2,3 are single ranks; type 0 is rank 0 + rank 4
    for p in range(5):
        sig = Signature(p, 4 - p)
        audit = dimension_audit(sig)
        assert audit.ok
        assert [t[0] for t in audit.type_dims] == [2, 4, 6, 4]
        for mask in range(1 << 4):
            u = Multivector.basis_blade(sig, mask)
            r = mask.bit_count()
            assert classify_by_rank(u) == ts(str(r % 4))
        rng_seed = 5 + p
        u = random_instance(TypeSet.full(REAL), sig, seed=rng_seed)
        assert qtype_project(u, 0) == u.grade(0) + u.grade(4)
        for k in (1, 2, 3):
            assert qtype_project(u, k) == u.grade(k)
    _report(7, "type/rank coincidence at n<4 and n=4", time.monotonic() - t0)


# -------------------------------------------------------------- criterion 8

def test_criterion_8_inference_soundness_corpus():
    t0 = time.monotonic()
    assert len(CORPUS) >= 20
    sigs = (Signature(2, 2), Signature(4, 1))
    for entry in CORPUS:
        env, expr = parse_program(entry.program, entry.field)
        for sig in sigs:
            report = check_soundness(expr, env, sig, trials=100, seed=11)
            assert report.passed, (entry.name, sig, report.first_counterexample)
    _report(8, f"soundness corpus ({len(CORPUS)} programs x 100 trials x 2 sigs)",
            time.monotonic() - t0)


def test_criterion_8_fault_injection(monkeypatch):
    # corrupting one table entry must surface as a reproducible counterexample
    bad = ((2, 3, 0, 1), (3, 0, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2))
    monkeypatch.setattr(qtype, "_COMM_MAIN", bad)
    env, expr = parse_program("let x:1; let y:1; [x,y]")
    sig = Signature(2, 2)
    report = check_soundness(expr, env, sig, trials=100, seed=11)
    assert not report.passed
    ce = report.first_counterexample
    assert ce is not None
    rebound = {name: parse_mv(text, sig) for name, text in ce["bindings"].items()}
    observed = classify_by_rank(eval_expr(expr, env, rebound))
    assert str(observed) == ce["observed"]
    monkeypatch.undo()
    # with the healthy table the witness is inside the true entry and the
    # same program checks out
    assert observed <= qtype.commutator_type(ts("1"), ts("1"))
    report_ok = check_soundness(expr, env, sig, trials=100, seed=11)
    assert report_ok.passed
    print("ACCEPTANCE 8b (fault injection detected with witness): PASS")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_oracle_equivalence():
    t0 = time.monotonic()
    assert oracle_sweep(8) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(9, "naive swap-product == bitmask product, n<=8 exhaustive", elapsed, 60)

import pytest

from cliffqt import COMPLEX, REAL, AlgebraError, Multivector, Signature, blade_mul
from cliffqt import algebra, qtype
from cliffqt.verify import (
    derive_tables,
    dimension_audit,
    naive_blade_product,
    oracle_sweep,
    signatures_up_to,
)


def test_naive_product_examples():
    assert naive_blade_product(0b011, 0b101, Signature(3, 0)) == (-1, 0b110)
    assert naive_blade_product(0b1, 0b1, Signature(0, 1)) == (-1, 0)
    assert naive_blade_product(0b1, 0b1, Signature(1, 0)) == (1, 0)
    assert naive_blade_product(0, 0b101, Signature(3, 0)) == (1, 0b101)


def test_oracle_agrees_up_to_n6():
    assert oracle_sweep(6) == []


def test_oracle_sweep_reports_a_wrong_kernel(monkeypatch):
    right = algebra.sign_mask
    # a kernel that forgets the metric: eta = +1 for every generator
    monkeypatch.setattr(algebra, "sign_mask", lambda a, p: right(a, a.bit_length()))
    bad = oracle_sweep(2)
    assert bad and all(entry["sig"][1] > 0 for entry in bad)
    assert {"sig": (0, 1), "a": 1, "b": 1, "fast": (1, 0), "naive": (-1, 0)} in bad


def test_oracle_sweep_bounds():
    with pytest.raises(AlgebraError):
        oracle_sweep(0)
    with pytest.raises(AlgebraError):
        oracle_sweep(9)


def test_naive_matches_fast_spot():
    sig = Signature(2, 3)
    for a in range(32):
        for b in range(32):
            sign, mask = naive_blade_product(a, b, sig)
            assert (sign, mask) == blade_mul(a, b, sig)
            for field in (REAL, COMPLEX):
                u = Multivector.basis_blade(sig, a, field=field)
                v = Multivector.basis_blade(sig, b, field=field)
                assert u * v == Multivector.basis_blade(sig, mask, sign, field=field)


def test_signatures_up_to():
    sigs = list(signatures_up_to(3))
    assert len(sigs) == 2 + 3 + 4
    assert Signature(1, 2) in sigs


def test_derive_tables_match_hardcoded():
    comm, acomm = derive_tables(5)
    assert comm.ok and comm.complete
    assert acomm.ok and acomm.complete
    assert comm.derived[0][1] == {3}
    for k in range(4):
        assert acomm.derived[k][k] == {0}
    assert comm.signatures == [(s.p, s.q) for s in signatures_up_to(5)]


def test_derive_tables_small_n_incomplete():
    comm, acomm = derive_tables(1)
    assert comm.ok  # nothing derived contradicts the table
    assert not comm.complete  # but most cells have no witnesses yet
    assert {"op": "commutator", "row": 0, "col": 0, "expected": 2} in comm.undetermined


def test_derive_tables_reports_corruption(monkeypatch):
    bad = ((2, 1, 0, 1), (3, 2, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2))
    monkeypatch.setattr(qtype, "_COMM_MAIN", bad)
    comm, acomm = derive_tables(4)
    assert acomm.ok
    assert not comm.ok
    entry = comm.mismatches[0]
    assert (entry["row"], entry["col"]) == (0, 1)
    assert entry["derived_atom"] == 3 and entry["expected"] == 1
    assert entry["blade_a"] is not None and entry["blade_b"] is not None
    # the witness blades really do produce the derived atom
    sig = Signature(*entry["sig"])
    from cliffqt import Multivector, classify_by_rank, commutator

    u = Multivector.basis_blade(sig, tuple(entry["blade_a"]))
    v = Multivector.basis_blade(sig, tuple(entry["blade_b"]))
    got = classify_by_rank(commutator(u, v))
    assert (entry["derived_atom"], False) in got.atoms()


def test_table_report_serialization():
    comm, _ = derive_tables(3)
    data = comm.as_dict()
    assert data["op"] == "commutator"
    assert data["ok"] is True
    assert isinstance(data["derived"][0][0], list)
    assert "derived from blades" in comm.format_text()


def test_dimension_audit_examples():
    report = dimension_audit(Signature(4, 0))
    assert report.ok
    assert [expected for expected, _ in report.type_dims] == [2, 4, 6, 4]
    report1 = dimension_audit(Signature(1, 0))
    assert [t[0] for t in report1.type_dims] == [1, 1, 0, 0]
    report6 = dimension_audit(Signature(3, 3))
    assert sum(t[0] for t in report6.type_dims) == 64
    assert report6.even_odd == (32, 32, 32)


def test_dimension_audit_all_up_to_12():
    for sig in signatures_up_to(12):
        assert dimension_audit(sig).ok


def test_audit_serialization():
    data = dimension_audit(Signature(2, 1)).as_dict()
    assert data["sig"] == [2, 1]
    assert data["total"] == [8, 8]
    assert data["ok"] is True

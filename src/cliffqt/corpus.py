"""Bundled soundness-check corpus.

Covers every single-atom commutator/anticommutator table entry (real and a
complex sample with imaginary flags), the fixed-point identity families of
arbitrary elements under each conjugation, the vanishing commutators on
eigenspace-constrained symbols, and mixed type-set unions.  ``expected`` is
the exact TypeSet ``infer_type`` must produce (None: soundness-only entry).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import COMPLEX, REAL


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    field: str
    program: str
    expected: str | None = None


def _table_entries() -> list[CorpusEntry]:
    from .qtype import _ACOMM_MAIN, _COMM_MAIN

    # (name, field, x's and y's prefixes, bracket, table, result prefix); the
    # complex atoms show the imaginary flag XORing through both tables
    variants = (
        ("comm-{}{}", REAL, "", "", "[x, y]", _COMM_MAIN, ""),
        ("acomm-{}{}", REAL, "", "", "{x, y}", _ACOMM_MAIN, ""),
        ("comm-i{}-{}", COMPLEX, "i", "", "[x, y]", _COMM_MAIN, "i"),
        ("acomm-i{}-i{}", COMPLEX, "i", "i", "{x, y}", _ACOMM_MAIN, ""),
    )
    return [
        CorpusEntry(
            name.format(k1, k2),
            field,
            f"let x:{xi}{k1}; let y:{yi}{k2}; {bracket}",
            f"{flag}{table[k1][k2]}",
        )
        for pair in (variants[:2], variants[2:])
        for k1 in range(4)
        for k2 in range(4)
        for name, field, xi, yi, bracket, table, flag in pair
    ]


# identities satisfied by an arbitrary element (fixed/negated under one
# conjugation, so the refinement pass pins them down)
_IDENTITY_ENTRIES = [
    CorpusEntry("id-uurev", REAL, "x*rev(x)", "01"),
    CorpusEntry("id-revuu", REAL, "rev(x)*x", "01"),
    CorpusEntry("id-comm-rev", REAL, "[x, rev(x)]", "01"),
    CorpusEntry("id-acomm-rev", REAL, "{x, rev(x)}", "01"),
    CorpusEntry("id-comm-gri", REAL, "[x, gri(x)]", "13"),
    CorpusEntry("id-acomm-gri", REAL, "{x, gri(x)}", "02"),
    CorpusEntry("id-uugrirev", REAL, "x*gri(rev(x))", "03"),
    CorpusEntry("id-grirevuu", REAL, "gri(rev(x))*x", "03"),
    CorpusEntry("id-comm-grirev", REAL, "[x, gri(rev(x))]", "03"),
    CorpusEntry("id-acomm-grirev", REAL, "{x, gri(rev(x))}", "03"),
    CorpusEntry("id-power4", REAL, "x*rev(x)*x*rev(x)", "01"),
    CorpusEntry("idc-uurev", COMPLEX, "x*rev(x)", "01+i01"),
    CorpusEntry("idc-revuu", COMPLEX, "rev(x)*x", "01+i01"),
    CorpusEntry("idc-comm-rev", COMPLEX, "[x, rev(x)]", "01+i01"),
    CorpusEntry("idc-acomm-rev", COMPLEX, "{x, rev(x)}", "01+i01"),
    CorpusEntry("idc-comm-gri", COMPLEX, "[x, gri(x)]", "13+i13"),
    CorpusEntry("idc-acomm-gri", COMPLEX, "{x, gri(x)}", "02+i02"),
    CorpusEntry("idc-comm-conj", COMPLEX, "[x, conj(x)]", "i0123"),
    CorpusEntry("idc-acomm-conj", COMPLEX, "{x, conj(x)}", "0123"),
    CorpusEntry("idc-uuphc", COMPLEX, "x*phc(x)", "01+i23"),
    CorpusEntry("idc-phcuu", COMPLEX, "phc(x)*x", "01+i23"),
    CorpusEntry("idc-comm-phc", COMPLEX, "[x, phc(x)]", "01+i23"),
    CorpusEntry("idc-acomm-phc", COMPLEX, "{x, phc(x)}", "01+i23"),
    CorpusEntry("idc-uugrirev", COMPLEX, "x*gri(rev(x))", "03+i03"),
    CorpusEntry("idc-grirevuu", COMPLEX, "gri(rev(x))*x", "03+i03"),
    CorpusEntry("idc-comm-grirev", COMPLEX, "[x, gri(rev(x))]", "03+i03"),
    CorpusEntry("idc-acomm-grirev", COMPLEX, "{x, gri(rev(x))}", "03+i03"),
    CorpusEntry("idc-comm-griconj", COMPLEX, "[x, gri(conj(x))]", "13+i02"),
    CorpusEntry("idc-acomm-griconj", COMPLEX, "{x, gri(conj(x))}", "02+i13"),
    CorpusEntry("idc-uugriphc", COMPLEX, "x*gri(phc(x))", "03+i12"),
    CorpusEntry("idc-griphcuu", COMPLEX, "gri(phc(x))*x", "03+i12"),
    CorpusEntry("idc-comm-griphc", COMPLEX, "[x, gri(phc(x))]", "03+i12"),
    CorpusEntry("idc-acomm-griphc", COMPLEX, "{x, gri(phc(x))}", "03+i12"),
    CorpusEntry("idc-power4-phc", COMPLEX, "x*phc(x)*x*phc(x)", "01+i23"),
]

# commutators that vanish on eigenspace-constrained symbols
_VANISHING_ENTRIES = [
    CorpusEntry("zero-rev-01", REAL, "let u:01; [u, rev(u)]", "∅"),
    CorpusEntry("zero-rev-23", REAL, "let u:23; [u, rev(u)]", "∅"),
    CorpusEntry("zero-gri-02", REAL, "let u:02; [u, gri(u)]", "∅"),
    CorpusEntry("zero-gri-13", REAL, "let u:13; [u, gri(u)]", "∅"),
    CorpusEntry("zero-grirev-03", REAL, "let u:03; [u, gri(rev(u))]", "∅"),
    CorpusEntry("zero-grirev-12", REAL, "let u:12; [u, gri(rev(u))]", "∅"),
    CorpusEntry("zeroc-rev-01", COMPLEX, "let u:01+i01; [u, rev(u)]", "∅"),
    CorpusEntry("zeroc-rev-23", COMPLEX, "let u:23+i23; [u, rev(u)]", "∅"),
    CorpusEntry("zeroc-gri-02", COMPLEX, "let u:02+i02; [u, gri(u)]", "∅"),
    CorpusEntry("zeroc-gri-13", COMPLEX, "let u:13+i13; [u, gri(u)]", "∅"),
    CorpusEntry("zeroc-conj-re", COMPLEX, "let u:0123; [u, conj(u)]", "∅"),
    CorpusEntry("zeroc-conj-im", COMPLEX, "let u:i0123; [u, conj(u)]", "∅"),
    CorpusEntry("zeroc-phc-p", COMPLEX, "let u:01+i23; [u, phc(u)]", "∅"),
    CorpusEntry("zeroc-phc-m", COMPLEX, "let u:23+i01; [u, phc(u)]", "∅"),
    CorpusEntry("zeroc-grirev-03", COMPLEX, "let u:03+i03; [u, gri(rev(u))]", "∅"),
    CorpusEntry("zeroc-grirev-12", COMPLEX, "let u:12+i12; [u, gri(rev(u))]", "∅"),
    CorpusEntry("zeroc-griconj-p", COMPLEX, "let u:02+i13; [u, gri(conj(u))]", "∅"),
    CorpusEntry("zeroc-griconj-m", COMPLEX, "let u:13+i02; [u, gri(conj(u))]", "∅"),
    CorpusEntry("zeroc-griphc-p", COMPLEX, "let u:03+i12; [u, gri(phc(u))]", "∅"),
    CorpusEntry("zeroc-griphc-m", COMPLEX, "let u:12+i03; [u, gri(phc(u))]", "∅"),
    CorpusEntry("zero-self", REAL, "[x, x]", "∅"),
]

_MIXED_ENTRIES = [
    CorpusEntry("mix-union-sum", REAL, "let x:0; let y:1; x + y", "01"),
    CorpusEntry("mix-comm-012", REAL, "let a:01; let b:2; [a, b]", "01"),
    CorpusEntry("mix-acomm-0123", REAL, "let a:01; let b:23; {a, b}", "23"),
    CorpusEntry("mix-both", REAL, "let a:01; let b:23; [a, b] + {a, b}", "0123"),
    CorpusEntry("mix-prod", REAL, "let a:1; let b:2; a*b", "13"),
    CorpusEntry("mix-scaled", REAL, "let a:02; 3/2*a - a", "02"),
    CorpusEntry("mix-nested", REAL, "let a:0; let b:1; let c:2; [[a, b], c]", "3"),
    CorpusEntry("mixc-imul", COMPLEX, "let a:01; i*a", "i01"),
    CorpusEntry("mixc-imul-mixed", COMPLEX, "let a:0+i1; i*a", "1+i0"),
    CorpusEntry("mixc-comm", COMPLEX, "let z:0+i1; let w:2; [z, w]", "0+i1"),
    CorpusEntry("mixc-sum-conj", COMPLEX, "x + conj(x)", "0123"),
    CorpusEntry("mixc-diff-conj", COMPLEX, "x - conj(x)", "i0123"),
]

CORPUS: tuple[CorpusEntry, ...] = tuple(
    _table_entries() + _IDENTITY_ENTRIES + _VANISHING_ENTRIES + _MIXED_ENTRIES
)

"""Independent brute-force oracles backing the test suite and the CLI selftest.

Deliberately slow, simple re-implementations: the blade product is done by
literal symbol shuffling instead of bit tricks, and the closure tables are
re-derived by exhaustive enumeration instead of being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .algebra import Signature, blade_indices, blade_mul, mask_from_indices
from .errors import AlgebraError
from . import qtype


def signatures_up_to(max_n: int):
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


# ------------------------------------------------------------------ blade oracle

def _swap_and_contract(indices, p: int) -> tuple[int, list[int]]:
    """Sign and sorted generator list of a product of generators, by literal shuffling.

    Moves each symbol left one position at a time (each swap of distinct
    generators flips the sign); two equal adjacent generators contract to
    eta, which is -1 for a generator past position p.
    """
    out: list[int] = []
    sign = 1
    for s in indices:
        i = len(out)
        while i > 0 and out[i - 1] > s:
            i -= 1
        if (len(out) - i) & 1:
            sign = -sign
        if i > 0 and out[i - 1] == s:
            if s > p:
                sign = -sign
            out.pop(i - 1)
        else:
            out.insert(i, s)
    return sign, out


def naive_blade_product(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Blade product by adjacent swaps and contractions on an index list.

    Concatenates the two index sequences and sorts them with
    :func:`_swap_and_contract`.  Must agree with algebra.blade_mul everywhere.
    """
    sign, out = _swap_and_contract(blade_indices(a) + blade_indices(b), sig.p)
    return sign, mask_from_indices(out, sig.n)


def oracle_sweep(max_n: int) -> list[dict]:
    """Compare the swap-and-contract oracle with blade_mul on every pair, n <= max_n.

    Returns the list of discrepancies (empty when the two agree).
    """
    if not 1 <= max_n <= 8:
        raise AlgebraError(f"max_n must be in 1..8, got {max_n}")
    bad = []
    for sig in signatures_up_to(max_n):
        size = 1 << sig.n
        indices = [blade_indices(m) for m in range(size)]
        for a in range(size):
            ia = indices[a]
            for b in range(size):
                sign, out = _swap_and_contract(ia + indices[b], sig.p)
                mask = 0
                for s in out:
                    mask |= 1 << (s - 1)
                fast = blade_mul(a, b, sig)
                if fast != (sign, mask):
                    bad.append(
                        {
                            "sig": (sig.p, sig.q),
                            "a": a,
                            "b": b,
                            "fast": fast,
                            "naive": (sign, mask),
                        }
                    )
    return bad


# ------------------------------------------------------------------ table derivation

@dataclass
class TableReport:
    """Result of re-deriving one closure table from blade enumeration."""

    op: str
    max_n: int
    signatures: list[tuple[int, int]]
    derived: list[list[set[int]]]
    mismatches: list[dict] = field(default_factory=list)
    undetermined: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def complete(self) -> bool:
        return not self.mismatches and not self.undetermined

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "max_n": self.max_n,
            "signatures": [list(s) for s in self.signatures],
            "derived": [[sorted(cell) for cell in row] for row in self.derived],
            "mismatches": self.mismatches,
            "undetermined": self.undetermined,
            "ok": self.ok,
            "complete": self.complete,
        }

    def format_text(self) -> str:
        lines = [f"{self.op} table derived from blades, n <= {self.max_n}:"]
        for k1 in range(4):
            cells = []
            for k2 in range(4):
                cell = self.derived[k1][k2]
                cells.append("".join(str(k) for k in sorted(cell)) if cell else "-")
            lines.append(f"  {k1}: " + "  ".join(cells))
        lines.append(f"  mismatches: {len(self.mismatches)}")
        for m in self.mismatches:
            lines.append(f"    {m}")
        if self.undetermined:
            lines.append(f"  undetermined cells: {len(self.undetermined)}")
        return "\n".join(lines)


def derive_tables(max_n: int) -> tuple[TableReport, TableReport]:
    """Derive the commutator and anticommutator closure tables exhaustively.

    For every signature with p+q <= max_n, :func:`qtype.table_witnesses`
    classifies both brackets of every pair of basis blades by rank.  The
    derived cells are compared with the stored tables, which follow the XOR
    law ``k1 ^ k2 ^ 2`` (commutator) and ``k1 ^ k2`` (anticommutator).  A
    mismatch is an atom outside the stored entry (with a witness pair); a
    cell the enumeration never populated is reported undetermined.
    """
    if not 1 <= max_n <= 8:
        raise AlgebraError(f"max_n must be in 1..8, got {max_n}")
    sigs = list(signatures_up_to(max_n))
    witnesses = [(sig, qtype.table_witnesses(sig)) for sig in sigs]
    reports = []
    for opname, table in (
        ("commutator", qtype._COMM_MAIN),
        ("anticommutator", qtype._ACOMM_MAIN),
    ):
        derived = [[set() for _ in range(4)] for _ in range(4)]
        report = TableReport(opname, max_n, [(s.p, s.q) for s in sigs], derived)
        for sig, found in witnesses:
            for (op, ka, kb, k), (a, b) in found.items():
                if op != opname or k in derived[ka][kb]:
                    continue
                derived[ka][kb].add(k)
                if k != table[ka][kb]:
                    report.mismatches.append(
                        {
                            "op": opname,
                            "row": ka,
                            "col": kb,
                            "derived_atom": k,
                            "expected": table[ka][kb],
                            "sig": (sig.p, sig.q),
                            "blade_a": list(blade_indices(a)),
                            "blade_b": list(blade_indices(b)),
                        }
                    )
        for k1 in range(4):
            for k2 in range(4):
                if not derived[k1][k2]:
                    report.undetermined.append(
                        {"op": opname, "row": k1, "col": k2, "expected": table[k1][k2]}
                    )
        reports.append(report)
    return reports[0], reports[1]


# ------------------------------------------------------------------ dimension audit

@dataclass
class AuditReport:
    sig: tuple[int, int]
    rank_dims: list[tuple[int, int]]      # (expected C(n,k), counted)
    type_dims: list[tuple[int, int]]      # per main type (expected, counted)
    even_odd: tuple[int, int, int]        # (expected 2^(n-1), even, odd)
    total: tuple[int, int]                # (expected 2^n, counted)
    ok: bool

    def as_dict(self) -> dict:
        return {
            "sig": list(self.sig),
            "rank_dims": [list(t) for t in self.rank_dims],
            "type_dims": [list(t) for t in self.type_dims],
            "even_odd": list(self.even_odd),
            "total": list(self.total),
            "ok": self.ok,
        }


def dimension_audit(sig: Signature) -> AuditReport:
    """Count blades by rank, main type and parity against the binomial sums."""
    n = sig.n
    rank_counts = [0] * (n + 1)
    type_counts = [0] * 4
    even = 0
    for mask in range(1 << n):
        r = mask.bit_count()
        rank_counts[r] += 1
        type_counts[r & 3] += 1
        if not r & 1:
            even += 1
    odd = (1 << n) - even
    rank_dims = [(comb(n, k), rank_counts[k]) for k in range(n + 1)]
    type_dims = [(qtype.main_type_dim(n, k), type_counts[k]) for k in range(4)]
    half = 1 << (n - 1)
    ok = (
        all(e == c for e, c in rank_dims)
        and all(e == c for e, c in type_dims)
        and even == half
        and odd == half
        and sum(rank_counts) == 1 << n
    )
    return AuditReport(
        sig=(sig.p, sig.q),
        rank_dims=rank_dims,
        type_dims=type_dims,
        even_odd=(half, even, odd),
        total=(1 << n, sum(rank_counts)),
        ok=ok,
    )

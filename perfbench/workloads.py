"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Each workload is a class whose constructor builds every input from the run
seed (this is the timed set-up), whose ``op(i)`` does the work of op ``i``
and returns its raw output, and whose ``check(i, out)`` raises
``WrongResult`` unless the output is correct.  ``op`` is timed, ``check`` is
not.  Within a workload every op does the same mix of work, so op times
cluster around one size.
"""

from __future__ import annotations

import contextlib
import io
import random

from cliffqt import cli, dsl
from cliffqt.algebra import COMPLEX, REAL, Multivector, Signature, commutator
from cliffqt.corpus import CORPUS
from cliffqt.mvtext import format_mv, parse_mv
from cliffqt.qtype import TypeSet, member, parse_typeset
from cliffqt.verify import naive_blade_product


class WrongResult(Exception):
    """An op finished but its output is not the correct one."""


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i`` in a run with seed ``seed``; independent of timing."""
    return seed * 1_000_003 + i


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongResult(what)


class CorpusCheck:
    """All 131 corpus programs: parse, then check_soundness at Cl(2,2) and Cl(4,1)."""

    sigs = (Signature(2, 2), Signature(4, 1))

    def __init__(self, seed: int):
        self.seed = seed
        self.entries = CORPUS

    def op(self, i: int):
        seed = op_seed(self.seed, i)
        reports = []
        for entry in self.entries:
            env, expr = dsl.parse_program(entry.program, entry.field)
            for sig in self.sigs:
                reports.append(dsl.check_soundness(expr, env, sig, trials=1, seed=seed))
        return reports

    def check(self, i: int, reports) -> None:
        _require(len(reports) == 2 * len(self.entries), "one report per program and signature")
        for k, report in enumerate(reports):
            entry = self.entries[k // 2]
            _require(report.passed, f"{entry.name}: soundness check failed")
            if entry.expected is not None:
                _require(
                    str(report.inferred) == entry.expected,
                    f"{entry.name}: inferred {report.inferred}, expected {entry.expected}",
                )


class SparseN20:
    """Commutator of two sparse type-2 operands in Cl(20,0) at density 0.0005."""

    sig = Signature(20, 0)
    tset = TypeSet(REAL, 1 << 2)
    density = 0.0005
    spot_checks = 6

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, i: int):
        seed = op_seed(self.seed, i)
        u = dsl.random_instance(self.tset, self.sig, 2 * seed, self.density)
        v = dsl.random_instance(self.tset, self.sig, 2 * seed + 1, self.density)
        w = commutator(u, v)
        _require(member(w, self.tset), "[u, v] left type 2")
        _require(not w.is_zero(), "[u, v] vanished")
        return u, v, w

    def check(self, i: int, out) -> None:
        """Recompute some coefficients of [u, v] with the swap-and-contract oracle.

        Checks blades present in the result and blades ``a ^ b`` of operand
        pairs, which are zero exactly when every pair reaching them commutes.
        """
        u, v, w = out
        _require(len(u) > 0 and len(v) > 0, "empty operand")
        rng = random.Random(op_seed(self.seed, i))
        uterms, vterms, wterms = u.terms(), v.terms(), w.terms()
        masks = {m for m, _ in rng.sample(wterms, min(self.spot_checks, len(wterms)))}
        for _ in range(self.spot_checks):
            masks.add(rng.choice(uterms)[0] ^ rng.choice(vterms)[0])
        vmap = dict(vterms)
        for m in masks:
            expected = 0
            for a, (ra, _) in uterms:
                b = a ^ m
                if b in vmap:
                    s_ab, _ = naive_blade_product(a, b, self.sig)
                    s_ba, _ = naive_blade_product(b, a, self.sig)
                    expected += ra * vmap[b][0] * (s_ab - s_ba)
            _require(w.coeff(m) == (expected, 0), f"coefficient of blade {m:#x} is wrong")


class LiteralClassify:
    """``cliffqt classify`` over a pool of complex Cl(20,0) literals of 1000 blades."""

    sig = Signature(20, 0)
    tset = "01+i23"  # every blade is eligible exactly once
    pool_size = 8
    blades = 1000
    density = 0.0085  # about 8,900 candidates for the 8,000 blades the pool needs

    def __init__(self, seed: int):
        self.seed = seed
        tset = parse_typeset(self.tset, COMPLEX)
        source = dsl.random_instance(tset, self.sig, seed, self.density)
        terms = source.terms()
        need = self.pool_size * self.blades
        if len(terms) < need:
            raise RuntimeError(f"seed {seed} drew {len(terms)} blades, pool needs {need}")
        random.Random(seed).shuffle(terms)
        self.values = []
        self.literals = []
        for j in range(self.pool_size):
            chunk = dict(terms[j * self.blades : (j + 1) * self.blades])
            mv = Multivector(self.sig, chunk, COMPLEX)
            self.values.append(mv)
            self.literals.append(format_mv(mv))
        self.verified: dict[int, str] = {}

    def op(self, i: int):
        literal = self.literals[i % self.pool_size]
        argv = ["classify", "--sig", "20,0", "--field", "complex", literal]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, i: int, out) -> None:
        code, text, err = out
        _require(code == 0 and not err, f"classify exited {code}: {err.strip()}")
        j = i % self.pool_size
        if j in self.verified:
            _require(text == self.verified[j], "output differs from the verified output")
            return
        self._verify(self.values[j], text)
        self.verified[j] = text

    def _verify(self, value, text: str) -> None:
        """The printed components are the atoms of ``value`` and sum to it exactly."""
        lines = text.rstrip("\n").split("\n")
        atoms = set()
        for mask, (re, im) in value.terms():
            k = mask.bit_count() & 3
            if re:
                atoms.add(str(k))
            if im:
                atoms.add(f"i{k}")
        _require(lines[0] == _typeset_text(atoms), f"typeset {lines[0]!r}")
        total = None
        seen = set()
        for line in lines[1:]:
            atom, sep, body = line.strip().partition(": ")
            _require(sep == ": " and atom in atoms and atom not in seen, f"bad line {line[:40]!r}")
            seen.add(atom)
            part = parse_mv(body, self.sig, COMPLEX)
            k, imag = int(atom[-1]), atom.startswith("i")
            for mask, (re, im) in part.terms():
                _require(mask.bit_count() & 3 == k, f"atom {atom} holds a rank {mask.bit_count()} blade")
                _require((re if imag else im) == 0, f"atom {atom} holds the wrong coefficient part")
            total = part if total is None else total + part
        _require(seen == atoms, f"components {sorted(seen)}, expected {sorted(atoms)}")
        _require(total == value, "components do not sum to the input")


def _typeset_text(atoms: set) -> str:
    """Type set in the CLI's notation, written here so the check does not trust TypeSet."""
    real = "".join(str(k) for k in range(4) if str(k) in atoms)
    imag = "".join(str(k) for k in range(4) if f"i{k}" in atoms)
    if real and imag:
        return f"{real}+i{imag}"
    return f"i{imag}" if imag else real


WORKLOADS = {
    "corpus_check": CorpusCheck,
    "sparse_n20": SparseN20,
    "literal_classify": LiteralClassify,
}

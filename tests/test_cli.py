import contextlib
import io
import json
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffqt import Multivector, Signature, cli, qtype
from cliffqt.cli import main
from cliffqt.algebra import MAX_N
from cliffqt.mvtext import MAX_DIGITS, format_mv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul_examples(capsys):
    code, out, _ = run(capsys, "mul", "--sig", "3,0", "e12", "e13")
    assert code == 0 and out.strip() == "-e23"
    code, out, _ = run(capsys, "mul", "--sig", "1,1", "e2", "e2")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run(capsys, "mul", "--sig", "2,0", "1", "e12")
    assert code == 0 and out.strip() == "e12"


def test_mul_bracket_check(capsys):
    code, out, _ = run(capsys, "mul", "--sig", "3,0", "e12", "e13")
    assert out.strip() == "-e23"
    # commutator via the DSL checker gives the doubled value
    code, out, _ = run(capsys, "infer", "let x:2; let y:2; [x,y]")
    assert out.strip() == "2"


def test_classify_examples(capsys):
    code, out, _ = run(capsys, "classify", "--sig", "4,0", "1+e1234")
    assert code == 0 and out.splitlines()[0] == "0"
    code, out, _ = run(capsys, "classify", "--sig", "4,0", "0")
    assert code == 0 and out.strip() == "∅"
    code, out, _ = run(
        capsys, "classify", "--sig", "5,0", "--field", "complex", "e1 + i*e123"
    )
    assert code == 0 and out.splitlines()[0] == "1+i3"


def test_classify_components(capsys):
    code, out, _ = run(capsys, "classify", "--sig", "3,0", "1 + e1 + 2*e12")
    lines = out.splitlines()
    assert lines[0] == "012"
    assert "  0: 1" in lines and "  1: e1" in lines and "  2: 2*e12" in lines


def test_classify_components_complex_split(capsys):
    code, out, _ = run(
        capsys, "classify", "--sig", "5,0", "--field", "complex", "--json",
        "e1 + i*e23 + 2*e12",
    )
    data = json.loads(out)
    assert data["typeset"] == "12+i2"
    atoms = {c["atom"] for c in data["components"]}
    assert atoms == {"1", "2", "i2"}


def test_project_command(capsys):
    code, out, _ = run(capsys, "project", "--sig", "3,1", "2", "e12 + e1 - 3*e34")
    assert code == 0 and out.strip() == "e12 - 3*e34"
    code, out, _ = run(capsys, "project", "--sig", "3,1", "1", "e12")
    assert code == 0 and out.strip() == "0"


def test_tables_command(capsys):
    code, out, _ = run(capsys, "tables", "comm")
    assert code == 0
    assert "  0: 2  3  0  1" in out
    code, out, _ = run(capsys, "tables", "acomm")
    assert "  0: 0  1  2  3" in out
    code, js, _ = run(capsys, "tables", "comm", "--json")
    data = json.loads(js)
    assert data["op"] == "commutator"
    assert data["rows"][0] == ["2", "3", "0", "1"]
    assert data["rows"][2] == ["0", "1", "2", "3"]
    for alias in ("commutator", "anticommutator"):
        with pytest.raises(SystemExit) as info:
            main(["tables", alias])
        assert info.value.code == 2


def test_infer_examples(capsys):
    code, out, _ = run(capsys, "infer", "let x:1; let y:3; {x,y}")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "infer", "rev(x)*x")
    assert code == 0 and out.strip() == "01"
    code, out, _ = run(capsys, "infer", "let u:03; [u, gri(rev(u))]")
    assert code == 0 and out.strip() == "∅"
    code, out, _ = run(capsys, "infer", "--field", "complex", "--json", "[x, conj(x)]")
    assert json.loads(out)["typeset"] == "i0123"
    for program in ("let x:∅; x", "let x:0set; let y:2; [x, y]"):
        code, out, _ = run(capsys, "infer", program)
        assert code == 0 and out.strip() == "∅"


def test_infer_drops_the_type_of_a_zero_scaled_term(capsys):
    # 0*x is zero whatever x is, so only y's atom 0 is left; written out, not inferred
    assert run(capsys, "infer", "let x:1; let y:0; 0*x + y") == (0, "0\n", "")


def test_check_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--sig", "2,2", "--trials", "40", "rev(x)*x")
    assert code == 0
    assert "failures: 0" in out


def test_check_trials_zero_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--sig", "2,2", "--trials", "0", "x")
    assert code == 2
    assert "trials" in err


def test_check_detects_fault_injection(capsys, monkeypatch):
    bad = ((2, 3, 0, 1), (3, 0, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2))
    monkeypatch.setattr(qtype, "_COMM_MAIN", bad)
    code, out, _ = run(
        capsys, "check", "--sig", "4,0", "--trials", "30", "let x:1; let y:1; [x,y]"
    )
    assert code == 1
    assert "counterexample" in out


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "mul", "--sig", "3,0", "e21", "e1")
    assert code == 2 and "increasing" in err
    code, _, err = run(capsys, "infer", "let x:9; x")
    assert code == 2
    code, _, err = run(capsys, "classify", "--sig", "2,0", "e1 +")
    assert code == 2


@pytest.mark.parametrize(
    "program",
    [
        "let x:1; " + "rev(" * 600 + "x" + ")" * 600,
        "(" * 3000 + "x" + ")" * 3000,
        "x" + " + (x" * 3000 + ")" * 3000,
    ],
    ids=["rev", "parens", "sum"],
)
def test_deep_nesting_is_a_parse_error(capsys, program):
    code, _, err = run(capsys, "infer", program)
    assert code == 2
    assert "nested deeper than" in err and "line 1, column" in err


@pytest.mark.parametrize(
    "argv",
    [("mul", "--sig", "3,0", "1e3", "e1"), ("infer", "1e3")],
    ids=["mul", "infer"],
)
def test_number_running_into_a_blade_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("mul", "--sig", "2,0", "\u00b2", "e1"),
        ("mul", "--sig", "2,0", "e\u00b2", "e1"),
        ("mul", "--sig", "2,0", "e{\u00b2}", "e1"),
        ("infer", "\u00b2*x"),
    ],
    ids=["number", "blade", "braced", "infer"],
)
def test_non_ascii_digit_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "(line 1, column" in err


def test_mul_refuses_too_many_term_pairs(capsys):
    # 4097^2 pairs is just past algebra.MAX_PRODUCT_PAIRS = 2^24
    literal = format_mv(Multivector(Signature(13, 0), {m: (1, 0) for m in range(4097)}))
    start = time.perf_counter()
    code, out, err = run(capsys, "mul", "--sig", "13,0", literal, literal)
    assert time.perf_counter() - start < 2.0
    assert code == 2 and not out and "term pairs" in err


def test_check_refuses_an_oversized_draw(capsys):
    code, _, err = run(capsys, "check", "--sig", "30,0", "--density", "1", "let x:2; x")
    assert code == 2
    assert "expects more than" in err
    # the size guard is a closed form, so a huge algebra is refused at once
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--sig", "3000000,0", "--trials", "1", "x")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and not out and "expects more than" in err
    # a subnormal density is compared exactly, where MAX_EXPECTED_TERMS / density is inf
    for sig, density in (("3000000,0", "5e-324"), ("100000,0", "2e-308")):
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--sig", sig, "--density", density, "--trials", "1", "x")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out and "expects more than" in err


@pytest.mark.parametrize(
    "program, expected",
    [
        ("let x:1; let y:2; " + " + ".join(["x", "y"] * 5000), "12"),
        ("let x:1; " + "*".join(["x"] * 10000), "02"),
    ],
    ids=["sum", "product"],
)
def test_long_chains_have_no_length_limit(capsys, program, expected):
    # a chain of '+' or '*' adds no nesting level, however long it is
    start = time.perf_counter()
    code, out, _ = run(capsys, "infer", program)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.strip() == expected


def test_infer_long_product_keeps_the_compositional_type(capsys):
    program = "let x:1; let y:2; " + "*".join(["(x+y)"] * 20)
    start = time.perf_counter()
    code, out, _ = run(capsys, "infer", program)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.strip() == "0123"


def test_selftest_pass(capsys):
    code, out, _ = run(capsys, "selftest", "--max-n", "4")
    assert code == 0
    assert "selftest: PASS" in out


def test_selftest_bounds(capsys):
    code, _, err = run(capsys, "selftest", "--max-n", "9")
    assert code == 2 and "--max-n" in err
    code, _, err = run(capsys, "selftest", "--max-n", "0")
    assert code == 2


def test_selftest_json_structure(capsys):
    code, out, _ = run(capsys, "selftest", "--max-n", "3", "--json")
    data = json.loads(out)
    assert data["ok"] is True
    assert data["tables"][0]["op"] == "commutator"
    assert data["oracle_discrepancies"] == []


def test_selftest_fails_on_corruption(capsys, monkeypatch):
    bad = ((2, 3, 0, 1), (3, 2, 1, 0), (0, 1, 2, 3), (1, 0, 3, 0))
    monkeypatch.setattr(qtype, "_COMM_MAIN", bad)
    code, out, _ = run(capsys, "selftest", "--max-n", "4")
    assert code == 1
    assert "selftest: FAIL" in out


def test_json_output_deterministic(capsys):
    args = ("check", "--sig", "2,2", "--trials", "25", "--seed", "5", "--json", "x*rev(x)")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)
    data = json.loads(out1)
    assert data["passed"] is True and data["trials"] == 25


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CLIFFQT_SEED", "123")
    _, out_env, _ = run(capsys, "check", "--sig", "2,2", "--trials", "5", "--json", "x")
    monkeypatch.delenv("CLIFFQT_SEED")
    _, out_default, _ = run(capsys, "check", "--sig", "2,2", "--trials", "5", "--json", "x")
    _, out_flag, _ = run(
        capsys, "check", "--sig", "2,2", "--trials", "5", "--seed", "123", "--json", "x"
    )
    assert out_env == out_flag  # env sets the default seed
    assert json.loads(out_default)["passed"] and json.loads(out_env)["passed"]


def test_malformed_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CLIFFQT_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--sig", "2,0", "x*rev(x)"])
    assert exc.value.code == 2
    assert "CLIFFQT_SEED" in capsys.readouterr().err
    # an explicit --seed does not read the variable
    assert run(capsys, "check", "--sig", "2,0", "--seed", "3", "x*rev(x)")[0] == 0


@pytest.mark.parametrize("command", ["classify", "tables", "infer"])
def test_malformed_seed_env_is_read_only_by_check(capsys, monkeypatch, command):
    monkeypatch.setenv("CLIFFQT_SEED", "abc")
    argv = {"classify": ("--sig", "2,0", "e1"), "tables": ("comm",), "infer": ("x*rev(x)",)}
    code, out, err = run(capsys, command, *argv[command])
    assert code == 0 and out and not err


# argv that each command accepts, and the options it does not read
_VALID_ARGV = {
    "mul": ("--sig", "2,0", "e1", "e2"),
    "classify": ("--sig", "2,0", "e1"),
    "project": ("--sig", "2,0", "1", "e1"),
    "tables": ("comm",),
    "infer": ("x",),
    "check": ("--sig", "2,0", "--trials", "2", "x"),
    "selftest": ("--max-n", "1"),
}
_UNREAD = {
    "mul": ("--seed 1", "--trials 3", "--density 0.5"),
    "classify": ("--seed 1", "--trials 3", "--density 0.5"),
    "project": ("--seed 1", "--trials 3", "--density 0.5"),
    "tables": ("--field complex", "--backend float", "--sig 2,0", "--seed 1", "--trials 3",
               "--density 0.5"),
    "infer": ("--backend float", "--sig 2,0", "--seed 1", "--trials 3", "--density 0.5"),
    "check": ("--max-n 2",),
    "selftest": ("--field complex", "--backend float", "--sig 2,0", "--seed 1", "--trials 3",
                 "--density 0.5"),
}


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, options in _UNREAD.items() for option in options],
)
def test_each_command_refuses_the_options_it_does_not_read(capsys, command, option):
    assert run(capsys, command, *_VALID_ARGV[command])[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([command, *_VALID_ARGV[command], *option.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_leading_dash_program_or_literal_is_a_positional(capsys):
    assert run(capsys, "infer", "-x") == (0, "0123\n", "")
    code, out, err = run(capsys, "infer", "--json", "-x")
    assert code == 0 and json.loads(out)["program"] == "-x"
    assert run(capsys, "classify", "--sig", "2,0", "-e1") == (0, "1\n  1: -e1\n", "")
    assert run(capsys, "mul", "--sig", "2,0", "-e1", "-e12")[:2] == (0, "e2\n")
    assert run(capsys, "project", "--sig", "2,0", "1", "-e1")[:2] == (0, "-e1\n")


def test_options_keep_their_dash_values_and_help(capsys):
    # a negative seed is still the value of --seed, not the program
    code, out, _ = run(capsys, "check", "--sig", "2,0", "--trials", "2", "--seed", "-5", "--json", "x")
    assert code == 0 and json.loads(out)["first_counterexample"] is None
    args = cli._build_parser().parse_args(["check", "--sig", "2,0", "--seed", "-5", "x"])
    assert (args.seed, args.program) == (-5, "x")
    with pytest.raises(SystemExit) as exc:
        main(["infer", "-h"])
    assert exc.value.code == 0 and "usage: cliffqt infer" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["infer", "-x", "--seed", "1"])
    assert exc.value.code == 2 and "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_settable_values_per_command():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    counts = {
        name: sum(1 for a in p._actions if a.dest != "help") for name, p in sub.choices.items()
    }
    assert counts == {
        "mul": 5, "classify": 4, "project": 5, "tables": 2, "infer": 3, "check": 7, "selftest": 2,
    }


def test_each_command_runs_its_own_handler():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert len(sub.choices) == 7
    for name, p in sub.choices.items():
        assert p.get_default("run") is getattr(cli, f"cmd_{name}")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args
    monkeypatch.setattr(
        cli._Parser, "parse_args", lambda self, argv: parsers.append(self) or parse_args(self, argv)
    )
    assert run(capsys, "tables", "comm")[0] == 0
    assert run(capsys, "infer", "x")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1] is cli._build_parser()


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--sig", "oops", "e1", "e1"])
    assert exc.value.code == 2


def _refuse(*_args, **_kwargs):
    raise AssertionError("the other output form was built")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--sig", "3,0", "--field", "complex", "1 + 2*e1 - i*e12 + e123"),
        ("project", "--sig", "3,0", "2", "1 + e12 - 3*e23"),
        ("mul", "--sig", "3,0", "1 + e1", "e12"),
    ],
    ids=["classify", "project", "mul"],
)
def test_only_the_printed_form_is_built(capsys, monkeypatch, argv):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "mv_to_dict", _refuse)
        code, text, err = run(capsys, *argv)
    assert code == 0 and text and not err
    with monkeypatch.context() as patch:
        patch.setattr(cli, "format_mv", _refuse)
        code, js, err = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(js) and not err


_LONG = "1" * 4301
_FOLDED = "let x:1; " + "9" * 4000 + "*" + "9" * 4000 + "*x"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--sig", "2,0", _LONG),
        ("classify", "--sig", "12,0", "e{" + _LONG + "}"),
        ("infer", _LONG + "*x"),
        ("mul", "--sig", "2,0", "1" * 3000, "1" * 3000),
        ("mul", "--sig", "2,0", "--json", "1" * 3000, "1" * 3000),
        ("infer", _FOLDED),
        ("check", "--sig", "3,0", "--trials", "1", _FOLDED),
    ],
    ids=["coefficient", "index", "dsl-factor", "product", "product-json", "dsl-fold-infer",
         "dsl-fold-check"],
)
def test_digit_limit_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and err.startswith("error:") and "4300 digits" in err


def test_values_past_the_float_range_are_exact(capsys):
    # 10^-200 * 10^-200 is kept, not lost to underflow; 10^200 * 10^200 does not overflow
    tiny = "0." + "0" * 199 + "1"
    code, out, _ = run(capsys, "mul", "--sig", "12,0", "--json", f"{tiny}*e{{1}}", f"{tiny}*e{{2}}")
    assert code == 0 and json.loads(out)["result"]["terms"] == [
        {"blade": [1, 2], "re": f"1/{10**400}", "im": "0"}
    ]
    big = "1" + "0" * 200 + "*e1"
    assert run(capsys, "mul", "--sig", "2,0", big, big) == (0, "1" + "0" * 400 + "\n", "")


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
@pytest.mark.parametrize("value", ["exact", "float"])
def test_backend_option_is_a_usage_error_on_every_command(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, *_VALID_ARGV[command], "--backend", value])
    assert exc.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


# Hostile inputs: each must end with an exit code, never a traceback, within
# _BUDGET_S of wall time.  Slow but bounded inputs (a dense bracket at
# Cl(12,0), --density 1 at n = 21, a 3000 x 3000-term product) are left out:
# each takes longer than the budget by design.
_BUDGET_S = 2.0
_BIG_SIG = ("--sig", "10000000,0")
_N4300, _N4301 = "9" * 4300, "9" * 4301
_HOSTILE = {
    "classify-huge-n": ("classify", *_BIG_SIG, "e{10000000}"),
    "mul-huge-n": ("mul", *_BIG_SIG, "e{10000000}", "e{1} + e{10000000}"),
    "check-huge-n-5e-324": ("check", *_BIG_SIG, "--trials", "1", "--density", "5e-324", "x"),
    "check-huge-n-1e-12": ("check", *_BIG_SIG, "--trials", "1", "--density", "1e-12", "x"),
    "check-1e-300": ("check", "--sig", "20,0", "--density", "1e-300", "x"),
    "density-0": ("check", "--sig", "3,0", "--density", "0", "x"),
    "density-nan": ("check", "--sig", "3,0", "--density", "nan", "x"),
    "density-inf": ("check", "--sig", "3,0", "--density", "inf", "x"),
    "trials-negative": ("check", "--sig", "3,0", "--trials", "-1", "x"),
    "number-4300": ("classify", "--sig", "3,0", _N4300),
    "number-4301": ("classify", "--sig", "3,0", _N4301),
    "folded-4300": ("check", "--sig", "3,0", "--trials", "1", f"let x:1; {_N4300}*{_N4300}*x"),
    "folded-4301": ("check", "--sig", "3,0", "--trials", "1", f"let x:1; {_N4301}*{_N4301}*x"),
    "nested-99": ("infer", "let x:1; " + "rev(" * 99 + "x" + ")" * 99),
    "nested-101": ("infer", "let x:1; " + "rev(" * 101 + "x" + ")" * 101),
    "sum-10^4": ("check", "--sig", "3,0", "--trials", "1", "let x:1; " + " + ".join(["x"] * 10**4)),
    "indices-10^4": ("classify", "--sig", "3,0", "e{" + ",".join(["1"] * 10**4) + "}"),
    "selftest-9": ("selftest", "--max-n", "9"),
}


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget


def _assert_exit_code_within_budget(argv):
    previous = signal.signal(signal.SIGALRM, _over_budget)
    stderr = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, _BUDGET_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    except _OverBudget:
        pytest.fail(f"ran past {_BUDGET_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    err = stderr.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, err[-500:]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("argv", list(_HOSTILE.values()), ids=list(_HOSTILE))
def test_hostile_input_ends_in_an_exit_code_within_budget(argv):
    _assert_exit_code_within_budget(argv)



# The same budget over argv drawn from the extreme values of each input: n up
# to 10^11 (past algebra.MAX_N), every density, numbers of MAX_DIGITS +- 1
# digits alone and folded, nesting of 99-101 levels, chains of 10^4 symbols
# (10^3 under check, whose exact coefficients grow with a product chain; a
# chain of a compound atom is ten times shorter), every type set and every
# command.  Draws stay well below MAX_PRODUCT_PAIRS' worst case: check computes
# dense values only at n <= 3, short programs at n = 6, and elsewhere a density
# that expects at most a few terms or is refused.
_HUGE_N = (10**7, MAX_N, MAX_N + 1, 99_999_999_999)
_TINY_DENSITIES = ("5e-324", "2e-308", "1e-300", "1e-12")
_DENSITIES = (None, *_TINY_DENSITIES, "0.5", "1")
_N = {d: "9" * d for d in (MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1)}


def _atoms(bits, prefix=""):
    return "".join(prefix + str(k) for k in range(4) if bits >> k & 1)


# all 256 complex type sets, the 16 real ones first, in the DSL's spelling
_TYPESETS = [
    f"{_atoms(re)}+i{_atoms(im)}" if re and im else _atoms(re) or (im and "i" + _atoms(im)) or "∅"
    for im in range(16)
    for re in range(16)
]
_ATOMS = {
    "real": ("x", "y", "rev(x)*y", "[x, y]", "{x, gri(y)}", "-2*x*rev(x)"),
    "complex": ("x", "y", "[x, y]", "{x, phc(y)}", "conj(x) - i*y", "i*gri(x)*x"),
}
_BODIES = st.sampled_from(
    [f"{n}*x" for n in _N.values()] + [f"{n}*{n}*x" for n in _N.values()]
    + [f"1/{n}*x" for n in _N.values()] + ["chain"] * 4
    + [f"{head * d}ATOM{')' * d}" for head in ("rev(", "(") for d in (99, 100, 101)]
)
_CHECK_SIZES = st.sampled_from(  # (n, density): computing draws are small, others refused
    [(n, d) for n in (1, 2, 3, 6) for d in _DENSITIES]
    + [(n, d) for n in (20, 40, 64) for d in _TINY_DENSITIES]
    + [(n, d) for n in _HUGE_N for d in _DENSITIES]
)
_MV_N = st.sampled_from((1, 2, 3, 9, 10, 65, *_HUGE_N))
_ONE_IN_8 = st.integers(0, 7)


@st.composite
def _programs(draw, field, max_chain):
    """A program of the field, its type sets and atoms mostly the field's own."""
    typesets = _TYPESETS[: 256 if field == "complex" or not draw(_ONE_IN_8) else 16]
    decls = "".join(f"let {name}:{draw(st.sampled_from(typesets))}; " for name in "xy")
    atom = draw(st.sampled_from(_ATOMS[field if draw(_ONE_IN_8) else "complex"]))
    body = draw(_BODIES)
    if body == "chain":
        length = draw(st.sampled_from((2, 100, max_chain if len(atom) == 1 else max_chain // 10)))
        body = draw(st.sampled_from(("*", " + ", " - "))).join([atom] * length)
    return decls + body.replace("ATOM", atom)


def _literals(n):
    return st.sampled_from((
        f"e{{{n}}}", f"2*e{{1,{n}}} - 1/3", f"e{{{n + 1}}}", f"e{{{n},1}}", "e12", "0", "-e",
        "i*e{1}", "e{1,,2}", f"{_N[MAX_DIGITS]}*e{{1}}", _N[MAX_DIGITS + 1],
        f"{_N[MAX_DIGITS]}*{_N[MAX_DIGITS]}",
    ))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(("mul", "classify", "project", "tables", "infer", "check",
                                    "selftest", "infer", "check", "check")))
    flags = ["--json"] if draw(st.booleans()) else []
    if command == "tables":
        return [command, draw(st.sampled_from(("comm", "acomm", "commutator", "anticommutator"))),
                *flags]
    if command == "selftest":
        return [command, "--max-n", draw(st.sampled_from(("0", "1", "3", "5", "9"))), *flags]
    field = draw(st.sampled_from(("real", "complex")))
    flags += ["--field", field]
    if command == "infer":
        return [command, *flags, draw(_programs(field, 10**4))]
    if command == "check":
        n, density = draw(_CHECK_SIZES)
        if density is not None:
            flags += ["--density", density]
        flags += ["--trials", draw(st.sampled_from(("1", "2", "1", "2", "0", "-1")))]
        flags += ["--seed", draw(st.sampled_from("0123"))]
        if n == 6:
            program = "let x:0123; let y:0123; " + draw(st.sampled_from(("[x, y]", "rev(x)*x")))
        else:
            program = draw(_programs(field, 1000))
    else:
        n = draw(_MV_N)
    p = draw(st.sampled_from((0, n // 2, n)))
    flags += ["--sig", f"{p},{n - p}"]
    if command == "check":
        return [command, *flags, program]
    operands = [draw(_literals(n)) for _ in range(2 if command == "mul" else 1)]
    if command == "project":
        operands.insert(0, draw(st.sampled_from(("0", "2", "3", "4"))))
    return [command, *flags, *operands]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@settings(max_examples=300)
@given(_argv())
def test_drawn_hostile_input_ends_in_an_exit_code_within_budget(argv):
    _assert_exit_code_within_budget(argv)

import importlib
import itertools
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cyclolog import (
    Context,
    PiElement,
    format_digits,
    parse_digits,
    plog,
    preimage_all,
    roots_of_unity,
)
from cyclolog import cli, series
from cyclolog.cli import build_parser, main
from cyclolog.errors import CapExceeded, CyclologError, DigitStringError

from faults import golden_fault, inject_log_fault


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestLogCommand:
    def test_identity(self, capsys):
        code, out, _ = run_cli(
            ["log", "--p", "5", "--prec", "5", "--unit", "1,0,0,0,0"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "0,0,0,0,0"

    def test_digit2_example(self, capsys):
        code, out, _ = run_cli(
            ["log", "--p", "5", "--prec", "5", "--unit", "1,1,0,0,0"], capsys
        )
        assert code == 0
        digits = out.splitlines()[0].split(",")
        assert digits[2] == "2"

    def test_non_principal_unit_exits_3(self, capsys):
        code, _, err = run_cli(
            ["log", "--p", "5", "--prec", "5", "--unit", "2,0,0,0,0"], capsys
        )
        assert code == 3
        assert "error" in err

    def test_malformed_digit_string_exits_2(self, capsys):
        for bad in ("1,9,0,0,0", "1,x,0,0,0", "1,2,3,4,5,6"):
            code, _, err = run_cli(
                ["log", "--p", "5", "--prec", "5", "--unit", bad], capsys
            )
            assert code == 2, bad
        code, _, err = run_cli(["log", "--p", "13", "--prec", "4", "--unit", "1,1_0"], capsys)
        assert code == 2
        assert "invalid digit" in err

    def test_missing_argument_exits_2(self, capsys):
        code, _, _ = run_cli(["log", "--p", "5", "--prec", "5"], capsys)
        assert code == 2


class TestExpCommand:
    def test_exp_of_zero(self, capsys):
        code, out, _ = run_cli(
            ["exp", "--p", "5", "--prec", "5", "--y", "0,0,0,0,0"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "1,0,0,0,0"

    def test_exp_inverts_log(self, capsys):
        ctx = Context(3, 6)
        y = "0,0,1,2,0,1"
        code, out, _ = run_cli(["exp", "--p", "3", "--prec", "6", "--y", y], capsys)
        assert code == 0
        unit = parse_digits(out.splitlines()[0], ctx)
        assert plog(unit) == parse_digits(y, ctx)

    def test_small_valuation_exits_3(self, capsys):
        code, _, _ = run_cli(
            ["exp", "--p", "5", "--prec", "5", "--y", "0,1,0,0,0"], capsys
        )
        assert code == 3


class TestPreimageCommand:
    def test_all_branches_of_zero_are_roots_of_unity(self, capsys):
        code, out, _ = run_cli(
            ["preimage", "--p", "3", "--prec", "6", "--y", "0,0,0,0,0,0", "--all"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        ctx = Context(3, 6)
        for line in lines:
            unit = parse_digits(line.split()[2], ctx)
            assert unit ** 3 == ctx.one()
            assert line.endswith("log=0,0,0,0,0,0")

    def test_single_branch_log_matches_target(self, capsys):
        code, out, _ = run_cli(
            ["preimage", "--p", "5", "--prec", "5", "--y", "0,0,1,0,0", "--branch", "1"],
            capsys,
        )
        assert code == 0
        ctx = Context(5, 5)
        unit = parse_digits(out.split()[2], ctx)
        assert plog(unit) == parse_digits("0,0,1,0,0", ctx)

    def test_branch_zero_exits_3(self, capsys):
        code, _, _ = run_cli(
            ["preimage", "--p", "5", "--prec", "5", "--y", "0,0,1,0,0", "--branch", "0"],
            capsys,
        )
        assert code == 3

    def test_target_outside_m_squared_exits_3(self, capsys):
        code, _, _ = run_cli(
            ["preimage", "--p", "5", "--prec", "5", "--y", "0,1,0,0,0", "--all"],
            capsys,
        )
        assert code == 3

    def test_roundtrip_reprints_unit(self, capsys):
        rng = random.Random(97)
        for p, prec in [(3, 6), (5, 5)]:
            ctx = Context(p, prec)
            digits = [1, rng.randrange(1, p)] + [
                rng.randrange(p) for _ in range(prec - 2)
            ]
            unit_str = ",".join(map(str, digits))
            code, out, _ = run_cli(
                ["log", "--p", str(p), "--prec", str(prec), "--unit", unit_str], capsys
            )
            assert code == 0
            y_str = out.splitlines()[0]
            code, out, _ = run_cli(
                [
                    "preimage",
                    "--p", str(p),
                    "--prec", str(prec),
                    "--y", y_str,
                    "--branch", str(digits[1]),
                ],
                capsys,
            )
            assert code == 0
            assert out.split()[2] == unit_str


class TestRootsCommand:
    def test_roots_p5(self, capsys):
        code, out, _ = run_cli(["roots", "--p", "5", "--prec", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            assert line.endswith("root^5=1,0,0,0,0")


class TestVerifyCommand:
    def test_exit_zero_when_all_pass(self, capsys):
        code, out, _ = run_cli(["verify", "--p", "3", "--prec", "6"], capsys)
        assert code == 0
        assert "all checks passed" in out

    def test_not_prime_exits_2(self, capsys):
        for p in ("4", "2", "1"):
            code, _, err = run_cli(["verify", "--p", p, "--prec", "6"], capsys)
            assert code == 2, p
            assert "prime" in err

    def test_json_output_schema(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--p", "5", "--prec", "5", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert set(data.keys()) == {"p", "precision", "checks"}
        for check in data["checks"]:
            assert set(check.keys()) == {"name", "passed", "counts", "witnesses"}

    def test_byte_deterministic_given_seed(self, capsys):
        argv = ["verify", "--p", "3", "--prec", "5", "--json", "--seed", "7"]
        code_a, out_a, _ = run_cli(argv, capsys)
        code_b, out_b, _ = run_cli(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_matches_golden(self, capsys):
        # the same bytes the CI console-script step compares with `cmp`
        argv = ["verify", "--p", "3", "--prec", "6", "--json", "--seed", "0"]
        code, out, _ = run_cli(argv, capsys)
        golden = Path(__file__).parent / "golden" / "verify_p3_n6_seed0.json"
        assert code == 0
        assert out == golden.read_text()

    def test_failing_human_output_matches_golden(self, capsys, monkeypatch):
        # the fault of tests/test_verify.py's failing golden
        inject_log_fault(monkeypatch, golden_fault)
        code, out, _ = run_cli(["verify", "--p", "5", "--prec", "5", "--seed", "3"], capsys)
        golden = Path(__file__).parent / "golden" / "verify_p5_n5_seed3_faulty_plog.json"
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == "p=5 precision=5 seed=3"
        assert lines[-1] == "some checks FAILED"
        rows, statuses, witness_lines = {}, {}, 0
        for line in lines[1:-1]:
            if line.startswith("    witness: "):
                rows[name].append(line[len("    witness: "):])
                witness_lines += 1
            else:
                name, statuses[name] = line.split()[:2]
                rows[name] = []
        checks = json.loads(golden.read_text())["checks"]
        assert witness_lines == 34
        assert list(rows) == [c["name"] for c in checks]
        assert rows == {c["name"]: c["witnesses"] for c in checks}
        assert statuses == {c["name"]: "PASS" if c["passed"] else "FAIL" for c in checks}


class TestGoldenOutput:
    # stdout of the digit-induction solver, which the closed form must reproduce
    Y3 = "0,0,2,1,0,2,2,1,0,0,1,2,1,1,0,2,0,1,2,2,0,1,1,0,2,1,0,0,2,1,2,1"
    Y13 = "0,0,7,12,3,0,9,1,11,4,6,2"
    Y5 = "0,0,4,1,3,0,2,2,4,1,0,3,1,4,2,0"

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["preimage", "--p", "3", "--prec", "32", "--y", Y3, "--all"], "preimage_all_p3_n32.txt"),
            (["preimage", "--p", "13", "--prec", "12", "--y", Y13, "--all"], "preimage_all_p13_n12.txt"),
            (["preimage", "--p", "5", "--prec", "16", "--y", Y5, "--branch", "2"], "preimage_branch2_p5_n16.txt"),
            (["roots", "--p", "11", "--prec", "10"], "roots_p11_n10.txt"),
            (["table", "--p", "3", "--prec", "6"], "table_p3_n6.txt"),
            (["table", "--p", "5", "--prec", "5"], "table_p5_n5.txt"),
        ],
    )
    def test_stdout_matches_golden(self, argv, name, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == (Path(__file__).parent / "golden" / name).read_text()

    # 256-digit series where the power carries and the raw fallback of the
    # packed sum both fire; the digit strings are in the .in files
    @pytest.mark.parametrize(
        "argv,name",
        [
            (["log", "--p", "3", "--prec", "256", "--unit"], "log_p3_n256"),
            (["exp", "--p", "7", "--prec", "256", "--y"], "exp_p7_n256"),
        ],
    )
    def test_long_series_matches_golden(self, argv, name, capsys):
        golden = Path(__file__).parent / "golden"
        code, out, _ = run_cli(argv + [(golden / f"{name}.in").read_text()], capsys)
        assert code == 0
        assert out == (golden / f"{name}.txt").read_text()


def per_target_table(p, n):
    """The table as rendered with one preimage_all per target, the reference
    for the head rows' cosets."""
    ctx = Context(p, n)
    lines = []
    for tail in itertools.product(range(p), repeat=n - 2):
        y = PiElement((0, 0) + tail, ctx)
        lines.append(f"{format_digits(y)}: {' '.join(format_digits(u) for u in preimage_all(y))}\n")
    lines.append(f"{(p - 1) * p ** (n - 2)} units / {p ** (n - 2)} targets\n")
    return "".join(lines)


def exp_runs(monkeypatch):
    """The x of every exp series run, in order."""
    runs, real = [], series._series

    def record(x, terms_of, ctx):
        if terms_of is series._exp_terms:
            runs.append(x)
        return real(x, terms_of, ctx)

    monkeypatch.setattr(series, "_series", record)
    return runs


class TestTableCommand:
    @pytest.mark.parametrize("p,n", [(3, 6), (3, 8), (5, 5), (5, 6), (7, 5), (13, 4), (11, 5)])
    def test_matches_per_target_preimages(self, p, n, capsys):
        code, out, _ = run_cli(["table", "--p", str(p), "--prec", str(n)], capsys)
        assert code == 0
        assert out == per_target_table(p, n)

    def test_solves_one_preimage_in_all(self, capsys, monkeypatch):
        # the branch-1 root inside roots_of_unity; every fiber is a coset of the roots
        module = importlib.import_module("cyclolog.preimage")
        calls, real = [], module.preimage

        def counting(y, branch):
            calls.append((y.digits, branch))
            return real(y, branch)

        def refused(y):
            raise AssertionError("table called preimage_all")

        monkeypatch.setattr(module, "preimage", counting)
        monkeypatch.setattr(module, "preimage_all", refused)
        monkeypatch.setattr(cli, "preimage", counting)
        monkeypatch.setattr(cli, "preimage_all", refused)
        code, out, _ = run_cli(["table", "--p", "5", "--prec", "5"], capsys)
        assert code == 0
        assert out == (Path(__file__).parent / "golden" / "table_p5_n5.txt").read_text()
        assert calls == [((0,) * 5, 1)]

    @pytest.mark.parametrize("p,n,runs", [(5, 6, 6), (3, 8, 10), (7, 5, 8), (13, 4, 2)])
    def test_one_exp_run_per_head_and_none_per_target(self, p, n, runs, capsys, monkeypatch):
        # p^(h-2) + 1: the one pexp inside roots_of_unity, then one run at each
        # head x0 in increasing digit order; the p^(N-h) targets of a head
        # take ring products only
        h = (n + 1) // 2
        runs_at = exp_runs(monkeypatch)
        code, out, _ = run_cli(["table", "--p", str(p), "--prec", str(n)], capsys)
        assert code == 0
        assert out.endswith(f" units / {p ** (n - 2)} targets\n")
        assert len(runs_at) == runs == p ** (h - 2) + 1
        heads = itertools.product(range(p), repeat=h - 2)
        assert runs_at[1:] == [(0, 0) + head + (0,) * (n - h) for head in heads]

    @pytest.mark.parametrize("n", [4, 6])
    def test_first_row_needs_two_exp_runs_and_no_buffer(self, n, monkeypatch):
        # at (1009,4) the one head has p^2 = 1018081 targets, and at (1009,6)
        # there are p = 1009 heads; the first row waits for none of the others
        class FirstWrite(Exception):
            pass

        class Closed:
            def write(self, text):
                raise FirstWrite(text)

        runs_at = exp_runs(monkeypatch)
        monkeypatch.setattr(sys, "stdout", Closed())
        argv = ["table", "--p", "1009", "--prec", str(n), "--cap", str(10**16)]
        tracemalloc.start()
        try:
            with pytest.raises(FirstWrite) as info:
                main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(runs_at) == 2  # the roots' run and the first head's
        assert peak < 4 * 1024 * 1024
        roots = " ".join(format_digits(r) for r in roots_of_unity(Context(1009, n)))
        assert info.value.args == (f"{','.join('0' * n)}: {roots}",)

    def test_p3_prec4(self, capsys):
        code, out, _ = run_cli(["table", "--p", "3", "--prec", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        # p^(prec-2) targets, each with p-1 preimages, then the totals line
        assert lines[-1] == "18 units / 9 targets"
        target_lines = lines[:-1]
        assert len(target_lines) == 9
        ctx = Context(3, 4)
        for line in target_lines:
            y_str, fiber = line.split(": ")
            y = parse_digits(y_str, ctx)
            units = [parse_digits(tok, ctx) for tok in fiber.split()]
            assert len(units) == 2
            for u in units:
                assert plog(u) == y

    def test_p5_prec4_totals(self, capsys):
        code, out, _ = run_cli(["table", "--p", "5", "--prec", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "100 units / 25 targets"
        assert len(lines) == 26

    def test_cap_exceeded_exits_4(self, capsys):
        code, _, err = run_cli(
            ["table", "--p", "3", "--prec", "12", "--cap", "100"], capsys
        )
        assert code == 4
        assert "cap" in err

    def test_astronomical_count_exits_4(self, capsys, monkeypatch):
        # (p-1)*p^(N-2) has over 4300 digits, too many for str() of the exact count;
        # the cap is charged before the roots or the head rows run
        def refused(*args):
            raise AssertionError("table ran before charging the cap")

        monkeypatch.setattr(cli, "roots_of_unity", refused)
        monkeypatch.setattr(cli, "pexp", refused)
        code, out, err = run_cli(["table", "--p", "1048573", "--prec", "720"], capsys)
        assert code == 4 and not out
        assert err.startswith("error: enumeration of ") and "exceeds cap" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclolog", "log", "--p", "5", "--prec", "5",
             "--unit", "1,1,0,0,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "0,0,2,2,1"

    def test_cli_module_invocation_matches_package(self):
        # without the __main__ guard in cli.py this would exit 0 and print nothing
        argv = ["log", "--p", "5", "--prec", "5", "--unit", "1,1"]
        procs = [
            subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True)
            for module in ("cyclolog", "cyclolog.cli")
        ]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert procs[1].stdout == procs[0].stdout
        assert procs[0].stdout.startswith("0,0,2,2,1\n")

    @pytest.mark.parametrize("module", ["cyclolog", "cyclolog.cli"])
    def test_closed_stdout_exits_141_quietly(self, module):
        # the table's ~400 KB overflow the pipe buffer, so a write after the close fails
        proc = subprocess.Popen(
            [sys.executable, "-m", module, "table", "--p", "3", "--prec", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline().startswith("0,0,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == ""

    def test_only_verify_loads_the_verifier(self):
        # measured against the modules loaded once argparse is, whatever
        # site preloads on this Python
        script = (
            "import argparse, contextlib, io, sys\n"
            "base = set(sys.modules)\n"
            "import cyclolog.cli\n"
            "print(*sorted(set(sys.modules) - base))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cyclolog.cli.main(['log', '--p', '5', '--prec', '8', '--unit', '1,1'])]\n"
            "print(*sorted(set(sys.modules) - base))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes.append(cyclolog.cli.main(['verify', '--p', '3', '--prec', '5']))\n"
            "print(*sorted(set(sys.modules) - base))\n"
            "print(*codes)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        imported, logged, verified, codes = (set(line.split()) for line in proc.stdout.splitlines())
        assert codes == {"0"}
        heavy = {"cyclolog.verify", "json", "dataclasses", "inspect"}
        assert "cyclolog.cli" in imported and not imported & heavy
        assert not logged & heavy
        assert "cyclolog.verify" in verified

    def test_bad_precision_exits_2(self, capsys):
        for argv in (
            ["roots", "--p", "5", "--prec", "3"],
            ["verify", "--p", "3", "--prec", "3"],
            ["log", "--p", "5", "--prec", "-1", "--unit", "1"],
        ):
            code, _, _ = run_cli(argv, capsys)
            assert code == 2, argv


_EXIT_CODES = {DigitStringError: 2, CapExceeded: 4}


class TestErrorExitCodes:
    @pytest.mark.parametrize(
        "error", CyclologError.__subclasses__(), ids=lambda cls: cls.__name__
    )
    def test_each_domain_error_maps_to_its_exit_code(self, error, monkeypatch, capsys):
        def raising(args, ctx):
            raise error(1, 0) if error is CapExceeded else error("boom")

        monkeypatch.setattr(cli, "_cmd_log", raising)
        code, _, err = run_cli(["log", "--p", "5", "--prec", "5", "--unit", "1"], capsys)
        assert code == _EXIT_CODES.get(error, 3)
        assert err.startswith("error: ")

    def test_other_errors_escape(self, monkeypatch):
        def raising(args, ctx):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "_cmd_log", raising)
        with pytest.raises(RuntimeError, match="bug"):
            main(["log", "--p", "5", "--prec", "5", "--unit", "1"])


class TestParserSurface:
    # every dest, default and type of each subcommand; `run` is the bound handler
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["log", "--p", "5", "--prec", "5", "--unit", "1,1"],
             {"command": "log", "p": 5, "prec": 5, "unit": "1,1"}),
            (["exp", "--p", "7", "--prec", "4", "--y", "0,0,1"],
             {"command": "exp", "p": 7, "prec": 4, "y": "0,0,1"}),
            (["preimage", "--p", "5", "--prec", "6", "--y", "0,0,1", "--all"],
             {"command": "preimage", "p": 5, "prec": 6, "y": "0,0,1", "branch": None, "all": True}),
            (["preimage", "--p", "5", "--prec", "6", "--y", "0,0,1", "--branch", "2"],
             {"command": "preimage", "p": 5, "prec": 6, "y": "0,0,1", "branch": 2, "all": False}),
            (["roots", "--p", "11", "--prec", "10"],
             {"command": "roots", "p": 11, "prec": 10}),
            (["verify", "--p", "3", "--prec", "6"],
             {"command": "verify", "p": 3, "prec": 6, "json": False, "seed": 0, "cap": 10_000_000}),
            (["table", "--p", "3", "--prec", "6"],
             {"command": "table", "p": 3, "prec": 6, "cap": 10_000_000}),
        ],
        ids=["log", "exp", "preimage-all", "preimage-branch", "roots", "verify", "table"],
    )
    def test_parsed_namespace(self, argv, expected):
        parsed = vars(build_parser().parse_args(argv))
        parsed.pop("run", None)
        assert parsed == expected

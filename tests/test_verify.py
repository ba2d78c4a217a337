import copy
import dataclasses
import itertools
import json
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest

from cyclolog import (
    CapExceeded,
    CheckResult,
    Context,
    PiElement,
    VerificationReport,
    check_annulus_image,
    check_full_image_and_index,
    check_residue_field,
    check_square_iso,
    pexp,
    plog,
    preimage_all,
    run_all,
)
from cyclolog import cli, series, verify

import oracle_tables
from faults import golden_fault, head_top, inject_log_fault, tail, top_digit_fault
from oracle_series import term_by_term_series
from oracle_tables import image_mismatch

GOLDEN = Path(__file__).parent / "golden"


class TestAnnulusImage:
    @pytest.mark.parametrize(
        "p,n,units,images,fiber",
        [(3, 5, 54, 27, 2), (5, 4, 100, 25, 4), (7, 4, 294, 49, 6), (11, 5, 13310, 1331, 10)],
    )
    def test_counts(self, p, n, units, images, fiber):
        result = check_annulus_image(Context(p, n))
        assert result.passed
        assert result.counts["units"] == units
        assert result.counts["images"] == images == result.counts["expected_images"]
        assert result.counts["min_fiber"] == result.counts["max_fiber"] == fiber
        assert result.counts["outside_m_squared"] == 0

    def test_fiber_count_identity(self):
        # enumerated units / fiber size must equal the number of images
        result = check_annulus_image(Context(5, 4))
        c = result.counts
        assert c["units"] // (5 - 1) == c["images"]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            check_annulus_image(Context(3, 8), cap=100)

    def test_cap_on_an_astronomical_count(self):
        # (p-1)*p^(N-2) here has over 4300 digits; the count stops growing past
        # the cap, so the exception is raised at once and prints
        with pytest.raises(CapExceeded) as info:
            check_annulus_image(Context(1048573, 720), cap=1)
        assert info.value.required > 10**18
        assert str(info.value).endswith("exceeds cap 1")


class TestSquareIso:
    @pytest.mark.parametrize("p,n,count", [(3, 5, 27), (5, 4, 25), (7, 4, 49), (11, 5, 1331)])
    def test_bijection_counts(self, p, n, count):
        result = check_square_iso(Context(p, n))
        assert result.passed
        assert result.counts["units"] == count
        assert result.counts["images"] == count
        assert result.counts["roundtrip_failures"] == 0

    def test_cap(self):
        with pytest.raises(CapExceeded):
            check_square_iso(Context(5, 6), cap=10)

    def test_a_log_outside_m_squared_is_counted_not_raised(self, monkeypatch):
        # plog off by pi on the square units whose digit h - 1 = 2 is 1, a
        # digit of their head: a third of the logs leave m_K^2, and pexp must
        # never see them
        def shifted(digits, ctx):
            return ctx.uniformizer() if digits[1] == 0 and digits[2] == 1 else None

        inject_log_fault(monkeypatch, shifted)
        result = check_square_iso(Context(3, 5))
        assert not result.passed
        assert result.counts["outside_m_squared"] == 9
        assert result.counts["roundtrip_failures"] == 0
        moved = sorted((1, 0, 1, a3, a4) for a3 in range(3) for a4 in range(3))
        assert result.witnesses == [",".join(map(str, u)) for u in moved[:5]]


class TestFullImageAndIndex:
    @pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 4)])
    def test_index_is_p(self, p, n):
        result = check_full_image_and_index(Context(p, n))
        assert result.passed
        assert result.counts["index"] == p
        assert result.counts["union_images"] == p ** (n - 2)
        assert result.counts["maximal_ideal_size"] == p ** (n - 1)
        assert result.counts["closure_failures"] == 0


class TestResidueField:
    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_cosets(self, p):
        result = check_residue_field(Context(p, 4))
        assert result.passed
        assert result.counts["cosets"] == p

    def test_counts_the_systems_log_classes(self, monkeypatch):
        ctx = Context(5, 4)
        inject_log_fault(monkeypatch, lambda digits, ctx: ctx.uniformizer())
        result = check_residue_field(ctx)
        assert not result.passed
        assert result.witnesses == ["0,1"]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            check_residue_field(Context(5, 4), cap=4)


class TestRunAll:
    def test_all_pass_p3(self):
        report = run_all(Context(3, 6), seed=0)
        assert report.all_passed
        assert report.p == 3 and report.precision == 6

    def test_all_pass_p5(self):
        report = run_all(Context(5, 5), seed=0)
        assert report.all_passed

    def test_check_names_unique(self):
        report = run_all(Context(3, 6), seed=0)
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))

    def test_deterministic_for_fixed_seed(self):
        a = run_all(Context(3, 6), seed=42).to_json()
        b = run_all(Context(3, 6), seed=42).to_json()
        assert a == b

    def test_cap_skip_marker_instead_of_crash(self):
        report = run_all(Context(3, 8), cap=100)
        skipped = [c for c in report.checks if c.counts.get("skipped")]
        assert skipped, "expected cap-limited checks to be marked skipped"
        for c in skipped:
            assert not c.passed
            assert c.counts["cap"] == 100
            assert c.witnesses
        # the cheap checks still ran
        assert any(c.passed for c in report.checks)
        assert not report.all_passed

    def test_cap_bounds_every_check_that_grows_with_p(self):
        p, n = 211, 4
        required = {
            "annulus_image": (p - 1) * p ** (n - 2),
            "square_isomorphism": p ** (n - 2),
            "full_image_and_index": p ** (n - 1),
            "residue_field": p,
            "exp_log_roundtrip": n * n,
            "log_homomorphism": n * n,
            "digit2_formula": p * p,
            "lift_independence": (2 * n) ** 2,
            "preimage_soundness": 20 * (p - 1),
            "preimage_matches_fiber": (p - 1) * p ** (n - 2),
            "roots_of_unity": p,
            "qr_branch_count": p * p,
        }
        report = run_all(Context(p, n), seed=0, cap=1)
        ran = [c.name for c in report.checks if not c.counts.get("skipped")]
        assert ran == []
        skipped = {c.name: c.counts["required"] for c in report.checks if c.counts.get("skipped")}
        assert skipped == required
        assert skipped["lift_independence"] == 64 and skipped["preimage_soundness"] == 4200
        assert skipped["exp_log_roundtrip"] == skipped["log_homomorphism"] == 16

    def test_every_check_charges_before_it_does_any_work(self, monkeypatch):
        def no_work(*args):
            pytest.fail("a check worked before the cap was charged")

        for name in (
            "plog", "pexp", "preimage_all", "roots_of_unity", "qr_pair_enumeration", "_head_table",
            "log_digit_formula", "digit2_for_branch", "_random_element", "Context",
        ):
            monkeypatch.setattr(verify, name, no_work)
        p, n = 211, 4
        report = run_all(Context(p, n), seed=0, cap=1)
        assert all(c.counts["skipped"] == 1 and c.counts["cap"] == 1 for c in report.checks)
        assert [c.counts["required"] for c in report.checks] == [
            (p - 1) * p ** (n - 2), p ** (n - 2), p ** (n - 1), p, n * n, n * n,
            p * p, (2 * n) ** 2, 20 * (p - 1), (p - 1) * p ** (n - 2), p, p * p,
        ]

    def test_cap_bounds_the_sampled_checks_that_grow_with_n(self):
        # 80 plogs at N = 720 take minutes, so these two checks charge N^2
        checks = {c.name: c for c in run_all(Context(3, 16), seed=0, cap=100).checks}
        for name in ("exp_log_roundtrip", "log_homomorphism"):
            assert checks[name].counts == {"skipped": 1, "required": 256, "cap": 100}

    def test_skip_marker_of_an_astronomical_count_serializes(self):
        report = run_all(Context(1048573, 720), seed=0, cap=1)
        checks = {c["name"]: c for c in json.loads(report.to_json())["checks"]}
        annulus = checks["annulus_image"]
        assert annulus["counts"]["skipped"] == 1 and annulus["counts"]["required"] > 10**18
        assert annulus["witnesses"][0].endswith("exceeds cap 1")
        assert checks["full_image_and_index"]["counts"]["skipped"] == 1

    def test_enumeration_count_is_exact_up_to_the_bound(self):
        for p, lead, exponent in [(3, 2, 6), (211, 210, 2), (1048573, 1, 3), (3, 1, 37)]:
            assert verify._enumeration_count(lead, p, exponent, 1) == lead * p**exponent
        assert verify._enumeration_count(2, 3, 80, 10**40) == 2 * 3**80
        assert 10**18 < verify._enumeration_count(2, 3, 9100, 1) < 3 * 10**18

    def test_digit2_formula_samples_pairs_past_4096(self):
        rng = random.Random("0:digit2_formula")
        result = verify._checked("digit2_formula", Context(1009, 4), verify.DEFAULT_CAP, None, rng)
        assert result.passed and result.counts == {"samples": 4096, "failures": 0}

    def test_digit2_formula_sampling_catches_a_wrong_digit(self, monkeypatch):
        real = verify.log_digit_formula

        def wrong_for_a1_5(a1, a2, ctx):
            return (real(a1, a2, ctx) + (a1 == 5)) % ctx.p

        monkeypatch.setattr(verify, "log_digit_formula", wrong_for_a1_5)
        rng = random.Random("0:digit2_formula")
        result = verify._checked("digit2_formula", Context(1009, 4), verify.DEFAULT_CAP, None, rng)
        assert not result.passed and result.counts["samples"] == 4096
        assert 0 < result.counts["failures"] < 4096

    def test_lift_independence_pads_to_twice_the_precision(self):
        # a pad of 2N keeps the check's cost (2N)^2 independent of p
        checks = {c.name: c for c in run_all(Context(1009, 4), seed=0, cap=100).checks}
        lift = checks["lift_independence"]
        assert lift.passed and lift.counts == {"samples": 20, "failures": 0}

    def test_exp_log_roundtrip_counts_a_log_outside_m_squared(self, monkeypatch):
        real = verify.plog
        monkeypatch.setattr(
            verify, "plog", lambda u: real(u) + u.ctx.uniformizer() if u.digits[1] == 0 else real(u)
        )
        rng = random.Random("0:exp_log_roundtrip")
        result = verify._checked("exp_log_roundtrip", Context(5, 5), verify.DEFAULT_CAP, None, rng)
        assert not result.passed
        assert result.counts == {"samples": 40, "failures": 40}
        assert len(result.witnesses) == 5

    @pytest.mark.parametrize("p,n", [(3, 6), (7, 5)])
    def test_fermat_fault_is_reported(self, p, n, monkeypatch, capsys):
        # plog without its n = p term loses the cancellation a1 - a1^p = 0 mod p
        # in digit 1; the checks that reach pexp through preimage record the
        # domain error instead of raising it
        log_terms = series._log_terms

        def dropping(ctx, v):
            return [t for t in log_terms(ctx, v) if t[0] != p]

        # every plan of the log reads its terms here, the head rows' too
        monkeypatch.setattr(series, "_log_terms", dropping)
        checks = {c.name: c for c in run_all(Context(p, n), seed=0).checks}
        annulus = checks["annulus_image"]
        assert not annulus.passed
        assert annulus.counts["outside_m_squared"] == annulus.counts["units"]
        for name in ("preimage_soundness", "preimage_matches_fiber", "roots_of_unity"):
            assert not checks[name].passed
            assert checks[name].counts == {"error": 1}
            assert len(checks[name].witnesses) == 1
            assert checks[name].witnesses[0].startswith("error: ValuationTooSmall")
        assert cli.main(["verify", "--p", str(p), "--prec", str(n)]) == 1
        assert capsys.readouterr().out.endswith("some checks FAILED\n")

    @pytest.mark.parametrize("p,n", [(5, 5), (3, 8)])
    def test_top_digit_fault_fails_the_checks_that_run_plog(self, p, n, monkeypatch):
        # no head point has top digit 1, so the exhaustive checks pass; the
        # checks that run plog on whole units see the fault
        inject_log_fault(monkeypatch, top_digit_fault)
        failed = {c.name for c in run_all(Context(p, n), seed=3).checks if not c.passed}
        assert failed == {
            "exp_log_roundtrip",
            "log_homomorphism",
            "lift_independence",
            "preimage_soundness",
            "preimage_matches_fiber",
        }

    def test_p2_rejected_at_context(self):
        with pytest.raises(ValueError):
            Context(2, 6)

    def test_json_schema(self):
        report = run_all(Context(3, 6), seed=0)
        data = json.loads(report.to_json())
        assert set(data.keys()) == {"p", "precision", "checks"}
        assert isinstance(data["p"], int)
        assert isinstance(data["precision"], int)
        assert isinstance(data["checks"], list)
        for check in data["checks"]:
            assert set(check.keys()) == {"name", "passed", "counts", "witnesses"}
            assert isinstance(check["name"], str)
            assert isinstance(check["passed"], bool)
            assert isinstance(check["counts"], dict)
            assert all(isinstance(v, int) for v in check["counts"].values())
            assert isinstance(check["witnesses"], list)
            assert all(isinstance(w, str) for w in check["witnesses"])


class TestReportTypes:
    # run_all's callers may keep many reports, so they carry no __dict__
    def test_reports_are_slotted_and_copy_exactly(self):
        report = run_all(Context(3, 6), seed=0)
        for obj in (report, report.checks[0]):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                obj.extra = 1
            protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
            copies = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in protocols]
            for copied in copies + [copy.copy(obj), copy.deepcopy(obj)]:
                assert type(copied) is type(obj)
                assert copied == obj and repr(copied) == repr(obj)
                assert copied.to_dict() == obj.to_dict()
        assert copy.deepcopy(report).to_json() == report.to_json()
        assert [f.name for f in dataclasses.fields(CheckResult)] == [
            "name", "passed", "counts", "witnesses"
        ]
        assert [f.name for f in dataclasses.fields(VerificationReport)] == [
            "p", "precision", "checks"
        ]


class TestGoldenReports:
    # captured with `cyclolog verify --json` before the single-pass verifier;
    # the default JSON report must stay byte-identical for a fixed seed
    @pytest.mark.parametrize(
        "p,n,cap,name",
        [
            (3, 6, None, "verify_p3_n6_seed0.json"),
            (5, 5, None, "verify_p5_n5_seed0.json"),
            (3, 6, 200, "verify_p3_n6_seed0_cap200.json"),
            # the benchmark's rows, captured before the maskless plan steps
            (3, 8, None, "verify_p3_n8_seed0.json"),
            (5, 6, None, "verify_p5_n6_seed0.json"),
            (7, 5, None, "verify_p7_n5_seed0.json"),
        ],
    )
    def test_report_matches_golden(self, p, n, cap, name):
        kwargs = {} if cap is None else {"cap": cap}
        report = run_all(Context(p, n), seed=0, **kwargs)
        assert report.to_json() + "\n" == (GOLDEN / name).read_text()

    def test_failing_report_matches_golden(self, monkeypatch):
        # captured with one random stream per sampled check and a 2N lift pad,
        # with faults.golden_fault, which collapses the slope of every head
        # whose top digit is 1; seven checks fail
        inject_log_fault(monkeypatch, golden_fault)
        report = run_all(Context(5, 5), seed=3)
        assert sum(not c.passed for c in report.checks) == 7
        golden = (GOLDEN / "verify_p5_n5_seed3_faulty_plog.json").read_text()
        assert report.to_json() + "\n" == golden


def count_formatting(monkeypatch):
    """The witness strings verify formats, in call order."""
    formatted = []
    real = verify.format_digits

    def counting(a):
        formatted.append(real(a))
        return formatted[-1]

    monkeypatch.setattr(verify, "format_digits", counting)
    return formatted


class TestLazyWitnesses:
    # a trial shows the elements behind its witnesses, and only a failing
    # trial has them formatted
    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_a_passing_run_formats_nothing(self, p, n, monkeypatch):
        formatted = count_formatting(monkeypatch)
        report = run_all(Context(p, n), seed=0)
        assert report.all_passed
        assert formatted == []

    def test_a_failing_run_formats_only_the_kept_witnesses(self, monkeypatch):
        # the faulty golden's log_homomorphism holds 6 witnesses: a failing
        # trial shows two, and extending stops once 5 are held
        inject_log_fault(monkeypatch, golden_fault)
        formatted = count_formatting(monkeypatch)
        report = run_all(Context(5, 5), seed=3)
        assert report.to_json() + "\n" == (GOLDEN / "verify_p5_n5_seed3_faulty_plog.json").read_text()
        sampled = {
            c.name: c.witnesses for c in report.checks if not c.passed and "failures" in c.counts
        }
        assert len(sampled["log_homomorphism"]) == 6
        assert formatted == [w for ws in sampled.values() for w in ws]


class TestSharedTables:
    @pytest.mark.parametrize("p,n", [(3, 6), (5, 5), (11, 4)])
    def test_run_all_matches_standalone_checks(self, p, n):
        ctx = Context(p, n)
        in_run = {c.name: c.to_dict() for c in run_all(ctx, seed=0).checks}
        for check in (
            check_annulus_image, check_square_iso, check_full_image_and_index, check_residue_field
        ):
            alone = check(ctx).to_dict()
            assert in_run[alone["name"]] == alone

    def test_each_table_is_built_once_per_run(self, monkeypatch):
        built = []
        head_table = verify._head_table

        def counting(ctx, leads):
            built.append(tuple(leads))
            return head_table(ctx, leads)

        monkeypatch.setattr(verify, "_head_table", counting)
        run_all(Context(5, 4), seed=0)
        assert sorted(built) == [(0,), (1, 2, 3, 4)]
        built.clear()
        tables = verify._HeadTables(Context(5, 4))
        for check in (check_annulus_image, check_square_iso, check_full_image_and_index):
            assert check(tables.ctx, tables=tables).passed
        assert sorted(built) == [(0,), (1, 2, 3, 4)]

    def test_run_all_hands_each_table_run_one_set_of_head_rows(self, monkeypatch):
        calls = {}
        for name, (charge, run) in verify._CHECKS.items():

            def recording(ctx, rng, tables, run=run, name=name):
                calls.setdefault(name, []).append(tables)
                return run(ctx, rng, tables)

            monkeypatch.setitem(verify._CHECKS, name, (charge, recording))
        assert run_all(Context(3, 6), seed=0).all_passed
        assert list(calls) == list(verify._CHECKS)
        exhaustive = ("annulus_image", "square_isomorphism", "full_image_and_index")
        shared = [tables for name in exhaustive for tables in calls[name]]
        shared += calls["preimage_matches_fiber"]
        assert len(shared) == 4
        assert isinstance(shared[0], verify._HeadTables)
        assert all(tables is shared[0] for tables in shared)

    @pytest.mark.parametrize(
        "check", [check_annulus_image, check_square_iso, check_full_image_and_index]
    )
    def test_cap_is_charged_before_a_table_is_built(self, check, monkeypatch):
        def no_table(ctx, leads):
            pytest.fail("a table was built before the cap was charged")

        monkeypatch.setattr(verify, "_head_table", no_table)
        with pytest.raises(CapExceeded) as info:
            check(Context(1048573, 720), cap=1)
        assert info.value.required > 10**18


class TestWarmContext:
    # the series' plans stay on the Context between calls; a warm Context
    # must give the bytes a fresh one gives
    ROWS = [(3, 8), (5, 6), (7, 5)]
    SEEDS = [0, 7, 123]

    @staticmethod
    def warm_up(ctx, rng):
        """plog, pexp and preimage_all at every valuation the series take."""
        for v in range(1, ctx.precision):
            y = verify._random_element(rng, ctx, (0,) * v + (rng.randrange(1, ctx.p),))
            plog(PiElement((1,) + y.digits[1:], ctx))
            if v >= 2:
                pexp(y)
                preimage_all(y)
        plog(ctx.one()), pexp(ctx.zero())

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("p,n", ROWS)
    def test_warm_context_gives_the_fresh_report(self, p, n, seed):
        warm = Context(p, n)
        for other in self.SEEDS:
            if other != seed:
                run_all(warm, seed=other)
        self.warm_up(warm, random.Random(seed))
        assert run_all(warm, seed=seed).to_json() == run_all(Context(p, n), seed=seed).to_json()

    @pytest.mark.parametrize("p,n", ROWS)
    def test_a_warm_run_plans_only_for_new_contexts(self, p, n, monkeypatch):
        # 2N - 1 plans: v = 1..N for the log, 2..N for exp; after them a run
        # plans only for lift_independence's Context(p, 2N)
        ctx = Context(p, n)
        self.warm_up(ctx, random.Random(0))
        assert len(ctx._plans) == 2 * n - 1
        precisions = []
        schedule = series._schedule

        def counting(terms, prime, precision):
            precisions.append(precision)
            return schedule(terms, prime, precision)

        monkeypatch.setattr(series, "_schedule", counting)
        assert run_all(ctx, seed=0).all_passed
        assert precisions and set(precisions) == {2 * n}


def unit_by_unit_table(ctx, leads):
    """The log table with one plog per unit, as the tables were built before
    each valuation's series was scheduled once.  plog runs the kernel the
    tables run, so callers patch term_by_term_series in as series._series."""
    table = {}
    for a1 in leads:
        for tail in itertools.product(range(ctx.p), repeat=ctx.precision - 2):
            u = (1, a1) + tail
            table.setdefault(plog(PiElement._make(u, ctx)).digits, []).append(u)
    return table


PLANNED_ROWS = [(3, 6), (3, 8), (3, 9), (3, 10), (5, 6), (5, 7), (7, 5), (11, 4), (13, 5)]


def oracle_log(u):
    return PiElement(term_by_term_series((0,) + u.digits[1:], series._log_terms, u.ctx), u.ctx)


def oracle_exp(y):
    return PiElement(term_by_term_series(y.digits, series._exp_terms, y.ctx), y.ctx)


class TestAffineTail:
    # the identities the head rows rest on: for v(t) >= h = ceil(N/2),
    # log(u + t) = log u + t/u and exp(y + t) = exp(y)*(1 + t) mod pi^N
    ROWS = [(3, 4), (7, 4), (3, 7), (5, 7), (3, 8), (7, 6), (3, 10)]

    @pytest.mark.parametrize("p,n", ROWS)
    def test_log_and_exp_are_affine_past_half_the_precision(self, p, n):
        ctx, rng = Context(p, n), random.Random(f"{p}:{n}")
        h = (n + 1) // 2
        for _ in range(30):
            u = verify._random_element(rng, ctx, (1,))
            y = verify._random_element(rng, ctx, (0, 0))
            t = verify._random_element(rng, ctx, (0,) * h)
            assert oracle_log(u + t) == oracle_log(u) + t * u.invert_unit()
            assert oracle_exp(y + t) == oracle_exp(y) * (1 + t)

    @pytest.mark.parametrize("p,n", ROWS)
    def test_one_digit_lower_the_log_is_not_affine(self, p, n):
        # so a split one digit below ceil(N/2) would change the counts
        ctx, rng = Context(p, n), random.Random(f"{p}:{n}")
        h = (n + 1) // 2
        broken = 0
        for _ in range(30):
            u = verify._random_element(rng, ctx, (1,))
            t = verify._random_element(rng, ctx, (0,) * (h - 1) + (1 + rng.randrange(p - 1),))
            broken += oracle_log(u + t) != oracle_log(u) + t * u.invert_unit()
        assert broken


class TestHeadTable:
    # _head_table runs plog twice per head, at x0 and x0 + pi^h, never once
    # per unit, and gives the rows in increasing digit order
    @pytest.mark.parametrize("p,n", PLANNED_ROWS)
    def test_two_log_runs_per_head(self, p, n, monkeypatch):
        ctx, h = Context(p, n), (n + 1) // 2
        points = ((0,) * (n - h), (1,) + (0,) * (n - h - 1))  # x0 + 0 and x0 + pi^h
        runs, real = [], verify.plog

        def record(u):
            runs.append(u.digits)
            return real(u)

        monkeypatch.setattr(verify, "plog", record)
        rows = verify._head_table(ctx, range(p))
        assert runs == [x0 + point for x0, _, _ in rows for point in points]
        assert all(d[0] == 1 for _, _, d in rows)
        for x0, y0, _ in rows[:: p ** (h - 2)]:  # each lead's first head
            assert PiElement(y0, ctx) == oracle_log(PiElement(x0 + points[0], ctx))

    @pytest.mark.parametrize("p,n", PLANNED_ROWS)
    def test_rows_per_lead_in_increasing_digit_order(self, p, n):
        ctx, h = Context(p, n), (n + 1) // 2
        for lead in range(p):
            heads = [x0 for x0, _, _ in verify._head_table(ctx, (lead,))]
            assert heads == [(1, lead) + rest for rest in itertools.product(range(p), repeat=h - 2)]


class TestPlannedTables:
    # the reference sums each unit's series term by term in the ring
    @pytest.mark.parametrize("p,n", PLANNED_ROWS)
    def test_tables_match_unit_by_unit_plog(self, p, n, monkeypatch):
        ctx = Context(p, n)
        tables = oracle_tables.Tables(ctx)
        heads = verify._HeadTables(ctx)
        # built before the patch: the head runs call series._series
        planned_tables = ((tables.annulus, heads.annulus, range(1, p)), (tables.squares, heads.squares, (0,)))
        monkeypatch.setattr(series, "_series", term_by_term_series)
        for planned, rows, leads in planned_tables:
            assert list(planned.items()) == list(unit_by_unit_table(ctx, leads).items())
            # the head prefixes give every log's fiber size
            depth, fibers = verify._fibers(p, rows)
            assert depth == (n + 1) // 2
            assert all(fibers[lg[:depth]] == len(units) for lg, units in planned.items())

    @pytest.mark.parametrize("p,n", PLANNED_ROWS)
    def test_square_iso_back_values_are_pexp(self, p, n, monkeypatch):
        # the check's two pexp runs per head, and the per-unit reference's one
        # pexp per unit, give the term-by-term series' digits
        ctx, h = Context(p, n), (n + 1) // 2
        backs, real = [], verify.pexp

        def record(y):
            e = real(y)
            backs.append((y.digits, e.digits))
            return e

        monkeypatch.setattr(verify, "pexp", record)
        assert check_square_iso(ctx).passed
        assert len(backs) == 2 * p ** (h - 2)
        assert sorted({y[:h] for y, _ in backs}) == sorted({y[:h] for y in _m_squared(ctx)})
        reference = list(oracle_tables.exp_values(ctx))
        assert len(reference) == p ** (n - 2)
        assert [y for y, _ in reference] == sorted(_m_squared(ctx))
        monkeypatch.setattr(series, "_series", term_by_term_series)
        assert all(e == pexp(PiElement(y, ctx)).digits for y, e in backs + reference)

    @pytest.mark.parametrize("p,n", [(3, 6), (5, 5), (3, 9)])
    def test_each_unit_gets_its_fault_once(self, p, n, monkeypatch):
        # the head rows take the fault at the two points of each head, once
        # each; a fault that reads only head digits then moves each unit's log
        # in the per-unit tables exactly as plog's fault moves it
        ctx, h = Context(p, n), (n + 1) // 2
        real = oracle_tables.Tables(ctx)
        real.annulus, real.squares
        seen = []

        def on_head_digit(digits, ctx):
            seen.append(digits)
            return ctx.uniformizer().mul_pi_power(n - 2) if digits[h - 1] == 1 else None

        inject_log_fault(monkeypatch, on_head_digit)
        faulted = oracle_tables.Tables(ctx)
        for table in ("annulus", "squares"):
            log_of = {u: lg for lg, units in getattr(real, table).items() for u in units}
            moved = {u for lg, units in getattr(faulted, table).items() for u in units if lg != log_of[u]}
            assert moved == {u for u in log_of if u[h - 1] == 1}
        heads = [(1,) + rest for rest in itertools.product(range(p), repeat=h - 1)]
        points = [x0 + (t,) + (0,) * (n - h - 1) for x0 in heads for t in (0, 1)]
        assert sorted(seen) == sorted(points)
        seen.clear()
        u = PiElement((1, 1) + (1,) * (n - 2), ctx)
        assert verify.plog(u) == plog(u) + ctx.uniformizer().mul_pi_power(n - 2)
        assert seen == [u.digits]

    @pytest.mark.parametrize("p", [101, 1009])
    def test_residue_field_log_classes_are_plog(self, p, monkeypatch):
        ctx = Context(p, 4)
        logs, real = [], verify.plog

        def record(u):
            y = real(u)
            logs.append((u.digits, y.digits))
            return y

        monkeypatch.setattr(verify, "plog", record)
        assert check_residue_field(ctx).passed
        assert [u for u, _ in logs] == [(1, a1, 0, 0) for a1 in range(p)]
        monkeypatch.setattr(series, "_series", term_by_term_series)
        assert all(y == plog(PiElement(u, ctx)).digits for u, y in logs)


HEAD_FAULTS = {
    "golden": golden_fault,
    # the logs of the heads that end in 1 leave m_K^2
    "outside": lambda digits, ctx: ctx.uniformizer() if head_top(digits, ctx) == 1 else None,
    # they move to another coset, or off m_K^2 where h = 2
    "prefix": lambda digits, ctx: (
        ctx.one().mul_pi_power((ctx.precision - 1) // 2) if head_top(digits, ctx) == 1 else None
    ),
    # their slope d + 1 has digit 0 equal to 2
    "slope": lambda digits, ctx: tail(digits, ctx) if head_top(digits, ctx) == 1 else None,
}


def _outcome(check, *args):
    try:
        return check(*args).to_dict()
    except verify.CyclologError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestHeadLevelChecks:
    # every count and witness of the checks that count cosets equals the
    # per-unit reference's, with a correct kernel and with faulty ones
    @staticmethod
    def assert_matches_per_unit_tables(ctx):
        heads, tables = verify._HeadTables(ctx), oracle_tables.Tables(ctx)
        pairs = [
            (check_annulus_image, oracle_tables.annulus_image),
            (check_square_iso, oracle_tables.square_iso),
            (check_full_image_and_index, oracle_tables.full_image_and_index),
        ]
        for check, reference in pairs:
            assert _outcome(check, ctx, verify.DEFAULT_CAP, heads) == _outcome(reference, ctx, tables)
        stream = "0:preimage_matches_fiber"
        fiber = _outcome(
            verify._checked, "preimage_matches_fiber", ctx, verify.DEFAULT_CAP, heads,
            random.Random(stream),
        )
        assert fiber == _outcome(oracle_tables.preimage_matches_fiber, ctx, random.Random(stream), tables)
        return fiber

    @pytest.mark.parametrize("fault", [None, *HEAD_FAULTS])
    @pytest.mark.parametrize("p,n", PLANNED_ROWS)
    def test_counts_and_witnesses_match_the_per_unit_tables(self, p, n, fault, monkeypatch):
        if fault:
            # the reference's log table reads the same faulted head rows
            inject_log_fault(monkeypatch, HEAD_FAULTS[fault])
        self.assert_matches_per_unit_tables(Context(p, n))

    @pytest.mark.parametrize("p,n", PLANNED_ROWS)
    def test_counts_and_witnesses_match_under_the_fermat_fault(self, p, n, monkeypatch):
        log_terms = series._log_terms

        def dropping(ctx, v):
            return [t for t in log_terms(ctx, v) if t[0] != p]

        monkeypatch.setattr(series, "_log_terms", dropping)
        fiber = self.assert_matches_per_unit_tables(Context(p, n))
        assert fiber.startswith("ValuationTooSmall")

    def test_faults_break_the_checks_they_aim_at(self, monkeypatch):
        # so the comparison above runs on failing reports, not only passing ones
        failed = {}
        for name, fault in HEAD_FAULTS.items():
            with monkeypatch.context() as patched:
                inject_log_fault(patched, fault)
                ctx, tables = Context(3, 8), verify._HeadTables(Context(3, 8))
                checks = [check_annulus_image, check_square_iso, check_full_image_and_index]
                failed[name] = {c.__name__ for c in checks if not c(ctx, tables=tables).passed}
        # a moved prefix or a collapsed slope leaves the union covered at (3,8)
        both = {"check_annulus_image", "check_square_iso"}
        assert failed == {
            "golden": both,
            "outside": both | {"check_full_image_and_index"},
            "prefix": both,
            "slope": {"check_square_iso"},
        }


def _pairwise_closure_failures(members, ctx):
    """The former closure test: every sum of two members is a member."""
    failures = 0
    for a, b in itertools.combinations_with_replacement(sorted(members), 2):
        if (ctx.element(a) + ctx.element(b)).digits not in members:
            failures += 1
    return failures


def _m_squared(ctx):
    tails = itertools.product(range(ctx.p), repeat=ctx.precision - 2)
    return {(0, 0) + tail for tail in tails}


class TestClosureCertificate:
    # the set identity image == m_K^2 against the pairwise closure reference
    @pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 4)])
    def test_real_image_agrees_with_pairwise(self, p, n):
        ctx = Context(p, n)
        units = itertools.product(range(p), repeat=n - 1)
        image = {plog(PiElement((1,) + rest, ctx)).digits for rest in units}
        assert image == _m_squared(ctx)
        assert image_mismatch(ctx, image) == (set(), set())
        assert _pairwise_closure_failures(image, ctx) == 0

    @pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 4)])
    def test_m_squared_minus_an_element_fails_both(self, p, n):
        ctx = Context(p, n)
        missing = (0, 0, 1) + (0,) * (n - 3)
        broken = _m_squared(ctx) - {missing}
        assert image_mismatch(ctx, broken) == (set(), {missing})
        assert _pairwise_closure_failures(broken, ctx) > 0

    @pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 4)])
    def test_m_squared_plus_pi_fails_both(self, p, n):
        ctx = Context(p, n)
        pi = (0, 1) + (0,) * (n - 2)
        broken = _m_squared(ctx) | {pi}
        assert image_mismatch(ctx, broken) == ({pi}, set())
        assert _pairwise_closure_failures(broken, ctx) > 0

    def test_builds_no_copy_of_m_squared(self):
        # m_K^2 at (3,10) has 6561 members; walking it holds one at a time
        ctx = Context(3, 10)
        m_squared = _m_squared(ctx)
        tracemalloc.start()
        try:
            mismatch = image_mismatch(ctx, m_squared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mismatch == (set(), set())
        assert peak < 64 * 1024

    def test_zero_is_required(self):
        ctx = Context(3, 5)
        outside, missing = image_mismatch(ctx, set())
        assert not outside and (0,) * 5 in missing and len(missing) == 27

    @pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 4)])
    def test_proper_subgroup_m_cubed_is_flagged(self, p, n):
        # m_K^3 is closed under addition, so the pairwise test passes it
        ctx = Context(p, n)
        m_cubed = {d for d in _m_squared(ctx) if d[2] == 0}
        assert _pairwise_closure_failures(m_cubed, ctx) == 0
        outside, missing = image_mismatch(ctx, m_cubed)
        assert not outside and (0, 0, 1) + (0,) * (n - 3) in missing
        assert len(missing) == p ** (n - 2) - p ** (n - 3)


class TestWitnessCap:
    def test_qr_branch_count_keeps_at_most_five_witnesses(self, monkeypatch):
        monkeypatch.setattr(verify, "digit2_for_branch", lambda y2, a1, ctx: 0)
        checks = {c.name: c for c in run_all(Context(11, 4), seed=0).checks}
        qr = checks["qr_branch_count"]
        assert not qr.passed and qr.counts["failures"] == 11
        assert qr.witnesses == ["0", "1", "2", "3", "4"]

    def test_roots_of_unity_keeps_at_most_five_witnesses(self, monkeypatch):
        # every "root" is 1 + pi, which has (1 + pi)^7 = 1 mod pi^4, so only the
        # certificate fails: z*z is outside G once for each of the six copies
        def copies(ctx):
            return [ctx.one() + ctx.uniformizer()] * (ctx.p - 1)

        monkeypatch.setattr(verify, "roots_of_unity", copies)
        result = verify._checked("roots_of_unity", Context(7, 4), verify.DEFAULT_CAP, None, None)
        assert not result.passed and result.counts["failures"] == 6
        assert len(result.witnesses) == 5


def _pairwise_roots_failures(roots, ctx):
    """The former group test: every product of two elements of roots + {1} is in it."""
    group = {r.digits for r in roots} | {ctx.one().digits}
    elements = [ctx.element(d) for d in group]
    return sum((a * b).digits not in group for a in elements for b in elements)


class TestRootsCertificate:
    @pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 4), (11, 4)])
    def test_real_roots_agree_with_pairwise(self, p, n):
        ctx = Context(p, n)
        result = verify._checked("roots_of_unity", ctx, verify.DEFAULT_CAP, None, None)
        assert result.passed and result.counts["group_order"] == p
        assert _pairwise_roots_failures(verify.roots_of_unity(ctx), ctx) == 0

    @pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 4), (11, 4)])
    def test_a_repeated_root_fails_both(self, p, n, monkeypatch):
        ctx = Context(p, n)
        roots = verify.roots_of_unity(ctx)
        broken = roots[:-1] + [roots[0]]  # p - 1 true roots of unity, one twice
        monkeypatch.setattr(verify, "roots_of_unity", lambda ctx: broken)
        result = verify._checked("roots_of_unity", ctx, verify.DEFAULT_CAP, None, None)
        assert not result.passed and result.counts["group_order"] == p - 1
        assert _pairwise_roots_failures(broken, ctx) > 0

    @pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 4), (11, 4)])
    def test_a_perturbed_last_root_fails_both(self, p, n, monkeypatch):
        ctx = Context(p, n)
        roots = verify.roots_of_unity(ctx)
        top = ctx.uniformizer().mul_pi_power(n - 2)
        broken = roots[:-1] + [roots[-1] + top]  # distinct, but not a group
        monkeypatch.setattr(verify, "roots_of_unity", lambda ctx: broken)
        result = verify._checked("roots_of_unity", ctx, verify.DEFAULT_CAP, None, None)
        assert not result.passed
        assert _pairwise_roots_failures(broken, ctx) > 0

    def test_cap(self):
        with pytest.raises(CapExceeded):
            verify._checked("roots_of_unity", Context(7, 4), 6, None, None)

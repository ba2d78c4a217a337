import dataclasses
import importlib
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

import cyclolog
from cyclolog import (
    Context,
    NotPrincipalUnit,
    PiElement,
    SeriesBudget,
    ValuationTooSmall,
    fermat_digit_check,
    format_digits,
    log_digit_formula,
    normalize,
    parse_digits,
    pexp,
    plog,
    preimage,
)
from cyclolog import cli, series, verify
from cyclolog.series import _exp_terms, _inverse_modulus, _log_terms, _run, _schedule

from oracle_charp import charp_exp_digits, charp_log_digits
from oracle_series import naive_plog, poly_log_digits, term_by_term_series, term_by_term_sum


def random_principal_unit(rng, ctx, annulus=False):
    first = rng.randrange(1, ctx.p) if annulus else rng.randrange(ctx.p)
    tail = tuple(rng.randrange(ctx.p) for _ in range(ctx.precision - 2))
    return PiElement((1, first) + tail, ctx)


def random_target(rng, ctx):
    tail = tuple(rng.randrange(ctx.p) for _ in range(ctx.precision - 2))
    return PiElement((0, 0) + tail, ctx)


class TestSeriesBudget:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_fixpoint_and_fields(self, p, n):
        b = SeriesBudget.for_target(p, n)
        L = b.p_power_cap
        assert p ** L > n + (p - 1) * L
        if L > 1:
            assert p ** (L - 1) <= n + (p - 1) * (L - 1)
        assert b.cutoff == n + (p - 1) * L
        assert b.working_prec == b.cutoff
        assert b.target_prec == n

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_tail_margin_brute_force(self, p, n):
        b = SeriesBudget.for_target(p, n)
        for m in range(b.cutoff + 1, p ** 4 + p):
            log_floor = 0
            while p ** (log_floor + 1) <= m:
                log_floor += 1
            assert m - (p - 1) * log_floor >= n


class TestPlog:
    def test_log_of_one_is_zero(self):
        ctx = Context(5, 5)
        assert plog(ctx.one()) == ctx.zero()

    def test_p5_one_plus_pi(self):
        ctx = Context(5, 5)
        result = plog(normalize([1, 1, 0, 0, 0], ctx))
        assert result.digits[2] == 2
        # frozen from the exact Fraction-polynomial oracle
        assert result.digits == (0, 0, 2, 2, 1)
        assert result.digits == poly_log_digits((1, 1, 0, 0, 0), 5, 5)

    def test_p3_one_plus_pi_plus_pi2(self):
        ctx = Context(3, 6)
        result = plog(normalize([1, 1, 1, 0, 0, 0], ctx))
        assert result.digits[0] == 0 and result.digits[1] == 0
        assert result.digits[2] == 2
        assert result.digits == (0, 0, 2, 2, 1, 1)
        assert result == naive_plog(normalize([1, 1, 1, 0, 0, 0], ctx))

    def test_p7_one_plus_pi(self):
        result = plog(normalize([1, 1, 0, 0, 0], Context(7, 5)))
        assert result.digits == (0, 0, 3, 5, 5)
        assert result.digits == poly_log_digits((1, 1, 0, 0, 0), 7, 5)

    def test_rejects_non_principal_unit(self):
        ctx = Context(5, 5)
        with pytest.raises(NotPrincipalUnit):
            plog(normalize([2, 0, 0, 0, 0], ctx))

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5), (11, 8), (13, 6)])
    def test_image_lands_in_m_squared(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(43)
        for _ in range(100):
            result = plog(random_principal_unit(rng, ctx))
            assert result.digits[0] == 0 and result.digits[1] == 0

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_digit2_law_exhaustive_over_leading_digits(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(47)
        for a1 in range(p):
            for a2 in range(p):
                tail = tuple(rng.randrange(p) for _ in range(n - 3))
                u = PiElement((1, a1, a2) + tail, ctx)
                assert plog(u).digits[2] == log_digit_formula(a1, a2, ctx)

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5), (11, 8), (13, 6)])
    def test_homomorphism(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(53)
        for _ in range(100):
            u = random_principal_unit(rng, ctx)
            v = random_principal_unit(rng, ctx)
            assert plog(u * v) == plog(u) + plog(v)

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5), (11, 8), (13, 6)])
    def test_lift_independence(self, p, n):
        ctx = Context(p, n)
        budget = SeriesBudget.for_target(p, n)
        work = Context(p, budget.working_prec)
        rng = random.Random(59)
        for _ in range(100):
            u = random_principal_unit(rng, ctx)
            pad = tuple(rng.randrange(p) for _ in range(budget.working_prec - n))
            lifted = PiElement(u.digits + pad, work)
            assert plog(lifted).resize(n) == plog(u)

    @pytest.mark.parametrize("p,n", [(3, 6), (5, 5), (11, 8), (13, 6)])
    def test_matches_naive_oracle_on_random_units(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(61)
        for _ in range(50):
            u = random_principal_unit(rng, ctx)
            assert plog(u) == naive_plog(u)

    def test_oracle_equivalence_exhaustive_p3_n6(self):
        # every annulus unit at p=3, N=6, against the naive high-precision sum
        ctx = Context(3, 6)
        import itertools

        count = 0
        for a1 in (1, 2):
            for tail in itertools.product(range(3), repeat=4):
                u = PiElement((1, a1) + tail, ctx)
                assert plog(u) == naive_plog(u)
                count += 1
        assert count == 2 * 3 ** 4

    @pytest.mark.parametrize("p,n", [(11, 8), (13, 6), (17, 6)])
    def test_matches_poly_oracle_when_p_exceeds_n(self, p, n):
        # p > N makes p = 0 mod pi^N, yet for v = 1 the term n = p has shift 1 and is kept
        ctx = Context(p, n)
        rng = random.Random(73)
        for _ in range(5):
            u = random_principal_unit(rng, ctx)
            assert plog(u).digits == poly_log_digits(u.digits, p, n)

    @pytest.mark.parametrize("p,n", [(3, 32), (5, 16), (7, 32), (3, 128)])
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_matches_poly_oracle_when_n_exceeds_p(self, p, n, v):
        # many terms overlap in each digit here, so one carry pass meets the largest sums
        ctx = Context(p, n)
        rng = random.Random(89 + v)
        w = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(n - v - 1))
        u = PiElement((1,) + (0,) * (v - 1) + w, ctx)
        assert plog(u).digits == poly_log_digits(u.digits, p, n)


class TestPexp:
    def test_exp_of_zero_is_one(self):
        ctx = Context(5, 5)
        assert pexp(ctx.zero()) == ctx.one()

    def test_rejects_small_valuation(self):
        ctx = Context(5, 5)
        with pytest.raises(ValuationTooSmall):
            pexp(ctx.uniformizer())

    def test_rejection_names_the_valuation(self):
        ctx = Context(5, 5)
        with pytest.raises(ValuationTooSmall) as info:
            pexp(ctx.one())
        assert str(info.value) == "valuation 0 < 2, outside the convergence domain"
        with pytest.raises(ValuationTooSmall) as info:
            pexp(ctx.uniformizer())
        assert str(info.value) == "valuation 1 < 2, outside the convergence domain"

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_roundtrip_log_then_exp(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(67)
        for _ in range(50):
            tail = tuple(rng.randrange(p) for _ in range(n - 2))
            u = PiElement((1, 0) + tail, ctx)
            assert pexp(plog(u)) == u

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5), (3, 32), (7, 32)])
    def test_roundtrip_exp_then_log(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(71)
        for _ in range(50):
            x = random_target(rng, ctx)
            assert plog(pexp(x)) == x


class TestEdgeValuations:
    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5), (11, 8), (13, 6)])
    def test_zero_and_top_digit(self, p, n):
        # x = c*pi^(N-1) has x^2 = 0 mod pi^N, so log(1 + x) = x and exp(x) = 1 + x
        ctx = Context(p, n)
        assert plog(ctx.one()) == ctx.zero()
        assert pexp(ctx.zero()) == ctx.one()
        for c in range(1, p):
            x = normalize([0] * (n - 1) + [c], ctx)
            assert pexp(x) == x + 1
            assert plog(x + 1) == x


class TestLargePrime:
    # p > N up to the 2**20 cap: the series keeps only the terms n < N/v, plus
    # n = p when v = 1, so a call costs a few multiplications and one power
    @pytest.mark.parametrize("p,n", [(1009, 6), (1048573, 6), (1048573, 16)])
    def test_roundtrips_and_homomorphism(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(79)
        for _ in range(5):
            u = random_principal_unit(rng, ctx, annulus=True)
            v = random_principal_unit(rng, ctx, annulus=True)
            assert plog(u * v) == plog(u) + plog(v)
            square_unit = random_target(rng, ctx) + 1
            assert pexp(plog(square_unit)) == square_unit
            x = random_target(rng, ctx)
            assert plog(pexp(x)) == x


class TestSingleCarryPass:
    # the Fraction oracle takes over a minute per unit on these rows
    @pytest.mark.parametrize("p,n", [(101, 32), (211, 8), (1009, 6), (1048573, 16)])
    def test_matches_term_by_term_ring_sum(self, p, n, monkeypatch):
        ctx = Context(p, n)
        rng = random.Random(97)
        cases = []
        for v in (1, 2, 3):
            w = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(n - v - 1))
            head = (0,) * v
            cases.append((PiElement((1,) + head[1:] + w, ctx), PiElement(head + w, ctx)))
        got = [(plog(u), pexp(x) if x.valuation() >= 2 else None) for u, x in cases]
        monkeypatch.setattr(series, "_series", term_by_term_series)
        want = [(plog(u), pexp(x) if x.valuation() >= 2 else None) for u, x in cases]
        assert got == want


def units_of_valuation(rng, ctx, v):
    """A unit 1 + pi^v * w and the element pi^v * w, with w a random unit."""
    p, n = ctx.p, ctx.precision
    w = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(n - v - 1))
    head = (0,) * v
    return PiElement((1,) + head[1:] + w, ctx), PiElement(head + w, ctx)


class TestShortcutsMatchTermByTermSum:
    # rows where the Frobenius digit and the shrinking precision both fire;
    # the Fraction oracle is too slow here, so the reference is a ring sum.
    # v = N - 1 leaves the one term n = 1, which takes the general path.
    @pytest.mark.parametrize("p,n", [(3, 64), (7, 20), (13, 12), (101, 32)])
    def test_matches_term_by_term_ring_sum(self, p, n, monkeypatch):
        ctx = Context(p, n)
        rng = random.Random(101)
        cases = [units_of_valuation(rng, ctx, v) for v in (1, 1, 2, 3, 3, n - 1)]
        frobenius, lone = [], []
        real_series = series._series

        def recording(x, terms_of, ctx):
            def planned(ctx, v):
                terms = terms_of(ctx, v)
                frobenius.extend(n - s < p and m > 0 and m % p == 0 for m, s, _ in terms)
                lone.append(len(terms) == 1 and terms[0][0] == 1)
                return terms

            return real_series(x, planned, ctx)

        monkeypatch.setattr(series, "_series", recording)
        got = [(plog(u), pexp(x) if x.valuation() >= 2 else None) for u, x in cases]
        assert any(frobenius)
        assert any(lone)
        monkeypatch.setattr(series, "_series", term_by_term_series)
        want = [(plog(u), pexp(x) if x.valuation() >= 2 else None) for u, x in cases]
        assert got == want


def product_lengths(schedule):
    """The length of each product by w that a schedule forms, in order."""
    _, steps = schedule
    return [length for _, _, _, length, carries in steps for _ in carries]


class TestSeriesKernelLengths:
    @pytest.mark.parametrize("p,n", [(101, 32), (1048573, 16)])
    def test_no_product_for_the_p_th_term(self, p, n):
        # v = 1 plans n = 1 .. N-1 at s = n, and n = p at s = 1, a Frobenius
        # digit record; w^n for n >= 2 is one product at N - n digits
        schedule = _schedule(_log_terms(Context(p, n), 1), p, n)
        assert schedule[0] == [(p, 1, p - 1)]
        assert product_lengths(schedule) == list(range(n - 2, 0, -1))

    def test_lengths_never_grow_within_a_call(self):
        ctx = Context(3, 64)
        for v in (1, 2, 3):
            for terms_of in (_log_terms, _exp_terms):
                if terms_of is _exp_terms and v < 2:
                    continue
                lengths = product_lengths(_schedule(terms_of(ctx, v), 3, 64))
                assert lengths and max(lengths) <= ctx.precision
                assert lengths == sorted(lengths, reverse=True), (terms_of.__name__, v)


class TestStepKinds:
    def test_every_kind_occurs(self):
        # (101,32) joins, carries a power to join it and takes the n = p digit;
        # at (7,256) most coefficients are too large for the packed sum
        kinds = {}
        for p, n in [(101, 32), (7, 256)]:
            digits, steps = _schedule(_log_terms(Context(p, n), 1), p, n)
            if any(m == p for m, _, _ in digits):
                kinds.setdefault("frobenius", (p, n))
            for kind, *_ in steps:
                kinds.setdefault(kind, (p, n))
        assert kinds == {
            "join": (101, 32),
            "carry-then-join": (101, 32),
            "frobenius": (101, 32),
            "raw": (7, 256),
        }

    @pytest.mark.parametrize("p,n", [(3, 256), (7, 256)])
    def test_raw_fallback_matches_the_oracles(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(p)
        terms = _log_terms(ctx, 1)
        schedule = _schedule(terms, p, n)
        assert any(step[0] == "raw" for step in schedule[1])
        # the top digit of w is never read; all p - 1 makes every limb its largest
        for w in ((rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(n - 1)), (p - 1,) * n):
            got = _run(w, schedule, p, n)
            assert got == term_by_term_sum(PiElement(w, ctx), terms).digits
            assert got == poly_log_digits((1,) + w[:-1], p, n)


class TestConstantTerm:
    # exp's 1 is its term n = 0, a digit record like the Frobenius digits; at
    # x = 0, v = N, it is all the exp plan holds, and the log plans nothing
    @pytest.mark.parametrize("p,n", [(3, 8), (101, 32), (1048573, 16)])
    def test_exp_of_zero_and_log_of_one(self, p, n):
        ctx = Context(p, n)
        assert pexp(ctx.zero()).digits == ctx.one().digits
        assert plog(ctx.one()).digits == ctx.zero().digits
        assert ctx._plans[_exp_terms, n] == ([(0, 0, 1)], [])
        assert ctx._plans[_log_terms, n] == ([], [])


def count_calls(monkeypatch, name):
    """Count the calls series makes to its global `name`."""
    calls = []
    f = getattr(series, name)

    def counting(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(series, name, counting)
    return calls


class TestCarryRule:
    # w all p - 1 gives every uncarried power and the packed sum their
    # largest limbs, so a missing carry would overflow a limb and show here
    @pytest.mark.parametrize("p,n", [(3, 64), (101, 32), (1048573, 16), (7, 256)])
    def test_largest_limbs_match_term_by_term_sum(self, p, n):
        ctx = Context(p, n)
        w = (p - 1,) * n
        carried = 0  # powers carried before a product or before joining the sum
        for v in (1, 2, 3):
            for terms_of in (_log_terms, _exp_terms):
                if terms_of is _exp_terms and v < 2:
                    continue
                terms = terms_of(ctx, v)
                schedule = _schedule(terms, p, n)
                for kind, *_, carries in schedule[1]:
                    carried += sum(carries) + (kind == "carry-then-join")
                want = term_by_term_sum(PiElement(w, ctx), terms).digits
                assert _run(w, schedule, p, n) == want, (terms_of.__name__, v)
        assert carried

    @pytest.mark.parametrize("p,n", [(1048573, 16), (3, 64)])
    def test_power_carries_match_term_by_term_sum(self, p, n, monkeypatch):
        ctx = Context(p, n)
        rng = random.Random(23)
        cases = [units_of_valuation(rng, ctx, v) for v in (1, 1, 2, 3)]
        carry = count_calls(monkeypatch, "_carry")
        got = [(plog(u), pexp(x) if x.valuation() >= 2 else None) for u, x in cases]
        assert carry
        monkeypatch.setattr(series, "_series", term_by_term_series)
        want = [(plog(u), pexp(x) if x.valuation() >= 2 else None) for u, x in cases]
        assert got == want

    def test_large_coefficients_fall_back_to_raw(self, monkeypatch):
        # at (3,256) c < 3**128, so most terms cannot join the packed sum
        p, n = 3, 256
        u, _ = units_of_valuation(random.Random(29), Context(p, n), 1)
        sums = count_calls(monkeypatch, "_series")
        got = plog(u)
        (x, terms_of, ctx), = sums
        terms = terms_of(ctx, PiElement(x, ctx).valuation())
        assert any(c * (p - 1) >= 1 << 64 for m, _, c in terms if m > 1)
        monkeypatch.setattr(series, "_series", term_by_term_series)
        assert got == plog(u)

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_one_carry_pass_per_small_plog(self, p, n, monkeypatch):
        ctx = Context(p, n)
        rng = random.Random(31)
        units = [units_of_valuation(rng, ctx, 1)[0] for _ in range(10)]
        canonical = count_calls(monkeypatch, "_canonical")
        for u in units:
            canonical.clear()
            plog(u)
            assert len(canonical) == 1


# the grid rows with N <= p - 1, where the ring is F_p[pi]/pi^N
CHARP_ROWS = [(7, 5), (11, 10), (13, 12), (101, 32), (211, 8), (1009, 6), (1048573, 4), (1048573, 16)]


class TestCharacteristicPOracle:
    @pytest.mark.parametrize("p,n", CHARP_ROWS)
    def test_plog_and_pexp_match(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(61)
        for v in (1, 2, 3):
            for _ in range(10):
                u, x = units_of_valuation(rng, ctx, v)
                assert plog(u).digits == charp_log_digits(u.digits, p), v
                if v >= 2:
                    assert pexp(x).digits == charp_exp_digits(x.digits, p), v

    @pytest.mark.parametrize("p,n", CHARP_ROWS)
    def test_preimage_through_log(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(67)
        for v in (2, 3):
            for _ in range(4):
                _, y = units_of_valuation(rng, ctx, v)
                branch = rng.randrange(1, p)
                z = preimage(y, branch)
                assert z.digits[:2] == (1, branch)
                assert charp_log_digits(z.digits, p) == y.digits

    @pytest.mark.parametrize("p,n", [(7, 5), (101, 32), (1048573, 16)])
    def test_kills_a_plog_without_the_p_th_term(self, p, n, monkeypatch):
        u, _ = units_of_valuation(random.Random(71), Context(p, n), 1)
        assert plog(u).digits == charp_log_digits(u.digits, p)
        real_series = series._series

        def dropping(x, terms_of, ctx):
            def planned(ctx, v):
                return [t for t in terms_of(ctx, v) if t[0] != p]

            return real_series(x, planned, ctx)

        monkeypatch.setattr(series, "_series", dropping)
        assert plog(u).digits != charp_log_digits(u.digits, p)


class TestPlansPerContext:
    # a plan is a pure function of (series, p, N, v), so it lives on the
    # Context: planned once per (series, v) there, and never seen by ==, hash
    # or repr
    ROWS = [(3, 8), (5, 6), (7, 5)]

    @pytest.mark.parametrize("p,n", ROWS)
    def test_one_plan_per_series_and_valuation(self, p, n, monkeypatch):
        ctx = Context(p, n)
        rng = random.Random(83)
        units = [units_of_valuation(rng, ctx, 1)[0] for _ in range(5)]
        targets = [units_of_valuation(rng, ctx, 2)[1] for _ in range(5)]
        plans = count_calls(monkeypatch, "_schedule")
        got = [[plog(u) for u in units] + [pexp(x) for x in targets] for _ in range(3)]
        assert len(plans) == 2
        assert set(ctx._plans) == {(_log_terms, 1), (_exp_terms, 2)}
        assert got[0] == got[1] == got[2]
        other = Context(p, n)
        fresh = [plog(PiElement(u.digits, other)) for u in units]
        fresh += [pexp(PiElement(x.digits, other)) for x in targets]
        assert [y.digits for y in got[0]] == [y.digits for y in fresh]

    def test_an_equal_context_plans_again(self, monkeypatch):
        warm, fresh = Context(5, 6), Context(5, 6)
        u, _ = units_of_valuation(random.Random(89), warm, 1)
        plog(u)
        plans = count_calls(monkeypatch, "_schedule")
        assert plog(u) == plog(u)
        assert not plans
        assert plog(PiElement(u.digits, fresh)).digits == plog(u).digits
        assert len(plans) == 1
        assert fresh._plans.keys() == warm._plans.keys() and fresh._plans is not warm._plans

    def test_every_plan_of_a_context_is_small(self):
        # a step holds no mask, so the plans grow with their terms, not as N^2
        p, n = 3, 256
        ctx = Context(p, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for v in range(1, n + 1):
                plog(ctx.one() + ctx.uniformizer().mul_pi_power(v - 1))
                if v >= 2:
                    pexp(ctx.uniformizer().mul_pi_power(v - 1))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ctx._plans) == 2 * n - 1
        assert held < 1.5 * (1 << 20)

    def test_equality_hash_and_repr_ignore_the_plans(self):
        warm = Context(5, 6)
        u, x = units_of_valuation(random.Random(97), warm, 2)
        plog(u), pexp(x)
        fresh = Context(5, 6)
        assert warm._plans and not fresh._plans
        assert warm == fresh and hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh) == "Context(p=5, precision=6)"
        assert warm != Context(5, 7) and warm != Context(7, 6)

    def test_context_stays_frozen(self):
        ctx = Context(5, 6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.p = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx._plans = {}

    @pytest.mark.parametrize("p,n", ROWS)
    def test_plan_key_holds_the_series(self, p, n, monkeypatch):
        # a key of v alone would run the warm plan of the real terms
        u, _ = units_of_valuation(random.Random(101), Context(p, n), 1)
        want = plog(u)
        log_terms = series._log_terms

        def dropping(ctx, v):
            return [t for t in log_terms(ctx, v) if t[0] != p]

        monkeypatch.setattr(series, "_log_terms", dropping)
        assert plog(u) != want
        monkeypatch.undo()
        assert plog(u) == want

    @pytest.mark.parametrize(
        "command,name,p,n", [(plog, "log_p3_n256", 3, 256), (pexp, "exp_p7_n256", 7, 256)]
    )
    def test_long_series_golden_twice_on_one_context(self, command, name, p, n):
        golden = Path(__file__).parent / "golden"
        x = parse_digits((golden / f"{name}.in").read_text(), Context(p, n))
        want = (golden / f"{name}.txt").read_text()
        for _ in range(2):
            y = command(x)
            assert f"{format_digits(y)}\n= {y.expansion()}\n" == want


class TestLayering:
    # plog and pexp are the series module's surface: no other module binds a
    # private name of it, so only plog and pexp reach its kernel
    def test_no_module_binds_a_private_series_name(self):
        private = {
            id(value): name
            for name, value in vars(series).items()
            if name.startswith("_") and getattr(value, "__module__", None) == series.__name__
        }
        assert {"_series", "_log_terms", "_exp_terms"} <= set(private.values())
        for module in (cli, verify, importlib.import_module("cyclolog.preimage"), cyclolog):
            bound = sorted(name for name, value in vars(module).items() if id(value) in private)
            assert not bound, (module.__name__, bound)


class TestCarryFreeUnitMinusOne:
    # u - 1 is u's digits with digit 0 cleared, so plog needs no ring
    # subtraction and no integer coercion to build it
    @pytest.mark.parametrize("p,n", [(3, 8), (7, 5), (101, 32), (1048573, 16)])
    def test_plog_digits_without_subtraction(self, p, n, monkeypatch):
        ctx = Context(p, n)
        rng = random.Random(41)
        units = []
        for v in (1, 2, 3):
            w = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(n - v - 1))
            units.append(PiElement((1,) + (0,) * (v - 1) + w, ctx))
        want = [plog(u).digits for u in units]

        def forbidden(*args):
            raise AssertionError("plog must not subtract or coerce an integer")

        monkeypatch.setattr(PiElement, "__sub__", forbidden)
        monkeypatch.setattr(PiElement, "__rsub__", forbidden)
        monkeypatch.setattr(Context, "from_integer", forbidden)
        assert [plog(u).digits for u in units] == want


class TestDigitFormulas:
    def test_log_digit_formula_examples(self):
        assert log_digit_formula(1, 0, Context(5, 5)) == 2
        assert log_digit_formula(1, 1, Context(3, 6)) == 2
        for c in range(5):
            assert log_digit_formula(0, c, Context(5, 5)) == c

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_fermat_digit_check_all_digits(self, p):
        ctx = Context(p, 5)
        assert all(fermat_digit_check(a1, ctx) for a1 in range(p))

    def test_digit_range_validation(self):
        ctx = Context(5, 5)
        with pytest.raises(ValueError):
            log_digit_formula(5, 0, ctx)
        with pytest.raises(ValueError):
            fermat_digit_check(-1, ctx)


class TestInternalInverse:
    @pytest.mark.parametrize("p,n", [(3, 10), (5, 8), (7, 6)])
    def test_integer_inverse_matches_invert_unit(self, p, n):
        # the series divides by the signed unit part of n through the integer
        # inverse; it must agree digitwise with the ring-level route
        ctx = Context(p, n)
        modulus = _inverse_modulus(ctx)
        for m in range(-39, 40):
            if m % p == 0:
                continue
            inverse = pow(m, -1, modulus)
            assert 0 <= inverse < modulus
            assert ctx.from_integer(inverse) == ctx.from_integer(m).invert_unit()

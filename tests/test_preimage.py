import itertools
import random

import pytest

from cyclolog import (
    BranchZero,
    Context,
    NotInMSquared,
    PiElement,
    PrincipalUnit,
    digit2_for_branch,
    log_digit_formula,
    normalize,
    pexp,
    plog,
    preimage,
    preimage_all,
    qr_pair_enumeration,
    roots_of_unity,
)
from oracle_preimage import digit_induction_preimage


def random_target(rng, ctx):
    tail = tuple(rng.randrange(ctx.p) for _ in range(ctx.precision - 2))
    return PiElement((0, 0) + tail, ctx)


class TestDigit2ForBranch:
    def test_examples(self):
        assert digit2_for_branch(0, 1, Context(5, 5)) == 3
        assert digit2_for_branch(0, 1, Context(3, 6)) == 2

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_inverse_pair_with_log_formula(self, p):
        ctx = Context(p, 5)
        for a1 in range(1, p):
            for a2 in range(p):
                y2 = log_digit_formula(a1, a2, ctx)
                assert digit2_for_branch(y2, a1, ctx) == a2

    def test_branch_zero_rejected(self):
        with pytest.raises(BranchZero):
            digit2_for_branch(0, 0, Context(5, 5))

    @pytest.mark.parametrize("y2", [-1, 5])
    def test_y2_outside_the_residue_field_rejected(self, y2):
        with pytest.raises(ValueError, match="y2 must lie in"):
            digit2_for_branch(y2, 1, Context(5, 5))


class TestQrPairEnumeration:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_count_and_distinct_a2(self, p):
        ctx = Context(p, 5)
        for y2 in range(p):
            pairs = qr_pair_enumeration(y2, ctx)
            assert len(pairs) == p - 1
            assert len({a2 for _, a2 in pairs}) == (p - 1) // 2

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_equals_branch_parametrization(self, p):
        ctx = Context(p, 5)
        for y2 in range(p):
            pairs = qr_pair_enumeration(y2, ctx)
            assert pairs == {
                (a1, digit2_for_branch(y2, a1, ctx)) for a1 in range(1, p)
            }

    @pytest.mark.parametrize("y2", [-1, 5])
    def test_y2_outside_the_residue_field_rejected(self, y2):
        with pytest.raises(ValueError, match="y2 must lie in"):
            qr_pair_enumeration(y2, Context(5, 5))

    def test_p3_y2_zero(self):
        assert qr_pair_enumeration(0, Context(3, 6)) == {(1, 2), (2, 2)}

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_agrees_with_euler_criterion(self, p):
        ctx = Context(p, 5)
        squares = {r * r % p for r in range(1, p)}
        for t in range(1, p):
            assert (t in squares) == (pow(t, (p - 1) // 2, p) == 1)
        for y2 in range(p):
            admissible = {a2 for _, a2 in qr_pair_enumeration(y2, ctx)}
            by_euler = {
                a2
                for a2 in range(p)
                if (2 * a2 - 2 * y2) % p != 0
                and pow((2 * a2 - 2 * y2) % p, (p - 1) // 2, p) == 1
            }
            assert admissible == by_euler


class TestPreimage:
    def test_p3_n6_exhaustive_low_targets(self):
        # all 27 targets with digits 2..4 free and digit 5 zero, branch 1
        ctx = Context(3, 6)
        for tail in itertools.product(range(3), repeat=3):
            y = PiElement((0, 0) + tail + (0,), ctx)
            assert plog(preimage(y, 1)) == y

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_soundness_random_targets_all_branches(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(73)
        for _ in range(25):
            y = random_target(rng, ctx)
            for branch in range(1, p):
                assert plog(preimage(y, branch)) == y

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_inverts_log_on_annulus_units(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(79)
        for _ in range(25):
            digits = (1, rng.randrange(1, p)) + tuple(
                rng.randrange(p) for _ in range(n - 2)
            )
            u = PiElement(digits, ctx)
            assert preimage(plog(u), u.digits[1]) == u

    def test_rejects_target_outside_m_squared(self):
        ctx = Context(5, 5)
        with pytest.raises(NotInMSquared):
            preimage(normalize([0, 1, 0, 0, 0], ctx), 1)

    def test_rejects_branch_zero(self):
        ctx = Context(5, 5)
        with pytest.raises(BranchZero):
            preimage(ctx.zero(), 0)
        with pytest.raises(BranchZero):
            preimage(ctx.zero(), 5)

    def test_non_integer_branch_raises_type_error(self):
        ctx = Context(5, 5)
        with pytest.raises(TypeError):
            preimage(ctx.zero(), 2.0)

    def test_bool_branch_is_branch_one(self):
        ctx = Context(5, 5)
        r = preimage(ctx.zero(), True)
        assert r == preimage(ctx.zero(), 1)
        assert all(type(d) is int for d in r.digits)

    def test_deterministic(self):
        ctx = Context(5, 6)
        y = normalize([0, 0, 3, 1, 0, 2], ctx)
        assert preimage(y, 2) == preimage(y, 2)


class TestMatchesDigitInduction:
    """The closed form against the paper's digit induction, digit for digit."""

    @pytest.mark.parametrize(
        "p,n",
        [(3, 4), (3, 8), (5, 6), (7, 5), (11, 4), (3, 20), (11, 15), (13, 12), (3, 32), (101, 8)],
    )
    def test_preimage_all_every_branch(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(97 * p + n)
        for y in [ctx.zero()] + [random_target(rng, ctx) for _ in range(3)]:
            expected = [digit_induction_preimage(y, b).digits for b in range(1, p)]
            assert [u.digits for u in preimage_all(y)] == expected
            assert [preimage(y, b).digits for b in range(1, p)] == expected

    @pytest.mark.parametrize("p", [1009, 1048573])
    def test_large_prime_edge_branches(self, p):
        ctx = Context(p, 6)
        rng = random.Random(p)
        for y in [ctx.zero()] + [random_target(rng, ctx) for _ in range(2)]:
            for branch in (1, 2, p - 1):
                assert preimage(y, branch).digits == digit_induction_preimage(y, branch).digits


class TestPreimageAll:
    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_count_and_first_digits(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(83)
        y = random_target(rng, ctx)
        units = preimage_all(y)
        assert len(units) == p - 1
        assert {u.digits[1] for u in units} == set(range(1, p))

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_ratios_are_p_th_roots_of_unity(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(89)
        y = random_target(rng, ctx)
        units = preimage_all(y)
        one = ctx.one()
        for a in units:
            for b in units:
                assert (a * b.invert_unit()) ** p == one

    @pytest.mark.parametrize(
        "p,n", [(3, 8), (5, 6), (7, 5), (3, 32), (13, 12), (101, 8), (1009, 6)]
    )
    def test_fiber_is_the_roots_of_unity_times_exp_of_the_target(self, p, n):
        # branch b of log^-1(y) is z^b * exp(y): the identity a generator-power
        # solver would compute the fiber by
        ctx = Context(p, n)
        roots = roots_of_unity(ctx)
        rng = random.Random(97)
        targets = []
        while len(targets) < 3:
            y = random_target(rng, ctx)
            if y != ctx.zero():
                targets.append(y)
        for y in targets:
            e = pexp(y)
            assert [u.digits for u in preimage_all(y)] == [(r * e).digits for r in roots]


class TestRootsOfUnity:
    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_each_root_has_order_p(self, p, n):
        ctx = Context(p, n)
        one = ctx.one()
        roots = roots_of_unity(ctx)
        assert len(roots) == p - 1
        for z in roots:
            assert z ** p == one
            assert z != one

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_branch_one_root_is_one_plus_pi(self, p, n):
        z = roots_of_unity(Context(p, n))[0]
        assert z.digits[0] == 1 and z.digits[1] == 1

    def test_group_structure_p3(self):
        ctx = Context(3, 6)
        z1, z2 = roots_of_unity(ctx)
        assert z1 * z2 == ctx.one()
        assert z1 * z1 == z2
        assert z1 * z1 * z1 == ctx.one()

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_with_one_forms_group_of_order_p(self, p, n):
        ctx = Context(p, n)
        group = {z.digits for z in roots_of_unity(ctx)} | {ctx.one().digits}
        assert len(group) == p
        elements = [PiElement(d, ctx) for d in group]
        for a in elements:
            for b in elements:
                assert (a * b).digits in group

    def test_kernel_of_log(self):
        for p, n in [(3, 8), (5, 6)]:
            ctx = Context(p, n)
            for z in roots_of_unity(ctx):
                assert plog(z) == ctx.zero()

    @pytest.mark.parametrize(
        "p,n", [(3, 8), (5, 6), (7, 5), (11, 10), (13, 12), (101, 8), (1009, 4)]
    )
    def test_powers_of_branch_one_root_match_the_log_fiber(self, p, n):
        # roots_of_unity builds z, z^2, ..., z^(p-1); preimage_all solves each branch
        ctx = Context(p, n)
        roots = roots_of_unity(ctx)
        assert [z.digits for z in roots] == [u.digits for u in preimage_all(ctx.zero())]


class TestComputedUnitsSkipRevalidation:
    # pexp, preimage and roots_of_unity wrap digits that are canonical and
    # start with 1 by construction, and preimage builds 1 + branch*pi the same
    # way; none of them runs the PrincipalUnit checks or normalize
    @pytest.mark.parametrize("p,n", [(3, 8), (7, 5), (101, 8)])
    def test_results_match_without_the_constructor(self, p, n, monkeypatch):
        ctx = Context(p, n)
        y = random_target(random.Random(97), ctx)
        expected = (pexp(y), preimage_all(y), roots_of_unity(ctx))

        def refuse(self, digits, ctx):
            raise AssertionError("computed unit re-validated")

        def refuse_raw(raw, ctx):
            raise AssertionError("computed unit normalized")

        monkeypatch.setattr(PrincipalUnit, "__init__", refuse)
        # swapping the code object reaches every name normalize was imported as
        monkeypatch.setattr(normalize, "__code__", refuse_raw.__code__)
        got = (pexp(y), preimage_all(y), roots_of_unity(ctx))
        assert got == expected
        for unit in [got[0], *got[1], *got[2]]:
            assert type(unit) is PrincipalUnit
            assert unit.digits[0] == 1
            assert all(type(d) is int and 0 <= d < p for d in unit.digits)

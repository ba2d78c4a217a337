import copy
import dataclasses
import operator
import pickle
import random
import subprocess
import sys
import tracemalloc

import pytest

import cyclolog
from cyclolog import (
    Context,
    ContextMismatch,
    DigitStringError,
    NotAUnit,
    NotDivisible,
    NotPrincipalUnit,
    PiElement,
    PrincipalUnit,
    SeriesBudget,
    check_residue_field,
    digit2_for_branch,
    fermat_digit_check,
    format_digits,
    log_digit_formula,
    normalize,
    parse_digits,
    preimage,
    qr_pair_enumeration,
    run_all,
)
from cyclolog import verify
from cyclolog.ring import PRECISION_CAP, _canonical, _mul


def schoolbook_mul(a, b):
    """Reference product: plain truncated digit convolution."""
    n = a.ctx.precision
    raw = [
        sum(a.digits[i] * b.digits[j - i] for i in range(j + 1)) for j in range(n)
    ]
    return normalize(raw, a.ctx)


def random_element(rng, ctx):
    return PiElement(tuple(rng.randrange(ctx.p) for _ in range(ctx.precision)), ctx)


class TestNormalize:
    def test_three_at_p3(self):
        ctx = Context(3, 6)
        assert normalize([3, 0, 0, 0, 0, 0], ctx).digits == (0, 0, 2, 0, 1, 0)

    def test_zero_at_p5(self):
        ctx = Context(5, 4)
        assert normalize([0, 0, 0, 0], ctx).digits == (0, 0, 0, 0)

    def test_minus_one_at_p3(self):
        ctx = Context(3, 6)
        assert normalize([-1], ctx).digits == (2, 0, 1, 0, 0, 0)

    def test_rejects_vectors_longer_than_precision(self):
        ctx = Context(3, 4)
        with pytest.raises(ValueError):
            normalize([0, 0, 0, 0, 1], ctx)

    def test_rejects_non_integer_entries(self):
        ctx = Context(3, 4)
        with pytest.raises(TypeError):
            normalize([1.5, 0], ctx)

    @pytest.mark.parametrize("p,n", [(3, 6), (5, 5), (7, 4)])
    def test_idempotent_on_random_vectors(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(7)
        for _ in range(1000):
            raw = [rng.randint(-50, 50) for _ in range(n)]
            once = normalize(raw, ctx)
            assert normalize(list(once.digits), ctx) == once

    def test_canonical_drops_entries_at_and_past_n(self):
        # an entry at position >= n is a multiple of pi^n
        assert _canonical([0, 0, 0, 0, 9], 3, 3) == (0, 0, 0)
        assert _canonical([3, 0, 0, 5, -7], 3, 3) == (0, 0, 2)

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 4), (7, 1)])
    def test_canonical_of_a_longer_vector_is_its_first_n_entries(self, p, n):
        rng = random.Random(11)
        for extra in range(1, 2 * p):
            raw = [rng.randint(-50, 50) for _ in range(n + extra)]
            got = _canonical(raw, p, n)
            assert len(got) == n and all(0 <= d < p for d in got)
            assert got == _canonical(raw[:n], p, n)


class TestRingOps:
    def test_add_identity(self):
        ctx = Context(5, 5)
        a = normalize([2, 4, 0, 1, 3], ctx)
        assert a + ctx.zero() == a

    def test_minus_one_plus_one_is_zero(self):
        ctx = Context(3, 6)
        assert normalize([2, 0, 1, 0, 0, 0], ctx) + 1 == ctx.zero()

    def test_additive_inverse(self):
        ctx = Context(7, 5)
        rng = random.Random(3)
        for _ in range(100):
            a = random_element(rng, ctx)
            assert a + (-a) == ctx.zero()
            assert a - a == ctx.zero()

    def test_neg_zero(self):
        ctx = Context(3, 4)
        assert -ctx.zero() == ctx.zero()

    def test_mul_identity(self):
        ctx = Context(5, 6)
        rng = random.Random(11)
        a = random_element(rng, ctx)
        assert a * ctx.one() == a

    def test_uniformizer_square(self):
        ctx = Context(3, 6)
        pi2 = normalize([0, 0, 1, 0, 0, 0], ctx)
        assert pi2 * pi2 == normalize([0, 0, 0, 0, 1, 0], ctx)

    def test_embedded_integer_product(self):
        ctx = Context(3, 6)
        assert ctx.from_integer(-1) * ctx.from_integer(-3) == ctx.from_integer(3)

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_ring_axioms_on_random_triples(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(13)
        for _ in range(200):
            a, b, c = (random_element(rng, ctx) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    @pytest.mark.parametrize(
        "p,n", [(3, 8), (5, 6), (7, 5), (13, 12), (3, 32), (101, 32), (1048573, 16)]
    )
    def test_mul_matches_schoolbook(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(17)
        for _ in range(300):
            a, b = random_element(rng, ctx), random_element(rng, ctx)
            assert a * b == schoolbook_mul(a, b)
        # every digit p - 1 gives the largest convolution limbs the codec carries
        top = PiElement((p - 1,) * n, ctx)
        assert top * top == schoolbook_mul(top, top)

    @pytest.mark.parametrize("p,n", [(3, 8), (7, 5), (101, 32)])
    def test_kernel_at_every_length(self, p, n):
        # _mul(a, b, p, k) is a*b mod pi^k: the first k digits of the
        # canonical full-length product, at every k, including k < 4
        ctx = Context(p, n)
        rng = random.Random(23)
        vectors = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(20)]
        vectors.append((p - 1,) * n)
        for a, b in zip(vectors, vectors[1:] + vectors[-1:]):
            conv = [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(n)]
            want = normalize(conv, ctx).digits
            for k in range(1, n + 1):
                assert _mul(a, b, p, k) == want[:k], k

    def test_int_scaling_matches_embedded_product(self):
        ctx = Context(5, 6)
        rng = random.Random(19)
        for _ in range(200):
            a = random_element(rng, ctx)
            c = rng.randint(-1000, 1000)
            assert a * c == a * ctx.from_integer(c)
            assert c * a == a * c

    @pytest.mark.parametrize(
        "op",
        [
            lambda a: a + 1.5,
            lambda a: 1.5 + a,
            lambda a: a - 1.5,
            lambda a: 1.5 - a,
            lambda a: a * 1.5,
            lambda a: 1.5 * a,
            lambda a: a ** 1.5,
            lambda a: a + "1",
        ],
    )
    def test_unsupported_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(Context(5, 4).one())

    def test_context_mismatch_raises(self):
        # +, - and * share one operand path; the foreign element may be on either side
        a = Context(3, 6).one()
        for other in (Context(3, 7).one(), Context(5, 6).one()):
            for op in (operator.add, operator.sub, operator.mul):
                for left, right in ((a, other), (other, a)):
                    with pytest.raises(ContextMismatch) as exc:
                        op(left, right)
                    assert str(exc.value) == f"{right.ctx} does not match {left.ctx}"

    def test_int_operands_of_sub(self):
        ctx = Context(5, 6)
        rng = random.Random(37)
        for _ in range(100):
            a = random_element(rng, ctx)
            for c in (rng.randint(-1000, 1000), True, False):
                assert a - c == a - ctx.from_integer(c)
                assert c - a == ctx.from_integer(c) - a


class TestFromInteger:
    def test_examples(self):
        assert Context(3, 6).from_integer(3).digits == (0, 0, 2, 0, 1, 0)
        assert Context(5, 4).from_integer(0).digits == (0, 0, 0, 0)
        # -pi^4 = 4·pi^4 + pi^8 and pi^8 is cut, so 5 has a single digit 4
        assert Context(5, 6).from_integer(5).digits == (0, 0, 0, 0, 4, 0)

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6)])
    def test_ring_homomorphism(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(23)
        for _ in range(1000):
            m, k = rng.randint(-10 ** 4, 10 ** 4), rng.randint(-10 ** 4, 10 ** 4)
            assert ctx.from_integer(m + k) == ctx.from_integer(m) + ctx.from_integer(k)
            assert ctx.from_integer(m * k) == ctx.from_integer(m) * ctx.from_integer(k)

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6)])
    def test_injective_below_p_power(self, p, n):
        ctx = Context(p, n)
        bound = p ** (n // (p - 1))
        images = {ctx.from_integer(v).digits for v in range(bound)}
        assert len(images) == bound


class TestValuation:
    def test_zero_has_valuation_n(self):
        ctx = Context(5, 6)
        assert ctx.zero().valuation() == 6

    def test_uniformizer(self):
        assert Context(7, 5).uniformizer().valuation() == 1

    def test_p_has_valuation_p_minus_1(self):
        assert Context(3, 6).from_integer(3).valuation() == 2


class TestInvertUnit:
    def test_one(self):
        ctx = Context(5, 5)
        assert ctx.one().invert_unit() == ctx.one()

    def test_two_at_p5(self):
        ctx = Context(5, 5)
        two = ctx.from_integer(2)
        assert two.invert_unit() * two == ctx.one()

    def test_minus_one_is_self_inverse(self):
        ctx = Context(3, 6)
        m1 = ctx.from_integer(-1)
        assert m1.invert_unit() == m1

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_random_units(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(29)
        for _ in range(100):
            digits = (rng.randrange(1, p),) + tuple(
                rng.randrange(p) for _ in range(n - 1)
            )
            a = PiElement(digits, ctx)
            assert a * a.invert_unit() == ctx.one()

    def test_non_unit_raises(self):
        ctx = Context(3, 6)
        with pytest.raises(NotAUnit):
            ctx.uniformizer().invert_unit()


class TestDivision:
    def test_pi_square_shift(self):
        ctx = Context(5, 6)
        pi2 = ctx.uniformizer() ** 2
        assert pi2.div_pi_power(2) == ctx.one()

    def test_p_over_pi_block_is_minus_one(self):
        # only n - (p-1) digits of a shifted result are reliable; lifting by
        # one block first makes the identity exact at the target precision
        for p in (3, 5, 7):
            ctx = Context(p, 6)
            big = Context(p, 6 + p - 1)
            shifted = big.from_integer(p).div_pi_power(p - 1)
            assert shifted.resize(6) == ctx.from_integer(-1)

    def test_zero_shifts_to_zero(self):
        ctx = Context(3, 6)
        assert ctx.zero().div_pi_power(3) == ctx.zero()

    def test_shift_reliable_prefix(self):
        ctx = Context(5, 6)
        shifted = ctx.from_integer(5).div_pi_power(4)
        assert shifted.digits[:2] == ctx.from_integer(-1).digits[:2]

    def test_not_divisible(self):
        ctx = Context(3, 6)
        with pytest.raises(NotDivisible):
            ctx.one().div_pi_power(1)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            Context(3, 6).one().div_pi_power(-1)

    def test_div_p_examples(self):
        ctx = Context(5, 6)
        big = Context(5, 10)
        assert big.from_integer(5).div_p().resize(6) == ctx.one()
        assert big.from_integer(15).div_p().resize(6) == ctx.from_integer(3)
        assert ctx.zero().div_p() == ctx.zero()

    def test_div_p_not_divisible(self):
        # div_p raises exactly what the shift by p - 1 digits raises
        ctx = Context(5, 6)
        for a in (ctx.one(), ctx.uniformizer() ** 3, ctx.from_integer(2)):
            with pytest.raises(NotDivisible) as shift:
                a.div_pi_power(ctx.p - 1)
            with pytest.raises(NotDivisible) as div:
                a.div_p()
            assert str(div.value) == str(shift.value)
        assert str(div.value) == "valuation 0 < 4"

    def test_div_p_inverts_times_p(self):
        ctx = Context(3, 8)
        reliable = 8 - 2
        rng = random.Random(31)
        for _ in range(100):
            a = random_element(rng, ctx)
            assert (a * 3).div_p().digits[:reliable] == a.digits[:reliable]

    @pytest.mark.parametrize("p,n", [(3, 8), (11, 5)])
    def test_mul_pi_power_matches_ring_product(self, p, n):
        ctx = Context(p, n)
        rng = random.Random(37)
        for _ in range(20):
            a = random_element(rng, ctx)
            for k in range(n + 2):
                assert a.mul_pi_power(k) == a * ctx.uniformizer() ** k
        with pytest.raises(ValueError):
            ctx.one().mul_pi_power(-1)


class TestPow:
    def test_zeroth_power(self):
        ctx = Context(5, 5)
        rng = random.Random(37)
        assert random_element(rng, ctx) ** 0 == ctx.one()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_uniformizer_power_is_minus_p(self, p):
        ctx = Context(p, p + 2)
        assert ctx.uniformizer() ** (p - 1) == ctx.from_integer(-p)

    def test_matches_repeated_product(self):
        ctx = Context(3, 6)
        rng = random.Random(41)
        a = random_element(rng, ctx)
        assert a ** 3 == a * a * a

    def test_ladder_makes_no_wasted_products(self, monkeypatch):
        # left to right from a: bit_length - 1 squarings and popcount - 1 products
        ctx = Context(5, 6)
        a = random_element(random.Random(43), ctx)
        calls = []
        mul = PiElement.__mul__

        def counting(x, y):
            calls.append(1)
            return mul(x, y)

        monkeypatch.setattr(PiElement, "__mul__", counting)
        for e in range(1, 41):
            calls.clear()
            a ** e
            assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Context(3, 6).one() ** -1


class TestContext:
    @pytest.mark.parametrize("p", [0, 1, 2, 4, 9, 15])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            Context(p, 6)

    def test_rejects_small_precision(self):
        with pytest.raises(ValueError):
            Context(3, 3)

    @pytest.mark.parametrize("p", [(1 << 20) + 7, 10**18 + 3])
    def test_rejects_huge_p(self, p):
        with pytest.raises(ValueError):
            Context(p, 6)

    def test_ramification_index(self):
        assert Context(7, 5).e == 6

    def test_rejects_precision_over_the_cap_before_allocating(self):
        Context(3, PRECISION_CAP)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"at most 2\*\*24"):
                Context(3, PRECISION_CAP + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one digit tuple at this precision alone would take 128 MiB
        assert peak < 1 << 20

    def test_parse_matches_parse_digits(self):
        ctx = Context(5, 4)
        assert ctx.parse("1,3") == parse_digits("1,3", ctx)
        assert ctx.parse("1,3").digits == (1, 3, 0, 0)


class TestPublicSurface:
    """The package's names, seven of them served from cyclolog.verify on
    lookup."""

    ALL = [
        "BranchZero", "CapExceeded", "CheckResult", "Context", "ContextMismatch",
        "CyclologError", "DEFAULT_CAP", "DigitStringError", "NotAUnit", "NotDivisible",
        "NotInMSquared", "NotPrincipalUnit", "PiElement", "PrincipalUnit", "SeriesBudget",
        "ValuationTooSmall", "VerificationReport", "check_annulus_image",
        "check_full_image_and_index", "check_residue_field", "check_square_iso",
        "digit2_for_branch", "fermat_digit_check", "format_digits", "log_digit_formula",
        "normalize", "parse_digits", "pexp", "plog", "preimage", "preimage_all",
        "qr_pair_enumeration", "roots_of_unity", "run_all",
    ]

    def test_all_is_unchanged_and_every_name_resolves(self):
        assert cyclolog.__all__ == self.ALL
        for name in self.ALL:
            assert getattr(cyclolog, name) is not None, name
        assert cyclolog.DEFAULT_CAP == verify.DEFAULT_CAP == 10_000_000

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from cyclolog import *", namespace)
        assert set(self.ALL) <= namespace.keys()
        assert namespace["run_all"] is verify.run_all

    def test_dir_lists_every_name_and_verify(self):
        assert set(self.ALL) | {"verify"} <= set(dir(cyclolog))

    def test_verifier_names_are_looked_up_in_verify_every_time(self, monkeypatch):
        # a stored name would keep a function that verify has since replaced
        assert cyclolog.verify is verify
        for name in ("run_all", "CheckResult", "VerificationReport", "check_square_iso"):
            assert getattr(cyclolog, name) is getattr(verify, name)
            assert name not in vars(cyclolog)

        def stand_in(ctx, seed=0, cap=0):
            return "stand-in"

        real = cyclolog.run_all
        monkeypatch.setattr(verify, "run_all", stand_in)
        assert cyclolog.run_all is stand_in
        monkeypatch.undo()
        assert cyclolog.run_all is real

    def test_the_unbound_all_names_are_the_verifiers(self):
        lazy = set(cyclolog.__all__) - set(vars(cyclolog))
        assert lazy == {
            "CheckResult", "VerificationReport", "check_annulus_image",
            "check_full_image_and_index", "check_residue_field", "check_square_iso",
            "run_all",
        }
        for name in lazy:
            assert getattr(cyclolog, name) is getattr(verify, name)
            assert name not in vars(cyclolog)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            cyclolog.no_such_name

    def test_verify_is_reachable_after_a_plain_import(self):
        code = (
            "import sys, cyclolog\n"
            "assert 'cyclolog.verify' not in sys.modules\n"
            "assert cyclolog.verify.run_all is cyclolog.run_all\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestFrozenValues:
    """Context and SeriesBudget keep the value semantics they had as frozen
    dataclasses: keyword construction, field-wise ==, hash and repr, no
    assignment, and pickle and copy round trips."""

    VALUES = [
        (Context(p=5, precision=6), Context(5, 6), "Context(p=5, precision=6)"),
        (
            SeriesBudget.for_target(5, 6),
            SeriesBudget(target_prec=6, cutoff=14, working_prec=14, p_power_cap=2),
            "SeriesBudget(target_prec=6, cutoff=14, working_prec=14, p_power_cap=2)",
        ),
    ]

    @pytest.mark.parametrize("value,equal,text", VALUES, ids=["Context", "SeriesBudget"])
    def test_value_semantics(self, value, equal, text):
        assert value == equal and hash(value) == hash(equal)
        assert repr(value) == repr(equal) == text
        fields = tuple(vars(value)[name] for name in value.__match_args__)
        assert hash(value) == hash(fields)
        assert (value == fields) is False and value != fields
        for roundtrip in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
            twin = roundtrip(value)
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)

    @pytest.mark.parametrize("value", [v for v, _, _ in VALUES], ids=["Context", "SeriesBudget"])
    def test_assigning_or_deleting_raises(self, value):
        name = value.__match_args__[0]
        before = getattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.extra = 1
        assert getattr(value, name) == before and not hasattr(value, "extra")

    def test_context_reads_both_integers_before_any_check(self):
        with pytest.raises(TypeError):
            Context(5.0, 6)
        with pytest.raises(TypeError):
            Context(4, 6.0)
        with pytest.raises(ValueError, match=r"^p must be an odd prime >= 3, got 4$"):
            Context(4, 3)
        with pytest.raises(ValueError, match=r"^precision must be an integer >= 4, got 3$"):
            Context(5, 3)

    @pytest.mark.parametrize(
        "p,message",
        [(p, f"p must be an odd prime >= 3, got {p}") for p in (0, 1, 2, 4, 9, 15, -5)]
        + [(p, f"p must be at most 2**20, got {p}") for p in (2**20 + 7, 10**18 + 3)],
    )
    def test_context_rejects_p_with_its_message(self, p, message):
        with pytest.raises(ValueError) as info:
            Context(p, 6)
        assert str(info.value) == message

    def test_contexts_of_other_classes_are_unequal(self):
        class Other(Context):
            pass

        assert Context(5, 6) != Other(5, 6) and Other(5, 6) == Other(5, 6)


class TestDigitStrings:
    def test_roundtrip(self):
        ctx = Context(5, 4)
        a = parse_digits("1,3,0,2", ctx)
        assert a.digits == (1, 3, 0, 2)
        assert format_digits(a) == "1,3,0,2"
        assert str(a) == "1,3,0,2"

    def test_short_strings_zero_pad(self):
        ctx = Context(5, 6)
        assert parse_digits("1,3", ctx).digits == (1, 3, 0, 0, 0, 0)

    def test_rejects_out_of_range_digit(self):
        ctx = Context(5, 4)
        with pytest.raises(DigitStringError):
            parse_digits("1,5,0,0", ctx)
        with pytest.raises(DigitStringError):
            parse_digits("-1,0,0,0", ctx)

    def test_rejects_junk(self):
        ctx = Context(5, 4)
        with pytest.raises(DigitStringError):
            parse_digits("1,a,0,0", ctx)
        # at p = 13 int() would read each of these as a digit in range
        ctx = Context(13, 4)
        for text in ("1,+2", "1,1_0", "1,\u0663", "1,-0", "1," + "1" * 5000):
            with pytest.raises(DigitStringError, match="invalid digit"):
                parse_digits(text, ctx)

    def test_rejects_too_long(self):
        ctx = Context(5, 4)
        with pytest.raises(DigitStringError):
            parse_digits("1,0,0,0,0", ctx)

    def test_repr(self):
        a = parse_digits("1,3,0,2", Context(5, 4))
        assert repr(a) == "PiElement('1,3,0,2', p=5)"

    def test_expansion_pretty_printer(self):
        ctx = Context(5, 6)
        assert parse_digits("1,3,0,2", ctx).expansion() == "1 + 3·π + 2·π^3"
        assert ctx.zero().expansion() == "0"


class TestElementTypes:
    def test_principal_unit_requires_leading_one(self):
        ctx = Context(5, 4)
        PrincipalUnit((1, 2, 3, 4), ctx)
        with pytest.raises(Exception):
            PrincipalUnit((2, 0, 0, 0), ctx)

    def test_principal_unit_equals_plain_element(self):
        ctx = Context(5, 4)
        u = PrincipalUnit((1, 2, 3, 4), ctx)
        a = PiElement((1, 2, 3, 4), ctx)
        assert u == a
        assert hash(u) == hash(a)

    def test_from_element_checks_the_leading_digit(self):
        ctx = Context(5, 4)
        u = PrincipalUnit.from_element(normalize([1, 2], ctx))
        assert type(u) is PrincipalUnit
        assert u.digits == (1, 2, 0, 0)
        with pytest.raises(NotPrincipalUnit):
            PrincipalUnit.from_element(ctx.zero())

    def test_constructor_validates_digits(self):
        ctx = Context(3, 4)
        with pytest.raises(ValueError):
            PiElement((0, 3, 0, 0), ctx)
        with pytest.raises(ValueError):
            PiElement((0, 0, 0), ctx)

    def test_resize(self):
        ctx = Context(3, 6)
        a = normalize([1, 2, 0, 1, 0, 2], ctx)
        up = a.resize(9)
        assert up.digits == (1, 2, 0, 1, 0, 2, 0, 0, 0)
        assert up.resize(6) == a


class TestIntegerBoundary:
    """Outside integers are read with operator.index, once, where they enter:
    the constructors, Context, the digit and branch reader, the exponent of
    **, the pi-power shifts, resize, and verify's cap and seed."""

    @staticmethod
    def assert_exact_ints(a, digits):
        assert a.digits == digits
        assert all(type(d) is int for d in a.digits)

    def test_bools_become_zero_and_one(self):
        ctx = Context(5, 4)
        assert str(normalize([True, False], ctx)) == "1,0,0,0"
        self.assert_exact_ints(normalize([True, False], ctx), (1, 0, 0, 0))
        assert str(PiElement((1, True, 0, False), ctx)) == "1,1,0,0"
        self.assert_exact_ints(PiElement((1, True, 0, False), ctx), (1, 1, 0, 0))
        self.assert_exact_ints(PrincipalUnit((True, 0, 0, 0), ctx), (1, 0, 0, 0))
        self.assert_exact_ints(ctx.from_integer(True), (1, 0, 0, 0))
        self.assert_exact_ints(ctx.element([False, True]), (0, 1, 0, 0))
        self.assert_exact_ints(ctx.one() * True, (1, 0, 0, 0))

    def test_integer_likes_are_read_with_index(self, monkeypatch):
        class Index:
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

        ctx = Context(3, 6)
        self.assert_exact_ints(normalize([Index(3)], ctx), (0, 0, 2, 0, 1, 0))
        self.assert_exact_ints(ctx.from_integer(Index(-1)), (2, 0, 1, 0, 0, 0))
        self.assert_exact_ints(PiElement([Index(2)] + [0] * 5, ctx), (2, 0, 0, 0, 0, 0))

        assert log_digit_formula(Index(1), Index(2), ctx) == log_digit_formula(1, 2, ctx)
        assert fermat_digit_check(Index(2), ctx) is fermat_digit_check(2, ctx)
        assert digit2_for_branch(Index(1), Index(2), ctx) == digit2_for_branch(1, 2, ctx)
        assert qr_pair_enumeration(Index(1), ctx) == qr_pair_enumeration(1, ctx)
        y = PiElement((0, 0, 1, 2, 0, 1), ctx)
        self.assert_exact_ints(preimage(y, Index(2)), preimage(y, 2).digits)

        built = Context(Index(5), Index(6))
        assert built == Context(5, 6) and hash(built) == hash(Context(5, 6))
        assert type(built.p) is int and type(built.precision) is int
        report = run_all(Context(3, 6), cap=Index(200))
        assert report.to_json() == run_all(Context(3, 6), cap=200).to_json()

        x = ctx.uniformizer()
        assert x ** Index(2) == x**2 and (x + 1) ** Index(5) == (x + 1) ** 5
        self.assert_exact_ints(x.div_pi_power(Index(1)), x.div_pi_power(1).digits)
        self.assert_exact_ints(x.mul_pi_power(Index(1)), x.mul_pi_power(1).digits)
        lifted = x.resize(Index(8))
        assert lifted == x.resize(8) and type(lifted.ctx.precision) is int

        # a faulty plog makes the report depend on the random streams, which
        # are named by the seed read with operator.index
        real = verify.plog

        def faulty(u):
            return real(u) + (u.digits[-1] == 1) * u.ctx.uniformizer().mul_pi_power(3)

        monkeypatch.setattr(verify, "plog", faulty)
        want = run_all(Context(5, 5), seed=1).to_json()
        assert run_all(Context(5, 5), seed=True).to_json() == want
        assert run_all(Context(5, 5), seed=Index(1)).to_json() == want

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", None])
    def test_non_integers_raise_type_error(self, bad):
        ctx = Context(5, 4)
        with pytest.raises(TypeError):
            PiElement((1, bad, 0, 0), ctx)
        with pytest.raises(TypeError):
            PrincipalUnit((1, bad, 0, 0), ctx)
        with pytest.raises(TypeError):
            normalize([1, bad], ctx)
        with pytest.raises(TypeError):
            ctx.from_integer(bad)
        with pytest.raises(TypeError):
            log_digit_formula(bad, 1, ctx)
        with pytest.raises(TypeError):
            log_digit_formula(1, bad, ctx)
        with pytest.raises(TypeError):
            fermat_digit_check(bad, ctx)
        with pytest.raises(TypeError):
            digit2_for_branch(bad, 1, ctx)
        with pytest.raises(TypeError):
            digit2_for_branch(1, bad, ctx)
        with pytest.raises(TypeError):
            qr_pair_enumeration(bad, ctx)
        with pytest.raises(TypeError):
            preimage(ctx.zero(), bad)
        with pytest.raises(TypeError):
            Context(bad, 4)
        with pytest.raises(TypeError):
            Context(5, bad)
        with pytest.raises(TypeError):
            run_all(ctx, cap=bad)
        with pytest.raises(TypeError):
            check_residue_field(ctx, cap=bad)
        with pytest.raises(TypeError):
            run_all(ctx, seed=bad)
        x = ctx.uniformizer()
        with pytest.raises(TypeError):
            x**bad
        with pytest.raises(TypeError):
            x.div_pi_power(bad)
        with pytest.raises(TypeError):
            x.mul_pi_power(bad)
        with pytest.raises(TypeError):
            x.resize(bad)

    def test_range_and_length_errors_keep_their_messages(self):
        ctx = Context(3, 4)
        with pytest.raises(ValueError, match=r"digit 3 outside \[0, 3\)"):
            PiElement((0, 3, 0, 0), ctx)
        with pytest.raises(ValueError, match="digit -1 outside"):
            PiElement((0, -1, 0, 0), ctx)
        with pytest.raises(ValueError, match="need exactly 4 digits, got 3"):
            PiElement((0, 0, 0), ctx)
        with pytest.raises(ValueError, match="exceeds precision 4"):
            normalize([0] * 5, ctx)

import random

import pytest

from cyclolog import Context, PiElement, parse_digits, pexp, plog, preimage, roots_of_unity
from cyclolog.cli import main
from cyclolog.verify import _head_table, _random_element

from oracle_galois import twist

ROWS = [(3, 8), (5, 6), (7, 5), (13, 12), (101, 32), (7, 40)]


def _twists(p, rng):
    """Every nontrivial twist a in 2..p-1, or 8 of them drawn at large p."""
    return list(range(2, p)) if p <= 13 else rng.sample(range(2, p), 8)


class TestTwistOracle:
    # sigma_a is a ring automorphism with sigma_a sigma_b = sigma_ab
    @pytest.mark.parametrize("p,n", ROWS)
    def test_twist_is_a_ring_automorphism(self, p, n):
        ctx, rng = Context(p, n), random.Random(f"{p}:{n}:ring")
        for a in _twists(p, rng):
            x, y = _random_element(rng, ctx, ()), _random_element(rng, ctx, ())
            b = rng.randrange(1, p)
            assert twist(a, x * y) == twist(a, x) * twist(a, y)
            assert twist(a, x + y) == twist(a, x) + twist(a, y)
            assert twist(a, twist(b, x)) == twist(a * b % p, x)
            assert twist(a, ctx.uniformizer()).digits[:2] == (0, a)
        assert twist(1, x) == x


class TestTwistRelations:
    # log, exp, the preimages and the roots of unity commute with every twist
    @pytest.mark.parametrize("p,n", ROWS)
    def test_log_exp_and_preimage_commute_with_twists(self, p, n):
        ctx, rng = Context(p, n), random.Random(f"{p}:{n}:relations")
        for a in _twists(p, rng) * 5:
            u, y = _random_element(rng, ctx, (1,)), _random_element(rng, ctx, (0, 0))
            b = rng.randrange(1, p)
            assert plog(twist(a, u)) == twist(a, plog(u))
            assert pexp(twist(a, y)) == twist(a, pexp(y))
            assert preimage(twist(a, y), a * b % p) == twist(a, preimage(y, b))

    @pytest.mark.parametrize(
        "p,n,trials",
        [(3, 64, 20), (7, 64, 20), (1009, 6, 8), (1048573, 16, 8), (3, 256, 2), (7, 256, 2)],
    )
    def test_log_and_exp_commute_with_twists_at_large_rows(self, p, n, trials):
        ctx, rng = Context(p, n), random.Random(f"{p}:{n}:large")
        for _ in range(trials):
            a = rng.randrange(2, p)
            u, y = _random_element(rng, ctx, (1,)), _random_element(rng, ctx, (0, 0))
            assert plog(twist(a, u)) == twist(a, plog(u))
            assert pexp(twist(a, y)) == twist(a, pexp(y))

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_twists_map_lead_1_head_prefixes_onto_lead_a(self, p, n):
        # sigma_a keeps pi^h * O, so it maps the head coset of x0 onto the one
        # of sigma_a(x0), of lead a, and that head's log prefix is sigma_a's of
        # y0's; every slope has digit h equal to 1
        ctx, h = Context(p, n), (n + 1) // 2

        def rows(lead):
            return {x0: (y0[:h], d[0]) for x0, y0, d in _head_table(ctx, (lead,))}

        first = rows(1)
        for a in range(2, p):
            twisted = {
                twist(a, PiElement(x0 + (0,) * (n - h), ctx)).digits[:h]: (
                    twist(a, PiElement(y0 + (0,) * (n - h), ctx)).digits[:h], slope
                )
                for x0, (y0, slope) in first.items()
            }
            assert twisted == rows(a)
            assert {slope for _, slope in twisted.values()} == {1}

    @pytest.mark.parametrize("p,n", ROWS)
    def test_roots_of_unity_are_the_twists_of_the_first(self, p, n):
        ctx = Context(p, n)
        roots = roots_of_unity(ctx)
        assert [twist(b, roots[0]) for b in range(1, p)] == roots

    @pytest.mark.parametrize("p,n", [(5, 5), (7, 5)])
    def test_table_fibers_commute_with_twists(self, p, n, capsys):
        # as sets: sigma_a moves branch b to branch ab
        ctx = Context(p, n)
        assert main(["table", "--p", str(p), "--prec", str(n)]) == 0
        fibers = {}
        for line in capsys.readouterr().out.splitlines()[:-1]:
            y, units = line.split(": ")
            fibers[parse_digits(y, ctx)] = {parse_digits(u, ctx) for u in units.split()}
        assert len(fibers) == p ** (n - 2)
        for a in range(2, p):
            for y, fiber in fibers.items():
                assert fibers[twist(a, y)] == {twist(a, u) for u in fiber}

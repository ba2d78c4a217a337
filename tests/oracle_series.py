"""Independent reference oracles for the logarithm.

naive_plog sums the series directly with the core carry arithmetic at an
enlarged precision, using none of the budget machinery from the package.
poly_log_digits is a second, fully separate path: exact Fraction polynomials
in the uniformizer, with digits peeled off via 1/pi = -pi^(p-2)/p.
term_by_term_sum adds each term of a series as a canonical ring element, so
it checks the single carry pass where the Fraction oracle is too slow;
term_by_term_series is the drop-in for series._series built on it, with no
plan.
"""

from __future__ import annotations

from fractions import Fraction

from cyclolog import Context, PiElement, normalize


def naive_plog(u: PiElement, extra: int | None = None) -> PiElement:
    ctx = u.ctx
    p, target = ctx.p, ctx.precision
    if extra is None:
        extra = 4 * (p - 1)
    big = Context(p, target + extra)
    # dropped terms need big precision minus the division losses to stay
    # at or above the target, which holds while big precision <= p**4
    assert big.precision <= p ** 4
    x = normalize(list(u.digits), big) - 1
    acc = big.zero()
    x_pow = x
    n = 0
    while not x_pow.is_zero():
        n += 1
        k, m = 0, n
        while m % p == 0:
            m //= p
            k += 1
        term = x_pow
        for _ in range(k):
            term = term.div_p()
        if m > 1:
            term = term * big.from_integer(m).invert_unit()
        acc = acc + term if n % 2 == 1 else acc - term
        x_pow = x_pow * x
    return acc.resize(target)


def term_by_term_sum(w: PiElement, terms) -> PiElement:
    """sum(c * pi^s * w^n for n, s, c in terms), one ring op at a time; the
    power starts at w^0 = 1, so a term n = 0 adds c."""
    acc = w.ctx.zero()
    power, done = w.ctx.one(), 0
    for n, s, c in terms:
        if n > done:
            power = power * (w if n == done + 1 else w ** (n - done))
            done = n
        acc = acc + (power * c).mul_pi_power(s)
    return acc


def term_by_term_series(x, terms_of, ctx: Context) -> tuple[int, ...]:
    """Digits of the series terms_of at x, summed by term_by_term_sum
    at x / pi^v for v the valuation of x; it neither reads nor fills ctx's plans."""
    element = PiElement(x, ctx)
    v = element.valuation()
    return term_by_term_sum(element.div_pi_power(v), terms_of(ctx, v)).digits


def _reduce_pow(i: int, p: int) -> tuple[Fraction, int]:
    q, r = divmod(i, p - 1)
    return Fraction((-p) ** q), r


def _poly_mul(a: list[Fraction], b: list[Fraction], p: int) -> list[Fraction]:
    e = p - 1
    out = [Fraction(0)] * e
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    c, r = _reduce_pow(i + j, p)
                    out[r] += ai * bj * c
    return out


def _digits_to_poly(digits, p: int) -> list[Fraction]:
    out = [Fraction(0)] * (p - 1)
    for i, d in enumerate(digits):
        c, r = _reduce_pow(i, p)
        out[r] += d * c
    return out


def _poly_to_digits(poly: list[Fraction], p: int, n: int) -> tuple[int, ...]:
    e = p - 1
    cur = list(poly)
    digits = []
    for _ in range(n):
        c0 = cur[0]
        assert c0.denominator % p != 0
        d = (c0.numerator * pow(c0.denominator, -1, p)) % p
        digits.append(d)
        c0 = c0 - d
        nxt = cur[1:] + [Fraction(0)]
        nxt[e - 1] += -c0 / p
        cur = nxt
    return tuple(digits)


def poly_log_digits(u_digits, p: int, n: int) -> tuple[int, ...]:
    x = _digits_to_poly(list(u_digits), p)
    x[0] -= 1
    terms = n + 14 * (p - 1)
    acc = [Fraction(0)] * (p - 1)
    pw = [Fraction(1)] + [Fraction(0)] * (p - 2)
    for m in range(1, terms + 1):
        pw = _poly_mul(pw, x, p)
        sign = 1 if m % 2 == 1 else -1
        for k in range(p - 1):
            acc[k] += Fraction(sign, m) * pw[k]
    return _poly_to_digits(acc, p, n)

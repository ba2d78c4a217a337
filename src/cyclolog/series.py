"""Truncated p-adic logarithm and exponential, summed at the target precision.

With x = pi^v * w and p = -pi^(p-1), a series term whose denominator holds
p^k is +-c * pi^s * w^n with c a p-adic unit and s = n*v - (p-1)*k >= v:
an upward shift, so no digit is forgotten and no working-precision lift is
needed.  The top v digits of w are unknown, but pi^s * w^n mod pi^N needs
w^n only mod pi^(N-s).  Terms with s >= N are multiples of pi^N and skipped;
the rest are summed uncarried, and the sum is carried once.

Three facts keep the powers cheap.  Each w^n is formed only to the digits a
later term reads, need[i] = max(N - s_j for j >= i).  The powers and the sum
stay packed as 64-bit limbs with a bound on each, and an operand is carried
only when a limb could reach 2**64; a carried operand times w always fits.  And
a term whose w^n mod pi^(N-s) is the integer w_0^n forms no power: it is the
one digit c * w_0^n at position s.  That is exp's constant 1, its term n = 0,
and every term with p | n and N - s <= p - 1, where p = 0 mod pi^(N-s), the
term lives in F_p[pi], and Frobenius collapses w^n to w_0^n mod p.  When
N <= p - 1 and v = 1 that is the term n = p, x^p/p = -pi * w^p: digit 1 of
the log is a1 - a1^p = 0, the Fermat cancellation that puts the image in m^2.

No choice above reads a digit of w: _schedule makes them all once per plan,
from (terms, p, N) and bounds, and _run carries the plan out for any w.  A
plan holds no mask; _run builds one per length it meets, so a Context's plans
grow with their terms, not as N^2.
_series, the one way in for plog and pexp, takes x and the series alone,
plans each series once per valuation and Context, and keeps the plan on the
Context; no module but this one calls it.
"""

from __future__ import annotations

import itertools

from .errors import NotPrincipalUnit, ValuationTooSmall
from .ring import Context, PiElement, PrincipalUnit, _canonical, _Frozen, _in_range, _pack, _unpack


def _floor_log(p: int, n: int) -> int:
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k


class SeriesBudget(_Frozen):
    """Tail certificate for the logarithm series.

    p_power_cap is the least L with p**L > target_prec + (p-1)*L; cutoff and
    working_prec both equal target_prec + (p-1)*L.  Every dropped term x^n/n
    with n > cutoff then has pi-valuation at least target_prec.  plog sums
    at the target precision, so no runtime code reads working_prec or sets a
    pad from it; the class stays exported as the tail certificate.
    """

    __match_args__ = ("target_prec", "cutoff", "working_prec", "p_power_cap")

    def __init__(self, target_prec: int, cutoff: int, working_prec: int, p_power_cap: int):
        self._set(
            target_prec=target_prec, cutoff=cutoff, working_prec=working_prec, p_power_cap=p_power_cap
        )

    @classmethod
    def for_target(cls, p: int, target_prec: int) -> SeriesBudget:
        L = 1
        while p ** L <= target_prec + (p - 1) * L:
            L += 1
        n_stop = target_prec + (p - 1) * L
        budget = cls(target_prec, n_stop, n_stop, L)
        budget.check_tail_bound(p)
        return budget

    def check_tail_bound(self, p: int) -> None:
        """Assert n - (p-1)*floor(log_p n) >= target_prec for every n > cutoff.

        The margin grows with n inside each power-of-p block, and the margins
        at the block fronts p^j are nondecreasing in j, so the two points
        cutoff + 1 and p^(j0 + 1) dominate all larger n.
        """

        def margin(n: int) -> int:
            return n - (p - 1) * _floor_log(p, n)

        j0 = _floor_log(p, self.cutoff + 1)
        if margin(self.cutoff + 1) < self.target_prec:
            raise AssertionError("series tail bound fails just past the cutoff")
        if margin(p ** (j0 + 1)) < self.target_prec:
            raise AssertionError("series tail bound fails at the next power of p")


def _inverse_modulus(ctx: Context) -> int:
    """p**M with M*(p-1) >= precision, so p**M = 0 mod pi^precision.

    For m coprime to p, pow(m, -1, p**M) therefore agrees digitwise with
    invert_unit(from_integer(m)).  _log_terms and _exp_terms compute it once
    per plan and invert each signed series coefficient against it, so every c
    is the nonnegative integer that _run packs.
    """
    return ctx.p ** -(-ctx.precision // (ctx.p - 1))


_LIMB = 1 << 64  # every limb of a packed value stays below this
_JOIN, _CARRY_JOIN, _RAW = "join", "carry-then-join", "raw"


def _carry(x: int, p: int, n: int) -> int:
    """The packed value x mod pi^n with its limbs carried to canonical digits."""
    return _pack(_canonical(_unpack(x, n), p, n), n)


def _log_terms(ctx: Context, v: int) -> list[tuple[int, int, int]]:
    """plog's terms (n, s, c) at valuation v, sorted by n.

    With n = p**k * m, x^n/n has c = (-1)^(n+1+k)/m and s = n*v - (p-1)*k.
    The least s of each k, p**k * v - (p-1)*k, is nondecreasing in k, so the
    k loop stops where it reaches N.
    """
    p, N = ctx.p, ctx.precision
    modulus = _inverse_modulus(ctx)
    terms = []
    k, pk = 0, 1  # pk = p**k
    while pk * v - (p - 1) * k < N:
        for m in range(1, (N - 1 + (p - 1) * k) // (pk * v) + 1):
            if m % p:
                n = pk * m
                terms.append((n, n * v - (p - 1) * k, pow(m if (n + k) % 2 else -m, -1, modulus)))
        k, pk = k + 1, pk * p
    return sorted(terms)


def _exp_terms(ctx: Context, v: int) -> list[tuple[int, int, int]]:
    """pexp's terms (n, s, c) at valuation v, sorted by n, from the constant
    (0, 0, 1) on.

    With n! = p**k * m, x^n/n! has c = (-1)^k/m and s = n*v - (p-1)*k, which
    Legendre's formula makes n*(v-1) + s_p(n) > n, so only n < N contribute.
    """
    p, N = ctx.p, ctx.precision
    modulus = _inverse_modulus(ctx)
    terms = [(0, 0, 1)]
    k, m = 0, 1  # n! = p**k * m with m coprime to p
    for n in range(1, N):
        j = n
        while j % p == 0:
            j, k = j // p, k + 1
        m *= j
        s = n * v - (p - 1) * k
        if s < N:
            terms.append((n, s, pow(-m if k % 2 else m, -1, modulus)))
    return terms


def _schedule(terms: list[tuple[int, int, int]], p: int, N: int) -> tuple[list[tuple], list[tuple]]:
    """The plan (digits, steps) of sum(c * pi^s * w^n for n, s, c in terms),
    with terms sorted by n and every c >= 0, for any w.

    A digit record (n, s, c) is a term whose w^n mod pi^(N-s) is the integer
    w_0^n, so it forms no power: exp's constant n = 0, and every term with
    p | n and N - s <= p - 1.  There p is 0 mod pi^(N-s) and w^n is taken in
    F_p[pi].  For n = p^k * m with k >= 1, Frobenius makes w^n = (w^m)^(p^k)
    the sum of b_i^(p^k) * pi^(i*p^k) over the digits b_i of w^m; pi^(p^k)
    vanishes, so w^n = b_0^(p^k) = w_0^n mod p.  That spares about p products
    per n = p term at p near 2**20.

    Every other term is a step of the product chain.  A term reads only N - s
    digits of w^n, so w^n is formed mod pi^length with length = max(N - s_j)
    over the steps from it on: the lengths never grow, so w is packed once, to
    the first step's length, and the next power is this one times w, once per
    step of n, at the same length.  The powers stay packed and uncarried with
    a bound on their limbs.  A step is (kind, s, c, length, carries): carries
    holds one flag per product by w before the term, true where the power is
    carried first because a limb of the product could reach 2**64.  A step
    holds no mask; _run builds one only where the length changes.  The bounds
    fix one of three kinds per step:

    - "join": c*w^n shifted into the packed total, while total's bound
      plus c times the power's bound stays below 2**64, on nearly every term;
    - "carry-then-join", where only the power's uncarried bound is too
      large: one carry of the power still lets the term join the total;
    - "raw", where even a carried power would take total's bound to 2**64
      (c near p**(N/(p-1)) at p = 3): the power's limbs are added into an
      integer vector, the one place exact for any c.
    """
    digits, chain = [], []
    for n, s, c in terms:
        (digits if n % p == 0 and (not n or N - s < p) else chain).append((n, s, c))
    lengths = [*itertools.accumulate((N - s for _, s, _ in reversed(chain)), max)]
    top = p - 1  # the limb bound of canonical digits
    steps, bound, pb, done = [], 0, top, 1  # pb bounds the limbs of w^done
    for (n, s, c), length in zip(chain, reversed(lengths)):
        carries, grow = [], length * top
        while done < n:
            # a limb of power*w sums length limb products; carried, it fits (ring.P_CAP)
            carry = pb * grow >= _LIMB
            carries.append(carry)
            pb = (top if carry else pb) * grow
            done += 1
        if bound + c * pb < _LIMB:
            kind, bound = _JOIN, bound + c * pb
        elif bound + c * top < _LIMB:
            kind, pb, bound = _CARRY_JOIN, top, bound + c * top
        else:
            kind = _RAW
        steps.append((kind, s, c, length, carries))
    return digits, steps


def _run(wd: tuple[int, ...], plan: tuple, p: int, N: int) -> tuple[int, ...]:
    """Canonical digits of the sum a _schedule plans, at w with digits wd.

    The join steps add into a packed integer total whose limb s + j holds
    c*d for each digit d of w^n, j < N - s.  The mask (1 << 64*length) - 1 is
    built only where the length changes, which shortens packed w with it.  A
    product needs no mask on the power first, as the low limbs of an integer
    product read only the low limbs of its factors.  total is unpacked into
    the vector that _canonical carries, and the raw steps' powers and each
    digit record's c * w_0^n mod p at position s are added to it.  The digits
    match a term-by-term ring sum: _canonical canonicalizes any integer
    vector exactly, and pi^s * (c*w^n mod pi^N) = c*pi^s*w^n mod pi^N.
    """
    digits, steps = plan
    total, raws = 0, []
    length = steps[0][3] if steps else 0
    mask = (1 << 64 * length) - 1
    packed_w = power = _pack(wd, length)  # packed w^n, n the last step's
    for kind, s, c, step_length, carries in steps:
        if step_length != length:
            length, mask = step_length, (1 << 64 * step_length) - 1
            packed_w &= mask
        for carry in carries:
            if carry:
                power = _carry(power, p, length)
            power = power * packed_w & mask
        if kind is _RAW:
            raws.append((s, c, power))
            continue
        if kind is _CARRY_JOIN:
            power = _carry(power, p, length)
        total += c * power << 64 * s
    raw = list(_unpack(total, N))
    for s, c, power in raws:
        raw[s:] = [r + c * d for r, d in zip(raw[s:], _unpack(power, N - s))]
    for n, s, c in digits:
        raw[s] += c * pow(wd[0], n, p)
    return _canonical(raw, p, N)


def _series(x: tuple[int, ...], terms_of, ctx: Context) -> tuple[int, ...]:
    """Canonical digits of the series terms_of (_log_terms or _exp_terms) at
    the digits x: _run of x / pi^v, v the valuation of x, on the plan of
    (terms_of, v) that is scheduled into ctx._plans on first use.  So ctx plans
    each series once per valuation: at most 2N - 1 plans, as v runs over
    1..N for the log and 2..N for exp (v = N at x = 0)."""
    p, N = ctx.p, ctx.precision
    v = 0
    while v < N and not x[v]:
        v += 1
    plan = ctx._plans.get((terms_of, v))
    if plan is None:
        plan = ctx._plans[terms_of, v] = _schedule(terms_of(ctx, v), p, N)
    return _run(x[v:] + (0,) * v, plan, p, N)


def plog(u: PiElement) -> PiElement:
    """p-adic logarithm of a principal unit, canonical mod pi^N; digits 0 and 1 are zero."""
    if u.digits[0] != 1:
        raise NotPrincipalUnit(f"digit 0 is {u.digits[0]}, expected 1")
    # (0,) + digits 1 on is u - 1, already canonical
    return PiElement._make(_series((0,) + u.digits[1:], _log_terms, u.ctx), u.ctx)


def pexp(x: PiElement) -> PrincipalUnit:
    """p-adic exponential sum(x^n / n!), defined for valuation(x) >= 2."""
    if x.digits[0] or x.digits[1]:
        raise ValuationTooSmall(f"valuation {x.valuation()} < 2, outside the convergence domain")
    return PrincipalUnit._make(_series(x.digits, _exp_terms, x.ctx), x.ctx)


def log_digit_formula(a1: int, a2: int, ctx: Context) -> int:
    """Digit 2 of log(1 + a1*pi + a2*pi^2 + ...) in closed form.

    The pi^1 coefficient a1 - a1^p vanishes mod p by Fermat, leaving
    (a2 - a1^2/2) mod p as the leading surviving digit.
    """
    p = ctx.p
    a1, a2 = _in_range(a1, 0, p, "a1"), _in_range(a2, 0, p, "a2")
    return (a2 - a1 * a1 * pow(2, -1, p)) % p


def fermat_digit_check(a1: int, ctx: Context) -> bool:
    """True iff a1 - a1^p == 0 mod p; the cancellation that empties digit 1."""
    p = ctx.p
    a1 = _in_range(a1, 0, p, "a1")
    return (a1 - pow(a1, p, p)) % p == 0

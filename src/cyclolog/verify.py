"""Exhaustive finite-precision verification of the logarithm's image structure,
with machine-readable reports.

The exhaustive checks count cosets, not units.  Past h = ceil(N/2) the log is
affine (_head_table): the p^(N-h) units x0 + pi^h*tau of a head x0 have the
logs y0 + pi^h*tau*d, which with d[0] = 1 fill the coset of y0's first h
digits once each.  run_all takes the head rows (x0, y0, d) of the annulus
and of 1 + m_K^2 on first use within the cap, two plog runs per head, and
annulus_image and full_image_and_index derive every count from the heads'
prefixes times p^(N-h).  A slope with d[0] = 0, which only a fault gives,
covers a smaller coset p^k times over, and is counted the same way, never
raised.  square_isomorphism's round trip is affine on each head too, and two
pexp runs per head decide it.  Witnesses are the first digit strings in
increasing order, read off the lowest offending heads or prefixes.
preimage_matches_fiber takes y's fiber size from the annulus prefixes and
asks plog whether each constructed unit has log y, and residue_field runs
plog on each of its p units.  The series' plans live on the Context, so a
Context used again plans nothing again.  So the exhaustive checks rest on the
affine identity: a kernel fault that shows only where an input has nonzero
digits at or past h never reaches a head row, and the sampled checks, which
run plog and pexp on whole random elements, are what see it.  An exhaustive
check takes the run's head rows or, called on its own, makes its own, and
charges the cap, which counts units, before any head runs.  One prefix test,
digits 0 and 1 zero, decides membership in m_K^2, and every log passes it
before pexp sees it.  Counts are exact and failures carry digit-string
witnesses.

run_all adds seeded property suites for the series and preimage modules.  Each
sampled check is a stream of (ok, shown) trials counted by one tally, _tally,
and draws from a stream of its own, random.Random(f"{seed}:{name}"), so its
report depends only on (p, N, seed, its name).  A trial shows the elements
behind its witnesses, and _tally formats only a failing trial's, so a passing
run formats no digit string.  The roots of unity are
certified by a generator: the first root z has z^p = 1 and z != 1, and z
times each element of the group stays in it.  _CHECKS declares each check
once, as its report name, its charge to the cap and its run, and _checked
charges before it runs; run_all records a cap violation as a skip marker and
any other domain error as an error marker.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import operator
import random
from dataclasses import dataclass, field

from .errors import DEFAULT_CAP, CapExceeded, CyclologError, _enumeration_count, _require
from .ring import Context, PiElement, format_digits
from .series import log_digit_formula, pexp, plog
from .preimage import digit2_for_branch, preimage_all, qr_pair_enumeration, roots_of_unity

_MAX_WITNESSES = 5
_DIGIT2_PAIRS = 4096

# one row per head of _head_table: (x0, y0, d)
_HeadRow = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(slots=True)
class CheckResult:
    name: str
    passed: bool
    counts: dict[str, int] = field(default_factory=dict)
    witnesses: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(slots=True)
class VerificationReport:
    p: int
    precision: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _head_table(ctx: Context, leads) -> list[_HeadRow]:
    """The log's head rows (x0, y0, d) over the units 1 + a1*pi + ... with a1
    in `leads`, in increasing digit order: (p-1)*p^(h-2) heads for the
    annulus and p^(h-2) for 1 + m_K^2, two plog runs each.

    A head x0 is the digits below h = ceil(N/2) of its units, and y0 is the
    log of u0 = x0 + zeros.  Past h the log is affine: for v(t) >= h and
    N >= 4, log(u + t) = log u + t*u^-1 mod pi^N, as a term of degree n >= 2
    of log(1 + t*u^-1) has valuation at least 2h >= N for n = 2 and
    n*h - (n - 1) >= N for n >= 3.  So log(u0 + pi^h) - y0 = pi^h * u0^-1,
    whose digits below h are zero, and d, its N - h digits from h on, has
    d[0] = 1 as u0^-1 = 1 mod pi.  Every unit x0 + pi^h*tau then has the log
    y0 + pi^h*tau*d, and as tau runs over the p^(N-h) tails its logs run once
    over the coset y0[:h] + pi^h*O."""
    p, n = ctx.p, ctx.precision
    h = (n + 1) // 2
    zeros, step = (0,) * (n - h), (1,) + (0,) * (n - h - 1)
    rows = []
    for a1 in leads:
        for head in itertools.product(range(p), repeat=h - 2):
            x0 = (1, a1) + head
            y0 = plog(PiElement._make(x0 + zeros, ctx))
            y1 = plog(PiElement._make(x0 + step, ctx))
            rows.append((x0, y0.digits, (y1 - y0).digits[h:]))
    return rows


@dataclass
class _HeadTables:
    """The head rows of one context's exhaustive checks, each side made on first use."""

    ctx: Context

    @functools.cached_property
    def annulus(self) -> list[_HeadRow]:
        return _head_table(self.ctx, range(1, self.ctx.p))

    @functools.cached_property
    def squares(self) -> list[_HeadRow]:
        return _head_table(self.ctx, (0,))


def _fibers(p: int, *sides) -> tuple[int, collections.Counter]:
    """(depth, {q: fiber}) over the head rows of `sides`: every log that
    starts with the prefix q, of length depth, is the log of `fiber` units.

    A head's p^(N-h) units x0 + pi^h*tau have the logs y0 + pi^h*tau*d.  With
    k = v(d), N - h when d is 0, these are the logs that start with
    y0[:h + k], each the log of p^k units; depth is the longest such prefix,
    and a shorter one adds to each of its extensions.  A kernel that obeys
    the affine identity has d[0] = 1, so k = 0 and depth = h; any other slope
    comes from a fault, and is counted, not raised."""
    cosets = []
    for x0, y0, d in itertools.chain(*sides):
        k = next((i for i, c in enumerate(d) if c), len(d))
        cosets.append((y0[: len(x0) + k], p**k))
    depth = max(len(prefix) for prefix, _ in cosets)
    fibers = collections.Counter()
    for prefix, units in cosets:
        for rest in itertools.product(range(p), repeat=depth - len(prefix)):
            fibers[prefix + rest] += units
    return depth, fibers


def _witnesses(digit_tuples) -> list[str]:
    return [",".join(map(str, d)) for d in sorted(digit_tuples)[:_MAX_WITNESSES]]


def _first_witnesses(prefixes, ctx: Context) -> list[str]:
    """_witnesses of the digit vectors that start with one of `prefixes`,
    which are disjoint and in increasing order, read off only as far as needed."""
    p, n = ctx.p, ctx.precision
    vectors = (q + t for q in prefixes for t in itertools.product(range(p), repeat=n - len(q)))
    return _witnesses(itertools.islice(vectors, _MAX_WITNESSES))


def _unit_count(prefixes, ctx: Context) -> int:
    return sum(ctx.p ** (ctx.precision - len(q)) for q in prefixes)


def _check_annulus_image(ctx: Context, rng, tables: _HeadTables) -> CheckResult:
    p, n = ctx.p, ctx.precision
    rows = tables.annulus
    depth, fibers = _fibers(p, rows)
    # a head's units share y0's digits 0 and 1, so they leave m_K^2 together
    outside = [x0 for x0, y0, _ in rows if y0[0] or y0[1]]
    expected = p ** (n - 2)
    images = len(fibers) * p ** (n - depth)
    min_fiber, max_fiber = min(fibers.values()), max(fibers.values())
    passed = not outside and images == expected and min_fiber == max_fiber == p - 1
    witnesses = _first_witnesses(outside, ctx)
    if not passed and not witnesses:
        witnesses = _first_witnesses(sorted(q for q, f in fibers.items() if f != p - 1), ctx)
    counts = {
        "units": (p - 1) * expected,
        "images": images,
        "expected_images": expected,
        "min_fiber": min_fiber,
        "max_fiber": max_fiber,
        "outside_m_squared": _unit_count(outside, ctx),
    }
    return CheckResult("annulus_image", passed, counts, witnesses)


def _unrecovered(unit: tuple[int, ...], a: PiElement, b: PiElement, ctx: Context):
    """The prefixes, in increasing order, of the units unit + pi^h*tau whose
    round trip misses by a + tau*b != 0.  That reads tau only mod
    pi^(N - v(b)), so each prefix is unit + those first digits of tau."""
    p, n = ctx.p, ctx.precision
    width = n - b.valuation()
    for digits in itertools.product(range(p), repeat=width):
        tau = PiElement._make(digits + (0,) * (n - width), ctx)
        if not (a + tau * b).is_zero():
            yield unit + digits


def _check_square_iso(ctx: Context, rng, tables: _HeadTables) -> CheckResult:
    """On a head whose log prefix lies in m_K^2 the round trip is affine too:
    pexp(y0 + pi^h*tau*d) = e0 + tau*(e1 - e0), with e0 and e1 pexp at
    tau = 0 and 1, so the unit u0 + pi^h*tau comes back iff a + tau*b = 0,
    a = e0 - u0 and b = e1 - e0 - pi^h.  Since v(b) >= h, that has
    p^(v(b) - h) solutions tau mod pi^(N - h) if v(a) >= v(b), else none.
    """
    p, n = ctx.p, ctx.precision
    total = p ** (n - 2)
    rows = tables.squares
    depth, fibers = _fibers(p, rows)
    images = len(fibers) * p ** (n - depth)
    outside, failures, shown = [], 0, []  # shown: each offending head's unit prefixes
    for x0, y0, d in rows:
        h = len(x0)
        if y0[0] or y0[1]:
            outside.append(x0)
            shown.append([x0])
            continue
        y = PiElement._make(y0, ctx)
        e0 = pexp(y)
        e1 = pexp(y + PiElement._make((0,) * h + d, ctx))
        a = e0 - PiElement._make(x0 + (0,) * (n - h), ctx)
        b = e1 - e0 - ctx.one().mul_pi_power(h)
        solutions = p ** (b.valuation() - h) if a.valuation() >= b.valuation() else 0
        if solutions < p ** (n - h):
            failures += p ** (n - h) - solutions
            shown.append(_unrecovered(x0, a, b, ctx))
    witnesses = _first_witnesses(itertools.chain.from_iterable(shown), ctx)
    passed = not outside and not failures and images == total
    counts = {
        "units": total,
        "images": images,
        "expected_images": total,
        "roundtrip_failures": failures,
        "outside_m_squared": _unit_count(outside, ctx),
    }
    return CheckResult("square_isomorphism", passed, counts, witnesses)


def _check_full_image_and_index(ctx: Context, rng, tables: _HeadTables) -> CheckResult:
    p, n = ctx.p, ctx.precision
    square_total = p ** (n - 2)
    depth, union = _fibers(p, tables.annulus, tables.squares)
    size = p ** (n - depth)
    outside = sorted(q for q in union if q[0] or q[1])
    missing = p ** (depth - 2) - len(union) + len(outside)
    index = p ** (n - 1) // (len(union) * size)
    passed = not outside and not missing and index == p
    m_squared = ((0, 0) + rest for rest in itertools.product(range(p), repeat=depth - 2))
    gaps = (q for q in m_squared if q not in union) if missing else ()
    counts = {
        "annulus_units": (p - 1) * square_total,
        "square_units": square_total,
        "union_images": len(union) * size,
        "m_squared_size": square_total,
        "maximal_ideal_size": p ** (n - 1),
        "index": index,
        "closure_failures": missing * size,
    }
    witnesses = _first_witnesses(itertools.chain(gaps, outside), ctx)
    return CheckResult("full_image_and_index", passed, counts, witnesses)


def _check_residue_field(ctx: Context, rng, tables) -> CheckResult:
    """The cosets are counted on the units u = 1 + a1*pi: the u - 1 fill p
    classes mod pi^2 and their logs fall in the class of 0."""
    p = ctx.p
    units = [PiElement._make((1, a1) + (0,) * (ctx.precision - 2), ctx) for a1 in range(p)]
    m_mod = {(u - 1).digits[:2] for u in units}
    m2_mod = {plog(u).digits[:2] for u in units}
    cosets = len(m_mod) // len(m2_mod)
    passed = cosets == p and m2_mod == {(0, 0)}
    counts = {"m_mod_pi2": len(m_mod), "m2_mod_pi2": len(m2_mod), "cosets": cosets}
    return CheckResult("residue_field", passed, counts, _witnesses(m2_mod - {(0, 0)}))


def _random_element(rng: random.Random, ctx: Context, head: tuple[int, ...]) -> PiElement:
    """`head` followed by random digits up to the precision, drawn in order."""
    randrange, p = rng.randrange, ctx.p
    tail = tuple([randrange(p) for _ in range(ctx.precision - len(head))])
    return PiElement._make(head + tail, ctx)


def _show(shown) -> str:
    """A witness string: the digit string of an element, str of anything else."""
    return format_digits(shown) if isinstance(shown, PiElement) else str(shown)


def _tally(name: str, counts: dict[str, int], trials) -> CheckResult:
    """Count the failing (ok, shown) trials, keeping the witnesses of the
    first failures while fewer than _MAX_WITNESSES are held.  A trial shows
    the elements behind its witnesses, and only a failing one is formatted."""
    failures, witnesses = 0, []
    for ok, shown in trials:
        if not ok:
            failures += 1
            if len(witnesses) < _MAX_WITNESSES:
                witnesses.extend(map(_show, shown))
    return CheckResult(name, failures == 0, {**counts, "failures": failures}, witnesses)


def _check_exp_log_roundtrip(ctx: Context, rng: random.Random, tables) -> CheckResult:
    def trial():
        u = _random_element(rng, ctx, (1, 0))
        x = _random_element(rng, ctx, (0, 0))
        y = plog(u)
        ok = not (y.digits[0] or y.digits[1]) and pexp(y) == u and plog(pexp(x)) == x
        return ok, (u,)

    samples = 40
    return _tally("exp_log_roundtrip", {"samples": samples}, (trial() for _ in range(samples)))


def _check_log_homomorphism(ctx: Context, rng: random.Random, tables) -> CheckResult:
    def trial():
        u, v = _random_element(rng, ctx, (1,)), _random_element(rng, ctx, (1,))
        return plog(u * v) == plog(u) + plog(v), (u, v)

    samples = 40
    return _tally("log_homomorphism", {"samples": samples}, (trial() for _ in range(samples)))


def _check_digit2_formula(ctx: Context, rng: random.Random, tables) -> CheckResult:
    p = ctx.p

    def trial(a1, a2):
        u = _random_element(rng, ctx, (1, a1, a2))
        return plog(u).digits[2] == log_digit_formula(a1, a2, ctx), (u,)

    if p * p <= _DIGIT2_PAIRS:
        pairs = itertools.product(range(p), repeat=2)
    else:
        pairs = ((rng.randrange(p), rng.randrange(p)) for _ in range(_DIGIT2_PAIRS))
    trials = (trial(a1, a2) for a1, a2 in pairs)
    return _tally("digit2_formula", {"samples": min(p * p, _DIGIT2_PAIRS)}, trials)


def _check_lift_independence(ctx: Context, rng: random.Random, tables) -> CheckResult:
    samples = 20
    lifted_ctx = Context(ctx.p, 2 * ctx.precision)

    def trial():
        u = _random_element(rng, ctx, (1,))
        lifted = _random_element(rng, lifted_ctx, u.digits)
        return plog(lifted).resize(ctx.precision) == plog(u), (lifted,)

    return _tally("lift_independence", {"samples": samples}, (trial() for _ in range(samples)))


def _check_preimage_soundness(ctx: Context, rng: random.Random, tables) -> CheckResult:
    samples = 20
    p = ctx.p

    def trial():
        y = _random_element(rng, ctx, (0, 0))
        units = preimage_all(y)
        branches = {u.digits[1] for u in units}
        return branches == set(range(1, p)) and all(plog(u) == y for u in units), (y,)

    counts = {"targets": samples, "branches": p - 1}
    return _tally("preimage_soundness", counts, (trial() for _ in range(samples)))


def _check_preimage_in_fiber(ctx: Context, rng: random.Random, tables: _HeadTables) -> CheckResult:
    """The constructed preimages of y are its whole fiber: as many distinct
    units as the annulus prefixes give y, each in the annulus with plog y."""
    samples = 30
    depth, fibers = _fibers(ctx.p, tables.annulus)

    def trial():
        y = _random_element(rng, ctx, (0, 0))
        units = preimage_all(y)
        in_fiber = all(u.digits[1] and plog(u) == y for u in units)
        ok = in_fiber and len({u.digits for u in units}) == fibers[y.digits[:depth]]
        return ok, (y,)

    return _tally("preimage_matches_fiber", {"targets": samples}, (trial() for _ in range(samples)))


def _check_roots_of_unity(ctx: Context, rng, tables) -> CheckResult:
    """The p - 1 roots and 1 form a group G of order p, certified by its
    generator z = roots[0]: z^p = 1, z != 1, and z*g lies in G for every g in
    G.  There must be p - 1 roots, so |G| <= p.  As p is prime, z has order
    exactly p, and z*G in G with 1 in G gives <z> in G; so G = <z> and
    |G| = p.  Hence the p - 1 roots are distinct, none is 1, and each has
    r^p = 1: for every input, `passed` is the same boolean as with a power of
    every root, at one power instead of p - 1; only a failing report's
    failure count can differ."""
    p = ctx.p
    roots = roots_of_unity(ctx)
    one = ctx.one()
    group = {r.digits for r in roots} | {one.digits}
    z = roots[0]
    trials = itertools.chain(
        [(len(roots) == p - 1, ())],
        [(z ** p == one and z != one, (z,))],
        [(z.digits[1] == 1, (z,))],
        ((zg.digits in group, (zg,)) for zg in (z * g for g in (one, *roots))),
    )
    return _tally("roots_of_unity", {"roots": len(roots), "group_order": len(group)}, trials)


def _check_qr_branch_count(ctx: Context, rng, tables) -> CheckResult:
    p = ctx.p

    def trial(y2):
        pairs = qr_pair_enumeration(y2, ctx)
        by_branch = {(a1, digit2_for_branch(y2, a1, ctx)) for a1 in range(1, p)}
        distinct_a2 = {a2 for _, a2 in pairs}
        ok = len(pairs) == p - 1 and pairs == by_branch and len(distinct_a2) == (p - 1) // 2
        return ok, (y2,)

    return _tally("qr_branch_count", {"y2_values": p}, (trial(y2) for y2 in range(p)))


def _annulus_units(ctx: Context, cap: int) -> int:
    return _enumeration_count(ctx.p - 1, ctx.p, ctx.precision - 2, cap)


def _square_units(ctx: Context, cap: int) -> int:
    return _enumeration_count(1, ctx.p, ctx.precision - 2, cap)


# report name -> (charge(ctx, cap), run(ctx, rng, tables)), in report order
_CHECKS = {
    "annulus_image": (_annulus_units, _check_annulus_image),
    "square_isomorphism": (_square_units, _check_square_iso),
    "full_image_and_index": (
        lambda ctx, cap: _annulus_units(ctx, cap) + _square_units(ctx, cap),
        _check_full_image_and_index,
    ),
    "residue_field": (lambda ctx, cap: ctx.p, _check_residue_field),
    "exp_log_roundtrip": (lambda ctx, cap: ctx.precision**2, _check_exp_log_roundtrip),
    "log_homomorphism": (lambda ctx, cap: ctx.precision**2, _check_log_homomorphism),
    "digit2_formula": (lambda ctx, cap: ctx.p**2, _check_digit2_formula),
    "lift_independence": (lambda ctx, cap: (2 * ctx.precision) ** 2, _check_lift_independence),
    "preimage_soundness": (lambda ctx, cap: 20 * (ctx.p - 1), _check_preimage_soundness),
    "preimage_matches_fiber": (_annulus_units, _check_preimage_in_fiber),
    "roots_of_unity": (lambda ctx, cap: ctx.p, _check_roots_of_unity),
    "qr_branch_count": (lambda ctx, cap: ctx.p**2, _check_qr_branch_count),
}


def _checked(name: str, ctx: Context, cap: int, tables: _HeadTables | None, rng) -> CheckResult:
    """Charge the check `name` to the cap, then run it; the only place a check meets the cap."""
    charge, run = _CHECKS[name]
    _require(charge(ctx, cap), cap)
    return run(ctx, rng, _HeadTables(ctx) if tables is None else tables)


def check_annulus_image(
    ctx: Context, cap: int = DEFAULT_CAP, tables: _HeadTables | None = None
) -> CheckResult:
    """Logs of all units with nonzero digit 1 cover m_K^2 exactly, in fibers of p-1."""
    return _checked("annulus_image", ctx, cap, tables, None)


def check_square_iso(
    ctx: Context, cap: int = DEFAULT_CAP, tables: _HeadTables | None = None
) -> CheckResult:
    """plog restricted to 1 + m_K^2 is a bijection onto m_K^2 inverted by pexp."""
    return _checked("square_isomorphism", ctx, cap, tables, None)


def check_full_image_and_index(
    ctx: Context, cap: int = DEFAULT_CAP, tables: _HeadTables | None = None
) -> CheckResult:
    """log(1 + m_K) fills m_K^2, which sits at index exactly p inside m_K."""
    return _checked("full_image_and_index", ctx, cap, tables, None)


def check_residue_field(ctx: Context, cap: int = DEFAULT_CAP) -> CheckResult:
    """m_K / m_K^2 has exactly p cosets."""
    return _checked("residue_field", ctx, cap, None, None)


def run_all(ctx: Context, seed: int = 0, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Run every check plus the seeded property suites; deterministic for a
    given (p, precision, seed).  Each check gets its own random stream, seeded
    with f"{seed}:{name}".  A check over the cap becomes a skipped marker and
    one raising another domain error an error marker; neither is raised."""
    seed = operator.index(seed)
    report = VerificationReport(ctx.p, ctx.precision)
    tables = _HeadTables(ctx)
    for name in _CHECKS:
        try:
            result = _checked(name, ctx, cap, tables, random.Random(f"{seed}:{name}"))
        except CapExceeded as exc:
            counts = {"skipped": 1, "required": exc.required, "cap": exc.cap}
            result = CheckResult(name, False, counts, [f"skipped: {exc}"])
        except CyclologError as exc:
            witness = f"error: {type(exc).__name__}: {exc}"
            result = CheckResult(name, False, {"error": 1}, [witness])
        report.checks.append(result)
    return report

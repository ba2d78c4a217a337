"""Exhaustive finite-precision verification of the logarithm's image structure,
with machine-readable reports.

run_all enumerates the annulus units and the units of 1 + m_K^2 once each, on
first use within the cap, into tables from log digits to unit digits that
every exhaustive check reads.  A table takes its logs from series._split_walk,
which runs plog's series only at the heads, the digits below h = ceil(N/2),
and walks the affine tail past h as a trie with one divmod per node.
square_isomorphism walks pexp's series over m_K^2 the same way and compares
each back-value with the units the squares table holds at it, and
residue_field runs plog on each of its p units.  The series' plans live on
the Context, so a Context used again plans nothing again; no head run
outlives the walk that made it.  So the exhaustive checks rest on the affine
identity: a kernel fault that shows only where an input has nonzero digits at
or past h never reaches a table, and the sampled checks, which run plog and
pexp on whole random elements, are what see it.  An exhaustive check takes
the run's tables or, called on its own, builds its own, and charges the cap
before it touches a table.  One prefix test, digits 0 and 1 zero, decides
membership in m_K^2, and every log passes it before pexp sees it.  Counts are
exact and failures carry digit-string witnesses.

run_all adds seeded property suites for the series and preimage modules.  Each
sampled check is a stream of (ok, witnesses) trials counted by one tally,
_tally, and draws from a stream of its own, random.Random(f"{seed}:{name}"),
so its report depends only on (p, N, seed, its name).  The roots of unity are
certified by a generator: the first root z has z^p = 1 and z != 1, and z
times each element of the group stays in it.  Every check charges the cap
(the round-trip and homomorphism checks count N^2); run_all records a cap
violation as a skip marker and any other domain error as an error marker.
A charge counts elements, not their cost: residue_field, roots_of_unity,
digit2_formula and preimage_soundness charge p, p, p^2 and 20*(p-1) at any N.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import operator
import random
from dataclasses import dataclass, field

from .errors import DEFAULT_CAP, CapExceeded, CyclologError, _enumeration_count, _require
from .ring import Context, PiElement, format_digits
from .series import _exp_terms, _log_terms, _split_walk, log_digit_formula, pexp, plog
from .preimage import digit2_for_branch, preimage_all, qr_pair_enumeration, roots_of_unity

_MAX_WITNESSES = 5
_DIGIT2_PAIRS = 4096

# plog digits -> digits of the enumerated units with that log
_LogTable = dict[tuple[int, ...], list[tuple[int, ...]]]


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


def _log_table(ctx: Context, leads) -> _LogTable:
    """{plog digits: [unit digits]} over the units 1 + a1*pi + ... with a1 in
    `leads`, in enumeration order, which is increasing digit order.  The logs
    come from _split_walk, so the log series runs twice per head,
    (p-1)*p^(h-2) heads for the annulus and p^(h-2) for 1 + m_K^2, instead of
    once per unit."""
    table: _LogTable = {}
    for a1 in leads:
        for x, lg in _split_walk(0, a1, _log_terms, ctx):
            table.setdefault(lg, []).append((1,) + x[1:])
    return table


@dataclass
class _Tables:
    """The exhaustive plog tables of one context, each built on first use."""

    ctx: Context

    @functools.cached_property
    def annulus(self) -> _LogTable:
        return _log_table(self.ctx, range(1, self.ctx.p))

    @functools.cached_property
    def squares(self) -> _LogTable:
        return _log_table(self.ctx, (0,))


def _witnesses(digit_tuples) -> list[str]:
    return [",".join(map(str, d)) for d in sorted(digit_tuples)[:_MAX_WITNESSES]]


def _image_mismatch(ctx: Context, image) -> tuple[set, set]:
    """(image - m2, m2 - image) for m2 = m_K^2 mod pi^N, the p^(N-2) canonical
    vectors that start with two zeros; image == m2 is the theorem's statement."""
    tails = itertools.product(range(ctx.p), repeat=ctx.precision - 2)
    outside = {d for d in image if d[0] or d[1]}
    return outside, {m for m in ((0, 0) + tail for tail in tails) if m not in image}


def check_annulus_image(
    ctx: Context, cap: int = DEFAULT_CAP, tables: _Tables | None = None
) -> CheckResult:
    """Logs of all units with nonzero digit 1 cover m_K^2 exactly, in fibers of p-1."""
    p, n = ctx.p, ctx.precision
    total = _enumeration_count(p - 1, p, n - 2, cap)
    _require(total, cap)
    tables = _Tables(ctx) if tables is None else tables
    fibers = tables.annulus
    outside = [u for lg, units in fibers.items() if lg[0] or lg[1] for u in units]
    expected = p ** (n - 2)
    sizes = [len(units) for units in fibers.values()]
    min_fiber, max_fiber = min(sizes), max(sizes)
    passed = not outside and len(fibers) == expected and min_fiber == max_fiber == p - 1
    witnesses = _witnesses(outside)
    if not passed and not witnesses:
        witnesses = _witnesses(lg for lg, units in fibers.items() if len(units) != p - 1)
    counts = {
        "units": total,
        "images": len(fibers),
        "expected_images": expected,
        "min_fiber": min_fiber,
        "max_fiber": max_fiber,
        "outside_m_squared": len(outside),
    }
    return CheckResult("annulus_image", passed, counts, witnesses)


def check_square_iso(
    ctx: Context, cap: int = DEFAULT_CAP, tables: _Tables | None = None
) -> CheckResult:
    """plog restricted to 1 + m_K^2 is a bijection onto m_K^2 inverted by pexp."""
    total = _enumeration_count(1, ctx.p, ctx.precision - 2, cap)
    _require(total, cap)
    tables = _Tables(ctx) if tables is None else tables
    images = tables.squares
    outside = [u for lg, units in images.items() if lg[0] or lg[1] for u in units]
    unrecovered = []
    for y, back in _split_walk(1, 0, _exp_terms, ctx):
        unrecovered += (u for u in images.get(y, ()) if u != back)
    passed = not outside and not unrecovered and len(images) == total
    counts = {
        "units": total,
        "images": len(images),
        "expected_images": total,
        "roundtrip_failures": len(unrecovered),
        "outside_m_squared": len(outside),
    }
    return CheckResult("square_isomorphism", passed, counts, _witnesses(outside + unrecovered))


def check_full_image_and_index(
    ctx: Context, cap: int = DEFAULT_CAP, tables: _Tables | None = None
) -> CheckResult:
    """log(1 + m_K) fills m_K^2, which sits at index exactly p inside m_K."""
    p, n = ctx.p, ctx.precision
    annulus_total = _enumeration_count(p - 1, p, n - 2, cap)
    square_total = _enumeration_count(1, p, n - 2, cap)
    _require(annulus_total + square_total, cap)
    tables = _Tables(ctx) if tables is None else tables
    union = tables.annulus.keys() | tables.squares.keys()
    outside, missing = _image_mismatch(ctx, union)
    index = p ** (n - 1) // len(union)
    passed = not outside and not missing and index == p
    counts = {
        "annulus_units": annulus_total,
        "square_units": square_total,
        "union_images": len(union),
        "m_squared_size": square_total,
        "maximal_ideal_size": p ** (n - 1),
        "index": index,
        "closure_failures": len(missing),
    }
    return CheckResult("full_image_and_index", passed, counts, _witnesses(outside | missing))


def check_residue_field(ctx: Context, cap: int = DEFAULT_CAP) -> CheckResult:
    """m_K / m_K^2 has exactly p cosets, counted on the units u = 1 + a1*pi:
    the u - 1 fill p classes mod pi^2 and their logs fall in the class of 0."""
    p = ctx.p
    _require(p, cap)
    units = [PiElement._make((1, a1) + (0,) * (ctx.precision - 2), ctx) for a1 in range(p)]
    m_mod = {(u - 1).digits[:2] for u in units}
    m2_mod = {plog(u).digits[:2] for u in units}
    cosets = len(m_mod) // len(m2_mod)
    passed = cosets == p and m2_mod == {(0, 0)}
    counts = {"m_mod_pi2": len(m_mod), "m2_mod_pi2": len(m2_mod), "cosets": cosets}
    return CheckResult("residue_field", passed, counts, _witnesses(m2_mod - {(0, 0)}))


def _random_element(rng: random.Random, ctx: Context, head: tuple[int, ...]) -> PiElement:
    """`head` followed by random digits up to the precision, drawn in order."""
    tail = tuple(rng.randrange(ctx.p) for _ in range(ctx.precision - len(head)))
    return PiElement._make(head + tail, ctx)


def _tally(name: str, counts: dict[str, int], trials) -> CheckResult:
    """Count the failing (ok, witnesses) trials, keeping the witnesses of the
    first failures while fewer than _MAX_WITNESSES are held."""
    failures, witnesses = 0, []
    for ok, shown in trials:
        if not ok:
            failures += 1
            if len(witnesses) < _MAX_WITNESSES:
                witnesses.extend(shown)
    return CheckResult(name, failures == 0, {**counts, "failures": failures}, witnesses)


def _check_exp_log_roundtrip(ctx: Context, rng: random.Random, cap: int) -> CheckResult:
    _require(ctx.precision**2, cap)

    def trial():
        u = _random_element(rng, ctx, (1, 0))
        x = _random_element(rng, ctx, (0, 0))
        y = plog(u)
        ok = not (y.digits[0] or y.digits[1]) and pexp(y) == u and plog(pexp(x)) == x
        return ok, [format_digits(u)]

    samples = 40
    return _tally("exp_log_roundtrip", {"samples": samples}, (trial() for _ in range(samples)))


def _check_log_homomorphism(ctx: Context, rng: random.Random, cap: int) -> CheckResult:
    _require(ctx.precision**2, cap)

    def trial():
        u, v = _random_element(rng, ctx, (1,)), _random_element(rng, ctx, (1,))
        return plog(u * v) == plog(u) + plog(v), [format_digits(u), format_digits(v)]

    samples = 40
    return _tally("log_homomorphism", {"samples": samples}, (trial() for _ in range(samples)))


def _check_digit2_formula(ctx: Context, rng: random.Random, cap: int) -> CheckResult:
    p = ctx.p
    _require(p * p, cap)

    def trial(a1, a2):
        u = _random_element(rng, ctx, (1, a1, a2))
        return plog(u).digits[2] == log_digit_formula(a1, a2, ctx), [format_digits(u)]

    if p * p <= _DIGIT2_PAIRS:
        pairs = itertools.product(range(p), repeat=2)
    else:
        pairs = ((rng.randrange(p), rng.randrange(p)) for _ in range(_DIGIT2_PAIRS))
    trials = (trial(a1, a2) for a1, a2 in pairs)
    return _tally("digit2_formula", {"samples": min(p * p, _DIGIT2_PAIRS)}, trials)


def _check_lift_independence(ctx: Context, rng: random.Random, cap: int) -> CheckResult:
    samples = 20
    lifted_prec = 2 * ctx.precision
    _require(lifted_prec**2, cap)
    lifted_ctx = Context(ctx.p, lifted_prec)

    def trial():
        u = _random_element(rng, ctx, (1,))
        lifted = _random_element(rng, lifted_ctx, u.digits)
        return plog(lifted).resize(ctx.precision) == plog(u), [format_digits(lifted)]

    return _tally("lift_independence", {"samples": samples}, (trial() for _ in range(samples)))


def _check_preimage_soundness(ctx: Context, rng: random.Random, cap: int) -> CheckResult:
    samples = 20
    p = ctx.p
    _require(samples * (p - 1), cap)

    def trial():
        y = _random_element(rng, ctx, (0, 0))
        units = preimage_all(y)
        branches = {u.digits[1] for u in units}
        return branches == set(range(1, p)) and all(plog(u) == y for u in units), [format_digits(y)]

    counts = {"targets": samples, "branches": p - 1}
    return _tally("preimage_soundness", counts, (trial() for _ in range(samples)))


def _check_preimage_in_fiber(
    ctx: Context, rng: random.Random, cap: int, tables: _Tables
) -> CheckResult:
    samples = 30
    _require(_enumeration_count(ctx.p - 1, ctx.p, ctx.precision - 2, cap), cap)

    def trial():
        y = _random_element(rng, ctx, (0, 0))
        constructed = {u.digits for u in preimage_all(y)}
        fiber = set(tables.annulus.get(y.digits, ()))
        return constructed == fiber, [format_digits(y)]

    return _tally("preimage_matches_fiber", {"targets": samples}, (trial() for _ in range(samples)))


def _check_roots_of_unity(ctx: Context, cap: int) -> CheckResult:
    """The p - 1 roots and 1 form a group G of order p, certified by its
    generator z = roots[0]: z^p = 1, z != 1, and z*g lies in G for every g in
    G.  There must be p - 1 roots, so |G| <= p.  As p is prime, z has order
    exactly p, and z*G in G with 1 in G gives <z> in G; so G = <z> and
    |G| = p.  Hence the p - 1 roots are distinct, none is 1, and each has
    r^p = 1: for every input, `passed` is the same boolean as with a power of
    every root, at one power instead of p - 1; only a failing report's
    failure count can differ."""
    p = ctx.p
    _require(p, cap)
    roots = roots_of_unity(ctx)
    one = ctx.one()
    group = {r.digits for r in roots} | {one.digits}
    z = roots[0]
    trials = itertools.chain(
        [(len(roots) == p - 1, [])],
        [(z ** p == one and z != one, [format_digits(z)])],
        [(z.digits[1] == 1, [format_digits(z)])],
        ((zg.digits in group, [format_digits(zg)]) for zg in (z * g for g in (one, *roots))),
    )
    return _tally("roots_of_unity", {"roots": len(roots), "group_order": len(group)}, trials)


def _check_qr_branch_count(ctx: Context, cap: int) -> CheckResult:
    p = ctx.p
    _require(p * p, cap)

    def trial(y2):
        pairs = qr_pair_enumeration(y2, ctx)
        by_branch = {(a1, digit2_for_branch(y2, a1, ctx)) for a1 in range(1, p)}
        distinct_a2 = {a2 for _, a2 in pairs}
        ok = len(pairs) == p - 1 and pairs == by_branch and len(distinct_a2) == (p - 1) // 2
        return ok, [str(y2)]

    return _tally("qr_branch_count", {"y2_values": p}, (trial(y2) for y2 in range(p)))


def run_all(ctx: Context, seed: int = 0, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Run every check plus the seeded property suites; deterministic for a
    given (p, precision, seed).  Each check gets its own random stream, seeded
    with f"{seed}:{name}".  A check over the cap becomes a skipped marker and
    one raising another domain error an error marker; neither is raised."""
    seed = operator.index(seed)
    report = VerificationReport(ctx.p, ctx.precision)
    tables = _Tables(ctx)
    jobs = {
        "annulus_image": lambda rng: check_annulus_image(ctx, cap, tables),
        "square_isomorphism": lambda rng: check_square_iso(ctx, cap, tables),
        "full_image_and_index": lambda rng: check_full_image_and_index(ctx, cap, tables),
        "residue_field": lambda rng: check_residue_field(ctx, cap),
        "exp_log_roundtrip": lambda rng: _check_exp_log_roundtrip(ctx, rng, cap),
        "log_homomorphism": lambda rng: _check_log_homomorphism(ctx, rng, cap),
        "digit2_formula": lambda rng: _check_digit2_formula(ctx, rng, cap),
        "lift_independence": lambda rng: _check_lift_independence(ctx, rng, cap),
        "preimage_soundness": lambda rng: _check_preimage_soundness(ctx, rng, cap),
        "preimage_matches_fiber": lambda rng: _check_preimage_in_fiber(ctx, rng, cap, tables),
        "roots_of_unity": lambda rng: _check_roots_of_unity(ctx, cap),
        "qr_branch_count": lambda rng: _check_qr_branch_count(ctx, cap),
    }
    for name, job in jobs.items():
        try:
            report.checks.append(job(random.Random(f"{seed}:{name}")))
        except CapExceeded as exc:
            report.checks.append(
                CheckResult(
                    name,
                    False,
                    {"skipped": 1, "required": exc.required, "cap": exc.cap},
                    [f"skipped: {exc}"],
                )
            )
        except CyclologError as exc:
            witness = f"error: {type(exc).__name__}: {exc}"
            report.checks.append(CheckResult(name, False, {"error": 1}, [witness]))
    return report

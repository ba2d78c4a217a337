"""Per-unit reference for verify's exhaustive checks: one log per unit in a
table, and one pexp per unit of m_K^2 compared with the table unit by unit,
as the checks ran before they counted cosets.

log_table evaluates every unit's log from the head rows of verify._head_table,
as y0 + pi^h * tau * d in ring arithmetic for each tail tau of the head.  The
head rows run verify.plog, so a test that faults it (faults.inject_log_fault)
sees each unit's log as the faulted head rows make it.  The exp side runs pexp
on each unit, so it shares no affine step with the checks.  The checks below
are verify's former bodies on these tables, cap charges left out.
"""

from __future__ import annotations

import functools
import itertools

from cyclolog import Context, PiElement, format_digits, pexp, preimage_all
from cyclolog.verify import CheckResult, _head_table, _random_element, _tally


def log_table(ctx: Context, leads) -> dict:
    """{log digits: [unit digits]} over the units 1 + a1*pi + ... with a1 in
    `leads`, in enumeration order, which is increasing digit order."""
    p, n = ctx.p, ctx.precision
    table = {}
    for x0, y0, d in _head_table(ctx, leads):
        h = len(x0)
        y, slope = PiElement._make(y0, ctx), PiElement._make((0,) * h + d, ctx)
        for tau in itertools.product(range(p), repeat=n - h):
            lg = y + slope * PiElement._make(tau + (0,) * h, ctx)
            table.setdefault(lg.digits, []).append(x0 + tau)
    return table


def exp_values(ctx: Context):
    """(y, pexp(y) digits) for every y in m_K^2, in increasing digit order."""
    for tail in itertools.product(range(ctx.p), repeat=ctx.precision - 2):
        y = (0, 0) + tail
        yield y, pexp(PiElement._make(y, ctx)).digits


class Tables:
    """The annulus and 1 + m_K^2 log tables of one context, each built on first use."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    @functools.cached_property
    def annulus(self) -> dict:
        return log_table(self.ctx, range(1, self.ctx.p))

    @functools.cached_property
    def squares(self) -> dict:
        return log_table(self.ctx, (0,))


def witnesses(digit_tuples) -> list[str]:
    return [",".join(map(str, d)) for d in sorted(digit_tuples)[:5]]


def image_mismatch(ctx: Context, image) -> tuple[set, set]:
    """(image - m2, m2 - image) for m2 = m_K^2 mod pi^N, the p^(N-2) canonical
    vectors that start with two zeros; image == m2 is the theorem's statement."""
    tails = itertools.product(range(ctx.p), repeat=ctx.precision - 2)
    outside = {d for d in image if d[0] or d[1]}
    return outside, {m for m in ((0, 0) + tail for tail in tails) if m not in image}


def annulus_image(ctx: Context, tables: Tables) -> CheckResult:
    p, n = ctx.p, ctx.precision
    fibers = tables.annulus
    outside = [u for lg, units in fibers.items() if lg[0] or lg[1] for u in units]
    expected = p ** (n - 2)
    sizes = [len(units) for units in fibers.values()]
    min_fiber, max_fiber = min(sizes), max(sizes)
    passed = not outside and len(fibers) == expected and min_fiber == max_fiber == p - 1
    shown = witnesses(outside)
    if not passed and not shown:
        shown = witnesses(lg for lg, units in fibers.items() if len(units) != p - 1)
    counts = {
        "units": (p - 1) * p ** (n - 2),
        "images": len(fibers),
        "expected_images": expected,
        "min_fiber": min_fiber,
        "max_fiber": max_fiber,
        "outside_m_squared": len(outside),
    }
    return CheckResult("annulus_image", passed, counts, shown)


def square_iso(ctx: Context, tables: Tables) -> CheckResult:
    total = ctx.p ** (ctx.precision - 2)
    images = tables.squares
    outside = [u for lg, units in images.items() if lg[0] or lg[1] for u in units]
    unrecovered = []
    for y, back in exp_values(ctx):
        unrecovered += (u for u in images.get(y, ()) if u != back)
    passed = not outside and not unrecovered and len(images) == total
    counts = {
        "units": total,
        "images": len(images),
        "expected_images": total,
        "roundtrip_failures": len(unrecovered),
        "outside_m_squared": len(outside),
    }
    return CheckResult("square_isomorphism", passed, counts, witnesses(outside + unrecovered))


def full_image_and_index(ctx: Context, tables: Tables) -> CheckResult:
    p, n = ctx.p, ctx.precision
    union = tables.annulus.keys() | tables.squares.keys()
    outside, missing = image_mismatch(ctx, union)
    index = p ** (n - 1) // len(union)
    counts = {
        "annulus_units": (p - 1) * p ** (n - 2),
        "square_units": p ** (n - 2),
        "union_images": len(union),
        "m_squared_size": p ** (n - 2),
        "maximal_ideal_size": p ** (n - 1),
        "index": index,
        "closure_failures": len(missing),
    }
    passed = not outside and not missing and index == p
    return CheckResult("full_image_and_index", passed, counts, witnesses(outside | missing))


def preimage_matches_fiber(ctx: Context, rng, tables: Tables) -> CheckResult:
    """The constructed preimages of y equal the table's fiber of y as sets."""

    def trial():
        y = _random_element(rng, ctx, (0, 0))
        constructed = {u.digits for u in preimage_all(y)}
        fiber = set(tables.annulus.get(y.digits, ()))
        return constructed == fiber, [format_digits(y)]

    return _tally("preimage_matches_fiber", {"targets": 30}, (trial() for _ in range(30)))

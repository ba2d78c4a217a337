"""A fault in verify's logs, injected where verify takes them: at verify.plog,
which the sampled checks, preimage_matches_fiber and check_residue_field call,
and through which verify._head_table gives the exhaustive checks the log at
the two points of each head."""

from __future__ import annotations

from cyclolog import PiElement
from cyclolog import verify


def inject_log_fault(monkeypatch, fault) -> None:
    """Add fault(digits, ctx), an element or None, to the log of the unit with
    those digits.

    A head row (x0, y0, d) takes the fault at both of its points, x0 + zeros
    and x0 + pi^h, so y0 moves with the first and the slope d with the
    difference.  A fault that is affine in the tail digits on each head, such
    as one that reads only digits below h, moves every unit's log in the
    head rows as it moves that unit's plog; any other is seen differently by
    the exhaustive checks and the checks that run plog on whole units."""
    real_plog = verify.plog

    def plog(u):
        return real_plog(u) + _error(fault, u.digits, u.ctx)

    monkeypatch.setattr(verify, "plog", plog)


def _error(fault, digits, ctx):
    error = fault(digits, ctx)
    return ctx.zero() if error is None else error


def head_top(digits, ctx) -> int:
    """Digit h - 1 of a unit, the top digit of its head, h = ceil(N/2)."""
    return digits[(ctx.precision + 1) // 2 - 1]


def tail(digits, ctx) -> PiElement:
    """pi^h * tau, tau the unit's digits from h = ceil(N/2) on: affine in tau,
    so plog and the head rows see a fault made of it alike."""
    h = (ctx.precision + 1) // 2
    return PiElement((0,) * h + tuple(digits[h:]), ctx)


def golden_fault(digits, ctx):
    """The fault of golden/verify_p5_n5_seed3_faulty_plog.json: the log minus
    tail(digits) on every unit whose head ends in 1.  Those heads' slope d - 1
    has digit 0 equal to 0, so their units' logs fall on a p-th of the coset,
    each p times or more."""
    return -tail(digits, ctx) if head_top(digits, ctx) == 1 else None


def top_digit_fault(digits, ctx):
    """The fault the failing golden held before the checks counted cosets: the
    log off by pi^(N-1) on every unit whose top digit is 1.  No head point has
    top digit 1, so only the checks that run plog on whole units see it."""
    return ctx.uniformizer().mul_pi_power(ctx.precision - 2) if digits[-1] == 1 else None

"""A fault in verify's logs, injected where verify takes them: at verify.plog,
which the sampled checks and check_residue_field call, and at
verify._split_walk, which gives the exhaustive tables one log for each unit
they enumerate."""

from __future__ import annotations

from cyclolog import PiElement
from cyclolog import verify


def inject_log_fault(monkeypatch, fault) -> None:
    """Add fault(digits, ctx), an element or None, to the log of the unit with
    those digits.  fault reads digits 1 on, which u and u - 1 share: the
    exhaustive checks evaluate the log at the digits of u - 1.

    The walk's head runs call series._series, which is left alone: they are
    no unit's evaluation, so every table unit gets its fault once, from the
    pair the walk yields for it, zero tail or not."""
    real_plog, real_walk = verify.plog, verify._split_walk

    def plog(u):
        y, error = real_plog(u), fault(u.digits, u.ctx)
        return y if error is None else y + error

    def split_walk(const, lead, terms_of, ctx):
        for x, y in real_walk(const, lead, terms_of, ctx):
            error = fault(x, ctx) if terms_of is verify._log_terms else None
            yield x, y if error is None else (PiElement(y, ctx) + error).digits

    monkeypatch.setattr(verify, "plog", plog)
    monkeypatch.setattr(verify, "_split_walk", split_walk)


def golden_fault(digits, ctx):
    """The fault of golden/verify_p5_n5_seed3_faulty_plog.json: the log off by
    pi^(N-1) on every unit whose top digit is 1."""
    return ctx.uniformizer().mul_pi_power(ctx.precision - 2) if digits[-1] == 1 else None

"""A fault in verify's logs, injected where verify takes them: at verify.plog,
which the sampled checks call, at verify._split_walk, which gives the
exhaustive tables one log for each unit they enumerate, and at verify._series,
which check_residue_field calls for each of its p logs."""

from __future__ import annotations

from cyclolog import PiElement
from cyclolog import verify


def inject_log_fault(monkeypatch, fault) -> None:
    """Add fault(digits, ctx), an element or None, to the log of the unit with
    those digits.  fault reads digits 1 on, which u and u - 1 share: the
    exhaustive checks evaluate the log at the digits of u - 1.

    _split_walk runs _series at each head it meets, and those runs are no
    unit's evaluation: _series adds the fault only while no walk is running
    its real generator, so every table unit gets its fault once, from the
    pair the walk yields for it, zero tail or not."""
    real_plog, real_series, real_walk = verify.plog, verify._series, verify._split_walk
    splitting = []

    def faulty(y, x, terms_of, ctx):
        error = fault(x, ctx) if terms_of is verify._log_terms else None
        return y if error is None else (PiElement(y, ctx) + error).digits

    def plog(u):
        y, error = real_plog(u), fault(u.digits, u.ctx)
        return y if error is None else y + error

    def series(const, x, terms_of, ctx):
        y = real_series(const, x, terms_of, ctx)
        return y if splitting else faulty(y, x, terms_of, ctx)

    def split_walk(const, lead, terms_of, ctx):
        walk = real_walk(const, lead, terms_of, ctx)
        while True:
            splitting.append(lead)
            try:
                pair = next(walk, None)
            finally:
                splitting.pop()
            if pair is None:
                return
            x, y = pair
            yield x, faulty(y, x, terms_of, ctx)

    monkeypatch.setattr(verify, "plog", plog)
    monkeypatch.setattr(verify, "_series", series)
    monkeypatch.setattr(verify, "_split_walk", split_walk)


def golden_fault(digits, ctx):
    """The fault of golden/verify_p5_n5_seed3_faulty_plog.json: the log off by
    pi^(N-1) on every unit whose top digit is 1."""
    return ctx.uniformizer().mul_pi_power(ctx.precision - 2) if digits[-1] == 1 else None

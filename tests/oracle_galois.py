"""Independent oracle from the Galois twists of Q_p(pi), pi^(p-1) = -p.

For a in 1..p-1 let omega(a) be the Teichmüller lift of a, the (p-1)-th root
of unity in Z_p congruent to a.  Then (omega(a)*pi)^(p-1) = -p, so
sigma_a(pi) = omega(a)*pi defines a field automorphism fixing Q_p, with
sigma_a(pi) = a*pi mod pi^2 and sigma_a sigma_b = sigma_ab.  On a digit
vector it maps digit d_i to the integer d_i * omega(a)^i mod p^M, with
M*(p-1) >= N so that p^M = 0 mod pi^N, and carries the result back to
canonical digits.

log and exp are power series over Q_p, so they commute with every sigma_a,
and sigma_a carries the branch-b preimage of y to the branch-ab preimage of
sigma_a(y) and the branch-1 root of unity to the branch-a one.  The twist
reads digit i through omega(a)^i, unlike anything in the package, so it sees
faults that treat digit positions unevenly: carries, truncation, packing.
It cannot see a coefficient fault: a series with a wrong coefficient is still
a series over Q_p, and commutes with every sigma_a just as the right one does.
"""

from __future__ import annotations

from cyclolog import PiElement
from cyclolog.ring import _canonical


def teichmuller(a: int, p: int, modulus_exponent: int) -> int:
    """omega(a) mod p^M: each p-th power fixes one more p-adic digit."""
    modulus = p**modulus_exponent
    w = a % modulus
    for _ in range(modulus_exponent):
        w = pow(w, p, modulus)
    return w


def twist(a: int, x: PiElement) -> PiElement:
    """sigma_a(x): digit d_i becomes d_i * omega(a)^i, then one carry pass."""
    ctx = x.ctx
    p, N = ctx.p, ctx.precision
    M = -(-N // (p - 1))
    modulus = p**M
    w = teichmuller(a, p, M)
    raw = [d * pow(w, i, modulus) % modulus for i, d in enumerate(x.digits)]
    return PiElement(_canonical(raw, p, N), ctx)

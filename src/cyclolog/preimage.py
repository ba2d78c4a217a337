"""Closed-form preimages of the logarithm on the unit annulus.

A target y with digits 0 and 1 zero has exactly p - 1 preimages among the
units whose leading digit a1 is nonzero, one per a1.  The one with leading
digit b is u*exp(y - log u) for u = 1 + b*pi: log turns the product into a
sum, and exp(z) lies in 1 + m_K^2, so the leading digit stays b.
tests/oracle_preimage.py keeps the paper's digit induction as the reference.
"""

from __future__ import annotations

from .errors import BranchZero, NotInMSquared
from .ring import Context, PiElement, PrincipalUnit, _in_range
from .series import pexp, plog


def digit2_for_branch(y2: int, a1: int, ctx: Context) -> int:
    """The unique digit a2 with (a2 - a1^2/2) mod p equal to y2."""
    p = ctx.p
    y2 = _in_range(y2, 0, p, "y2")
    a1 = _in_range(a1, 1, p, "branch a1", BranchZero)
    return (y2 + a1 * a1 * pow(2, -1, p)) % p


def qr_pair_enumeration(y2: int, ctx: Context) -> set[tuple[int, int]]:
    """All branch pairs (a1, a2), counted the quadratic-residue way.

    For each a2, the value -2*y2 + 2*a2 must be a nonzero quadratic residue
    a1^2; each of the (p-1)/2 admissible a2 contributes both square roots,
    giving p - 1 pairs in total.  A brute-force square table stands in for
    Euler's criterion at these sizes.
    """
    p = ctx.p
    y2 = _in_range(y2, 0, p, "y2")
    roots_of: dict[int, list[int]] = {}
    for r in range(1, p):
        roots_of.setdefault(r * r % p, []).append(r)
    return {(a1, a2) for a2 in range(p) for a1 in roots_of.get((2 * a2 - 2 * y2) % p, ())}


def preimage(y: PiElement, branch: int) -> PrincipalUnit:
    """The unit with leading digit `branch` whose logarithm is y.

    With u = 1 + branch*pi, the result r = u*pexp(y - plog(u)) satisfies:
    - plog(r) = plog(u) + (y - plog(u)) = y, as log is a homomorphism and
      inverts exp on m_K^2;
    - r = u mod pi^2, since pexp(z) lies in 1 + m_K^2;
    - r is the only such unit mod pi^N: two of them differ by a factor in
      1 + m_K^2, where log is injective, with log zero.
    So r matches the digit induction of the paper digit for digit.
    """
    ctx = y.ctx
    if y.digits[0] != 0 or y.digits[1] != 0:
        raise NotInMSquared("target digits 0 and 1 must be zero")
    branch = _in_range(branch, 1, ctx.p, "branch", BranchZero)
    u = PiElement._make((1, branch) + (0,) * (ctx.precision - 2), ctx)
    return PrincipalUnit._make((u * pexp(y - plog(u))).digits, ctx)


def preimage_all(y: PiElement) -> list[PrincipalUnit]:
    """One preimage per branch, ordered by leading digit 1..p-1."""
    return [preimage(y, a1) for a1 in range(1, y.ctx.p)]


def roots_of_unity(ctx: Context) -> list[PrincipalUnit]:
    """The p - 1 nontrivial p-th roots of unity, as the log fiber over zero.

    The branch-1 root z = preimage(0, 1) is congruent to 1 + pi mod pi^2, the
    root attached to the uniformizer normalization pi^(p-1) = -p.  Branch b
    is z^b: log(z^b) = b*log z = 0 and z^b = 1 + b*pi mod pi^2, and each
    branch holds exactly one unit with log 0 (see preimage), so the list
    matches preimage_all(ctx.zero()) digit for digit at one preimage and
    p - 2 products.
    """
    z = preimage(ctx.zero(), 1)
    roots = [z]
    for _ in range(ctx.p - 2):
        roots.append(PrincipalUnit._make((roots[-1] * z).digits, ctx))
    return roots

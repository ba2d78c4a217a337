"""Independent reference oracle for the log preimages: the digit induction.

Fixing the leading digit a1 determines digit a2 in closed form; every later
digit a_j is the unique solution of a one-digit congruence, because appending
a_j*pi^j to a partial unit shifts digit j of its logarithm by exactly a_j.
This is the paper's constructive proof, at N - 3 plog calls per branch.
"""

from __future__ import annotations

from cyclolog import Context, PiElement, PrincipalUnit, digit2_for_branch, plog


def digit_induction_preimage(y: PiElement, branch: int) -> PrincipalUnit:
    """The unit with leading digit `branch` whose logarithm is y, digit by digit.

    The target is assumed to lie in m^2 and the branch in 1..p-1.
    """
    ctx: Context = y.ctx
    p, N = ctx.p, ctx.precision
    digits = [0] * N
    digits[0] = 1
    digits[1] = branch
    digits[2] = digit2_for_branch(y.digits[2], branch, ctx)
    for j in range(3, N):
        partial = PiElement._make(tuple(digits), ctx)
        current = plog(partial)
        digits[j] = (y.digits[j] - current.digits[j]) % p
    return PrincipalUnit(tuple(digits), ctx)

"""Characteristic-p oracle for the logarithm and exponential when N <= p - 1.

Then p = -pi^(p-1) is 0 mod pi^N, so Z_p[pi]/pi^N is F_p[pi]/pi^N: a
canonical digit vector is a plain polynomial over F_p, and products need no
carries.  Only two kinds of log-series term survive there: n < N, where n is
a unit, and, when v = 1, the single term n = p, x^p/p = -pi * w^p, which is
-a1 * pi since w^p = a1^p = a1 in characteristic p.  With a1 the digit 1 of
x = u - 1,

    log(1 + x) = sum_{n<N} (-1)^(n+1) x^n / n  -  a1 * pi   (mod pi^N)
    exp(y)     = sum_{n<N} y^n / n!                          (mod pi^N)

with every inverse taken mod p.  Digit 1 of the log is a1 - a1 = 0: the
Fermat cancellation a1 - a1^p.  Nothing here uses cyclolog arithmetic.
"""

from __future__ import annotations


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                out[i + j] += ai * b[j]
    return [c % p for c in out]


def _series(x: list[int], coeffs: list[int], p: int) -> list[int]:
    """sum(coeffs[n] * x^n for n < len(x)), mod p."""
    acc = [0] * len(x)
    power = [1] + [0] * (len(x) - 1)
    for c in coeffs:
        acc = [(s + c * t) % p for s, t in zip(acc, power)]
        power = _poly_mul(power, x, p)
    return acc


def charp_log_digits(u_digits, p: int) -> tuple[int, ...]:
    """Digits of log(u) for a principal unit u given by its digits, N <= p - 1."""
    n = len(u_digits)
    assert n <= p - 1 and u_digits[0] == 1
    x = [0] + list(u_digits[1:])
    coeffs = [0] + [(-1) ** (k + 1) * pow(k, -1, p) for k in range(1, n)]
    acc = _series(x, coeffs, p)
    acc[1] = (acc[1] - x[1]) % p
    return tuple(acc)


def charp_exp_digits(y_digits, p: int) -> tuple[int, ...]:
    """Digits of exp(y) for y of valuation >= 2 given by its digits, N <= p - 1."""
    n = len(y_digits)
    assert n <= p - 1 and y_digits[0] == y_digits[1] == 0
    coeffs, factorial = [], 1
    for k in range(n):
        factorial = factorial * max(k, 1) % p
        coeffs.append(pow(factorial, -1, p))
    return tuple(_series(list(y_digits), coeffs, p))

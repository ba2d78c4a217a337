"""Exact arithmetic in Z_p[pi] modulo pi^N, where the uniformizer satisfies
pi^(p-1) = -p.

An element is a canonical digit vector (d_0, ..., d_{N-1}) with every digit
in [0, p), standing for sum(d_i * pi^i).  The single carry rule

    p * pi^j  =  -pi^(j + p - 1)

is applied only inside :func:`_canonical`; nothing else in the package ever
stores a digit outside [0, p).  Carries move strictly upward, so one pass in
increasing position order canonicalizes any integer vector, and carries that
land at or beyond the precision are exact multiples of pi^N and get dropped.
Every outside integer is read with operator.index where it enters: digits and
int operands of +, - and * (PiElement states the operand rule) at PiElement(...)
and normalize, p and N at Context, the exponent of **, the k of the pi-power
shifts and resize's precision in those methods, a digit or branch at _in_range,
and verify's cap and seed where they are first used.  A bool becomes 0 or 1; a
non-integer, a float p, N, exponent, cap or seed included, raises TypeError.
Computed elements are never checked again.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Iterable, Sequence

from .errors import (
    ContextMismatch,
    DigitStringError,
    NotAUnit,
    NotDivisible,
    NotPrincipalUnit,
)

# _pack holds digits in 64-bit limbs; limb j < n of a length-n product of
# canonical digits sums at most n terms of at most (p-1)**2, and
# n * (p-1)**2 <= N * (p-1)**2 < 2**64 whenever p <= 2**20 and N <= 2**24, so
# the bound holds at every n <= N, for _mul and for the series' carried
# operands alike.
P_CAP = 1 << 20
PRECISION_CAP = 1 << 24


def _is_prime(n: int) -> bool:
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class _Frozen:
    """The value semantics of a frozen dataclass over the fields named in
    __match_args__: ==, hash and repr read those fields alone, and no
    attribute can be set or deleted once __init__ has stored them with
    _set.  It keeps dataclasses, and the inspect that it loads, out of
    the package's import; only a refused assignment loads it, for
    FrozenInstanceError."""

    __match_args__: tuple[str, ...]

    def _set(self, **attrs) -> None:
        # object.__setattr__ keeps the instance's attributes inline, where
        # reads are faster than through a __dict__ that vars() has made
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # an object equals itself without reading its fields
        return self is other or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Context(_Frozen):
    """The pair (p, precision) fixing the quotient ring Z_p[pi] / pi^precision."""

    __match_args__ = ("p", "precision")
    p: int
    precision: int

    def __init__(self, p: int, precision: int):
        # plain ints, read in this order; series._series's plans, keyed by
        # (terms_of, v), are pure functions of (series, p, precision, v), so
        # they stay outside equality, hash and repr
        self._set(p=operator.index(p), precision=operator.index(precision), _plans={})
        if self.p > P_CAP:  # first, as it bounds _is_prime's trial division
            raise ValueError(f"p must be at most 2**20, got {self.p}")
        if self.p < 3 or not _is_prime(self.p):
            raise ValueError(f"p must be an odd prime >= 3, got {self.p!r}")
        if self.precision < 4:
            raise ValueError(f"precision must be an integer >= 4, got {self.precision!r}")
        if self.precision > PRECISION_CAP:
            raise ValueError(f"precision must be at most 2**24, got {self.precision}")

    @property
    def e(self) -> int:
        """Ramification index of Q_p(zeta_p) over Q_p, always p - 1."""
        return self.p - 1

    def zero(self) -> PiElement:
        return PiElement._make((0,) * self.precision, self)

    def one(self) -> PiElement:
        return PiElement._make((1,) + (0,) * (self.precision - 1), self)

    def uniformizer(self) -> PiElement:
        return PiElement._make((0, 1) + (0,) * (self.precision - 2), self)

    def from_integer(self, n: int) -> PiElement:
        """Image of a rational integer, canonicalized by the carry rule."""
        return normalize([n], self)

    def element(self, raw: Sequence[int]) -> PiElement:
        """Same as :func:`normalize` with this context."""
        return normalize(raw, self)

    def parse(self, text: str) -> PiElement:
        return parse_digits(text, self)


def _in_range(value, low: int, p: int, what: str, error=ValueError) -> int:
    """value read with operator.index; error unless it lies in [low, p)."""
    value = operator.index(value)
    if not low <= value < p:
        raise error(f"{what} must lie in [{low}, {p}), got {value}")
    return value


def _canonical(raw: Iterable[int], p: int, n: int) -> tuple[int, ...]:
    """The one carry pass: canonical digits of sum(raw[i] * pi^i) mod pi^n.

    Every computed integer vector becomes canonical here, at any length n >= 1,
    as exactly n digits: a shorter raw is zero padded, and the entries of a
    longer one at positions n and up are multiples of pi^n and dropped.
    """
    buf = list(raw)
    if len(buf) != n:
        buf = buf[:n] + [0] * (n - len(buf))
    shift = p - 1
    for j in range(n):
        v = buf[j]
        if 0 <= v < p:
            continue
        q, r = divmod(v, p)
        buf[j] = r
        k = j + shift
        if k < n:
            buf[k] -= q
    return tuple(buf)


def _pack(digits: Sequence[int], n: int) -> int:
    """The first n entries of digits, each in [0, 2**64), as the little-endian
    64-bit limbs of one integer."""
    return int.from_bytes(struct.pack(f"<{n}Q", *digits[:n]), "little")


def _unpack(x: int, n: int) -> tuple[int, ...]:
    """The low n 64-bit limbs of a nonnegative integer, inverse to _pack."""
    return struct.unpack(f"<{n}Q", (x & ((1 << 64 * n) - 1)).to_bytes(8 * n, "little"))


def _mul(a: Sequence[int], b: Sequence[int], p: int, n: int) -> tuple[int, ...]:
    """Canonical digits of a*b mod pi^n from the first n digits of a and b.

    Works at any length n >= 1 and builds no Context.  The digit convolution
    is one big-integer product of the packed digits (Kronecker substitution);
    P_CAP bounds the limbs.
    """
    return _canonical(_unpack(_pack(a, n) * _pack(b, n), n), p, n)


# _add, _sub and _rsub (b - a) share _mul's shape: canonical digits mod pi^n
def _add(a: Sequence[int], b: Sequence[int], p: int, n: int) -> tuple[int, ...]:
    return _canonical([x + y for x, y in zip(a, b)], p, n)


def _sub(a: Sequence[int], b: Sequence[int], p: int, n: int) -> tuple[int, ...]:
    return _canonical([x - y for x, y in zip(a, b)], p, n)


def _rsub(a: Sequence[int], b: Sequence[int], p: int, n: int) -> tuple[int, ...]:
    return _sub(b, a, p, n)


def normalize(raw: Sequence[int], ctx: Context) -> PiElement:
    """Canonical digit vector of sum(raw[i] * pi^i) reduced mod pi^precision.

    Entries may be arbitrary signed integers; shorter vectors are zero padded.
    Excess q*p at position j becomes -q at position j + p - 1, a deficit -1 at
    position j becomes p - 1 there plus +1 at position j + p - 1, and carries
    landing at or beyond the precision are dropped.
    """
    if len(raw) > ctx.precision:
        raise ValueError(
            f"raw vector of length {len(raw)} exceeds precision {ctx.precision}"
        )
    return PiElement._make(
        _canonical(map(operator.index, raw), ctx.p, ctx.precision), ctx
    )


class PiElement:
    """A canonical digit vector in the pi-basis.  Treat as immutable.

    Supports +, - and * with an element of the same context or an int (a
    bool too) on either side, and ** with a nonnegative integer exponent; all
    results are canonical.  An element of another context raises
    ContextMismatch; any other operand raises TypeError.
    """

    __slots__ = ("digits", "ctx")

    def __init__(self, digits: Sequence[int], ctx: Context):
        digits = tuple(map(operator.index, digits))
        if len(digits) != ctx.precision:
            raise ValueError(
                f"need exactly {ctx.precision} digits, got {len(digits)}"
            )
        p = ctx.p
        for d in digits:
            if d < 0 or d >= p:
                raise ValueError(
                    f"digit {d!r} outside [0, {p}); use normalize() for raw vectors"
                )
        self.digits = digits
        self.ctx = ctx

    @classmethod
    def _make(cls, digits: tuple[int, ...], ctx: Context) -> PiElement:
        # internal fast path: digits already canonical
        self = object.__new__(cls)
        self.digits = digits
        self.ctx = ctx
        return self

    def _binary(self, other, combine):
        ctx = self.ctx
        if isinstance(other, PiElement):
            # nearly always one Context object, which spares _Frozen.__eq__
            if other.ctx is not ctx and other.ctx != ctx:
                raise ContextMismatch(f"{other.ctx} does not match {ctx}")
        elif isinstance(other, int):
            other = ctx.from_integer(other)
        else:
            return NotImplemented
        return PiElement._make(combine(self.digits, other.digits, ctx.p, ctx.precision), ctx)

    def __add__(self, other):
        return self._binary(other, _add)

    __radd__ = __add__

    def __neg__(self):
        ctx = self.ctx
        raw = [-d for d in self.digits]
        return PiElement._make(_canonical(raw, ctx.p, ctx.precision), ctx)

    def __sub__(self, other):
        return self._binary(other, _sub)

    def __rsub__(self, other):
        return self._binary(other, _rsub)

    def __mul__(self, other):
        return self._binary(other, _mul)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        exponent = operator.index(exponent)
        if exponent < 0:
            raise ValueError("negative exponents are not supported; use invert_unit")
        if exponent == 0:
            return self.ctx.one()
        # left to right from self: bit_length - 1 squarings, popcount - 1 products
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, PiElement):
            return NotImplemented
        return (self.ctx is other.ctx or self.ctx == other.ctx) and self.digits == other.digits

    def __hash__(self):
        return hash((self.ctx, self.digits))

    def __repr__(self):
        return f"PiElement({format_digits(self)!r}, p={self.ctx.p})"

    def __str__(self):
        return format_digits(self)

    def is_zero(self) -> bool:
        return not any(self.digits)

    def valuation(self) -> int:
        """Index of the first nonzero digit; the precision N when zero.

        A return value of N means "at least N"; callers must treat it as
        unknown beyond the working precision, not as infinity.
        """
        for i, d in enumerate(self.digits):
            if d:
                return i
        return self.ctx.precision

    def invert_unit(self) -> PiElement:
        """Multiplicative inverse of a unit, by Newton iteration z <- z(2 - az).

        Starts from the inverse of digit 0 mod p; correct digits double each
        step, so ceil(log2(precision)) steps suffice.
        """
        if self.digits[0] == 0:
            raise NotAUnit("element has positive valuation")
        ctx = self.ctx
        z = ctx.from_integer(pow(self.digits[0], -1, ctx.p))
        correct = 1
        while correct < ctx.precision:
            z = z * (2 - self * z)
            correct *= 2
        return z

    def div_pi_power(self, k: int) -> PiElement:
        """Exact division by pi^k as a digit shift.

        The top k digits of the result are unknown at this precision and are
        filled with zeros; the reliable precision drops to N - k.
        """
        k = operator.index(k)
        if k < 0:
            raise ValueError("k must be nonnegative")
        if self.valuation() < k:
            raise NotDivisible(f"valuation {self.valuation()} < {k}")
        return PiElement._make(self.digits[k:] + (0,) * k, self.ctx)

    def mul_pi_power(self, k: int) -> PiElement:
        """Exact multiplication by pi^k as an upward digit shift; digits pushed past pi^N drop."""
        k = operator.index(k)
        if k < 0:
            raise ValueError("k must be nonnegative")
        k = min(k, self.ctx.precision)
        return PiElement._make((0,) * k + self.digits[: self.ctx.precision - k], self.ctx)

    def div_p(self) -> PiElement:
        """Exact division by p, i.e. shift down by p - 1 digits and negate."""
        return -self.div_pi_power(self.ctx.p - 1)

    def resize(self, precision: int) -> PiElement:
        """Truncate, or lift by zero padding, into a context of the given precision."""
        ctx2 = Context(self.ctx.p, precision)
        d = self.digits[: ctx2.precision]
        return PiElement._make(d + (0,) * (ctx2.precision - len(d)), ctx2)

    def expansion(self) -> str:
        """Human-readable pi-power expansion, e.g. '2·π^2 + 1·π^4'."""
        terms = []
        for i, d in enumerate(self.digits):
            if not d:
                continue
            if i == 0:
                terms.append(str(d))
            elif i == 1:
                terms.append(f"{d}·π")
            else:
                terms.append(f"{d}·π^{i}")
        return " + ".join(terms) if terms else "0"


class PrincipalUnit(PiElement):
    """A PiElement whose digit 0 equals 1, i.e. a unit in 1 + m_K."""

    __slots__ = ()

    def __init__(self, digits: Sequence[int], ctx: Context):
        super().__init__(digits, ctx)
        if self.digits[0] != 1:
            raise NotPrincipalUnit(
                f"digit 0 must be 1 for a principal unit, got {self.digits[0]}"
            )

    @classmethod
    def from_element(cls, element: PiElement) -> PrincipalUnit:
        return cls(element.digits, element.ctx)


def format_digits(a: PiElement) -> str:
    """Comma separated little-endian digit string, index 0 first."""
    return ",".join(str(d) for d in a.digits)


def parse_digits(text: str, ctx: Context) -> PiElement:
    """Parse the digit-string format; strict, no normalization.

    Rejects tokens other than ASCII numerals, digits outside [0, p) and
    vectors longer than the precision.  Shorter vectors are zero padded.
    """
    parts = [t.strip() for t in text.split(",")]
    if len(parts) > ctx.precision:
        raise DigitStringError(
            f"{len(parts)} digits exceed precision {ctx.precision}"
        )
    digits = []
    for tok in parts:
        try:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(tok)
            d = int(tok)  # still raises past int's digit-count limit
        except ValueError:
            raise DigitStringError(f"invalid digit {tok!r}") from None
        if d >= ctx.p:
            raise DigitStringError(f"digit {d} outside [0, {ctx.p})")
        digits.append(d)
    digits.extend(0 for _ in range(ctx.precision - len(digits)))
    return PiElement._make(tuple(digits), ctx)

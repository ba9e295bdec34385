"""Finite-field arithmetic and the outer MDS (Reed-Solomon style) codec.

Fields GF(p^m) are limited to characteristics {2, 3, 5, 7} and order at
most 2^16.  Elements are plain integers 0..q-1: for p = 2 the integer is
the coefficient bitmask of the representing polynomial, otherwise its
base-p digits are the coefficients.  Multiplication and inversion go
through exp/log tables built once per field from a verified generator, so
the chosen modulus only has to be irreducible, not primitive.  The MDS codec
evaluates its polynomial in barycentric Lagrange form and never builds the
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import CorruptionError, ParameterError

__all__ = ["GF", "MdsCode", "default_field_for", "FIELD_CHARACTERISTICS"]

FIELD_CHARACTERISTICS = (2, 3, 5, 7)
MAX_ORDER = 1 << 16

# Irreducible (in fact primitive) polynomials over GF(2), degree -> bitmask.
_BINARY_MODULI = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}

# Irreducible monic polynomials over odd prime fields, (p, m) -> ascending
# coefficients of the non-leading terms (degree m is implicitly 1).
_ODD_MODULI = {
    (3, 2): (2, 1),     # x^2 + x + 2
    (3, 3): (1, 2, 0),  # x^3 + 2x + 1
    (3, 4): (2, 1, 0, 0),  # x^4 + x + 2
    (5, 2): (2, 1),     # x^2 + x + 2
    (7, 2): (3, 1),     # x^2 + x + 3
}


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ParameterError(f"field order must be at least 2, got {q}")
    for p in (2, 3, 5, 7):
        if q % p == 0:
            m = 0
            rest = q
            while rest % p == 0:
                rest //= p
                m += 1
            if rest != 1:
                raise ParameterError(f"{q} is not a power of {p}")
            return p, m
    raise ParameterError(
        f"field order {q} has characteristic outside {FIELD_CHARACTERISTICS}")


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


class GF:
    """The finite field with q = p^m elements."""

    def __init__(self, q: int, modulus=None):
        p, m = _prime_power(q)
        if q > MAX_ORDER:
            raise ParameterError(f"field order {q} exceeds the supported 2^16")
        self.q = q
        self.p = p
        self.m = m
        if m == 1:
            self.modulus = None
        elif p == 2:
            self.modulus = int(modulus) if modulus is not None else _BINARY_MODULI[m]
        else:
            if modulus is not None:
                self.modulus = tuple(int(c) for c in modulus)
            elif (p, m) in _ODD_MODULI:
                self.modulus = _ODD_MODULI[(p, m)]
            else:
                raise ParameterError(f"no built-in modulus for GF({p}^{m})")
        self._build_tables()

    # -- representation plumbing ------------------------------------------

    def _digits(self, a: int) -> list[int]:
        digits = []
        for _ in range(self.m):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _undigits(self, digits: Sequence[int]) -> int:
        value = 0
        for d in reversed(digits):
            value = value * self.p + d
        return value

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free polynomial product mod the modulus; used to bootstrap."""
        if self.m == 1:
            return a * b % self.p
        if self.p == 2:
            result = 0
            while b:
                if b & 1:
                    result ^= a
                b >>= 1
                a <<= 1
                if a >> self.m:
                    a ^= self.modulus
            return result
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce: x^m = -(modulus tail)
        for i in range(len(prod) - 1, self.m - 1, -1):
            coeff = prod[i]
            if coeff:
                prod[i] = 0
                for j, c in enumerate(self.modulus):
                    prod[i - self.m + j] = (prod[i - self.m + j] - coeff * c) % self.p
        return self._undigits(prod[: self.m])

    def _raw_pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return result

    def _build_tables(self) -> None:
        order = self.q - 1
        factors = _prime_factors(order) if order > 1 else []
        generator = None
        for g in range(2, self.q):
            if all(self._raw_pow(g, order // f) != 1 for f in factors):
                generator = g
                break
        if generator is None:
            if self.q == 2:
                generator = 1
            else:
                raise ParameterError(
                    f"modulus for GF({self.p}^{self.m}) is not irreducible: "
                    f"no multiplicative generator exists")
        self.generator = generator
        exp = [1] * (2 * order if order else 1)
        value = 1
        for i in range(order):
            exp[i] = value
            value = self._raw_mul(value, generator)
        if value != 1:
            raise ParameterError(
                f"modulus for GF({self.p}^{self.m}) is not irreducible")
        for i in range(order, 2 * order):
            exp[i] = exp[i - order]
        log = [0] * self.q
        for i in range(order):
            log[exp[i]] = i
        self._exp = exp
        self._log = log

    # -- field operations --------------------------------------------------

    def _check(self, *elements: int) -> None:
        for a in elements:
            if not 0 <= a < self.q:
                raise ParameterError(f"{a} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self._undigits([(x + y) % self.p
                               for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        self._check(a)
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero has no negative powers")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        order = self.q - 1
        for f in _prime_factors(order):
            while order % f == 0 and self.pow(a, order // f) == 1:
                order //= f
        return order

    def elements(self) -> range:
        return range(self.q)

    # -- identity ----------------------------------------------------------

    def spec(self) -> dict:
        """JSON-ready description, round-trips through from_spec()."""
        modulus = self.modulus if self.p == 2 or self.m == 1 else list(self.modulus)
        return {"p": self.p, "m": self.m, "q": self.q, "modulus": modulus}

    @classmethod
    def from_spec(cls, spec: dict) -> "GF":
        return cls(spec["q"], modulus=spec.get("modulus"))

    def __eq__(self, other) -> bool:
        return (isinstance(other, GF) and self.q == other.q
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.q, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def _cached_field(q: int) -> GF:
    return GF(q)


def default_field_for(theta: int) -> GF:
    """Smallest GF(2^m) large enough to index theta codeword positions."""
    m = 1
    while (1 << m) < theta:
        m += 1
    return _cached_field(1 << m)


@dataclass(frozen=True)
class MdsCode:
    """A systematic (length, dimension) MDS code by polynomial evaluation.

    Position p is evaluated at the field element p.  The encoding
    polynomial interpolates the message at positions 0..dimension-1, so the
    codeword carries the message verbatim in its first dimension coordinates.
    """

    field: GF
    length: int
    dimension: int

    def __post_init__(self):
        if not 1 <= self.dimension <= self.length:
            raise ParameterError(
                f"need 1 <= dimension <= length, got ({self.dimension}, {self.length})")
        if self.length > self.field.q:
            raise ParameterError(
                f"length {self.length} exceeds field order {self.field.q}")

    def _lagrange(self, xs: Sequence[int], ys: Sequence[int],
                  targets: Iterable[int]) -> list[int]:
        """Values at targets of the degree < len(xs) polynomial through (xs, ys).

        Barycentric form: with w_i = y_i / prod_{j != i}(x_i - x_j), the value
        at t is prod_i(t - x_i) * sum_i w_i / (t - x_i); a t in xs gets its y.
        """
        f = self.field
        known = dict(zip(xs, ys))
        weights = []
        for xi, yi in zip(xs, ys):
            denom = 1
            for xj in xs:
                if xj != xi:
                    denom = f.mul(denom, f.sub(xi, xj))
            weights.append(f.div(yi, denom))
        values = []
        for t in targets:
            if t in known:
                values.append(known[t])
                continue
            scale, total = 1, 0
            for xi, w in zip(xs, weights):
                diff = f.sub(t, xi)
                scale = f.mul(scale, diff)
                total = f.add(total, f.div(w, diff))
            values.append(f.mul(scale, total))
        return values

    def encode(self, message: Sequence[int]) -> list[int]:
        """Map dimension message symbols to length codeword symbols."""
        if len(message) != self.dimension:
            raise ParameterError(
                f"message length {len(message)} differs from dimension {self.dimension}")
        self.field._check(*message)
        return self._lagrange(range(self.dimension), message, range(self.length))

    def decode(self, coords: Iterable[tuple[int, int]]) -> list[int]:
        """Recover the message from (position, value) pairs, 0-based positions.

        Erasure-only decoding: at least dimension distinct positions are
        required, and any redundant coordinates must be consistent with the
        interpolated polynomial.
        """
        seen: dict[int, int] = {}
        for pos, value in coords:
            if not 0 <= pos < self.length:
                raise ParameterError(f"coordinate position {pos} out of range")
            self.field._check(value)
            if pos in seen:
                if seen[pos] != value:
                    raise CorruptionError(
                        f"conflicting values {seen[pos]} and {value} at position {pos}")
                continue
            seen[pos] = value
        if len(seen) < self.dimension:
            raise ParameterError(
                f"insufficient coordinates: got {len(seen)}, need {self.dimension}")
        positions = sorted(seen)
        base, extra = positions[: self.dimension], positions[self.dimension:]
        values = self._lagrange(base, [seen[p] for p in base],
                                [*range(self.dimension), *extra])
        for p, value in zip(extra, values[self.dimension:]):
            if value != seen[p]:
                raise CorruptionError(
                    f"coordinate at position {p} is inconsistent with the others")
        return values[: self.dimension]

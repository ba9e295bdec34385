"""Finite-field arithmetic and the outer MDS (Reed-Solomon style) codec.

Fields GF(p^m) are limited to characteristics {2, 3, 5, 7} and order at
most 2^16.  Elements are plain integers 0..q-1: for p = 2 the integer is
the coefficient bitmask of the representing polynomial, otherwise its
base-p digits are the coefficients.  Multiplication and inversion go
through exp/log tables built once per field from a verified generator, so
the chosen modulus only has to be irreducible, not primitive.  Addition in an
odd-characteristic extension field goes through a Zech-logarithm table,
log(1 + g^n), built with them.

The MDS codec evaluates its polynomial in Lagrange form and never builds the
coefficients.  One kernel turns an erasure pattern (the sorted known
positions) into recovery rows: the Lagrange coefficients, as discrete logs,
of each missing message position and each redundant known position, so that
applying a row is table lookups and a field sum.  Each MdsCode keeps the rows
of the last 64 patterns it computed in a per-instance memo, so a pattern
that repeats is computed once; encode uses the rows of the full pattern.
The kernel does no range checks: encode and decode check every position and
value once at entry, and decode checks every redundant coordinate against
its row, on a memo hit as on a miss.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from functools import lru_cache, reduce
from operator import xor
from typing import Iterable, Sequence

from .errors import CorruptionError, ParameterError

__all__ = ["GF", "MdsCode", "default_field_for", "FIELD_CHARACTERISTICS"]

FIELD_CHARACTERISTICS = (2, 3, 5, 7)
MAX_ORDER = 1 << 16
_MEMO_CAP = 64  # erasure patterns whose recovery rows one MdsCode keeps

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
        if self.p != 2 and self.m > 1:
            # Zech logarithms: zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0.
            # Adding 1 only changes the constant digit of an element.
            p = self.p
            self._zech = [log[s] if (s := e - e % p + (e + 1) % p) else -1
                          for e in exp[:order]]

    # -- field operations --------------------------------------------------

    def _check(self, *elements: int) -> None:
        for a in elements:
            if not isinstance(a, int) or not 0 <= a < self.q:
                raise ParameterError(f"{a!r} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self._zech_add(a, b)

    def _zech_add(self, a: int, b: int) -> int:
        """Unchecked a + b for p odd and m > 1: g^x + g^y = g^(x + zech[y - x])."""
        if a == 0:
            return b
        if b == 0:
            return a
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % (self.q - 1)]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        self._check(a)
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        # -1 = g^((q-1)/2) for odd q
        return self._exp[self._log[a] + (self.q - 1) // 2] if a else 0

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
        if not isinstance(e, int):
            raise ParameterError(f"exponent {e!r} is not an integer")
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

    # -- unchecked log-domain helpers for the MDS kernel -------------------

    def _log_diffs(self, t: int, xs: Iterable[int]) -> list[int]:
        """[log(t - x) for x in xs]; t must differ from every x."""
        log = self._log
        if self.p == 2:
            return [log[t ^ x] for x in xs]
        if self.m == 1:
            p = self.p
            return [log[(t - x) % p] for x in xs]
        # t - x = t + (-x) by Zech logarithms, with log(-x) = log(x) + (q-1)/2
        order, zech = self.q - 1, self._zech
        half, lt = order // 2, log[t]
        return [lt if x == 0
                else (log[x] + half) % order if t == 0
                else (lt + zech[(log[x] + half - lt) % order]) % order
                for x in xs]

    def _sum(self, values: list[int]) -> int:
        """Unchecked sum of field elements."""
        if self.p == 2:
            return reduce(xor, values, 0)
        if self.m == 1:
            return sum(values) % self.p
        return reduce(self._zech_add, values, 0)

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


@dataclasses.dataclass(frozen=True)
class MdsCode:
    """A systematic (length, dimension) MDS code by polynomial evaluation.

    Position p is evaluated at the field element p.  The encoding
    polynomial interpolates the message at positions 0..dimension-1, so the
    codeword carries the message verbatim in its first dimension coordinates.
    """

    field: GF
    length: int
    dimension: int
    # sorted known positions -> recovery rows (see _rows), oldest evicted first
    _memo: OrderedDict = dataclasses.field(
        default_factory=OrderedDict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.dimension <= self.length:
            raise ParameterError(
                f"need 1 <= dimension <= length, got ({self.dimension}, {self.length})")
        if self.length > self.field.q:
            raise ParameterError(
                f"length {self.length} exceeds field order {self.field.q}")

    def _rows(self, positions: tuple[int, ...]) -> list[tuple[int, list[int]]]:
        """Recovery rows for the sorted known positions, memoised per pattern.

        The first dimension positions are the interpolation base x_i.  The
        targets are the missing positions in 0..dimension-1, then every known
        position past the base.  The row of a target t holds the Lagrange
        coefficients c_i(t) as discrete logs,
        log c_i(t) = sum_j log(t - x_j) + log w_i - log(t - x_i) with
        log w_i = -sum_{j != i} log(x_i - x_j), so that value(t) = sum_i c_i y_i.
        """
        rows = self._memo.get(positions)
        if rows is not None:
            return rows
        f, dim = self.field, self.dimension
        order = f.q - 1
        base = positions[:dim]
        log_w = [-sum(f._log_diffs(x, base[:i] + base[i + 1:])) % order
                 for i, x in enumerate(base)]
        known = set(base)
        rows = []
        for t in [*(t for t in range(dim) if t not in known), *positions[dim:]]:
            diffs = f._log_diffs(t, base)
            total = sum(diffs)
            rows.append((t, [(total + w - d) % order for w, d in zip(log_w, diffs)]))
        if len(self._memo) >= _MEMO_CAP:
            self._memo.popitem(last=False)
        self._memo[positions] = rows
        return rows

    def _apply(self, row: list[int], log_ys: list[int | None]) -> int:
        """sum_i c_i y_i for a row of log c_i; log_ys holds None for y_i = 0."""
        exp = self.field._exp
        return self.field._sum([exp[c + ly] for c, ly in zip(row, log_ys) if ly is not None])

    def encode(self, message: Sequence[int]) -> list[int]:
        """Map dimension message symbols to length codeword symbols."""
        if len(message) != self.dimension:
            raise ParameterError(
                f"message length {len(message)} differs from dimension {self.dimension}")
        self.field._check(*message)
        log = self.field._log
        log_ys = [log[y] if y else None for y in message]
        # the full pattern's targets are exactly the positions past the message
        rows = self._rows(tuple(range(self.length)))
        return [*message, *(self._apply(row, log_ys) for _, row in rows)]

    def decode(self, coords: Iterable[tuple[int, int]]) -> list[int]:
        """Recover the message from (position, value) pairs, 0-based positions.

        Erasure-only decoding: at least dimension distinct positions are
        required, and any redundant coordinates must be consistent with the
        interpolated polynomial.
        """
        q = self.field.q
        seen: dict[int, int] = {}
        for pos, value in coords:
            if not isinstance(pos, int) or not 0 <= pos < self.length:
                raise ParameterError(f"coordinate position {pos!r} out of range")
            if not isinstance(value, int) or not 0 <= value < q:
                raise ParameterError(f"{value!r} is not an element of GF({q})")
            if pos in seen:
                if seen[pos] != value:
                    raise CorruptionError(
                        f"conflicting values {seen[pos]} and {value} at position {pos}")
                continue
            seen[pos] = value
        if len(seen) < self.dimension:
            raise ParameterError(
                f"insufficient coordinates: got {len(seen)}, need {self.dimension}")
        positions = tuple(sorted(seen))
        log = self.field._log
        log_ys = [log[y] if (y := seen[p]) else None for p in positions[: self.dimension]]
        message = [seen.get(t) for t in range(self.dimension)]
        for t, row in self._rows(positions):
            value = self._apply(row, log_ys)
            if t < self.dimension:
                message[t] = value
            elif value != seen[t]:
                raise CorruptionError(
                    f"coordinate at position {t} is inconsistent with the others")
        return message

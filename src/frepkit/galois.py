"""Finite-field arithmetic and the outer MDS (Reed-Solomon style) codec.

Each supported order q has exactly one field, one row of the table below:
2^1..2^16, 3^1..3^4, 5, 25, 7 and 49.  Elements are plain integers 0..q-1:
for p = 2 the integer is the coefficient bitmask of the representing
polynomial, otherwise its base-p digits are the coefficients.  Every
modulus is primitive, so the exp table is just the q - 1 powers of x and
x is the generator.  Multiplication and inversion go through the exp/log
tables.  Addition is XOR for p = 2; for odd p it goes through a
Zech-logarithm table, log(1 + x^n), built with them.

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

from collections import OrderedDict
from functools import reduce
from operator import xor
from typing import Iterable, Sequence

from .errors import CorruptionError, FrepkitError, ParameterError, _Frozen, _integer

__all__ = ["GF", "MdsCode", "default_field_for"]

_MEMO_CAP = 64  # erasure patterns whose recovery rows one MdsCode keeps

# The one field of each order, q -> (p, monic primitive modulus).  For p = 2
# the modulus is a bitmask; for odd p it is the ascending coefficients below
# the leading x^m.  A prime field's modulus x - g makes x the element g.
_FIELDS = {
    2: (2, 0b11),                    # x + 1
    4: (2, 0b111),                   # x^2 + x + 1
    8: (2, 0b1011),                  # x^3 + x + 1
    16: (2, 0b10011),                # x^4 + x + 1
    32: (2, 0b100101),               # x^5 + x^2 + 1
    64: (2, 0b1000011),              # x^6 + x + 1
    128: (2, 0b10001001),            # x^7 + x^3 + 1
    256: (2, 0b100011101),           # x^8 + x^4 + x^3 + x^2 + 1
    512: (2, 0b1000010001),          # x^9 + x^4 + 1
    1024: (2, 0b10000001001),        # x^10 + x^3 + 1
    2048: (2, 0b100000000101),       # x^11 + x^2 + 1
    4096: (2, 0b1000001010011),      # x^12 + x^6 + x^4 + x + 1
    8192: (2, 0b10000000011011),     # x^13 + x^4 + x^3 + x + 1
    16384: (2, 0b100010001000011),   # x^14 + x^10 + x^6 + x + 1
    32768: (2, 0b1000000000000011),  # x^15 + x + 1
    65536: (2, 0b10001000000001011), # x^16 + x^12 + x^3 + x + 1
    3: (3, (1,)),                    # x + 1: x = 2
    9: (3, (2, 1)),                  # x^2 + x + 2
    27: (3, (1, 2, 0)),              # x^3 + 2x + 1
    81: (3, (2, 1, 0, 0)),           # x^4 + x + 2
    5: (5, (3,)),                    # x + 3: x = 2
    25: (5, (2, 1)),                 # x^2 + x + 2
    7: (7, (4,)),                    # x + 4: x = 3
    49: (7, (3, 1)),                 # x^2 + x + 3
}


class GF:
    """The finite field with q = p^m elements."""

    def __init__(self, q: int):
        if _integer(q, "field order") not in _FIELDS:
            raise ParameterError(f"GF({q}) is not a built-in field; orders are "
                                 "2^1..2^16, 3^1..3^4, 5, 25, 7 and 49")
        self.q = q
        self.p, self.modulus = _FIELDS[q]
        self.m = self.modulus.bit_length() - 1 if self.p == 2 else len(self.modulus)
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

    def _times_x(self, a: int) -> int:
        """Table-free a * x mod the modulus; used to bootstrap."""
        if self.p == 2:
            a <<= 1
            return a ^ self.modulus if a >> self.m else a
        # x^m = -(modulus tail): the digit pushed past x^(m-1) folds back
        top, rest = divmod(a * self.p, self.q)
        return self._undigits([(d - top * c) % self.p
                               for d, c in zip(self._digits(rest), self.modulus)])

    def _build_tables(self) -> None:
        # x^(q-1) = 1 with q - 1 distinct powers: x generates the nonzero
        # elements, so the modulus really is primitive.
        powers = [1]
        for _ in range(self.q - 2):
            powers.append(self._times_x(powers[-1]))
        if self._times_x(powers[-1]) != 1 or len(set(powers)) != self.q - 1:
            raise FrepkitError(f"x does not generate GF({self.q})^* on its built-in modulus")
        self.generator = self._times_x(1)
        log = [0] * self.q
        for i, e in enumerate(powers):
            log[e] = i
        self._exp = powers * 2
        self._log = log
        if self.p != 2:
            # Zech logarithms: zech[n] = log(1 + x^n), or -1 where 1 + x^n = 0.
            # Adding 1 only changes the constant digit of an element.
            p = self.p
            self._zech = [log[s] if (s := e - e % p + (e + 1) % p) else -1
                          for e in powers]

    # -- field operations --------------------------------------------------

    def _check(self, *elements: int) -> None:
        for a in elements:
            if type(a) is not int or not 0 <= a < self.q:
                raise ParameterError(f"{a!r} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.p == 2:
            return a ^ b
        return self._zech_add(a, b)

    def _zech_add(self, a: int, b: int) -> int:
        """Unchecked a + b for p odd: g^x + g^y = g^(x + zech[y - x])."""
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
        _integer(e, "exponent")
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero has no negative powers")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    # -- unchecked log-domain helpers for the MDS kernel -------------------

    def _log_diffs(self, t: int, xs: Iterable[int]) -> list[int]:
        """[log(t - x) for x in xs]; t must differ from every x."""
        log = self._log
        if self.p == 2:
            return [log[t ^ x] for x in xs]
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
        return reduce(self._zech_add, values, 0)

    # -- identity ----------------------------------------------------------

    def spec(self) -> dict:
        """JSON-ready description, round-trips through from_spec()."""
        modulus = None if self.m == 1 else self.modulus if self.p == 2 else list(self.modulus)
        return {"p": self.p, "m": self.m, "q": self.q, "modulus": modulus}

    @classmethod
    def from_spec(cls, spec: dict) -> "GF":
        """GF(spec["q"]), refused unless spec is exactly that field's spec()."""
        import json  # here, so that building a field loads no json
        field = cls(spec["q"])
        if json.dumps(spec, sort_keys=True) != json.dumps(field.spec(), sort_keys=True):
            raise ParameterError(f"field spec {spec!r} is not GF({field.q})'s {field.spec()!r}")
        return field

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and self.q == other.q

    def __hash__(self) -> int:
        return hash(self.q)

    def __repr__(self) -> str:
        return f"GF({self.q})"


def default_field_for(theta: int) -> GF:
    """Smallest GF(2^m) large enough to index theta codeword positions."""
    m = 1
    while (1 << m) < theta:
        m += 1
    return GF(1 << m)


class MdsCode(_Frozen):
    """A systematic (length, dimension) MDS code by polynomial evaluation.

    Position p is evaluated at the field element p.  The encoding
    polynomial interpolates the message at positions 0..dimension-1, so the
    codeword carries the message verbatim in its first dimension coordinates.
    """

    _fields = ("field", "length", "dimension")  # the memo is not part of the value
    field: GF
    length: int
    dimension: int

    def __init__(self, field: GF, length: int, dimension: int):
        _integer(length, "length")
        _integer(dimension, "dimension")
        if not 1 <= dimension <= length:
            raise ParameterError(
                f"need 1 <= dimension <= length, got ({dimension}, {length})")
        if length > field.q:
            raise ParameterError(f"length {length} exceeds field order {field.q}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "dimension", dimension)
        # sorted known positions -> recovery rows (see _rows), oldest evicted first
        object.__setattr__(self, "_memo", OrderedDict())

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
            if type(pos) is not int or not 0 <= pos < self.length:
                raise ParameterError(f"coordinate position {pos!r} out of range")
            if type(value) is not int or not 0 <= value < q:
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

import random
from itertools import combinations, product

import pytest

from conftest import lagrange_values, reference_decode
from frepkit import GF, CorruptionError, FrepkitError, MdsCode, ParameterError, default_field_for
from frepkit.galois import _FIELDS, _MEMO_CAP

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9]
LARGER_FIELDS = [16, 25, 27, 32, 49, 64, 81, 128, 256]
# (p, m, spec() modulus, generator) of every supported order.  The generator
# is x: the element 2 = x for p = 2, and p = x in odd extension fields; a
# prime field's modulus x - g makes x the element g (1, 2, 2, 3), and its
# spec() modulus is None.
BUILT_IN_FIELDS = [
    (2, 1, None, 1),
    (2, 2, 0b111, 2),
    (2, 3, 0b1011, 2),
    (2, 4, 0b10011, 2),
    (2, 5, 0b100101, 2),
    (2, 6, 0b1000011, 2),
    (2, 7, 0b10001001, 2),
    (2, 8, 0b100011101, 2),
    (2, 9, 0b1000010001, 2),
    (2, 10, 0b10000001001, 2),
    (2, 11, 0b100000000101, 2),
    (2, 12, 0b1000001010011, 2),
    (2, 13, 0b10000000011011, 2),
    (2, 14, 0b100010001000011, 2),
    (2, 15, 0b1000000000000011, 2),
    (2, 16, 0b10001000000001011, 2),
    (3, 1, None, 2),
    (3, 2, [2, 1], 3),
    (3, 3, [1, 2, 0], 3),
    (3, 4, [2, 1, 0, 0], 3),
    (5, 1, None, 2),
    (5, 2, [2, 1], 5),
    (7, 1, None, 3),
    (7, 2, [3, 1], 7),
]


def _has_order(f, a, order):
    """a^order = 1 and no proper divisor of order does the same."""
    return f.pow(a, order) == 1 and all(
        f.pow(a, d) != 1 for d in range(1, order) if order % d == 0)


class TestFieldConstruction:
    @pytest.mark.parametrize("q", SMALL_FIELDS + LARGER_FIELDS)
    def test_supported_orders(self, q):
        assert GF(q).q == q

    @pytest.mark.parametrize("q", [1, 6, 10, 11, 12, 121, 1 << 17])
    def test_rejected_orders(self, q):
        with pytest.raises(ParameterError, match=rf"^GF\({q}\) is not a built-in field; orders"):
            GF(q)

    def test_spec_round_trip(self):
        for q in (9, 16, 49):
            field = GF(q)
            assert GF.from_spec(field.spec()) == field

    @pytest.mark.parametrize("p,m,modulus,generator", BUILT_IN_FIELDS,
                             ids=[f"{p}^{m}" for p, m, _, _ in BUILT_IN_FIELDS])
    def test_each_order_has_one_pinned_field(self, p, m, modulus, generator):
        f = GF(p ** m)
        assert f.spec() == {"p": p, "m": m, "q": p ** m, "modulus": modulus}
        assert f.generator == generator and _has_order(f, generator, p ** m - 1)
        assert GF.from_spec(f.spec()) == f


class TestFieldAxioms:
    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_all_axioms_exhaustively(self, q):
        f = GF(q)
        elems = list(f.elements())
        for a, b in product(elems, repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, f.neg(a)) == 0
        for a, b, c in product(elems, repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @pytest.mark.parametrize("q", LARGER_FIELDS)
    def test_sampled_axioms(self, q):
        f = GF(q)
        rng = random.Random(q)
        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0

    def test_gf16_inverses_sweep(self):
        f = GF(16)
        for x in range(1, 16):
            assert f.mul(x, f.inv(x)) == 1

    def test_gf2_addition(self):
        assert GF(2).add(1, 1) == 0

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            GF(8).inv(0)

    def test_default_gf256_generator_order(self):
        f = GF(256)
        assert _has_order(f, f.generator, 255)

    @pytest.mark.parametrize("q,row", [
        (4, (2, 0b100)), (4, (2, 0b101)), (9, (3, (2, 0))), (9, (3, (1, 0))), (5, (5, (4,))),
    ], ids=["x^2", "(x+1)^2", "(x+1)(x+2)", "x^2+1-not-primitive", "x+4-in-GF5"])
    def test_a_modulus_without_a_generator_is_an_internal_error(self, monkeypatch, q, row):
        # unreachable with the built-in moduli; the walk must still stop
        monkeypatch.setitem(_FIELDS, q, row)
        with pytest.raises(FrepkitError, match=rf"^x does not generate GF\({q}\)"):
            GF(q)


class TestDefaultField:
    def test_smallest_binary_field(self):
        assert default_field_for(9).q == 16
        assert default_field_for(16).q == 16
        assert default_field_for(17).q == 32
        assert default_field_for(2).q == 2


class TestMds:
    def test_identity_rate(self):
        f = GF(8)
        code = MdsCode(field=f, length=5, dimension=5)
        message = [3, 1, 4, 1, 5]
        cw = code.encode(message)
        assert cw == message  # systematic with M = theta
        assert code.decode(enumerate(cw)) == message

    def test_dimension_one_recovers_from_any_coordinate(self):
        f = GF(8)
        code = MdsCode(field=f, length=6, dimension=1)
        cw = code.encode([5])
        for pos, value in enumerate(cw):
            assert code.decode([(pos, value)]) == [5]

    def test_systematic_prefix(self):
        code = MdsCode(field=GF(16), length=16, dimension=11)
        message = list(range(11))
        assert code.encode(message)[:11] == message

    def test_random_round_trips_theta16_m11(self):
        field = GF(16)
        code = MdsCode(field=field, length=16, dimension=11)
        rng = random.Random(1234)
        for _ in range(1000):
            message = [rng.randrange(16) for _ in range(11)]
            cw = code.encode(message)
            positions = rng.sample(range(16), 11)
            assert code.decode((p, cw[p]) for p in positions) == message

    def test_every_m_subset_decodes_theta9_m7(self):
        field = GF(16)
        code = MdsCode(field=field, length=9, dimension=7)
        rng = random.Random(7)
        message = [rng.randrange(16) for _ in range(7)]
        cw = code.encode(message)
        for subset in combinations(range(9), 7):
            assert code.decode((p, cw[p]) for p in subset) == message

    def test_mds_property_exhaustive_small(self):
        # every dimension-subset of coordinates determines the message
        field = GF(8)
        code = MdsCode(field=field, length=7, dimension=3)
        rng = random.Random(3)
        for _ in range(20):
            message = [rng.randrange(8) for _ in range(3)]
            cw = code.encode(message)
            for subset in combinations(range(7), 3):
                assert code.decode((p, cw[p]) for p in subset) == message

    @pytest.mark.parametrize("q,length,dimension", [(7, 7, 3), (9, 9, 4)])
    def test_every_subset_decodes_odd_characteristic(self, q, length, dimension):
        # subtraction is not addition here, unlike every GF(2^m) case above
        code = MdsCode(field=GF(q), length=length, dimension=dimension)
        rng = random.Random(q)
        for _ in range(5):
            message = [rng.randrange(q) for _ in range(dimension)]
            cw = code.encode(message)
            for subset in combinations(range(length), dimension):
                assert code.decode((p, cw[p]) for p in subset) == message
                extra = next(p for p in range(length) if p not in subset)
                tampered = [(p, cw[p]) for p in subset] + [(extra, (cw[extra] + 1) % q)]
                with pytest.raises(CorruptionError, match="inconsistent"):
                    code.decode(tampered)

    # Codewords written by the coefficient-form encoder (master polynomial,
    # synthetic division, Horner) that the barycentric evaluator replaced.
    @pytest.mark.parametrize("q,length,message,codeword", [
        (9, 9, [5, 0, 7, 2], [5, 0, 7, 2, 6, 4, 8, 3, 1]),
        (9, 9, [1, 1, 4, 8], [1, 1, 4, 8, 3, 4, 2, 4, 0]),
        (9, 9, [0, 0, 0, 1], [0, 0, 0, 1, 1, 1, 2, 2, 2]),
        (25, 12, [1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 14, 17, 10, 2, 18, 14, 2]),
        (25, 12, [24, 3, 17, 9, 11], [24, 3, 17, 9, 11, 19, 4, 4, 2, 10, 17, 4]),
        (49, 16, [0, 0, 0, 0, 0, 0, 1],
         [0, 0, 0, 0, 0, 0, 1, 37, 14, 46, 2, 12, 40, 18, 2, 37]),
        (49, 16, [48, 1, 20, 33, 7, 12, 40],
         [48, 1, 20, 33, 7, 12, 40, 29, 30, 20, 23, 3, 4, 45, 5, 32]),
    ])
    def test_golden_codewords_odd_characteristic(self, q, length, message, codeword):
        code = MdsCode(field=GF(q), length=length, dimension=len(message))
        assert code.encode(message) == codeword
        assert code.decode(enumerate(codeword)) == message

    def test_full_codeword_decodes_like_any_subset(self):
        field = GF(16)
        code = MdsCode(field=field, length=9, dimension=7)
        message = [1, 2, 3, 4, 5, 6, 7]
        cw = code.encode(message)
        assert code.decode(enumerate(cw)) == message

    def test_insufficient_coordinates(self):
        code = MdsCode(field=GF(16), length=9, dimension=7)
        cw = code.encode([0] * 7)
        with pytest.raises(ParameterError, match="insufficient"):
            code.decode((p, cw[p]) for p in range(6))

    def test_inconsistent_coordinates_signal_corruption(self):
        field = GF(16)
        code = MdsCode(field=field, length=9, dimension=7)
        cw = code.encode([1, 2, 3, 4, 5, 6, 7])
        tampered = list(enumerate(cw))
        pos, value = tampered[8]
        tampered[8] = (pos, value ^ 1)
        with pytest.raises(CorruptionError):
            code.decode(tampered)

    def test_conflicting_duplicate_coordinate(self):
        code = MdsCode(field=GF(16), length=9, dimension=7)
        cw = code.encode([1, 2, 3, 4, 5, 6, 7])
        coords = list(enumerate(cw)) + [(0, cw[0] ^ 1)]
        with pytest.raises(CorruptionError, match="conflicting"):
            code.decode(coords)

    def test_encode_injective_on_random_pairs(self):
        field = GF(16)
        code = MdsCode(field=field, length=9, dimension=7)
        rng = random.Random(99)
        for _ in range(200):
            a = [rng.randrange(16) for _ in range(7)]
            b = [rng.randrange(16) for _ in range(7)]
            if a != b:
                assert code.encode(a) != code.encode(b)

    def test_length_beyond_field_rejected(self):
        with pytest.raises(ParameterError):
            MdsCode(field=GF(8), length=9, dimension=3)

    def test_wrong_message_length_rejected(self):
        code = MdsCode(field=GF(8), length=8, dimension=3)
        with pytest.raises(ParameterError):
            code.encode([1, 2])


class TestNonIntegerElementsRejected:
    """Non-integers are refused by name at every entry point, not with a raw
    TypeError from a table lookup."""

    def test_field_operation(self):
        with pytest.raises(ParameterError, match=r"^1\.5 is not an element of GF\(16\)$"):
            GF(16).mul(1.5, 2)

    def test_power_exponent(self):
        with pytest.raises(ParameterError, match=r"^exponent 1\.5 is not an integer$"):
            GF(16).pow(2, 1.5)

    def test_encode(self):
        code = MdsCode(field=GF(16), length=5, dimension=3)
        with pytest.raises(ParameterError, match=r"^1\.5 is not an element of GF\(16\)$"):
            code.encode([1.5, 2, 3])

    def test_decode_value(self):
        code = MdsCode(field=GF(16), length=5, dimension=3)
        with pytest.raises(ParameterError, match=r"^1\.5 is not an element of GF\(16\)$"):
            code.decode([(0, 1.5), (1, 2), (2, 3)])

    def test_decode_position(self):
        code = MdsCode(field=GF(16), length=5, dimension=3)
        with pytest.raises(ParameterError, match=r"^coordinate position 1\.0 out of range$"):
            code.decode([(1.0, 1), (0, 2), (2, 3)])

    def test_bool_is_not_an_element(self):
        code = MdsCode(GF(16), 5, 2)
        for call in (lambda: GF(16).add(True, 3), lambda: GF(5).neg(True),
                     lambda: code.encode([True, 2])):
            with pytest.raises(ParameterError, match=r"^True is not an element of GF\(\d+\)$"):
                call()
        with pytest.raises(ParameterError, match=r"^False is not an element of GF\(16\)$"):
            code.decode([(0, False), (1, 1)])

    def test_bool_is_not_a_position(self):
        code = MdsCode(GF(16), 5, 2)
        with pytest.raises(ParameterError, match=r"^coordinate position True out of range$"):
            code.decode([(True, 1), (0, 1)])

    def test_bool_is_not_an_exponent(self):
        with pytest.raises(ParameterError, match=r"^exponent True is not an integer$"):
            GF(16).pow(2, True)

    def test_code_parameters(self):
        with pytest.raises(ParameterError, match=r"^length 5\.0 is not an integer$"):
            MdsCode(field=GF(16), length=5.0, dimension=3)
        with pytest.raises(ParameterError, match=r"^dimension 3\.0 is not an integer$"):
            MdsCode(field=GF(16), length=5, dimension=3.0)


class TestMdsAgainstOracle:
    @pytest.mark.parametrize("q,length,dimension", [
        (7, 7, 1), (7, 7, 7), (7, 6, 3), (9, 9, 4), (9, 8, 1), (16, 16, 16),
        (16, 12, 5), (25, 20, 9), (25, 25, 1), (49, 30, 12), (49, 12, 12), (64, 40, 20),
    ])
    def test_encode_and_decode_match_reference(self, q, length, dimension):
        field = GF(q)
        code = MdsCode(field=field, length=length, dimension=dimension)
        rng = random.Random(q * 10000 + length * 100 + dimension)
        for _ in range(2):
            message = [rng.randrange(q) for _ in range(dimension)]
            cw = code.encode(message)
            assert cw == lagrange_values(field, range(dimension), message, range(length))
            for _ in range(3):
                positions = rng.sample(range(length), rng.randint(dimension, length))
                coords = [(p, cw[p]) for p in positions]
                assert reference_decode(field, dimension, coords) == (message, True)
                assert code.decode(coords) == message
                if len(positions) > dimension:
                    # any single change among redundant coordinates is detectable
                    i = rng.randrange(len(coords))
                    pos, value = coords[i]
                    coords[i] = (pos, field.add(value, rng.randrange(1, q)))
                    assert not reference_decode(field, dimension, coords)[1]
                    with pytest.raises(CorruptionError, match="inconsistent"):
                        code.decode(coords)


class TestRecoveryMemo:
    def test_memo_hit_still_checks_redundant_coordinates(self):
        code = MdsCode(field=GF(16), length=12, dimension=5)
        cw = code.encode([3, 1, 4, 1, 5])
        coords = [(p, cw[p]) for p in (0, 2, 3, 6, 7, 9, 11)]
        assert code.decode(coords) == [3, 1, 4, 1, 5]
        assert tuple(sorted(p for p, _ in coords)) in code._memo
        coords[-1] = (11, cw[11] ^ 1)
        with pytest.raises(CorruptionError, match="inconsistent"):
            code.decode(coords)

    def test_memo_is_capped_and_evicted_patterns_decode_again(self):
        code = MdsCode(field=GF(64), length=40, dimension=6)
        rng = random.Random(5)
        message = [rng.randrange(64) for _ in range(6)]
        cw = code.encode(message)
        patterns = []
        while len(patterns) < _MEMO_CAP + 10:
            pattern = sorted(rng.sample(range(40), 8))
            if pattern not in patterns:
                patterns.append(pattern)
        for pattern in patterns:
            assert code.decode((p, cw[p]) for p in pattern) == message
            assert len(code._memo) <= _MEMO_CAP
        assert tuple(patterns[0]) not in code._memo
        assert code.decode((p, cw[p]) for p in patterns[0]) == message
        assert len(code._memo) == _MEMO_CAP

    def test_memo_stays_out_of_equality_hash_and_repr(self):
        a = MdsCode(field=GF(16), length=9, dimension=7)
        b = MdsCode(field=GF(16), length=9, dimension=7)
        a.decode(enumerate(a.encode([1, 2, 3, 4, 5, 6, 7])))
        assert a._memo and not b._memo
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_memo" not in repr(a)
        with pytest.raises(AttributeError):
            a.length = 8


def _digitwise(field: GF, a: int, b: int, sign: int = 1) -> int:
    """a + sign * b by base-p digits, the coefficients an element stands for."""
    p, value, scale = field.p, 0, 1
    for _ in range(field.m):
        value += (a % p + sign * (b % p)) % p * scale
        a, b, scale = a // p, b // p, scale * p
    return value


class TestOddExtensionAddition:
    # prime fields add through the same Zech table
    @pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 3, 5, 7])
    def test_add_and_neg_exhaustively_against_digits(self, q):
        f = GF(q)
        for a in range(q):
            assert f.neg(a) == _digitwise(f, 0, a, sign=-1)
            for b in range(q):
                assert f.add(a, b) == _digitwise(f, a, b)

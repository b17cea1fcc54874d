import numpy as np
import pytest

import oracles
from polarfec import GENERATOR_POLY, gf16_inv, gf16_mul, reed_solomon, rs_decode, rs_encode, rs_syndromes
from polarfec.reed_solomon import (
    GF16_EXP,
    bits_to_symbols,
    rs_decode_rows,
    rs_encode_rows,
    rs_syndromes_rows,
    symbols_to_bits,
)


def random_info(rng):
    return [int(v) for v in rng.integers(0, 16, 11)]


def _poly_mod(dividend, divisor):
    """Remainder of GF(16) polynomial long division, descending coefficients;
    divisor must be monic."""
    rem = list(dividend)
    for i in range(len(rem) - len(divisor) + 1):
        lead = rem[i]
        for k, c in enumerate(divisor):
            rem[i + k] ^= gf16_mul(lead, c)
    return rem[len(rem) - len(divisor) + 1 :]


class TestField:
    def test_mul_identity_exhaustive(self):
        for a in range(16):
            assert gf16_mul(a, 1) == a
            assert gf16_mul(1, a) == a

    def test_mul_zero(self):
        for a in range(16):
            assert gf16_mul(a, 0) == 0

    def test_mul_pinned_reduction(self):
        # x * x^3 = x^4 = x + 1
        assert gf16_mul(2, 8) == 3

    def test_mul_commutative_associative(self):
        for a in range(16):
            for b in range(16):
                assert gf16_mul(a, b) == gf16_mul(b, a)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, c = (int(x) for x in rng.integers(0, 16, 3))
            assert gf16_mul(gf16_mul(a, b), c) == gf16_mul(a, gf16_mul(b, c))

    def test_inverse_exhaustive(self):
        for a in range(1, 16):
            assert gf16_mul(a, gf16_inv(a)) == 1

    def test_inv_zero_rejected(self):
        with pytest.raises(ValueError):
            gf16_inv(0)

    def test_alpha_is_primitive(self):
        seen = {int(GF16_EXP[i]) for i in range(15)}
        assert seen == set(range(1, 16))


class TestEncode:
    def test_generator_poly_pinned(self):
        assert GENERATOR_POLY == (1, 13, 12, 8, 7)

    def test_generator_roots(self):
        # the generator must vanish at alpha^1..alpha^4
        for j in range(1, 5):
            val = oracles.gf16_poly_eval(GENERATOR_POLY, int(GF16_EXP[j]), gf16_mul)
            assert val == 0
        assert oracles.gf16_poly_eval(GENERATOR_POLY, int(GF16_EXP[5]), gf16_mul) != 0

    def test_zero_message(self):
        assert rs_encode([0] * 11) == [0] * 15

    def test_systematic_prefix(self, rng):
        info = random_info(rng)
        assert rs_encode(info)[:11] == info

    def test_syndromes_vanish(self, rng):
        for _ in range(500):
            assert max(rs_syndromes(rs_encode(random_info(rng)))) == 0

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            rs_encode([16] + [0] * 10)
        with pytest.raises(ValueError):
            rs_encode([0] * 10)

    @pytest.mark.parametrize("scalar, length", [(rs_encode, 11), (rs_syndromes, 15), (rs_decode, 15)])
    def test_scalar_entry_points_take_one_word(self, scalar, length):
        for bad in ([[0] * length], [[0] * length] * 2, 0, [0] * (length + 1)):
            with pytest.raises(ValueError, match="symbols per row"):
                scalar(bad)
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 15\]"):
            scalar([0] * (length - 1) + [-1])

    def test_encode_rejects_non_integer_symbols(self):
        # a cast would truncate 1.7 and encode eleven 1s
        with pytest.raises(ValueError, match="integers"):
            rs_encode([1.7] * 11)
        assert rs_encode([3.0] * 11) == rs_encode([3] * 11)

    def test_decode_rejects_non_integer_symbols(self):
        # a cast would decode 2.9 as 2s with failure=False
        for bad in (2.9, float("nan")):
            with pytest.raises(ValueError, match="integers"):
                rs_decode([bad] * 15)
        with pytest.raises(ValueError, match="integers"):
            rs_decode_rows([[2.9] * 15])


class TestDecode:
    def test_error_free_identity(self, rng):
        for _ in range(500):
            info = random_info(rng)
            result = rs_decode(rs_encode(info))
            assert result.info == tuple(info) and not result.failure

    def test_single_errors_exhaustive(self, rng):
        for _ in range(10):
            info = random_info(rng)
            codeword = rs_encode(info)
            for pos in range(15):
                for magnitude in range(1, 16):
                    corrupted = list(codeword)
                    corrupted[pos] ^= magnitude
                    result = rs_decode(corrupted)
                    assert not result.failure
                    assert result.info == tuple(info)

    def test_double_errors_sampled(self, rng):
        for _ in range(2000):
            info = random_info(rng)
            corrupted = list(rs_encode(info))
            p1, p2 = rng.choice(15, size=2, replace=False)
            corrupted[int(p1)] ^= int(rng.integers(1, 16))
            corrupted[int(p2)] ^= int(rng.integers(1, 16))
            result = rs_decode(corrupted)
            assert not result.failure
            assert result.info == tuple(info)

    def test_beyond_capacity_flagged_or_miscorrected(self, rng):
        failures = miscorrections = 0
        for _ in range(300):
            info = random_info(rng)
            corrupted = list(rs_encode(info))
            positions = rng.choice(15, size=3, replace=False)
            for p in positions:
                corrupted[int(p)] ^= int(rng.integers(1, 16))
            result = rs_decode(corrupted)
            if result.failure:
                failures += 1
                assert result.info == tuple(corrupted[:11])  # best effort passthrough
            elif result.info != tuple(info):
                # a miscorrection still lands on a valid codeword
                assert max(rs_syndromes(rs_encode(list(result.info)))) == 0
                miscorrections += 1
        assert failures > 0

    def test_syndrome_linearity(self, rng):
        for _ in range(200):
            codeword = np.array(rs_encode(random_info(rng)))
            error = np.zeros(15, dtype=int)
            for p in rng.choice(15, size=3, replace=False):
                error[int(p)] = int(rng.integers(1, 16))
            lhs = rs_syndromes((codeword ^ error).tolist())
            rhs = rs_syndromes(error.tolist())
            assert lhs == rhs


class TestDistance:
    def test_random_pairs_differ_in_5(self, rng):
        for _ in range(10**4):
            a = random_info(rng)
            b = random_info(rng)
            if a == b:
                continue
            diff = sum(x != y for x, y in zip(rs_encode(a), rs_encode(b)))
            assert diff >= 5

    def test_random_nonzero_weights(self, rng):
        for _ in range(10**4):
            info = random_info(rng)
            if all(v == 0 for v in info):
                continue
            weight = sum(1 for s in rs_encode(info) if s)
            assert weight >= 5


class TestRowKernels:
    def test_encode_rows_matches_scalar(self, rng):
        # reference: systematic prefix, and a codeword polynomial that the
        # generator divides, so it vanishes at every generator root
        infos = rng.integers(0, 16, (200, 11))
        rows = rs_encode_rows(infos)
        for i in range(200):
            word = rows[i].tolist()
            assert word[:11] == infos[i].tolist()
            assert _poly_mod(word, GENERATOR_POLY) == [0] * 4
            for j in range(1, 5):
                assert oracles.gf16_poly_eval(word, int(GF16_EXP[j]), gf16_mul) == 0

    def test_syndromes_rows_matches_scalar(self, rng):
        # reference: Horner evaluation of the received polynomial at alpha^j
        words = rng.integers(0, 16, (200, 15))
        rows = rs_syndromes_rows(words)
        for i in range(200):
            word = [int(v) for v in words[i]]
            expected = [oracles.gf16_poly_eval(word, int(GF16_EXP[j]), gf16_mul) for j in range(1, 5)]
            assert rows[i].tolist() == expected

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_rows_reject_out_of_range_symbols(self, bad):
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 15\]"):
            rs_encode_rows([[15] * 10 + [bad]])
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 15\]"):
            rs_syndromes_rows([[15] * 14 + [bad]])
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 15\]"):
            rs_decode_rows([[15] * 14 + [bad]])

    @pytest.mark.parametrize("kernel, length", [
        (rs_encode_rows, 11), (rs_syndromes_rows, 15), (rs_decode_rows, 15),
    ])
    def test_rows_reject_wrong_length(self, kernel, length):
        for wrong in (length - 1, length + 1):
            with pytest.raises(ValueError, match="symbols per row"):
                kernel(np.zeros((3, wrong), dtype=np.uint8))

    def test_decode_rows_matches_scalar_on_every_syndrome(self):
        # the syndrome map is a bijection on words that are zero outside the
        # 4 parity symbols, so these 16^4 words reach every syndrome once
        index = np.arange(16**4)
        words = np.zeros((index.size, 15), dtype=np.uint8)
        for j in range(4):
            words[:, 11 + j] = (index >> 4 * j) & 15
        assert np.unique(rs_syndromes_rows(words) @ 16 ** np.arange(4)).size == index.size
        info, failure = rs_decode_rows(words)
        assert info.shape == (index.size, 11) and info.dtype == np.uint8
        assert failure.shape == (index.size,) and failure.dtype == bool
        for i in range(index.size):
            result = rs_decode(words[i])
            assert (tuple(info[i]), bool(failure[i])) == (result.info, result.failure), i

    def test_decode_rows_matches_scalar_on_random_errors(self, rng):
        infos = rng.integers(0, 16, (5000, 11))
        words = rs_encode_rows(infos)
        for i in range(len(words)):
            where = rng.choice(15, size=i % 5, replace=False)
            words[i, where] ^= rng.integers(1, 16, size=where.size).astype(np.uint8)
        info, failure = rs_decode_rows(words)
        outcomes = {"corrected": 0, "failure": 0, "miscorrected": 0}
        for i in range(len(words)):
            result = rs_decode(words[i])
            assert (tuple(info[i]), bool(failure[i])) == (result.info, result.failure)
            if result.failure:
                outcomes["failure"] += 1
            elif result.info == tuple(infos[i]):
                outcomes["corrected"] += 1
            else:
                outcomes["miscorrected"] += 1
        assert outcomes["corrected"] >= 3000
        assert outcomes["failure"] > 0 and outcomes["miscorrected"] > 0

    def test_bit_packing_round_trip(self, rng):
        symbols = rng.integers(0, 16, (50, 15)).astype(np.uint8)
        assert np.array_equal(bits_to_symbols(symbols_to_bits(symbols)), symbols)

    def test_bit_order_msb_first(self):
        assert symbols_to_bits(np.array([0b1010])).tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("bad", [[2, 0, 0, 0], [0.6, 1, 1, 1]])
    def test_bits_to_symbols_rejects_non_bits(self, bad):
        # a cast would read [2, 0, 0, 0] as symbol 16 and [0.6, 1, 1, 1] as 7
        with pytest.raises(ValueError, match="0 or 1"):
            bits_to_symbols(bad)

    @pytest.mark.parametrize("bad", [[17], [3.7]])
    def test_symbols_to_bits_rejects_non_symbols(self, bad):
        # a cast would unpack 17 as [0, 0, 0, 1] and 3.7 as [0, 0, 1, 1]
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 15\]"):
            symbols_to_bits(bad)

    def test_bit_conversions_accept_whole_floats_and_bools(self):
        assert bits_to_symbols([1.0, 0.0, 1.0, 0.0]).tolist() == [10]
        assert bits_to_symbols(np.array([[True, False, True, True]])).tolist() == [[11]]
        assert symbols_to_bits([3.0, 12.0]).tolist() == [0, 0, 1, 1, 1, 1, 0, 0]

    def test_bits_to_symbols_rejects_partial_symbols(self):
        for bad in ([1, 0, 1], 1):
            with pytest.raises(ValueError, match="multiple of 4"):
                bits_to_symbols(bad)

    @pytest.mark.parametrize("n", [1, 2, 11, 15])
    def test_packed_symbols_are_packbits_of_their_bits(self, rng, n):
        # two symbols a byte, the first in the high nibble, as np.packbits
        # packs their MSB-first bits; an odd count ends in a zero nibble
        symbols = rng.integers(0, 16, (20, n)).astype(np.uint8)
        bits = ((symbols[..., None] >> np.array([3, 2, 1, 0])) & 1).astype(np.uint8).reshape(20, -1)
        packed = reed_solomon._pack_symbols(symbols)
        assert np.array_equal(packed, np.packbits(bits, axis=1))
        assert np.array_equal(reed_solomon._unpack_symbols(packed, n), symbols)

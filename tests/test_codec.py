import gc
import math
from itertools import product

import numpy as np
import pytest

import oracles
from polarfec import (
    DecodeResult,
    QuantSpec,
    build_schedule,
    encode_nonsystematic,
    encode_systematic,
    f_exact,
    f_minsum,
    g_func,
    hard_decision_decode,
    sc_decode,
    sc_decode_fixed,
)
from polarfec.batch import decode_exact_rows, decode_fixed_rows, decode_minsum_rows
from polarfec.codec import _sc_recursion

# Every scalar entry point that takes one frame of channel LLRs.
FRAME_DECODERS = {
    "minsum": lambda llrs, spec: sc_decode(llrs, spec, f_mode="minsum"),
    "exact": lambda llrs, spec: sc_decode(llrs, spec, f_mode="exact"),
    "fixed": lambda llrs, spec: sc_decode_fixed(llrs, spec, QuantSpec(5, 1)),
    "schedule": lambda llrs, spec: build_schedule(spec, "proposed", llrs),
}


class TestEncodeNonsystematic:
    def test_length2_kernel(self):
        # x = (u0 xor u1, u1): pinned against the explicit matrix oracle
        assert np.array_equal(encode_nonsystematic([1, 0]), oracles.matrix_encode([1, 0]))
        assert np.array_equal(encode_nonsystematic([1, 0]), [1, 0])
        assert np.array_equal(encode_nonsystematic([0, 1]), [1, 1])
        assert np.array_equal(encode_nonsystematic([1, 1]), [0, 1])

    def test_all_zeros(self):
        assert not encode_nonsystematic(np.zeros(16, dtype=np.uint8)).any()

    @pytest.mark.parametrize("n_bits", [2, 4, 8, 16])
    def test_matches_kronecker_matrix_oracle(self, n_bits, rng):
        for _ in range(50):
            u = rng.integers(0, 2, n_bits).astype(np.uint8)
            assert np.array_equal(encode_nonsystematic(u), oracles.matrix_encode(u))

    def test_involution(self, rng):
        for _ in range(100):
            u = rng.integers(0, 2, 16).astype(np.uint8)
            assert np.array_equal(encode_nonsystematic(encode_nonsystematic(u)), u)

    @pytest.mark.parametrize("n_bits", [2, 4, 8, 16, 32, 64, 128])
    def test_xor_budget(self, n_bits, rng):
        u = rng.integers(0, 2, n_bits).astype(np.uint8)
        _, xors = encode_nonsystematic(u, return_xor_count=True)
        assert xors == (n_bits // 2) * int(math.log2(n_bits))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encode_nonsystematic([0, 1, 1])  # not a power of two
        with pytest.raises(ValueError):
            encode_nonsystematic([0, 2])


class TestEncodeSystematic:
    def test_zero_message(self, spec16_11):
        assert not encode_systematic(np.zeros(11, dtype=np.uint8), spec16_11).any()

    def test_transparency_exhaustive_8_5(self, spec8_5):
        info = list(spec8_5.info_set)
        for bits in product((0, 1), repeat=5):
            m = np.array(bits, dtype=np.uint8)
            x = encode_systematic(m, spec8_5)
            assert np.array_equal(x[info], m)

    def test_matches_bruteforce_solver_8_5(self, spec8_5):
        # direct solution of the systematic constraints by enumeration
        for bits in product((0, 1), repeat=5):
            m = np.array(bits, dtype=np.uint8)
            assert np.array_equal(encode_systematic(m, spec8_5),
                                  oracles.solve_systematic_bruteforce(m, spec8_5))

    def test_frozen_consistency(self, spec16_11, rng):
        frozen = list(spec16_11.frozen_set)
        for _ in range(200):
            m = rng.integers(0, 2, 11).astype(np.uint8)
            u = encode_nonsystematic(encode_systematic(m, spec16_11))
            assert not u[frozen].any()

    def test_transparency_sampled_128_96(self, spec128_96, rng):
        info = list(spec128_96.info_set)
        for _ in range(300):
            m = rng.integers(0, 2, 96).astype(np.uint8)
            assert np.array_equal(encode_systematic(m, spec128_96)[info], m)

    def test_transparency_bulk_128_96(self, spec128_96, rng):
        # 10^5 sampled messages through the row engine (checked against the
        # brute-force systematic solver in test_batch)
        from polarfec.batch import encode_systematic_rows

        messages = rng.integers(0, 2, (100_000, 96)).astype(np.uint8)
        codewords = encode_systematic_rows(messages, spec128_96)
        assert np.array_equal(codewords[:, list(spec128_96.info_set)], messages)

    def test_rejects_wrong_length(self, spec16_11):
        with pytest.raises(ValueError):
            encode_systematic(np.zeros(10, dtype=np.uint8), spec16_11)

    @pytest.mark.parametrize("bad", [0.6, 1.5, -1, 2, 257, float("nan")])
    def test_rejects_non_binary_values(self, spec16_11, bad):
        # a cast to uint8 would truncate 0.6 to 0 and encode the all-zero codeword
        with pytest.raises(ValueError, match="must be 0 or 1"):
            encode_systematic([bad] * 11, spec16_11)

    def test_accepts_whole_float_bits(self, spec16_11):
        bits = [1, 0] * 5 + [1]
        assert np.array_equal(
            encode_systematic(np.array(bits, dtype=float), spec16_11), encode_systematic(bits, spec16_11)
        )


class TestPeFunctions:
    def test_f_exact_erasure_absorbs(self):
        for y in (-7.0, -0.5, 0.0, 3.3, 20.0):
            assert f_exact(0.0, y) == pytest.approx(0.0, abs=1e-12)

    def test_f_exact_pinned_value(self):
        expected = math.log((1 + math.exp(4.0)) / (2 * math.exp(2.0)))
        assert f_exact(2.0, 2.0) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(1.3250, abs=5e-5)

    def test_f_exact_sign_and_magnitude(self):
        r = f_exact(2.0, -3.0)
        assert r < 0 and abs(r) < 2.0

    def test_f_exact_approaches_minsum(self):
        assert abs(f_exact(20.0, 30.0) - f_minsum(20.0, 30.0)) < 1e-4

    def test_f_bounds_and_sign(self, rng):
        for _ in range(500):
            a, b = rng.normal(0, 5, 2)
            if a == 0 or b == 0:
                continue
            r = f_exact(a, b)
            assert abs(r) <= min(abs(a), abs(b)) + 1e-12
            assert abs(r) <= abs(f_minsum(a, b)) + 1e-12
            if r != 0:
                assert math.copysign(1, r) == math.copysign(1, a) * math.copysign(1, b)

    def test_f_minsum_pinned(self):
        assert f_minsum(2.0, -3.0) == -2.0
        assert f_minsum(0.0, 5.0) == 0.0
        assert f_minsum(-4.0, -1.5) == 1.5

    def test_f_minsum_matches_sign_min_formula(self):
        """f_minsum equals sign * min(|a|, |b|), zero treated as positive,
        under == on adversarial pairs, and a non-zero result carries that
        sign.  A zero result may be -0.0 where the formula gives 0.0: it
        compares, adds and decides (-0.0 < 0 is false) as 0.0 does."""
        big = np.finfo(float).max / 16
        tiny = np.nextafter(0.0, 1.0)
        floats = [0.0, -0.0, 1.5, -1.5, tiny, -tiny, np.finfo(float).tiny, -np.finfo(float).tiny, big, -big]
        grid = [0, 1, -1, 15, -15, (1 << 30) - 1, -((1 << 30) - 1)]  # Q5 and Q31 grid integers
        numpy_values = [np.float64(-0.0), np.float64(2.5), np.float64(-2.5), np.int64(-7)]
        values = floats + grid + numpy_values
        for a, b in product(values, repeat=2):
            magnitude = min(abs(a), abs(b))
            expected = -magnitude if (a < 0) != (b < 0) else magnitude
            got = f_minsum(a, b)
            assert got == expected, (a, b)
            if expected != 0:
                assert math.copysign(1, got) == math.copysign(1, expected), (a, b)
        for x in (2.0, 3, big, tiny):  # equal magnitudes, opposite signs
            assert f_minsum(x, -x) == f_minsum(-x, x) == -x
            assert f_minsum(x, x) == f_minsum(-x, -x) == x

    def test_g_func_pinned(self):
        assert g_func(1.5, 2.0, 0) == 3.5
        assert g_func(1.5, 2.0, 1) == 0.5

    def test_g_func_identity(self, rng):
        for _ in range(100):
            a, b = rng.normal(0, 3, 2)
            assert g_func(a, b, 0) + g_func(a, b, 1) == pytest.approx(2 * b)

    def test_g_func_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            g_func(1.0, 2.0, 2)


class TestScDecode:
    def test_all_zero_codeword_positive_llrs(self, spec16_11):
        result = sc_decode(np.full(16, 2.0), spec16_11)
        assert not result.u_hat.any()
        assert not result.info_bits.any()

    @pytest.mark.parametrize("f_mode", ["exact", "minsum"])
    def test_noiseless_round_trip_4_2(self, spec4_2, f_mode):
        for bits in product((0, 1), repeat=2):
            m = np.array(bits, dtype=np.uint8)
            x = encode_systematic(m, spec4_2)
            llrs = np.where(x == 0, 8.0, -8.0)
            assert np.array_equal(sc_decode(llrs, spec4_2, f_mode).info_bits, m)

    def test_result_invariants(self, spec16_11, rng):
        frozen = list(spec16_11.frozen_set)
        for f_mode in ("exact", "minsum"):
            for _ in range(100):
                llrs = rng.normal(0, 2, 16)
                res = sc_decode(llrs, spec16_11, f_mode)
                assert not res.u_hat[frozen].any()
                assert np.array_equal(res.x_hat, encode_nonsystematic(res.u_hat))
                assert np.array_equal(res.info_bits, res.x_hat[list(spec16_11.info_set)])
                assert res.pe_op_count == 16 * 4  # N log2 N scalar F+G evaluations

    def test_genie_oracle_equivalence_n4(self, spec4_2, rng):
        # exact-f SC must reproduce the exhaustive-marginalization decisions
        for _ in range(400):
            llrs = rng.normal(0, 2.5, 4)
            res = sc_decode(llrs, spec4_2, "exact")
            dec, post = oracles.genie_sc_posteriors(llrs, spec4_2)
            if np.all(np.abs(post) > 1e-9):
                assert np.array_equal(res.u_hat, dec)

    def test_genie_oracle_equivalence_full_rate(self, rng):
        from polarfec import bhattacharyya_construct

        spec = bhattacharyya_construct(4, 4)
        for _ in range(200):
            llrs = rng.normal(0, 2.5, 4)
            res = sc_decode(llrs, spec, "exact")
            dec, post = oracles.genie_sc_posteriors(llrs, spec)
            if np.all(np.abs(post) > 1e-9):
                assert np.array_equal(res.u_hat, dec)

    def test_tie_decides_zero(self, spec16_11):
        res = sc_decode(np.zeros(16), spec16_11)
        assert not res.u_hat.any()

    @pytest.mark.parametrize("n_bits", [1, 2, 4, 16, 1024])
    def test_recursion_makes_every_f_and_g_call(self, n_bits, rng):
        # size-2 nodes decide their leaf pair in place, still with one F and
        # one G each, so a decode makes N/2*log2(N) of each, frozen bits too
        calls = {"F": 0, "G": 0}

        def f(a, b):
            calls["F"] += 1
            return f_minsum(a, b)

        def g(a, b, bit):
            calls["G"] += 1
            return g_func(a, b, bit)

        values = rng.normal(0.0, 2.0, n_bits).tolist()
        frozen = (rng.random(n_bits) < 0.5).tolist()
        u_hat, x_hat = _sc_recursion(values, frozen, f, g)
        ops = n_bits // 2 * (n_bits.bit_length() - 1)
        assert calls == {"F": ops, "G": ops}
        assert not u_hat[frozen].any()
        assert np.array_equal(x_hat, encode_nonsystematic(u_hat))
        plain = _sc_recursion(values, frozen, f_minsum, g_func)
        assert np.array_equal(u_hat, plain[0]) and np.array_equal(x_hat, plain[1])

    def test_rejects_wrong_length(self, spec16_11):
        with pytest.raises(ValueError):
            sc_decode(np.zeros(8), spec16_11)


class TestHardDecisionDecode:
    def test_no_errors_sampled(self, spec16_11, rng):
        for _ in range(200):
            m = rng.integers(0, 2, 11).astype(np.uint8)
            x = encode_systematic(m, spec16_11)
            assert np.array_equal(hard_decision_decode(x, spec16_11).info_bits, m)

    def test_all_zeros(self, spec16_11):
        res = hard_decision_decode(np.zeros(16, dtype=np.uint8), spec16_11)
        assert not res.info_bits.any()

    def test_single_flip_returns_valid_result(self, spec128_96, rng):
        m = rng.integers(0, 2, 96).astype(np.uint8)
        x = encode_systematic(m, spec128_96)
        x[rng.integers(0, 128)] ^= 1
        res = hard_decision_decode(x, spec128_96)
        assert isinstance(res, DecodeResult)
        assert not res.u_hat[list(spec128_96.frozen_set)].any()
        assert np.array_equal(res.x_hat, encode_nonsystematic(res.u_hat))


class TestLlrFrameCheck:
    @pytest.mark.parametrize("decode", FRAME_DECODERS.values(), ids=FRAME_DECODERS.keys())
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, decode, bad, spec16_11):
        llrs = np.ones(16)
        llrs[5] = bad
        with pytest.raises(ValueError, match="LLR must be finite"):
            decode(llrs, spec16_11)

    @pytest.mark.parametrize("decode", FRAME_DECODERS.values(), ids=FRAME_DECODERS.keys())
    def test_rejects_infinite_halves(self, decode, spec16_11):
        # min-sum and exact once disagreed here: inf - inf is NaN in f_exact
        llrs = np.concatenate([np.full(8, -math.inf), np.full(8, math.inf)])
        with pytest.raises(ValueError, match="LLR must be finite"):
            decode(llrs, spec16_11)

    @pytest.mark.parametrize("decode", FRAME_DECODERS.values(), ids=FRAME_DECODERS.keys())
    def test_rejects_llrs_whose_n_fold_sum_overflows(self, decode, spec16_11):
        # 1.6e308 is finite, but a min-sum g over 16 of them is not: sc_decode
        # once decoded through inf without a message
        llrs = np.where(np.arange(16) % 3, 1.6e308, -1.6e308)
        with pytest.raises(ValueError, match="overflows"):
            decode(llrs, spec16_11)
        # at the bound itself every sum is finite
        decode(np.full(16, np.finfo(float).max / 16), spec16_11)

    @pytest.mark.parametrize("decode", FRAME_DECODERS.values(), ids=FRAME_DECODERS.keys())
    @pytest.mark.parametrize("shape", [(8,), (17,), (1, 16), ()])
    def test_rejects_wrong_shape(self, decode, shape, spec16_11):
        with pytest.raises(ValueError, match="expected 16 LLRs"):
            decode(np.zeros(shape), spec16_11)


def test_decoders_leave_no_reference_cycles(spec16_11, rng):
    # a cycle would keep a decode's buffers alive until the cycle collector
    # runs, so every decoder's garbage must be freed by reference counting
    q5 = QuantSpec(5, 1)
    llrs = rng.normal(0.5, 2, 16)
    decoders = {
        "sc_decode minsum": lambda: sc_decode(llrs, spec16_11, f_mode="minsum"),
        "sc_decode exact": lambda: sc_decode(llrs, spec16_11, f_mode="exact"),
        "sc_decode_fixed": lambda: sc_decode_fixed(llrs, spec16_11, q5),
        "hard_decision_decode": lambda: hard_decision_decode(llrs < 0, spec16_11),
        "decode_minsum_rows": lambda: decode_minsum_rows(llrs[None], spec16_11),
        "decode_exact_rows": lambda: decode_exact_rows(llrs[None], spec16_11),
        "decode_fixed_rows": lambda: decode_fixed_rows(llrs[None], spec16_11, q5),
    }
    for decode in decoders.values():
        decode()  # warm up caches
    gc.disable()
    try:
        for name, decode in decoders.items():
            gc.collect()
            decode()
            assert gc.collect() == 0, name
    finally:
        gc.enable()

import math
from itertools import product

import numpy as np
import pytest

import oracles
from polarfec import CodeSpec, QuantSpec, bhattacharyya_construct, quantize, sc_decode, sc_decode_fixed
from polarfec.batch import (
    butterfly,
    decode_exact_rows,
    decode_fixed_rows,
    decode_minsum_rows,
    encode_systematic_rows,
    hard_llr_rows,
    quantize_rows,
    transform_rows,
)


def test_transform_rows_matches_scalar(rng):
    # reference: explicit Kronecker generator matrix
    bits = rng.integers(0, 2, (100, 32)).astype(np.uint8)
    rows = transform_rows(bits)
    for i in range(100):
        assert np.array_equal(rows[i], oracles.matrix_encode(bits[i]))


def test_encode_systematic_rows_matches_scalar(spec8_5, spec16_11, rng):
    # reference: the systematic codeword found by exhaustive search
    msgs = np.array(list(product((0, 1), repeat=5)), dtype=np.uint8)
    rows = encode_systematic_rows(msgs, spec8_5)
    for i in range(len(msgs)):
        assert np.array_equal(rows[i], oracles.solve_systematic_bruteforce(msgs[i], spec8_5))
    msgs = rng.integers(0, 2, (5, 11)).astype(np.uint8)
    rows = encode_systematic_rows(msgs, spec16_11)
    for i in range(5):
        assert np.array_equal(rows[i], oracles.solve_systematic_bruteforce(msgs[i], spec16_11))


@pytest.mark.parametrize("n_bits", [1, 2, 4, 8, 64])
def test_butterfly_matches_matrix(n_bits, rng):
    bits = rng.integers(0, 2, (7, n_bits)).astype(np.uint8)
    x = bits.copy()
    assert butterfly(x) == n_bits // 2 * (n_bits.bit_length() - 1)
    for row, x_row in zip(bits, x):
        assert np.array_equal(x_row, oracles.matrix_encode(row))


@pytest.mark.parametrize("rows, n_bits", [(10, 64), (40, 256)], ids=["bytes", "lanes"])
def test_butterfly_on_non_contiguous_view(rows, n_bits, rng):
    # every other row and column of a larger array, transformed in place
    big = rng.integers(0, 2, (rows, n_bits)).astype(np.uint8)
    before = big.copy()
    view = big[::2, ::2]
    n_view = n_bits // 2
    assert butterfly(view) == n_view // 2 * (n_view.bit_length() - 1)
    for i in range(rows):
        if i % 2:
            assert np.array_equal(big[i], before[i])
            continue
        assert np.array_equal(big[i, ::2], oracles.matrix_encode(before[i, ::2]))
        assert np.array_equal(big[i, 1::2], before[i, 1::2])


@pytest.mark.parametrize("shape", [(16, 11), (8, 5), (128, 96)])
def test_decode_minsum_rows_matches_scalar(shape, rng):
    spec = bhattacharyya_construct(*shape)
    llrs = rng.normal(0, 2, (80, shape[0]))
    if shape[0] == 128:
        # hard +/-1 inputs: G yields exact zeros, so F and the leaves see ties
        hard = np.where(rng.random((40, 128)) < 0.05, -1.0, 1.0)
        llrs = np.concatenate([llrs, hard])
    rows = decode_minsum_rows(llrs, spec)
    for i in range(len(llrs)):
        assert np.array_equal(rows[i], sc_decode(llrs[i], spec, "minsum").u_hat)


def test_decode_exact_rows_matches_scalar(spec16_11, spec128_96, rng):
    # small-integer rows give exact-zero G outputs, so F and the leaves tie
    for spec, rows_count in ((spec16_11, 200), (spec128_96, 40)):
        n = spec.block_len
        llrs = np.concatenate([rng.normal(0, 2, (rows_count, n)), rng.integers(-2, 3, (10, n))])
        rows = decode_exact_rows(llrs, spec)
        for i in range(len(llrs)):
            assert np.array_equal(rows[i], sc_decode(llrs[i], spec, "exact").u_hat)


def test_hard_decode_at_n1024_matches_scalar(rng):
    # +/-1 inputs decode in int16, where the right spine's leaf sums reach N:
    # all +1, all -1, and random flips at several crossover rates
    spec = bhattacharyya_construct(1024, 512)
    bits = np.concatenate([
        np.zeros((1, 1024)), np.ones((1, 1024)),
        rng.random((6, 1024)) < np.array([0.01, 0.03, 0.1, 0.2, 0.5, 0.9])[:, None],
    ]).astype(np.uint8)
    llrs = hard_llr_rows(bits)
    rows = decode_minsum_rows(llrs, spec)
    for i in range(len(bits)):
        assert np.array_equal(rows[i], sc_decode(llrs[i], spec, "minsum").u_hat)


@pytest.mark.parametrize("magnitude", [1, 3000, 2**28], ids=["int16", "int32", "float64"])
def test_integer_minsum_widths_match_scalar(magnitude, spec16_11, rng):
    # N * max|LLR| picks int16 (16), int32 (48,000) or float64 (2^32); rows of
    # equal signs drive the right spine's G sums to that bound
    llrs = rng.integers(-magnitude, magnitude + 1, (60, 16))
    llrs[:20] = np.sign(llrs[:20]) * magnitude
    llrs[20:30] = magnitude
    llrs[30:40] = -magnitude
    llrs[35:40, :3] = magnitude
    rows = decode_minsum_rows(llrs, spec16_11)
    for i in range(len(llrs)):
        assert np.array_equal(rows[i], sc_decode(llrs[i], spec16_11, "minsum").u_hat)


@pytest.mark.parametrize("k_info", [1, 64], ids=["K1", "KN"])
def test_extreme_rates_match_scalar(k_info, rng):
    # K = 1 prunes all but one leaf's path; K = N prunes nothing
    spec = bhattacharyya_construct(64, k_info)
    soft = np.concatenate([rng.normal(0, 2, (30, 64)), rng.integers(-2, 3, (10, 64))])
    hard = hard_llr_rows(rng.random((30, 64)) < 0.1)
    qspec = QuantSpec(4, 1)
    for llrs, decode, reference in [
        (soft, decode_minsum_rows, lambda row: sc_decode(row, spec, "minsum")),
        (hard, decode_minsum_rows, lambda row: sc_decode(row, spec, "minsum")),
        (soft, decode_exact_rows, lambda row: sc_decode(row, spec, "exact")),
        (soft * 3, lambda r, s: decode_fixed_rows(r, s, qspec), lambda row: sc_decode_fixed(row, spec, qspec)),
    ]:
        rows = decode(llrs, spec)
        for i in range(len(llrs)):
            assert np.array_equal(rows[i], reference(llrs[i]).u_hat)


def test_irregular_frozen_sets_match_scalar(rng):
    # random frozen sets prune where constructed codes do not, such as a
    # rate-0 right child beside a decoded left one
    qspec = QuantSpec(5, 1)
    for n_bits, k_info in [(8, 3), (32, 9), (32, 20), (64, 30)] * 3:
        info = rng.choice(n_bits, k_info, replace=False)
        spec = CodeSpec(n_bits, k_info, sorted(set(range(n_bits)) - set(info)), info)
        soft = np.concatenate([rng.normal(0, 2, (20, n_bits)), rng.integers(-2, 3, (5, n_bits))])
        hard = hard_llr_rows(rng.random((20, n_bits)) < 0.1)
        for llrs, rows, reference in [
            (soft, decode_minsum_rows(soft, spec), lambda row: sc_decode(row, spec, "minsum")),
            (hard, decode_minsum_rows(hard, spec), lambda row: sc_decode(row, spec, "minsum")),
            (soft, decode_exact_rows(soft, spec), lambda row: sc_decode(row, spec, "exact")),
            (soft, decode_fixed_rows(soft, spec, qspec), lambda row: sc_decode_fixed(row, spec, qspec)),
        ]:
            for i in range(len(llrs)):
                assert np.array_equal(rows[i], reference(llrs[i]).u_hat)


@pytest.mark.parametrize("decode", [
    decode_minsum_rows,
    decode_exact_rows,
    lambda llrs, spec: decode_fixed_rows(llrs, spec, QuantSpec(5, 1)),
], ids=["minsum", "exact", "fixed"])
def test_rows_reject_wrong_width_and_non_finite(decode, spec16_11):
    for llrs in (np.ones((2, 8)), np.ones((2, 32)), np.ones(16), np.ones((2, 2, 16))):
        with pytest.raises(ValueError, match="expected 16 LLRs per row"):
            decode(llrs, spec16_11)
    for bad in (np.nan, np.inf):
        llrs = np.ones((3, 16))
        llrs[1, 5] = bad
        with pytest.raises(ValueError, match="LLR must be finite"):
            decode(llrs, spec16_11)


@pytest.mark.parametrize("decode", [
    decode_minsum_rows,
    decode_exact_rows,
    lambda llrs, spec: decode_fixed_rows(llrs, spec, QuantSpec(5, 1)),
], ids=["minsum", "exact", "fixed"])
def test_rows_reject_llrs_whose_n_fold_sum_overflows(decode, spec16_11):
    # one row whose 16 LLRs could sum past the float range rejects the batch
    llrs = np.ones((3, 16))
    llrs[2] = np.where(np.arange(16) % 3, 1.6e308, -1.6e308)
    with pytest.raises(ValueError, match="overflows"):
        decode(llrs, spec16_11)
    llrs[2] = np.finfo(float).max / 16
    assert decode(llrs, spec16_11).shape == (3, 16)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("frames", [1, 5, 8, 64])
def test_butterfly_along_either_axis(axis, frames, rng):
    # frame-minor (N, frames) arrays transform along axis 0, on lanes when
    # the frames are a multiple of 8 and the array is large enough
    for n_bits in (1, 2, 16, 64):
        bits = rng.integers(0, 2, (frames, n_bits)).astype(np.uint8)
        x = bits.T.copy() if axis == 0 else bits.copy()
        assert butterfly(x, axis) == n_bits // 2 * (n_bits.bit_length() - 1)
        rows = x.T if axis == 0 else x
        for row, x_row in zip(bits, rows):
            assert np.array_equal(x_row, oracles.matrix_encode(row))


@pytest.mark.parametrize("qbits", [4, 5, 10, 15, 16, 31])
def test_decode_fixed_rows_matches_scalar(qbits, spec16_11, spec128_96, rng):
    qspec = QuantSpec(qbits, 1)
    cases = [(spec16_11, rng.normal(0, 4, (150, 16)))]
    if qbits == 4:
        # heavy saturation: most channel values and G sums clamp at +/-7
        cases.append((spec128_96, rng.normal(1.0, 8, (40, 128))))
    if qbits in (15, 16):
        # the int16 edge (G sums reach 32766) and the first int32 grid: most
        # channel values saturate, and so do the G sums of any two of them
        big = qspec.max_mag * qspec.step
        for spec in (spec16_11, spec128_96):
            n = spec.block_len
            cases.append((spec, rng.normal(0.2 * big, 2 * big, (40, n))))
            cases.append((spec, np.where(rng.random((40, n)) < 0.2, -1.0, 1.0) * rng.choice([big, 2 * big], (40, n))))
    if qbits == 31:
        # near the widest grid: G sums reach 2^31 - 2, the int32 limit
        mags = rng.uniform(0.5, 1.0, (200, 16)) * qspec.max_mag * qspec.step
        cases.append((spec16_11, np.where(rng.integers(0, 2, (200, 16)) == 1, -mags, mags)))
    for spec, llrs in cases:
        rows = decode_fixed_rows(llrs, spec, qspec)
        for i in range(len(llrs)):
            assert np.array_equal(rows[i], sc_decode_fixed(llrs[i], spec, qspec).u_hat)


def _quantize_reference(value, qspec):
    """Round half away from zero on the grid, then saturate, in Python ints."""
    raw = int(math.copysign(math.floor(abs(value) * 2.0**qspec.fraction_bits + 0.5), value))
    return max(-qspec.max_mag, min(qspec.max_mag, raw))


def test_quantize_rows_matches_scalar(rng):
    qspec = QuantSpec(5, 1)
    edges = [0.0, 1.25, -1.25, 100.0, -100.0, 3.7, 7.75, -7.7499]
    values = np.concatenate([rng.normal(0, 5, 500), edges])
    rows = quantize_rows(values, qspec)
    for v, raw in zip(values, rows):
        assert raw == _quantize_reference(float(v), qspec) == quantize(float(v), qspec)


def test_quantize_rows_saturates_without_overflow():
    # 1e308 * 2^30 overflowed: a RuntimeWarning, then int32 garbage
    for qspec in (QuantSpec(31, 30), QuantSpec(5, 1)):
        values = np.array([1e308, -3e307, np.finfo(float).max, qspec.max_mag * qspec.step, 5e-324])
        m = qspec.max_mag
        assert quantize_rows(values, qspec).tolist() == [m, -m, m, m, 0]
        assert quantize(1e308, qspec) == m


def test_hard_llr_rows():
    bits = np.array([[0, 1, 1, 0]], dtype=np.uint8)
    assert np.array_equal(hard_llr_rows(bits), [[1.0, -1.0, -1.0, 1.0]])

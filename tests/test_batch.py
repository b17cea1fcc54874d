import math
from itertools import product

import numpy as np
import pytest

import oracles
from polarfec import QuantSpec, quantize, sc_decode, sc_decode_fixed
from polarfec.batch import (
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


@pytest.mark.parametrize("shape", [(16, 11), (8, 5), (128, 96)])
def test_decode_minsum_rows_matches_scalar(shape, rng):
    from polarfec import bhattacharyya_construct

    spec = bhattacharyya_construct(*shape)
    llrs = rng.normal(0, 2, (80, shape[0]))
    if shape[0] == 128:
        # hard +/-1 inputs: G yields exact zeros, so F and the leaves see ties
        hard = np.where(rng.random((40, 128)) < 0.05, -1.0, 1.0)
        llrs = np.concatenate([llrs, hard])
    rows = decode_minsum_rows(llrs, spec)
    for i in range(len(llrs)):
        assert np.array_equal(rows[i], sc_decode(llrs[i], spec, "minsum").u_hat)


def test_decode_exact_rows_matches_scalar(spec16_11, rng):
    llrs = rng.normal(0, 2, (200, 16))
    rows = decode_exact_rows(llrs, spec16_11)
    for i in range(200):
        assert np.array_equal(rows[i], sc_decode(llrs[i], spec16_11, "exact").u_hat)


@pytest.mark.parametrize("qbits", [4, 5, 10, 31])
def test_decode_fixed_rows_matches_scalar(qbits, spec16_11, spec128_96, rng):
    qspec = QuantSpec(qbits, 1)
    cases = [(spec16_11, rng.normal(0, 4, (150, 16)))]
    if qbits == 4:
        # heavy saturation: most channel values and G sums clamp at +/-7
        cases.append((spec128_96, rng.normal(1.0, 8, (40, 128))))
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


def test_hard_llr_rows():
    bits = np.array([[0, 1, 1, 0]], dtype=np.uint8)
    assert np.array_equal(hard_llr_rows(bits), [[1.0, -1.0, -1.0, 1.0]])

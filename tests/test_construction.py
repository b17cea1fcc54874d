import pickle
import time

import numpy as np
import pytest

import oracles
from polarfec import (
    CodeSpec,
    ConstructionParams,
    bhattacharyya_construct,
    bhattacharyya_reliabilities,
    parse_spec_text,
    to_spec_text,
    validate_domination,
)
from polarfec import construction


def test_reliabilities_n4_hand_values():
    # two levels of z -> (2z - z^2, z^2) from z0 = 0.5
    z = bhattacharyya_reliabilities(4, 0.5)
    assert np.array_equal(z, [0.9375, 0.5625, 0.4375, 0.0625])


@pytest.mark.parametrize("n_bits", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("z0", [0.1, 0.5, 0.9])
def test_reliabilities_match_digit_fold_oracle(n_bits, z0):
    stages = n_bits.bit_length() - 1
    z = bhattacharyya_reliabilities(n_bits, z0)
    expected = [oracles.bhattacharyya_digit_fold(i, stages, z0) for i in range(n_bits)]
    assert np.array_equal(z, expected)


def test_reliabilities_stay_in_unit_interval():
    for z0 in (1e-6, 0.25, 0.5, 0.999):
        z = bhattacharyya_reliabilities(256, z0)
        assert np.all(z >= 0.0) and np.all(z <= 1.0)


def test_construct_full_rate_freezes_nothing():
    spec = bhattacharyya_construct(2, 2)
    assert spec.frozen_set == ()
    assert spec.info_set == (0, 1)


def test_construct_4_2():
    spec = bhattacharyya_construct(4, 2)
    assert spec.frozen_set == (0, 1)
    assert spec.info_set == (2, 3)


def test_construct_16_11_golden_set():
    # five largest reliabilities per the digit-fold oracle
    z = [oracles.bhattacharyya_digit_fold(i, 4, 0.5) for i in range(16)]
    expected = tuple(sorted(sorted(range(16), key=lambda i: (-z[i], i))[:5]))
    spec = bhattacharyya_construct(16, 11)
    assert spec.frozen_set == expected == (0, 1, 2, 4, 8)


def test_spec_fields():
    spec = bhattacharyya_construct(16, 11)
    assert spec.block_len == 16
    assert spec.info_len == 11
    assert spec.stages == 4
    assert spec.rate == 11 / 16
    assert len(spec.frozen_set) == 5 and len(spec.info_set) == 11
    assert set(spec.frozen_set) | set(spec.info_set) == set(range(16))
    assert not set(spec.frozen_set) & set(spec.info_set)


def test_construct_rejections():
    with pytest.raises(ValueError):
        bhattacharyya_construct(12, 4)
    with pytest.raises(ValueError):
        bhattacharyya_construct(16, 17)
    with pytest.raises(ValueError):
        bhattacharyya_construct(16, 0)
    with pytest.raises(ValueError):
        bhattacharyya_construct(16, 8, ConstructionParams(0.0))
    with pytest.raises(ValueError):
        bhattacharyya_construct(16, 8, ConstructionParams(1.0))


def test_frozen_set_monotone_in_k():
    for k in range(2, 32):
        smaller = bhattacharyya_construct(32, k - 1)
        larger = bhattacharyya_construct(32, k)
        assert set(larger.frozen_set) <= set(smaller.frozen_set)


def test_construct_deterministic():
    a = bhattacharyya_construct(64, 40, ConstructionParams(0.37))
    b = bhattacharyya_construct(64, 40, ConstructionParams(0.37))
    assert a == b


def test_codespec_validation():
    with pytest.raises(ValueError):
        CodeSpec(10, 5, (0,), tuple(range(1, 10)))  # not a power of two
    with pytest.raises(ValueError):
        CodeSpec(8, 5, (0, 1), (2, 3, 4, 5, 6, 7))  # sizes off
    with pytest.raises(ValueError):
        CodeSpec(8, 5, (0, 1, 2), (2, 3, 4, 5, 6))  # overlap


def test_validate_domination_constructed_specs(spec4_2, spec16_11):
    assert validate_domination(spec4_2) is True
    assert validate_domination(spec16_11) is True


def test_validate_domination_matches_algebraic_oracle():
    # the unreliable hand-picked choice: freeze only index 3 of N=4;
    # the oracle decides the outcome, nothing is assumed a priori
    odd = CodeSpec(4, 3, (3,), (0, 1, 2))
    assert validate_domination(odd) is oracles.two_pass_exact_algebraic(odd)

    rng = np.random.default_rng(4)
    seen_false = seen_true = 0
    for _ in range(80):
        n = int(rng.choice([4, 8, 16, 32]))
        k = int(rng.integers(1, n + 1))
        frozen = tuple(sorted(rng.choice(n, size=n - k, replace=False).tolist()))
        info = tuple(sorted(set(range(n)) - set(frozen)))
        spec = CodeSpec(n, k, frozen, info)
        outcome = validate_domination(spec)
        assert outcome is oracles.two_pass_exact_algebraic(spec)
        seen_false += not outcome
        seen_true += outcome
    assert seen_false and seen_true  # the sample must exercise both outcomes


def test_validate_domination_sampled_large(spec128_96):
    assert validate_domination(spec128_96) is True


def non_exact_32_28():
    # K = 28: the frozen 1, 2 and 3 lie between the info indices 0 and 7 in
    # bit-support order, an odd count
    frozen = (1, 2, 3, 5)
    return CodeSpec(32, 28, frozen, tuple(sorted(set(range(32)) - set(frozen))))


def test_validate_domination_rejects_large_non_exact_spec():
    spec = non_exact_32_28()
    assert oracles.two_pass_exact_algebraic(spec) is False
    assert validate_domination(spec) is False


@pytest.mark.parametrize("spec, exact", [
    (bhattacharyya_construct(16, 11), True),
    (bhattacharyya_construct(128, 96), True),
    (bhattacharyya_construct(1024, 512), True),
    (non_exact_32_28(), False),
], ids=["16_11", "128_96", "1024_512", "non_exact_32_28"])
def test_blocked_domination_verdict_equals_one_batch(monkeypatch, spec, exact):
    # the uncached check, in blocks smaller than K and then as one batch
    assert spec.info_len <= construction.DOMINATION_BLOCK
    assert validate_domination.__wrapped__(spec) is exact
    for block in (1, 3, spec.info_len - 1):
        monkeypatch.setattr(construction, "DOMINATION_BLOCK", block)
        assert validate_domination.__wrapped__(spec) is exact


def test_validate_domination_is_fast_at_1024():
    spec = bhattacharyya_construct(1024, 512)
    start = time.perf_counter()
    assert validate_domination(spec) is True
    assert time.perf_counter() - start < 1.0


def test_frozen_mask_is_made_once_and_read_only(spec16_11):
    mask = spec16_11.frozen_mask()
    assert mask is spec16_11.frozen_mask()
    expected = np.zeros(16, dtype=bool)
    expected[list(spec16_11.frozen_set)] = True
    assert mask.dtype == bool and np.array_equal(mask, expected)
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[3] = True
    # a pickled copy rebuilds its own read-only mask
    copy = pickle.loads(pickle.dumps(spec16_11))
    assert copy == spec16_11 and hash(copy) == hash(spec16_11)
    assert not copy.frozen_mask().flags.writeable
    assert np.array_equal(copy.frozen_mask(), expected)


def test_spec_text_round_trip(spec16_11, tmp_path):
    text = to_spec_text(spec16_11)
    lines = text.splitlines()
    assert lines[0] == "16 11"
    assert lines[1] == "0 1 2 4 8"
    assert parse_spec_text(text) == spec16_11


def test_spec_text_full_rate():
    spec = bhattacharyya_construct(4, 4)
    assert parse_spec_text(to_spec_text(spec)) == spec


def test_parse_spec_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_spec_text("")
    with pytest.raises(ValueError):
        parse_spec_text("16\n0 1 2\n")

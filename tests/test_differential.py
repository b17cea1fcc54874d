"""Differential edge-case harness for the batch SC decoders.

One seeded generator builds adversarial LLR batches on constructed and
random frozen sets: small integers with zeros, hard +/-1 rows, Q4 and Q5
grid values at saturation, integers at the int16/int32 decode-width edge,
+/-(float max)/N, subnormals and -0.0.  Every decode_*_rows must equal its
scalar reference row for row, and every architecture schedule must equal
sc_decode.  The batch walk's Rate-1 and repetition nodes end the SC walk
early, so this is also their proof: the tests record every Rate-1 check and
require both its shortcut and its fallback to have run.  Recording
stand-ins for the walk and the F and G kernels pin which nodes the walk
visits and how many F and G operations a decode runs.
"""

import types
from collections import Counter

import numpy as np
import pytest

from polarfec import CodeSpec, QuantSpec, bhattacharyya_construct, sc_decode, sc_decode_fixed
from polarfec import architecture, batch
from polarfec.batch import decode_exact_rows, decode_fixed_rows, decode_minsum_rows, hard_llr_rows

FLOAT_MAX = np.finfo(float).max
TINY = np.finfo(float).smallest_subnormal
QSPECS = {"q4_f1": QuantSpec(4, 1), "q5_f1": QuantSpec(5, 1), "q31_f30": QuantSpec(31, 30)}


def _random_spec(rng, n_bits, k_info):
    info = sorted(int(i) for i in rng.choice(n_bits, k_info, replace=False))
    return CodeSpec(n_bits, k_info, sorted(set(range(n_bits)) - set(info)), info)


def _specs(rng):
    specs = [bhattacharyya_construct(16, 11), bhattacharyya_construct(64, 32)]
    for n_bits in (2, 4, 8, 16, 32, 64):
        specs.append(_random_spec(rng, n_bits, int(rng.integers(1, n_bits + 1))))
    specs += [_random_spec(rng, n_bits, k) for n_bits in (16, 32) for k in (1, n_bits)]
    # every 4-bit block's last bit: one repetition node per block
    specs.append(CodeSpec(32, 8, [i for i in range(32) if i % 4 != 3], range(3, 32, 4)))
    return specs


def _batches(rng, n_bits, rows=8):
    """The adversarial batches for one block length, as (kind, LLRs)."""
    shape = (rows, n_bits)
    signs = np.where(rng.random(shape) < 0.3, -1, 1)
    small = rng.integers(-3, 4, shape)
    yield "integer", small.astype([np.int8, np.int32, np.int64][rng.integers(3)])
    for crossover in (0.05, 0.25):
        yield "hard", hard_llr_rows(rng.random(shape) < crossover)
    for qspec in (QSPECS["q4_f1"], QSPECS["q5_f1"]):
        # grid values past +/-max_mag, and the half-step rounding edges
        grid = rng.integers(-qspec.max_mag - 3, qspec.max_mag + 4, shape) * qspec.step
        edge = (qspec.max_mag + rng.choice([-0.5, 0.5, 1.0], shape)) * qspec.step
        yield "grid", np.where(rng.random(shape) < 0.5, grid, signs * edge)
    for bound in (32767, 32768):
        # N * max|LLR| at the largest int16 decode and the smallest int32 one;
        # equal magnitudes drive the right spine's G sums to that bound
        mag = bound // n_bits
        edge = signs * mag
        edge[: rows // 2] = np.where(rng.random((rows // 2, n_bits)) < 0.5, small[: rows // 2], edge[: rows // 2])
        edge[-1] = -mag
        yield "int_edge", edge.astype(np.int32)
    huge = signs * (FLOAT_MAX / n_bits)
    tiny = signs * TINY * rng.integers(0, 1 << 20, shape)
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    pick = rng.integers(0, 4, shape)
    yield "float_edge", np.choose(pick, [huge, tiny, zeros, rng.normal(0, 2, shape)])
    yield "soft", rng.normal(0.5, 2, shape)


def _build_cases(seed=20110):
    rng = np.random.default_rng(seed)
    return [(spec, kind, llrs) for spec in _specs(rng) for kind, llrs in _batches(rng, spec.block_len)]


CASES = _build_cases()

DECODERS = {
    "minsum": (decode_minsum_rows, lambda row, spec: sc_decode(row, spec, "minsum")),
    "exact": (decode_exact_rows, lambda row, spec: sc_decode(row, spec, "exact")),
}
for _name, _qspec in QSPECS.items():
    DECODERS[f"fixed_{_name}"] = (
        lambda llrs, spec, q=_qspec: decode_fixed_rows(llrs, spec, q),
        lambda row, spec, q=_qspec: sc_decode_fixed(row, spec, q),
    )


@pytest.fixture()
def rate1_checks(monkeypatch):
    """Every Rate-1 check the batch walk makes, as (kind, taken), with kind
    set by the test to the batch being decoded.  The walk looks _rate1 up
    when it calls it, so the stand-in sees every check."""
    checks, state = [], {"kind": None}
    rule = batch._rate1

    def recording(alpha, out):
        taken = rule(alpha, out)
        checks.append((state["kind"], taken))
        return taken

    monkeypatch.setattr(batch, "_rate1", recording)
    return checks, state


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_batch_decoders_match_scalar(name, rate1_checks):
    decode, reference = DECODERS[name]
    checks, state = rate1_checks
    for spec, kind, llrs in CASES:
        state["kind"] = kind
        rows = decode(llrs, spec)
        assert rows.shape == llrs.shape and rows.dtype == np.uint8
        for row, llr_row in zip(rows, llrs):
            assert np.array_equal(row, reference(llr_row, spec).u_hat), (spec, kind, llr_row)
    if name == "exact":
        # _f_exact is not sign-exact, so its walk has no Rate-1 nodes
        assert checks == []
        return
    # both the shortcut and the fallback ran, the fallback on tie-rich inputs
    assert {taken for _, taken in checks} == {True, False}
    if name == "minsum":
        assert ("hard", False) in checks and ("hard", True) in checks
        assert ("soft", True) in checks


@pytest.mark.parametrize("arch", architecture.ARCH_KINDS)
def test_architectures_match_sc_decode(arch):
    for spec, kind, llrs in CASES:
        if spec.block_len < 4:
            continue
        for row in llrs[:2]:
            trace = architecture.build_schedule(spec, arch, row)
            assert np.array_equal(trace.decoded_bits(), sc_decode(row, spec, "minsum").u_hat), (spec, kind)


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_empty_and_single_row_batches(name):
    decode, reference = DECODERS[name]
    spec = bhattacharyya_construct(16, 11)
    assert decode(np.empty((0, 16)), spec).shape == (0, 16)
    assert decode(np.empty((0, 16), np.int16), spec).shape == (0, 16)
    for _, kind, llrs in CASES[:8]:
        if llrs.shape[1] == 16:
            row = llrs[:1]
            assert np.array_equal(decode(row, spec)[0], reference(row[0], spec).u_hat), kind


def test_plans_hold_both_node_kinds(monkeypatch, rate1_checks):
    # the harness's specs reach repetition nodes under the min-sum F, which
    # makes Rate-1 checks, and under the exact F, which makes none; the walk
    # ends at each repetition node, so its right child is not visited
    visits, walk = [], batch._sc_walk

    def recording(run, stage, base, check):
        visits.append((stage, base))
        walk(run, stage, base, check)

    monkeypatch.setattr(batch, "_sc_walk", recording)
    checks, _ = rate1_checks
    rng = np.random.default_rng(2011)
    repetitions, rate1 = {}, {}
    for decode in (decode_minsum_rows, decode_exact_rows):
        count, checks_before = 0, len(checks)
        for spec in dict.fromkeys(case[0] for case in CASES):
            visits.clear()
            decode(rng.normal(0.5, 2, (4, spec.block_len)), spec)
            info = ~spec.frozen_mask()
            for stage, base in visits:
                node = info[base : base + (1 << stage)]
                if stage and node.sum() == 1 == node[-1]:
                    count += 1
                    assert (stage - 1, base + len(node) // 2) not in visits
        repetitions[decode], rate1[decode] = count, len(checks) - checks_before
    assert repetitions[decode_minsum_rows] == repetitions[decode_exact_rows] > 0
    assert rate1[decode_minsum_rows] > 0 and rate1[decode_exact_rows] == 0


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Every call of the batch F and G kernels, counted by name.  The
    wrappers replace the module's names, so the walk's f is _f_minsum test
    still holds and min-sum decodes keep their Rate-1 nodes."""
    calls = Counter()
    for name in ("_f_minsum", "_f_exact", "_g"):

        def counting(*args, name=name, kernel=getattr(batch, name)):
            calls[name] += 1
            kernel(*args)

        monkeypatch.setattr(batch, name, counting)
    return calls


def test_all_frozen_plan_decodes_to_zeros(kernel_calls):
    # CodeSpec needs K >= 1, so the all-frozen set runs through a stand-in
    for n_bits in (1, 2, 16):
        spec = types.SimpleNamespace(block_len=n_bits, frozen_set=tuple(range(n_bits)), stages=n_bits.bit_length() - 1)
        llrs = np.array([[-1.0] * n_bits, [0.0] * n_bits]).T
        assert not batch._minsum_columns(llrs, spec).any()
        assert not batch._exact_columns(llrs, spec).any()
        assert not batch._fixed_columns(llrs.copy(), spec, QSPECS["q5_f1"]).any()
    assert not kernel_calls


@pytest.mark.parametrize("n_bits, k_info, f_calls, g_calls", [(16, 11, 5, 9), (128, 96, 20, 35), (1024, 512, 95, 191)])
def test_walk_f_and_g_counts(n_bits, k_info, f_calls, g_calls, kernel_calls, rate1_checks):
    # one frame of tie-free LLRs: every Rate-1 shortcut is taken, and each F
    # or G is one kernel call, as one frame's operand block is 32768 rows
    spec = bhattacharyya_construct(n_bits, k_info)
    llrs = np.random.default_rng(n_bits).normal(1.0, 1.5, (1, n_bits))
    rows = decode_minsum_rows(llrs, spec)
    assert np.array_equal(rows[0], sc_decode(llrs[0], spec, "minsum").u_hat)
    checks, _ = rate1_checks
    assert checks and all(taken for _, taken in checks)
    assert kernel_calls == Counter(_f_minsum=f_calls, _g=g_calls)

import hashlib

import numpy as np
import pytest

from polarfec import (
    ARCH_KINDS,
    architecture,
    bhattacharyya_construct,
    build_schedule,
    encode_nonsystematic,
    f_minsum,
    format_trace,
    g_func,
    latency_clocks,
    sc_decode,
)
from polarfec.architecture import schedule_label


class TestLatency:
    def test_table_values_n16(self):
        assert latency_clocks(16, "conventional") == 30
        assert latency_clocks(16, "two_bit_sc") == 22
        assert latency_clocks(16, "proposed") == 8

    def test_speedup_ratios(self):
        assert latency_clocks(16, "conventional") / latency_clocks(16, "proposed") == 3.75
        assert latency_clocks(16, "two_bit_sc") / latency_clocks(16, "proposed") == 2.75

    @pytest.mark.parametrize("n_bits", [4, 8, 16, 32, 128])
    def test_formulas(self, n_bits):
        assert latency_clocks(n_bits, "conventional") == 2 * n_bits - 2
        assert latency_clocks(n_bits, "two_bit_sc") == 3 * n_bits // 2 - 2
        assert latency_clocks(n_bits, "proposed") == n_bits // 2

    def test_rejections(self):
        with pytest.raises(ValueError):
            latency_clocks(16, "systolic")
        with pytest.raises(ValueError):
            latency_clocks(2, "proposed")
        with pytest.raises(ValueError):
            latency_clocks(24, "proposed")


@pytest.fixture(scope="module")
def noisy_frames():
    gen = np.random.default_rng(777)
    return [gen.normal(0.0, 2.0, 16) for _ in range(400)]


def tie_rich_frames(n_bits):
    """All-zero, hard +/-1 and small-integer frames, where F and G yield exact zeros."""
    idx = np.arange(n_bits)
    hard = [np.where((idx * (s + 3) + s) % 5 < 2, -1.0, 1.0) for s in range(4)]
    ints = [((idx * (2 * s + 5) + s) % 7 - 3).astype(float) for s in range(4)]
    return [np.zeros(n_bits)] + hard + ints


def trace_frames(n_bits):
    """A fixed frame set: six Gaussian frames plus the tie-rich ones."""
    return list(np.random.default_rng(n_bits).normal(0.0, 2.0, (6, n_bits))) + tie_rich_frames(n_bits)


# SHA-256 of the concatenated format_trace text of trace_frames(N) on
# bhattacharyya_construct(N, K): any change to a clock plan, to the executor's
# arithmetic or to the trace format shows here.
TRACE_SHA256 = {
    (16, 11, "conventional"): "cdb7cb5639510e2ba6b49b0fd632136813898f4a8826bdb7f6b2563dc2fdfe6e",
    (16, 11, "two_bit_sc"): "7ed495cd96f801873ee1cf47a0752bb914611598b09b0a02e27cdd1f04039a14",
    (16, 11, "proposed"): "a869007c40775c0ad3fdb7751a72b8d34367fcb6f905844b8c2f48308d6f8262",
    (32, 16, "conventional"): "bb4b0f9e332fcb39ceecc00e66112d5e45ff62adf563f9a7f546d285cbde9571",
    (32, 16, "two_bit_sc"): "b886acff482d528478c81b3fa6c1cde7e8d1bbf98d41f1e5f314e0829d767203",
    (32, 16, "proposed"): "ecef9bd8054e14a5ad1252dc72cdac5e0c1ef6f87df5d3e6ae3acbe641a42ff6",
}


# PE activations per decode: every stage of N/2 node pairs runs N operations
# when staged, the merged last stage N/2, and proposed runs N - 1 per clock.
ACTIVATION_COUNTS = {
    "conventional": lambda n, stages: n * stages,
    "two_bit_sc": lambda n, stages: n * (stages - 1) + n // 2,
    "proposed": lambda n, stages: n // 2 * (n - 1),
}


class TestSchedules:
    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_total_clocks_match_formula(self, arch):
        for n_bits in (4, 8, 16, 32, 128):
            spec = bhattacharyya_construct(n_bits, max(1, 3 * n_bits // 4))
            llrs = np.random.default_rng(n_bits).normal(0, 1.5, n_bits)
            trace = build_schedule(spec, arch, llrs)
            assert trace.total_clocks == latency_clocks(n_bits, arch)
            assert trace.total_clocks == 1 + max(a.clock for a in trace.activations)
            assert len(trace.activations) == ACTIVATION_COUNTS[arch](n_bits, spec.stages)

    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_each_node_operation_computed_once(self, arch, monkeypatch):
        # proposed emits its unchanged root-to-leaf path on every clock, but
        # the executor computes each SC node operation once, as SC does
        calls = []

        def counted(function):
            def stand_in(*args):
                calls.append(function.__name__)
                return function(*args)

            return stand_in

        monkeypatch.setattr(architecture, "f_minsum", counted(f_minsum))
        monkeypatch.setattr(architecture, "g_func", counted(g_func))
        for n_bits in (4, 8, 16, 32, 128):
            spec = bhattacharyya_construct(n_bits, max(1, 3 * n_bits // 4))
            for llrs in trace_frames(n_bits)[:3]:
                calls.clear()
                trace = build_schedule(spec, arch, llrs)
                assert len(calls) == n_bits * spec.stages
                assert calls.count("f_minsum") == calls.count("g_func")
                assert len(trace.activations) == ACTIVATION_COUNTS[arch](n_bits, spec.stages)

    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_cosimulation_matches_golden(self, arch, spec16_11, noisy_frames):
        cases = [(spec16_11, llrs) for llrs in noisy_frames]
        gen = np.random.default_rng(778)
        for n_bits in (4, 8, 16, 32, 128):
            for k_info in sorted({1, n_bits // 2, 3 * n_bits // 4, n_bits}):
                spec = bhattacharyya_construct(n_bits, k_info)
                frames = [gen.normal(0.0, 2.0, n_bits) for _ in range(5)]
                frames += [gen.integers(-2, 3, n_bits).astype(float) for _ in range(5)]
                cases += [(spec, llrs) for llrs in frames + tie_rich_frames(n_bits)]
        for spec, llrs in cases:
            trace = build_schedule(spec, arch, llrs)
            golden = sc_decode(llrs, spec, "minsum")
            assert np.array_equal(trace.decoded_bits(), golden.u_hat)

    @pytest.mark.parametrize("n_bits, k_info, arch", sorted(TRACE_SHA256))
    def test_trace_text_pinned(self, n_bits, k_info, arch):
        spec = bhattacharyya_construct(n_bits, k_info)
        text = "".join(format_trace(build_schedule(spec, arch, llrs)) for llrs in trace_frames(n_bits))
        assert hashlib.sha256(text.encode()).hexdigest() == TRACE_SHA256[n_bits, k_info, arch]

    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_every_bit_decoded_exactly_once(self, arch, spec16_11, noisy_frames):
        trace = build_schedule(spec16_11, arch, noisy_frames[0])
        indices = [idx for per_clock in trace.decoded_pairs for idx, _ in per_clock]
        assert sorted(indices) == list(range(16))

    def test_proposed_two_bits_every_clock(self, spec16_11, noisy_frames):
        trace = build_schedule(spec16_11, "proposed", noisy_frames[0])
        assert trace.total_clocks == 8
        assert all(len(per_clock) == 2 for per_clock in trace.decoded_pairs)

    def test_conventional_one_bit_per_leaf_clock(self, spec16_11, noisy_frames):
        trace = build_schedule(spec16_11, "conventional", noisy_frames[0])
        sizes = [len(per_clock) for per_clock in trace.decoded_pairs]
        assert sizes.count(1) == 16 and sizes.count(0) == 14

    def test_two_bit_sc_merges_last_stage(self, spec16_11, noisy_frames):
        trace = build_schedule(spec16_11, "two_bit_sc", noisy_frames[0])
        merged = [a for a in trace.activations if a.function == "FG"]
        assert len(merged) == 8  # one per size-2 node
        sizes = [len(per_clock) for per_clock in trace.decoded_pairs]
        assert sizes.count(2) == 8 and sizes.count(0) == 14

    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_sel_and_feedback_invariants(self, arch):
        # every G and FG feedback is the transform of its node's decided left
        # block, recomputed here from the reference decode
        for n_bits in (4, 8, 16, 32, 128):
            spec = bhattacharyya_construct(n_bits, max(1, 3 * n_bits // 4))
            for llrs in trace_frames(n_bits):
                u_hat = sc_decode(llrs, spec, "minsum").u_hat
                feedback = {}
                for act in build_schedule(spec, arch, llrs).activations:
                    assert (act.function == "F") == (act.sel == 0)
                    a, b = act.operand_indices
                    assert b - a == 1 << act.stage
                    if act.function == "F":
                        assert act.partial_sum_feedback is None
                        continue
                    left = (act.node_base, act.stage)
                    if left not in feedback:
                        block = u_hat[act.node_base : act.node_base + (1 << act.stage)]
                        feedback[left] = encode_nonsystematic(block)
                    assert act.partial_sum_feedback == feedback[left][a]

    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_g_only_after_left_block_decided(self, arch, spec16_11, noisy_frames):
        trace = build_schedule(spec16_11, arch, noisy_frames[0])
        decide_clock = {}
        for clock, per_clock in enumerate(trace.decoded_pairs):
            for idx, _ in per_clock:
                decide_clock[idx] = clock
        for act in trace.activations:
            if act.function != "G":
                continue
            left = range(act.node_base, act.node_base + (1 << act.stage))
            assert all(decide_clock[i] < act.clock for i in left)

    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_stage_writes_precede_reads(self, arch, spec16_11, noisy_frames):
        # a stage reads its input node only after the parent stage produced
        # it, in the same clock (combinational chain) or earlier
        trace = build_schedule(spec16_11, arch, noisy_frames[0])
        n = spec16_11.stages
        produced = {}  # stage -> (node_base, function, clock, order)
        for order, act in enumerate(trace.activations):
            if act.stage < n - 1:
                parent = produced.get(act.stage + 1)
                assert parent is not None, "child stage ran before its parent"
                p_base, p_clock, p_order = parent
                assert p_base == act.node_base & ~((1 << (act.stage + 2)) - 1)
                assert (p_clock, p_order) <= (act.clock, order)
            produced[act.stage] = (act.node_base, act.clock, order)

    def test_pair_ordering_dependence_at_n4(self):
        # find inputs where flipping the first decoded bit of a pair flips
        # the second: the merged PE's G must consume the same-clock decision
        spec = bhattacharyya_construct(4, 4)
        gen = np.random.default_rng(3)
        dependence_seen = False
        for _ in range(200):
            llrs = gen.normal(0, 1.5, 4)
            trace = build_schedule(spec, "proposed", llrs)
            (i0, bit0), (i1, bit1) = trace.decoded_pairs[0]
            # reconstruct the pair's PE inputs: stage-1 F outputs
            v0 = f_minsum(llrs[0], llrs[2])
            v1 = f_minsum(llrs[1], llrs[3])
            assert bit0 == (1 if f_minsum(v0, v1) < 0 else 0)
            assert bit1 == (1 if g_func(v0, v1, bit0) < 0 else 0)
            flipped = 1 if g_func(v0, v1, bit0 ^ 1) < 0 else 0
            if flipped != bit1:
                dependence_seen = True
        assert dependence_seen

    def test_rejects_bad_input(self, spec16_11):
        with pytest.raises(ValueError):
            build_schedule(spec16_11, "proposed", np.zeros(8))
        with pytest.raises(ValueError):
            build_schedule(spec16_11, "wavefront", np.zeros(16))


class TestScheduleLabel:
    def test_n16_matches_paper_signatures(self):
        assert schedule_label(16, "conventional") == "(F)-(F)-(F)-(F)-(G)"
        assert schedule_label(16, "two_bit_sc") == "(F)-(F)-(F)-(F-G)"
        assert schedule_label(16, "proposed") == "(F-F-F-F-G)"

    def test_n4(self):
        assert schedule_label(4, "conventional") == "(F)-(F)-(G)"
        assert schedule_label(4, "two_bit_sc") == "(F)-(F-G)"
        assert schedule_label(4, "proposed") == "(F-F-G)"

    def test_n128_has_one_f_per_stage(self):
        assert schedule_label(128, "conventional") == "-".join(["(F)"] * 7 + ["(G)"])
        assert schedule_label(128, "two_bit_sc") == "-".join(["(F)"] * 6 + ["(F-G)"])
        assert schedule_label(128, "proposed") == "(" + "-".join(["F"] * 7 + ["G"]) + ")"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            schedule_label(12, "proposed")
        with pytest.raises(ValueError):
            schedule_label(16, "wavefront")


class TestTraceFormat:
    def test_lines(self, spec16_11, noisy_frames):
        text = format_trace(build_schedule(spec16_11, "proposed", noisy_frames[0]))
        lines = text.strip().splitlines()
        assert len(lines) == 8 * 15  # 8 clocks, 15 PEs per clock
        assert lines[0].startswith("clk=0 stage=3 fn=")
        for line in lines:
            assert "stage=" in line and "fn=" in line and "sel=" in line
        assert any("fn=FG" in line and "u=" in line for line in lines)

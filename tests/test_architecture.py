import gc
import hashlib

import numpy as np
import pytest

from polarfec import (
    ARCH_KINDS,
    architecture,
    bhattacharyya_construct,
    build_schedule,
    cli,
    encode_nonsystematic,
    f_minsum,
    format_trace,
    g_func,
    latency_clocks,
    sc_decode,
)
from polarfec.architecture import PeActivation, schedule_label


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
        with pytest.raises(ValueError, match="integer"):
            latency_clocks(16.0, "proposed")

    def test_numpy_integer_n_bits(self):
        assert latency_clocks(np.int64(16), "proposed") == 8
        assert type(latency_clocks(np.int64(16), "conventional")) is int
        assert schedule_label(np.int64(16), "proposed") == schedule_label(16, "proposed")


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
# bhattacharyya_construct(N, K): any change to a clock plan, to its compiled
# arithmetic or to the trace format shows here.
TRACE_SHA256 = {
    (16, 11, "conventional"): "cdb7cb5639510e2ba6b49b0fd632136813898f4a8826bdb7f6b2563dc2fdfe6e",
    (16, 11, "two_bit_sc"): "7ed495cd96f801873ee1cf47a0752bb914611598b09b0a02e27cdd1f04039a14",
    (16, 11, "proposed"): "a869007c40775c0ad3fdb7751a72b8d34367fcb6f905844b8c2f48308d6f8262",
    (32, 16, "conventional"): "bb4b0f9e332fcb39ceecc00e66112d5e45ff62adf563f9a7f546d285cbde9571",
    (32, 16, "two_bit_sc"): "b886acff482d528478c81b3fa6c1cde7e8d1bbf98d41f1e5f314e0829d767203",
    (32, 16, "proposed"): "ecef9bd8054e14a5ad1252dc72cdac5e0c1ef6f87df5d3e6ae3acbe641a42ff6",
    # nodes of up to 64 PEs, which run 64 calls in one step
    (128, 96, "conventional"): "d866aa5b01a2161105915ac7aee539c94ebcf29d39d95bc64f5ff5bb25a78945",
    (128, 96, "two_bit_sc"): "9d549cea70919f5246e2996246b5aa6a1923c40fd76ea4733308dddf375cf97f",
    (128, 96, "proposed"): "d50fd743a301ba358eb52d1afef4b30d8e0353911586562f839eac512a77d24d",
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
        # each SC node operation is computed once, as SC does; the plans are
        # compiled before the stand-ins go in, so the counts also show that a
        # plan calls the F and G bound when it runs
        sizes = (4, 8, 16, 32, 128)
        for n_bits in sizes:
            build_schedule(bhattacharyya_construct(n_bits, n_bits // 2), arch, np.ones(n_bits))
        calls = []

        def counted(function):
            def stand_in(*args):
                calls.append(function.__name__)
                return function(*args)

            return stand_in

        monkeypatch.setattr(architecture, "f_minsum", counted(f_minsum))
        monkeypatch.setattr(architecture, "g_func", counted(g_func))
        for n_bits in sizes:
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


def _plan_function_clocks(functions, stages):
    """The clocks each function of a compiled plan runs, and the feedback
    bits each appends, read off one decode of an all-zero frame: a function
    returns one decision list per clock it runs."""
    n_bits = 1 << stages
    values, sums, frozen, feedback = [0.0] * 2 * n_bits, [0] * n_bits, [False] * n_bits, []
    groups, appended, first = [], [], 0
    for function in functions:
        before = len(feedback)
        count = len(function(values, sums, frozen, feedback, f_minsum, g_func))
        groups.append(list(range(first, first + count)))
        appended.append(len(feedback) - before)
        first += count
    return groups, appended


def _plan_function_lines(function):
    """Body lines of a plan function, its return line included."""
    return max(line for *_, line in function.__code__.co_lines() if line) - 1


class TestCompiledPlan:
    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_small_plans_are_one_function(self, arch):
        for stages in (2, 3, 4):
            functions, *_ = architecture._compiled_plan(stages, arch)
            (function,) = functions
            groups, _ = _plan_function_clocks(functions, stages)
            assert groups == [list(range(latency_clocks(1 << stages, arch)))]

    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_wide_plan_groups_clocks_within_budget(self, arch, monkeypatch):
        # each function takes clocks until the next would pass the budget, so
        # it holds no more than the budget plus its last clock; a fresh
        # compile, with every clock's line count recorded in clock order
        budget = architecture._LINE_BUDGET
        compile_clock = architecture._compile_clock
        clock_lines = []

        def recorded(ops, held):
            compiled = compile_clock(ops, held)
            clock_lines.append(len(compiled[0]))
            return compiled

        monkeypatch.setattr(architecture, "_compile_clock", recorded)
        functions, records, _ = architecture._compiled_plan.__wrapped__(10, arch)
        assert 1 < len(functions) < len(clock_lines) // 10
        groups, appended = _plan_function_clocks(functions, 10)
        assert [clock for clocks in groups for clock in clocks] == list(range(latency_clocks(1024, arch)))
        for function, clocks, following in zip(functions, groups, groups[1:] + [None]):
            lines = [clock_lines[clock] for clock in clocks]
            assert _plan_function_lines(function) == sum(lines) + 1
            assert sum(lines[:-1]) <= budget
            assert sum(lines) <= budget or len(clocks) == 1
            if following:
                assert sum(lines) + clock_lines[following[0]] > budget
        # each function appends the feedback bits its clocks' G records lay out
        for clocks, count in zip(groups, appended):
            g_records = [r for r in records if r[0] in clocks and r[2] != "F"]
            assert count == sum(1 << stage for _, stage, *_ in g_records)

    @pytest.mark.parametrize("n_bits", [16, 128])
    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_one_decision_list_per_clock(self, arch, n_bits):
        spec = bhattacharyya_construct(n_bits, 3 * n_bits // 4)
        for llrs in trace_frames(n_bits)[:3]:
            trace = build_schedule(spec, arch, llrs)
            assert len(trace.decoded_pairs) == trace.total_clocks
            assert all(type(per_clock) is list for per_clock in trace.decoded_pairs)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_compile_restores_collector_state(self, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for arch in ARCH_KINDS:
                architecture._compiled_plan.__wrapped__(3, arch)
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_failed_compile_restores_collector(self, monkeypatch):
        def broken(ops, held):
            assert not gc.isenabled()
            raise RuntimeError("compile failed")

        monkeypatch.setattr(architecture, "_compile_clock", broken)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="compile failed"):
            architecture._compiled_plan.__wrapped__(3, "proposed")
        assert gc.isenabled()


def expanded_activations(spec, arch, llrs):
    """One decode's activations expanded from _clock_plan's operations, apart
    from the trace view: a labelled operation at stage s has one activation
    per PE j, on operands (j, j + 2^s), and a G's feedback is the transform
    of its node's left block of the reference decode's u_hat."""
    u_hat = sc_decode(llrs, spec, "minsum").u_hat
    activations = []
    for clock, ops in enumerate(architecture._clock_plan(spec.stages, arch)):
        for function, stage, base, label in ops:
            if not label:
                continue
            half = 1 << stage
            feedback = encode_nonsystematic(u_hat[base : base + half]).tolist() if function == "G" else [None] * half
            for pe, bit in enumerate(feedback):
                sel = 0 if bit is None else 1
                activations.append(PeActivation(clock, stage, label, (pe, pe + half), sel, bit, base))
    return tuple(activations)


def no_activation(*args, **kwargs):
    raise AssertionError("PeActivation built")


class TestActivationView:
    @pytest.mark.parametrize("n_bits", [4, 16, 128])
    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_view_matches_expanded_plan(self, arch, n_bits):
        spec = bhattacharyya_construct(n_bits, 3 * n_bits // 4)
        for llrs in trace_frames(n_bits)[:4]:
            view = build_schedule(spec, arch, llrs).activations
            expected = expanded_activations(spec, arch, llrs)
            count = len(expected)
            assert len(view) == count == ACTIVATION_COUNTS[arch](n_bits, spec.stages)
            assert tuple(view) == expected and list(view) == list(expected)  # iterates again
            assert view == expected and expected == view and not view != expected
            assert view != expected[:-1] and view != list(expected)  # equal to a tuple only
            assert hash(view) == hash(expected)
            indices = range(count) if count < 300 else [0, 1, count // 3, count // 2, count - 2, count - 1]
            for index in indices:
                assert view[index] == expected[index]
                assert view[index - count] == expected[index - count]
            assert view[np.int64(count - 1)] == expected[-1]
            for part in (slice(None), slice(3, 17, 2), slice(-5, None), slice(None, None, -3), slice(count, None)):
                assert view[part] == expected[part]
                assert type(view[part]) is tuple
            for index in (count, count + 7, -count - 1):
                with pytest.raises(IndexError):
                    view[index]
            assert expected[count // 2] in view
            assert view.index(expected[count // 2]) == expected.index(expected[count // 2])

    def test_views_of_equal_decodes_are_equal(self, spec16_11, noisy_frames):
        for arch in ARCH_KINDS:
            first, again = (build_schedule(spec16_11, arch, noisy_frames[0]) for _ in range(2))
            other = build_schedule(spec16_11, arch, noisy_frames[1])
            assert first == again and first.activations is not again.activations
            assert hash(first.activations) == hash(again.activations)
            assert (first.activations == other.activations) == (tuple(first.activations) == tuple(other.activations))
            # a layout compiled again equals the cached one
            _, records, starts = architecture._compiled_plan.__wrapped__(spec16_11.stages, arch)
            recompiled = architecture.ActivationView(records, starts, first.activations._feedback)
            assert recompiled == first.activations

    def test_building_a_wide_trace_builds_no_activation(self, monkeypatch):
        # the view builds an activation only when one is read: a (1024,512)
        # proposed trace's length, clocks and decisions build none
        spec = bhattacharyya_construct(1024, 512)
        llrs = np.random.default_rng(1024).normal(0.0, 2.0, 1024)
        monkeypatch.setattr(architecture, "PeActivation", no_activation)
        trace = build_schedule(spec, "proposed", llrs)
        assert len(trace.activations) == 523_776 == ACTIVATION_COUNTS["proposed"](1024, 10)
        assert trace.total_clocks == 512
        assert np.array_equal(trace.decoded_bits(), sc_decode(llrs, spec, "minsum").u_hat)
        with pytest.raises(AssertionError, match="PeActivation built"):
            trace.activations[0]

    @pytest.mark.parametrize("arch", ARCH_KINDS)
    def test_layout_size(self, arch):
        # one record per labelled operation, at most stages per clock, where
        # a trace has one activation per PE of each
        for stages in (2, 4, 7, 10):
            n_bits = 1 << stages
            _, records, starts = architecture._compiled_plan(stages, arch)
            assert len(records) <= latency_clocks(n_bits, arch) * stages
            assert len(starts) == len(records) + 1
            assert starts[-1] == ACTIVATION_COUNTS[arch](n_bits, stages)
        if arch == "proposed":
            assert len(records) == 5_120 == 512 * 10
            assert starts[-1] == 523_776


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

    def test_table_and_labels_build_no_activation(self, monkeypatch, capsys):
        """A plan is structure only: the labels and the latency table, even at
        N = 4096, never build a PeActivation (only reading a trace does)."""
        monkeypatch.setattr(architecture, "PeActivation", no_activation)
        for n_bits in (16, 1024, 4096):
            for arch in ARCH_KINDS:
                assert schedule_label(n_bits, arch).endswith("G)")
        assert cli.main(["latency", "--code", "4096,2048"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:4]
        assert [row.split()[0] for row in rows] == list(ARCH_KINDS)
        assert [row.split()[-2:] for row in rows] == [["8190", "clocks"], ["6142", "clocks"], ["2048", "clocks"]]


class TestTraceFormat:
    def test_lines(self, spec16_11, noisy_frames):
        text = format_trace(build_schedule(spec16_11, "proposed", noisy_frames[0]))
        lines = text.strip().splitlines()
        assert len(lines) == 8 * 15  # 8 clocks, 15 PEs per clock
        assert lines[0].startswith("clk=0 stage=3 fn=")
        for line in lines:
            assert "stage=" in line and "fn=" in line and "sel=" in line
        assert any("fn=FG" in line and "u=" in line for line in lines)

"""Cycle-accurate scheduling and latency model of three SC decoder designs.

Three hardware scheduling strategies for the same processing-element tree
(N/2 + N/4 + ... + 1 PEs, one F and one G circuit per PE):

* ``conventional``  - one tree-stage activation per clock; every node of the
  decode tree is activated twice (F descent, G descent), 2N - 2 clocks.
* ``two_bit_sc``    - identical, except the last stage's F and G execute in
  the same clock, so each size-2 node costs one clock: 1.5N - 2 clocks.
* ``proposed``      - all stages chain combinationally inside a single clock
  and the last-stage PE is modified to expose both its F and G outputs, so
  every clock decides one bit pair: N/2 clocks.

Each design is a data-independent clock plan: the same SC node operations
(F or G at a stage on a node), grouped into clocks, with every activation
prebuilt.  One executor runs any plan with two operations, F and G, feeding
every G from running partial sums that each decision updates.  The model is
transaction level: combinational depth inside a clock is represented by
activation ordering, not timing.  Traces are executed functionally with
min-sum arithmetic and must decode bit-identically to the reference decoder;
the schedules reorder computation, never change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# encode_nonsystematic is unused, but the benchmark tracer rebinds it here.
from .codec import _llr_frame, encode_nonsystematic, f_minsum, g_func
from .construction import is_power_of_two

ARCH_KINDS = ("conventional", "two_bit_sc", "proposed")


def _check_arch(arch):
    if arch not in ARCH_KINDS:
        raise ValueError(f"arch must be one of {ARCH_KINDS}, got {arch!r}")


def latency_clocks(n_bits, arch):
    """Decode latency in clock cycles for a length-N code under one design.

    conventional: 2N - 2; two_bit_sc: 1.5N - 2; proposed: N/2.  Each formula
    is also realized constructively by build_schedule and the two must agree.
    """
    _check_arch(arch)
    if not is_power_of_two(n_bits) or n_bits < 4:
        raise ValueError(f"n_bits must be a power of two >= 4, got {n_bits}")
    if arch == "conventional":
        return 2 * n_bits - 2
    if arch == "two_bit_sc":
        return 3 * n_bits // 2 - 2
    return n_bits // 2


def schedule_label(n_bits, arch):
    """First-bit-pair schedule signature, one parenthesized group per clock.

    Renders the clock plan up to and including the first clock holding a
    stage-0 G: "(F)-(F)-(F)-(F)-(G)" for conventional at N = 16.
    """
    latency_clocks(n_bits, arch)  # validates n_bits and arch
    groups = []
    for steps in _clock_plan(n_bits.bit_length() - 1, arch):
        groups.append("(" + "-".join(function for function, _, _, _ in steps) + ")")
        if any(stage == 0 and function == "G" for function, stage, _, _ in steps):
            return "-".join(groups)


@dataclass(frozen=True, slots=True)
class PeActivation:
    """One processing-element operation within a schedule.

    stage s consumes a 2^(s+1)-entry LLR array; PE j reads local operand
    indices (j, j + 2^s).  function "F" has sel = 0; "G" has sel = 1 and a
    decided-bit feedback; "FG" is the merged/modified last-stage operation
    emitting both outputs, with the feedback being the pair's first bit.
    node_base is the first source index covered by the activation's node.
    """

    clock: int
    stage: int
    function: str
    operand_indices: tuple
    sel: int
    partial_sum_feedback: int | None = None
    node_base: int = 0


@dataclass(frozen=True)
class ScheduleTrace:
    """Per-clock PE activation record of one decode, plus its decisions."""

    arch: str
    code: object
    activations: tuple
    total_clocks: int
    decoded_pairs: tuple  # one list of (bit_index, bit_value) per clock

    def decoded_bits(self):
        """Source-vector estimate assembled from the per-clock decisions."""
        u = np.zeros(self.code.block_len, dtype=np.uint8)
        for per_clock in self.decoded_pairs:
            for idx, bit in per_clock:
                u[idx] = bit
        return u


def build_schedule(spec, arch, channel_llrs):
    """Emit and functionally execute one architecture's decode schedule.

    Min-sum arithmetic throughout; frozen positions are forced to zero
    before any feedback.  total_clocks always equals latency_clocks.
    """
    _check_arch(arch)
    llrs = _llr_frame(channel_llrs, spec)
    expected = latency_clocks(spec.block_len, arch)
    plan = _clock_plan(spec.stages, arch)
    activations, pairs = _execute(plan, llrs.tolist(), spec.frozen_mask().tolist())
    total = activations[-1].clock + 1
    if total != expected:
        raise AssertionError(
            f"schedule produced {total} clocks, formula says {expected}"
        )
    return ScheduleTrace(
        arch=arch,
        code=spec,
        activations=tuple(activations),
        total_clocks=total,
        decoded_pairs=tuple(pairs),
    )


@lru_cache(maxsize=16)
def _clock_plan(stages, arch):
    """Data-independent clock plan: the SC node operations grouped into clocks.

    Walks the SC tree depth-first (F, left subtree, G, right subtree).  A
    node operation is (function, stage, node_base, fixed), function "F" or
    "G": fixed holds the prebuilt activations of an F, and of a G one
    (feedback 0, feedback 1) activation pair per PE.  conventional gives
    every F and G visit its own clock; two_bit_sc gives a size-2 node one
    clock for the merged PE; proposed gives each size-2 node one clock
    holding its root-to-node F/G path plus the merged PE.  The merged PE
    runs as a stage-0 F with no activation of its own, then a stage-0 G
    whose activation is the FG one.
    """
    clocks = []

    def emit(path):
        clock = len(clocks)
        steps = []
        for function, stage, base, label in path:
            half = 1 << stage
            pes = [(j, j + half) for j in range(half)] if label else []
            if function == "F":
                fixed = tuple(PeActivation(clock, stage, label, ab, 0, None, base) for ab in pes)
            else:
                fixed = tuple(
                    tuple(PeActivation(clock, stage, label, ab, 1, bit, base) for bit in (0, 1)) for ab in pes
                )
            steps.append((function, stage, base, fixed))
        clocks.append(tuple(steps))

    def walk(stage, base, path):
        if stage == 0 and arch != "conventional":
            emit(path + (("F", 0, base, None), ("G", 0, base, "FG")))
            return
        for function, child_base in (("F", base), ("G", base + (1 << stage))):
            op = (function, stage, base, function)
            if arch == "proposed":
                walk(stage - 1, child_base, path + (op,))
            else:
                emit((op,))
                if stage:
                    walk(stage - 1, child_base, ())

    walk(stages - 1, 0, ())
    return tuple(clocks)


def _execute(plan, llrs, frozen):
    """Run a clock plan on per-stage LLR buffers with min-sum F and G.

    An operation at stage s reads its node's 2^(s+1) LLRs from buffer s + 1
    and writes its child's 2^s LLRs to buffer s; at stage 0 that child is a
    leaf and its bit is decided.  Each decision sets its bit in the running
    partial sums and XOR-merges the halves of every aligned block it
    completes, so a G's feedback is sums[base : base + half], the transform
    of its node's decided left block.  Returns (activations, decoded_pairs).
    """
    buffers = [None] * (len(llrs).bit_length() - 1) + [llrs]
    sums = [0] * len(llrs)
    activations = []
    pairs = []
    for steps in plan:
        pairs.append([])
        for function, stage, base, fixed in steps:
            v = buffers[stage + 1]
            half = len(v) // 2
            if function == "F":
                out = [f_minsum(v[j], v[j + half]) for j in range(half)]
                activations += fixed
            else:
                bits = sums[base : base + half]
                out = [g_func(v[j], v[j + half], bit) for j, bit in enumerate(bits)]
                activations += [pair[bit] for pair, bit in zip(fixed, bits)]
            buffers[stage] = out
            if stage:
                continue
            index = base if function == "F" else base + 1
            bit = 1 if out[0] < 0 and not frozen[index] else 0
            pairs[-1].append((index, bit))
            sums[index] = bit
            size = 1
            while index & size:  # merge the aligned block of 2 * size bits that index completes
                left = slice(index + 1 - 2 * size, index + 1 - size)
                sums[left] = [a ^ b for a, b in zip(sums[left], sums[index + 1 - size : index + 1])]
                size *= 2
    return activations, pairs


def format_trace(trace):
    """Line-oriented text dump: one 'clk=.. stage=.. fn=..' line per PE op."""
    lines = []
    for act in trace.activations:
        line = (
            f"clk={act.clock} stage={act.stage} fn={act.function}"
            f" a={act.operand_indices[0]} b={act.operand_indices[1]} sel={act.sel}"
        )
        if act.partial_sum_feedback is not None:
            line += f" u={act.partial_sum_feedback}"
        lines.append(line)
    return "\n".join(lines) + "\n"

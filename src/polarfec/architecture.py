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
(F or G at a stage on a node), grouped into clocks.  One executor runs any
plan.  The model is transaction level: combinational depth inside a clock is
represented by activation ordering, not timing.  Traces are executed
functionally with min-sum arithmetic and must decode bit-identically to the
reference decoder; the schedules reorder computation, never change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    stage-0 G or FG, the merged FG shown as F-G: "(F)-(F)-(F)-(F)-(G)" for
    conventional at N = 16.
    """
    latency_clocks(n_bits, arch)  # validates n_bits and arch
    groups = []
    for steps in _clock_plan(n_bits.bit_length() - 1, arch):
        functions = [function for function, _, _, _ in steps]
        groups.append("(" + "-".join(functions).replace("FG", "F-G") + ")")
        if any(stage == 0 and function != "F" for function, stage, _, _ in steps):
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
    node operation is (function, stage, node_base, fixed): fixed holds the
    prebuilt activations of an F, whose fields do not depend on the data,
    and the operand index pairs of a G or FG.  conventional gives every F
    and G visit its own clock; two_bit_sc merges a size-2 node's F and G
    into one FG clock; proposed gives each size-2 node one clock holding its
    root-to-node F/G path plus the FG.
    """
    clocks = []

    def emit(path):
        clock = len(clocks)
        steps = []
        for function, stage, base in path:
            half = 1 << stage
            operands = tuple((j, j + half) for j in range(half))
            if function == "F":
                operands = tuple(PeActivation(clock, stage, "F", ab, 0, None, base) for ab in operands)
            steps.append((function, stage, base, operands))
        clocks.append(tuple(steps))

    def walk(stage, base, path):
        if stage == 0 and arch != "conventional":
            emit(path + (("FG", 0, base),))
            return
        for function, child_base in (("F", base), ("G", base + (1 << stage))):
            op = (function, stage, base)
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
    leaf and its bit is decided.  A G takes as feedback the partial sums of
    its node's decided left block.  Returns (activations, decoded_pairs).
    """
    buffers = [None] * (len(llrs).bit_length() - 1) + [llrs]
    u_hat = [0] * len(llrs)
    activations = []
    pairs = []

    def decide(llr_value, index):
        bit = 1 if llr_value < 0 and not frozen[index] else 0
        u_hat[index] = bit
        pairs[-1].append((index, bit))
        return bit

    for clock, steps in enumerate(plan):
        pairs.append([])
        for function, stage, base, fixed in steps:
            v = buffers[stage + 1]
            half = len(v) // 2
            if function == "F":
                out = [f_minsum(v[j], v[j + half]) for j in range(half)]
                activations += fixed
                if not stage:
                    decide(out[0], base)
            elif function == "G":
                left = u_hat[base : base + half]
                if half > 1:
                    left = encode_nonsystematic(left).tolist()
                out = [g_func(v[j], v[j + half], left[j]) for j in range(half)]
                activations += [
                    PeActivation(clock, stage, "G", ab, 1, bit, base) for ab, bit in zip(fixed, left)
                ]
                if not stage:
                    decide(out[0], base + 1)
            else:  # the modified last-stage PE: its G consumes the same-clock F decision
                bit0 = decide(f_minsum(v[0], v[1]), base)
                decide(g_func(v[0], v[1], bit0), base + 1)
                activations.append(PeActivation(clock, 0, "FG", fixed[0], 1, bit0, base))
                continue
            buffers[stage] = out
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

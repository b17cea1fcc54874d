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
every G from running partial sums that each decision updates.  A proposed
clock repeats its root-to-leaf path; an operation on it whose (function,
node) already sits in its stage buffer, with no new operation above it, is
the combinational chain giving an unchanged value again: it emits its
activations for that clock but is not computed a second time.  So every
design computes each SC node operation once, N*log2(N) F and G evaluations
per decode, the same as the reference decoder.  The model is
transaction level: combinational depth inside a clock is represented by
activation ordering, not timing.  Traces are executed functionally with
min-sum arithmetic and must decode bit-identically to the reference decoder;
the schedules reorder computation, never change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, xor
from typing import NamedTuple

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
        groups.append("(" + "-".join("G" if step.is_g else "F" for step in steps) + ")")
        if any(step.is_g and not step.stage for step in steps):
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
        u = [0] * self.code.block_len
        for per_clock in self.decoded_pairs:
            for idx, bit in per_clock:
                u[idx] = bit
        return np.array(u, dtype=np.uint8)


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


class _Step(NamedTuple):
    """One SC node operation of a clock plan, in the form _execute runs.

    is_g: a G (else an F); the operation reads stage + 1's buffer of 2 * half
    values and writes stage's.  fixed holds the prebuilt activations: an
    F's, or one (feedback 0, feedback 1) pair per PE of a G.  reuse marks an
    operation whose result already sits in its stage buffer.  leaf is None
    above stage 0, else (index, merges): the decided bit's index and the
    (left, right) slices of every aligned block of partial sums it completes.
    """

    is_g: bool
    stage: int
    base: int
    half: int
    fixed: tuple
    reuse: bool
    leaf: tuple | None


@lru_cache(maxsize=16)
def _clock_plan(stages, arch):
    """Data-independent clock plan: the SC node operations grouped into
    clocks, as a tuple of clocks, each a tuple of _Step.

    Walks the SC tree depth-first (F, left subtree, G, right subtree).
    conventional gives every F and G visit its own clock; two_bit_sc gives a
    size-2 node one clock for the merged PE; proposed gives each size-2 node
    one clock holding its root-to-node F/G path plus the merged PE.  The
    merged PE runs as a stage-0 F with no activation of its own, then a
    stage-0 G whose activation is the FG one.

    Reuse rule: an operation is reused when its (function, base) is what its
    stage buffer holds and no operation above it has rewritten that buffer's
    input since, which only a proposed path has: the combinational chain
    gives the unchanged value again.  A reused G's feedback has not changed
    either, because its left block's partial sums change only when its node
    completes, and then the path has left that node.
    """
    clocks = []
    held = [None] * stages  # (is_g, base) of the value each stage buffer holds

    def emit(path):
        clock = len(clocks)
        steps = []
        for function, stage, base, label in path:
            is_g = function == "G"
            half = 1 << stage
            pes = [(j, j + half) for j in range(half)] if label else []
            if is_g:
                fixed = tuple(
                    tuple(PeActivation(clock, stage, label, ab, 1, bit, base) for bit in (0, 1)) for ab in pes
                )
            else:
                fixed = tuple(PeActivation(clock, stage, label, ab, 0, None, base) for ab in pes)
            reuse = held[stage] == (is_g, base)
            if not reuse:
                held[stage] = (is_g, base)
                held[:stage] = [None] * stage
            leaf = None
            if not stage:
                index = base + is_g
                merges = []
                size = 1
                while index & size:  # the aligned block of 2 * size bits that index completes
                    merges.append((slice(index + 1 - 2 * size, index + 1 - size), slice(index + 1 - size, index + 1)))
                    size *= 2
                leaf = (index, tuple(merges))
            steps.append(_Step(is_g, stage, base, half, fixed, reuse, leaf))
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

    A step at stage s reads its node's 2^(s+1) LLRs from buffer s + 1 and
    writes its child's 2^s LLRs to buffer s; at stage 0 that child is a leaf
    and its bit is decided.  Each decision sets its bit in the running
    partial sums and XOR-merges the halves of every aligned block it
    completes, so a G's feedback is sums[base : base + half], the transform
    of its node's decided left block.  Every step emits its activations, but
    a reused step does no arithmetic: its (function, node) is what its stage
    buffer already holds and no new step above it has changed its input
    (a proposed path repeating itself), so each SC node operation is
    computed once per decode.  Returns (activations, decoded_pairs).
    """
    f, g = f_minsum, g_func
    buffers = [None] * (len(llrs).bit_length() - 1) + [llrs]
    sums = [0] * len(llrs)
    activations = []
    pairs = []
    for steps in plan:
        decided = []
        for is_g, stage, base, half, fixed, reuse, leaf in steps:
            if is_g:
                bits = sums[base : base + half]
                activations += map(getitem, fixed, bits)
            else:
                activations += fixed
            if reuse:
                continue
            v = buffers[stage + 1]
            if leaf is None:
                if is_g:
                    buffers[stage] = list(map(g, v[:half], v[half:], bits))
                else:
                    buffers[stage] = list(map(f, v[:half], v[half:]))
                continue
            index, merges = leaf
            llr = g(v[0], v[1], bits[0]) if is_g else f(v[0], v[1])
            bit = 1 if llr < 0 and not frozen[index] else 0
            decided.append((index, bit))
            sums[index] = bit
            for left, right in merges:
                sums[left] = map(xor, sums[left], sums[right])
        pairs.append(decided)
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

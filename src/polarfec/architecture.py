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
prebuilt.  Each clock of a plan is compiled, once per (stages, arch), into
one straight-line Python function, as a clock is the combinational logic
between two registers: one F or G call per PE, each G fed from running
partial sums that every decision updates by scalar XORs.  A decode runs a
plan's clock functions in order over one flat value list.  A proposed
clock repeats its root-to-leaf path; an operation on it whose (function,
node) already sits in its stage buffer, with no new operation above it, is
the combinational chain giving an unchanged value again: it emits its
activations for that clock but is not computed a second time.  So every
design computes each SC node operation once, N*log2(N) F and G evaluations
per decode, the same as the reference decoder.  The first decode of a
plan pays for building and compiling it: a few ms per design at N = 16,
about 0.5 s for conventional or two_bit_sc at N = 1024, and seconds for
proposed at N = 1024, most of them spent prebuilding its activations.
The model is transaction level: combinational depth inside a clock is
represented by activation ordering, not timing.  Traces are executed functionally with
min-sum arithmetic and must decode bit-identically to the reference decoder;
the schedules reorder computation, never change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import getitem
from typing import NamedTuple

import numpy as np

# encode_nonsystematic is unused, but the benchmark tracer rebinds it here.
from .codec import _as_int, _llr_frame, encode_nonsystematic, f_minsum, g_func
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
    n_bits = _as_int("n_bits", n_bits)
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
    for steps in _clock_plan(int(n_bits).bit_length() - 1, arch):
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
    values = [0.0] * spec.block_len + llrs.tolist()
    sums = [0] * spec.block_len
    frozen = spec.frozen_mask().tolist()
    activations = []
    f, g = f_minsum, g_func
    pairs = [clock(values, sums, frozen, activations, f, g) for clock in _compiled_plan(spec.stages, arch)]
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
    """One SC node operation of a clock plan, in the form _compiled_plan
    compiles.

    is_g: a G (else an F); the operation reads stage + 1's buffer of 2 * half
    values and writes stage's.  fixed holds the prebuilt activations: an
    F's, or one (feedback 0, feedback 1) pair per PE of a G.  reuse marks an
    operation whose result already sits in its stage buffer.  leaf is None
    above stage 0, else (index, merges): the decided bit's index and, for
    every aligned block of partial sums it completes, one (left, right)
    index pair per bit of the block's right half, right XORed into left.
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
                    merges += [(right - size, right) for right in range(index + 1 - size, index + 1)]
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


@lru_cache(maxsize=16)
def _compiled_plan(stages, arch):
    """_clock_plan(stages, arch) compiled: one function per clock.

    A clock function runs its steps in order on the shared state of one
    decode: the flat value list v of 2N entries, whose stage-s buffer is
    v[2^s : 2^(s+1)] (the channel LLRs are v[N:]), the partial sums s, the
    frozen flags z and the activation list acts.  It takes the F and G
    functions as arguments, so they are the ones bound when the plan runs,
    and returns the clock's decisions as a list of (bit index, bit).

    A step at stage s computes its node's 2^s outputs, one F or G call per
    PE on its two operands, from the 2^(s+1) values of buffer s + 1 into
    buffer s; a G's feedback is its PE's running partial sum, the transform
    of the node's decided left block.  At stage 0 the one output is a leaf
    LLR, and its bit is decided into a local, because the merges that follow
    rewrite its partial sum: the bit sets s[index], then each aligned block
    it completes XORs its right half into its left, one bit at a time.
    Every step emits its activations, but a reused step does no arithmetic:
    its (function, node) is what its stage buffer already holds and no new
    step above it has changed its input (a proposed path repeating itself),
    so each SC node operation is computed once per decode.
    """
    return tuple(_compile_clock(steps) for steps in _clock_plan(stages, arch))


def _compile_clock(steps):
    """One clock's steps as a straight-line function (see _compiled_plan).

    One function per clock, not per plan: compiling holds a few KB per
    generated line until it ends, so a clock at a time keeps that bounded
    by the longest clock, not the whole plan.
    """
    names = {"getitem": getitem}
    lines = []
    decided = []
    for k, (is_g, stage, base, half, fixed, reuse, leaf) in enumerate(steps):
        if fixed:
            names[f"a{k}"] = fixed
            lines.append(f"acts += map(getitem, a{k}, s[{base}:{base + half}])" if is_g else f"acts += a{k}")
        if reuse:
            continue
        calls = [
            f"g(v[{2 * half + j}], v[{3 * half + j}], s[{base + j}])" if is_g else f"f(v[{2 * half + j}], v[{3 * half + j}])"
            for j in range(half)
        ]
        if leaf is None:
            lines += [f"v[{half + j}] = {call}" for j, call in enumerate(calls)]
            continue
        index, merges = leaf
        lines.append(f"b{index} = s[{index}] = 1 if {calls[0]} < 0 and not z[{index}] else 0")
        lines += [f"s[{left}] ^= s[{right}]" for left, right in merges]
        decided.append(f"({index}, b{index})")
    lines.append(f"return [{', '.join(decided)}]")
    source = "def clock(v, s, z, acts, f, g):\n    " + "\n    ".join(lines) + "\n"
    exec(compile(source, "<clock plan>", "exec"), names)
    return names["clock"]


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

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
(F or G at a stage on a node), grouped into clocks.  A plan is structure
only, so latency_clocks and schedule_label, and the latency table that
prints them, build no activation.  Each plan is compiled, once per
(stages, arch), into straight-line Python, as a clock is the combinational
logic between two registers: one F or G call per PE, each G fed from
running partial sums that every decision updates by scalar XORs.
Consecutive clocks share one generated function up to a line budget, so a
plan is one function at N = 16 and a few dozen at N = 1024.  The compiled
plan (_compiled_plan) is the one cache, and it holds no PE activation:
beside its functions it keeps a layout, one (clock, stage, label, node
base) record per labelled operation, which is everything an activation
holds but its feedback bit.  A decode runs a plan's functions in order
over one flat value list and records only the feedback bits of its G
operations; the trace's activations are a read-only view over the layout
and those bits (ActivationView), which builds each PeActivation when it is
read.  A proposed clock repeats its root-to-leaf path; an operation on it
whose (function, node) already sits in its stage buffer, with no new
operation above it, is the combinational chain giving an unchanged value
again: it keeps its activations for that clock but is not computed a
second time.  So every design computes each SC node operation once,
N*log2(N) F and G evaluations per decode, the same as the reference
decoder.  The first decode of a plan pays for compiling it: a few ms per
design at N = 16, and a few tenths of a second per design at N = 1024.
The model is transaction level: combinational depth inside a clock is
represented by activation ordering, not timing.  Traces are executed functionally with
min-sum arithmetic and must decode bit-identically to the reference decoder;
the schedules reorder computation, never change it.
"""

from __future__ import annotations

import gc
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# encode_nonsystematic is unused, but the benchmark tracer rebinds it here.
from .codec import _as_int, _llr_frame, encode_nonsystematic, f_minsum, g_func
from .construction import is_power_of_two

ARCH_KINDS = ("conventional", "two_bit_sc", "proposed")


def latency_clocks(n_bits, arch):
    """Decode latency in clock cycles for a length-N code under one design.

    conventional: 2N - 2; two_bit_sc: 1.5N - 2; proposed: N/2.  Each formula
    is also realized constructively by build_schedule and the two must agree.
    """
    if arch not in ARCH_KINDS:
        raise ValueError(f"arch must be one of {ARCH_KINDS}, got {arch!r}")
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
    stage-0 G: "(F)-(F)-(F)-(F)-(G)" for conventional at N = 16.  It walks
    only those clocks of the plan and builds no activation.
    """
    latency_clocks(n_bits, arch)  # validates n_bits and arch
    groups = []
    for ops in _clock_plan(int(n_bits).bit_length() - 1, arch):
        groups.append("(" + "-".join(function for function, *_ in ops) + ")")
        if any(function == "G" and not stage for function, stage, *_ in ops):
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


class ActivationView(Sequence):
    """Read-only sequence of one decode's PE activations, in schedule order.

    It holds a plan's layout, which is the data-independent part of its
    activations (see _compiled_plan), and the feedback bits one decode
    recorded, and builds each PeActivation when it is indexed or iterated.
    records holds one (clock, stage, label, base, feedback start) record
    per labelled operation, in the order the plan runs them; an operation
    at stage s has 2^s activations, one per PE.  starts[r] is the index of
    record r's first activation, and starts[-1] the activation count.  A G
    or FG record's PEs take their feedback bits, in PE order, from its
    feedback start on.  The view equals a tuple of the same activations,
    hashes as that tuple does, and a slice of it is such a tuple.
    """

    __slots__ = ("_records", "_starts", "_feedback")

    def __init__(self, records, starts, feedback):
        self._records = records
        self._starts = starts
        self._feedback = feedback

    def __len__(self):
        return self._starts[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        index = operator.index(index)
        starts = self._starts
        if index < 0:
            index += starts[-1]
        if not 0 <= index < starts[-1]:
            raise IndexError("activation index out of range")
        record = bisect_right(starts, index) - 1
        clock, stage, label, base, feedback = self._records[record]
        pe = index - starts[record]
        if label == "F":
            return PeActivation(clock, stage, label, (pe, pe + (1 << stage)), 0, None, base)
        return PeActivation(clock, stage, label, (pe, pe + (1 << stage)), 1, self._feedback[feedback + pe], base)

    def __iter__(self):
        for clock, stage, function, a, b, sel, bit, base in self._rows():
            yield PeActivation(clock, stage, function, (a, b), sel, bit, base)

    def _rows(self):
        """(clock, stage, function, a, b, sel, feedback, node base) per
        activation, in order: each activation's fields, flat."""
        for clock, stage, label, base, feedback in self._records:
            half = 1 << stage
            if label == "F":
                for pe in range(half):
                    yield clock, stage, label, pe, pe + half, 0, None, base
            else:
                for pe, bit in enumerate(self._feedback[feedback : feedback + half]):
                    yield clock, stage, label, pe, pe + half, 1, bit, base

    def __eq__(self, other):
        if isinstance(other, ActivationView):
            return self._records == other._records and self._feedback == other._feedback
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class ScheduleTrace:
    """Per-clock PE activation record of one decode, plus its decisions.

    activations is an ActivationView over the plan's layout and the
    decode's feedback bits."""

    arch: str
    code: object
    activations: Sequence
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
    before any feedback.  total_clocks always equals latency_clocks, which
    is also the one check of arch.
    """
    expected = latency_clocks(spec.block_len, arch)
    llrs = _llr_frame(channel_llrs, spec)
    values = [0.0] * spec.block_len + llrs.tolist()
    sums = [0] * spec.block_len
    frozen = spec.frozen_mask().tolist()
    functions, records, starts = _compiled_plan(spec.stages, arch)
    feedback = []
    pairs = []
    f, g = f_minsum, g_func
    for clocks in functions:
        pairs += clocks(values, sums, frozen, feedback, f, g)
    total = records[-1][0] + 1
    if total != expected:
        raise AssertionError(
            f"schedule produced {total} clocks, formula says {expected}"
        )
    return ScheduleTrace(
        arch=arch,
        code=spec,
        activations=ActivationView(records, starts, feedback),
        total_clocks=total,
        decoded_pairs=tuple(pairs),
    )


def _clock_plan(stages, arch, base=0, path=()):
    """Data-independent clock plan: the SC node operations grouped into
    clocks, yielded in order, each clock a tuple of (function, stage, base,
    label) operations.  The plan holds structure only; _compiled_plan lays
    out the activations.

    An operation is an F or a G at stage (it reads stage + 1's buffer and
    writes stage's) on the node whose first source index is base; label is
    the function its activations carry, "F", "G" or "FG", or None for the
    merged PE's F, which has none.  Walks the subtree at stage stages - 1
    from base depth-first (F, left subtree, G, right subtree), with path the
    operations above it that a proposed clock repeats.  conventional gives
    every F and G visit its own clock; two_bit_sc gives a size-2 node one
    clock for the merged PE; proposed gives each size-2 node one clock
    holding its root-to-node F/G path plus the merged PE.  The merged PE
    runs as a stage-0 F with no activation of its own, then a stage-0 G
    whose activation is the FG one.
    """
    stage = stages - 1
    if stage == 0 and arch != "conventional":
        yield path + (("F", 0, base, None), ("G", 0, base, "FG"))
        return
    for function, child_base in (("F", base), ("G", base + (1 << stage))):
        op = (function, stage, base, function)
        if arch == "proposed":
            yield from _clock_plan(stage, arch, child_base, path + (op,))
        else:
            yield (op,)
            if stage:
                yield from _clock_plan(stage, arch, child_base)


# Lines of generated source a plan function holds before the next clock goes
# into the next function (see _compiled_plan).
_LINE_BUDGET = 512


@lru_cache(maxsize=16)
def _compiled_plan(stages, arch):
    """_clock_plan(stages, arch) compiled into (functions, records, starts):
    a few functions, each a run of consecutive clocks, run in order, and the
    layout of the plan's activations.  The one cache of a plan; it holds no
    PE activation.

    A plan function runs its clocks' operations in order on the shared
    state of one decode: the flat value list v of 2N entries, whose stage-s
    buffer is v[2^s : 2^(s+1)] (the channel LLRs are v[N:]), the partial
    sums s, the frozen flags z and the feedback list fb.  It takes the F
    and G functions as arguments, so they are the ones bound when the plan
    runs, and returns one list per clock of that clock's decisions as
    (bit index, bit).  The clocks are compiled in order, and held, the
    (function, base) of the value each stage buffer holds, carries the
    reuse rule from one clock to the next (see _compile_clock).

    The layout (records and starts, see ActivationView) has one record per
    labelled operation, which is at most stages records per clock, in the
    order the functions append the operations' feedback bits to fb.

    A clock joins the current function unless that would take it past
    _LINE_BUDGET lines, so a function holds at most the budget or a single
    longer clock: at N = 16 a plan is one function, and at N = 1024, as
    compiling holds a few KB per generated line until it ends, the compile's
    transient memory stays bounded.  The cyclic collector is paused while a
    plan compiles and its state restored after, even when the compile
    fails; the pause does not change a compile's time measurably (about
    0.3 s for an N = 1024 plan either way).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        held = [None] * stages
        records, starts, feedback = [], [0], 0
        functions, run, size = [], [], 0
        for clock, ops in enumerate(_clock_plan(stages, arch)):
            for function, stage, base, label in ops:
                if label:
                    records.append((clock, stage, label, base, feedback))
                    starts.append(starts[-1] + (1 << stage))
                    if function == "G":
                        feedback += 1 << stage
            compiled = _compile_clock(ops, held)
            if run and size + len(compiled[0]) > _LINE_BUDGET:
                functions.append(_plan_function(run))
                run, size = [], 0
            run.append(compiled)
            size += len(compiled[0])
        functions.append(_plan_function(run))
        return tuple(functions), tuple(records), tuple(starts)
    finally:
        if enabled:
            gc.enable()


def _plan_function(run):
    """One function of a compiled plan from the _compile_clock output of its
    clocks, run in order: their lines, then a return of one decision list per
    clock."""
    lines = [line for clock_lines, _ in run for line in clock_lines]
    lines.append("return [" + ", ".join(f"[{', '.join(decided)}]" for _, decided in run) + "]")
    source = "def clocks(v, s, z, fb, f, g):\n    " + "\n    ".join(lines) + "\n"
    names = {}
    exec(compile(source, "<clock plan>", "exec"), names)
    return names["clocks"]


def _compile_clock(ops, held):
    """One clock's operations as straight-line source for a plan function
    (see _compiled_plan).  Returns (lines, decided): the source lines, and
    the clock's decisions as "(index, b{index})" source; each bit is decided
    once per plan, so its local b{index} is unique in the plan.  Updates
    held.

    An operation at stage s computes its node's 2^s outputs, one F or G
    call per PE on its two operands, from the 2^(s+1) values of buffer
    s + 1 into buffer s; a G's feedback is its PE's running partial sum,
    the transform of the node's decided left block, and a labelled G first
    appends those 2^s bits to fb.  An F records nothing per decode.  At
    stage 0 the one output is a leaf LLR, and its bit is decided into a
    local, because the merges that follow rewrite its partial sum: the bit
    sets s[index], then each aligned block it completes XORs its right half
    into its left, one bit at a time.

    Reuse rule: every operation keeps its activations, but one whose
    (function, base) its stage buffer holds, with no new operation above it
    since, does no arithmetic.  Only a proposed path repeating itself meets
    it: the combinational chain gives the unchanged value again, so each SC
    node operation is computed once per decode.  A reused G's feedback has
    not changed either, because its left block's partial sums change only
    when its node completes, and then the path has left that node.
    """
    lines = []
    decided = []
    for function, stage, base, label in ops:
        is_g = function == "G"
        half = 1 << stage
        if label and is_g:
            lines.append(f"fb += s[{base}:{base + half}]" if stage else f"fb.append(s[{base}])")
        if held[stage] == (function, base):
            continue
        held[stage] = (function, base)
        held[:stage] = [None] * stage
        calls = [
            f"g(v[{2 * half + j}], v[{3 * half + j}], s[{base + j}])" if is_g else f"f(v[{2 * half + j}], v[{3 * half + j}])"
            for j in range(half)
        ]
        if stage:
            lines += [f"v[{half + j}] = {call}" for j, call in enumerate(calls)]
            continue
        index = base + is_g
        lines.append(f"b{index} = s[{index}] = 1 if {calls[0]} < 0 and not z[{index}] else 0")
        size = 1
        while index & size:  # the aligned block of 2 * size bits that index completes
            lines += [f"s[{right - size}] ^= s[{right}]" for right in range(index + 1 - size, index + 1)]
            size *= 2
        decided.append(f"({index}, b{index})")
    return lines, decided


def trace_lines(trace):
    """The lines of format_trace, each ending in a newline, one at a time:
    'clk=.. stage=.. fn=.. a=.. b=.. sel=..', then ' u=..' for a G or FG."""
    for clock, stage, function, a, b, sel, bit, _ in trace.activations._rows():
        line = f"clk={clock} stage={stage} fn={function} a={a} b={b} sel={sel}"
        yield f"{line}\n" if bit is None else f"{line} u={bit}\n"


def format_trace(trace):
    """Line-oriented text dump: one 'clk=.. stage=.. fn=..' line per PE op."""
    return "".join(trace_lines(trace))

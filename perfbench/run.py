"""polarfec benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload polar16 --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json (frames_per_s,
setup_s, peak_rss_mb); --trace 1 prints its per-layer metrics.  Both check
the program's outputs; failed and attempted in the last line count the
checks, so failed_share = failed / attempted.  The last line of standard
output is one JSON object; everything before it is for people.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import common
import speed
import tracing
from checks import Tally
from spans import PoolCounter, SpanRecorder
from workloads import WORKLOADS

# Fresh-process set-ups measured per run; setup_s is their median.
SETUP_PROBES = 7
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
OUT_DIR = common.ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class SetupProber:
    """Times fresh-process set-ups through a launcher (setup_probe.serve)."""

    def __init__(self):
        self._launcher = subprocess.Popen(
            [sys.executable, str(PROBE), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=common.ROOT,
        )

    def probe(self, workload_name):
        self._launcher.stdin.write(workload_name + "\n")
        self._launcher.stdin.flush()
        line = self._launcher.stdout.readline()
        if not line:
            raise RuntimeError(f"set-up probe of {workload_name} failed")
        return float(line)

    def close(self):
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=60)
        finally:
            if self._launcher.poll() is None:
                self._launcher.kill()
                self._launcher.wait()


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Phase:
    """The repetitions of one timed phase.

    slowdowns[i] is how much slower than nominal the shared host ran around
    repetition i, by the reference kernels (see speed.py); setups are
    set-up times corrected the same way.
    """

    rates: list = field(default_factory=list)
    slowdowns: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    run_ids: list = field(default_factory=list)
    frames: int = 0
    wall: float = 0.0

    def frames_per_s(self):
        """Median per-repetition frames/s, corrected to the nominal host speed."""
        return statistics.median(r * s for r, s in zip(self.rates, self.slowdowns))


def timed_reps(workload, seed, seconds, tally, workers, kernels, first_index=0, recorder=None, label="", prober=None):
    """Repeat the workload until `seconds` of repetitions pass (at least once).

    The reference kernels run before the first repetition and after every
    one.  With a prober, SETUP_PROBES set-ups are timed between
    repetitions, spread evenly over the phase so that they meet the same
    host states as the repetitions; their time does not count towards
    `seconds`.
    """
    phase = Phase()
    index = first_index
    before = kernels.seconds()

    def slowdown():
        """The host's slowdown since the last kernel timing."""
        nonlocal before
        after = kernels.seconds()
        value = speed.slowdown(before, after)
        before = after
        return value

    def probes_due():
        return prober is not None and len(phase.setups) < SETUP_PROBES

    while phase.wall < seconds or not phase.rates or probes_due():
        if probes_due() and phase.wall >= len(phase.setups) * seconds / SETUP_PROBES:
            raw = prober.probe(workload.name)
            phase.setups.append(raw / slowdown())
            continue
        run_id = f"{workload.name}:{seed}:{label}{index}"
        if recorder is not None:
            recorder.run_id = run_id
        start = perf_counter()
        done = workload.rep(seed, index, tally, workers)
        elapsed = perf_counter() - start
        phase.slowdowns.append(slowdown())
        phase.rates.append(done / elapsed)
        phase.run_ids.append(run_id)
        phase.frames += done
        phase.wall += elapsed
        index += 1
    return phase


def end_to_end(workload, args, tally):
    prober = SetupProber()
    try:
        workload.setup()
        workload.warmup()
        workload.gate(args.seed, tally)
        phase = timed_reps(workload, args.seed, args.seconds, tally, workload.workers, speed.Kernels(), prober=prober)
        # Read before the worker gate's pools and the set-up launcher are
        # reaped, so that only the workload's own children count.
        rss = peak_rss_mb()
        workload.worker_gate(args.seed, tally)
    finally:
        prober.close()
    rates = phase.rates
    print(
        f"{workload.name}: {len(rates)} repetitions, {phase.frames} frames in {phase.wall:.2f} s"
        f" at {workload.workers} worker(s)"
    )
    if len(rates) > 1:
        q1, q2, q3 = statistics.quantiles(rates, n=4)
        print(f"  measured frames/s per repetition: quartiles {q1:.1f} {q2:.1f} {q3:.1f}")
    print(
        f"  frames/s: measured median {statistics.median(rates):.1f}, reported {phase.frames_per_s():.1f}"
        f" (host slowdown median {statistics.median(phase.slowdowns):.3f})"
    )
    return {
        "frames_per_s": phase.frames_per_s(),
        "setup_s": statistics.median(phase.setups),
        "peak_rss_mb": rss,
    }


def traced(workload, args, tally):
    """Untraced and traced repetitions at 1 worker, then the pool phase.

    The phases split --seconds evenly; a workload with a pool in its timed
    phase also runs that at its own worker count with only the pool counter
    installed, since spans in worker processes are not collected.
    """
    pf = workload.pf
    phases = 3 if workload.workers > 1 else 2
    share = args.seconds / phases
    recorder = SpanRecorder()
    setup_id = f"{workload.name}:{args.seed}:setup"
    recorder.run_id = setup_id
    tracing.install(recorder, pf)
    try:
        workload.setup()
    finally:
        recorder.restore()
    workload.warmup()
    workload.gate(args.seed, tally)
    workload.worker_gate(args.seed, tally)
    kernels = speed.Kernels()
    plain = timed_reps(workload, args.seed, share, tally, 1, kernels, label="plain")
    tracing.install(recorder, pf)
    try:
        traced_phase = timed_reps(
            workload, args.seed, share, tally, 1, kernels,
            first_index=len(plain.rates), recorder=recorder, label="traced",
        )
    finally:
        recorder.restore()
    pool, pool_frames = None, 0
    if workload.workers > 1:
        pool = PoolCounter()
        base = pool.install(pf.sweep)
        try:
            pool_frames = timed_reps(workload, args.seed, share, tally, workload.workers, kernels, label="pool").frames
        finally:
            pf.sweep.ProcessPoolExecutor = base
    run_ids, wall = traced_phase.run_ids, traced_phase.wall
    metrics = tracing.layer_metrics(recorder, run_ids, [setup_id], traced_phase.frames, pool, pool_frames)
    metrics["trace.overhead_share"] = 1.0 - traced_phase.frames_per_s() / plain.frames_per_s()

    layers = tracing.self_time_by_layer(recorder, run_ids, wall)
    hottest = max(layers, key=layers.get)
    expected = tracing.EXPECTED_HOTSPOT[workload.name]
    verdict = "as expected" if hottest == expected else f"FINDING: expected {expected}"
    print(f"{workload.name}: largest self time in {hottest} ({layers[hottest]:.3f} s of {wall:.3f} s); {verdict}")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  self {layer:<40} {seconds:9.4f} s  {seconds / wall:6.1%}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
    recorder.dump(path)
    print(f"{len(recorder.spans)} spans written to {path.relative_to(common.ROOT)}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    try:
        pf = common.load_polarfec()
        bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    except (common.MissingSourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](pf, common.load_definitions())
    tally = Tally()
    if args.trace:
        wanted, values = bench["per_layer"], traced(workload, args, tally)
    else:
        wanted, values = bench["end_to_end"], end_to_end(workload, args, tally)
    for message in tally.messages:
        print(f"check failed: {message}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_share {share:.6g} share ({tally.failed} failed of {tally.attempted} checks)")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

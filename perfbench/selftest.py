"""Self-test of the benchmark itself (about two minutes on 2 cores).

    python3 perfbench/selftest.py

1. A deliberately wrong decoder rebound inside the benchmark process makes
   each workload's checks fail, while the same small runs pass without it.
2. A short run of every workload, end-to-end and traced, prints exactly the
   metric names and units BENCHMARK.json lists, and reports no failure.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import common
from checks import Tally
from workloads import WORKLOADS

PF = common.load_polarfec()
BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text())
RUN = common.ROOT / "perfbench" / "run.py"

# Small sizes so each in-process run takes a second or two.
SMALL = {
    "polar16": {"max_frames": 4096, "gate_frames": 4096, "gate_rows": 16},
    "polar_wide": {"frames": {"wide1024_minsum": 256, "wide128_hard": 2048}, "gate_frames": 2048, "gate_rows": 16, "gate_wide_rows": 1},
    "rs15": {"frames": [2048, 2048], "gate_frames": 2048, "gate_rows": 12},
    "cosim16": {"block_frames": 16},
}


def flip_last_info_bit(decode):
    """A min-sum decoder that gets the last information bit of every frame wrong."""

    def wrong(llrs, spec, *args):
        u_hat = decode(llrs, spec, *args)
        x_hat = PF.batch.transform_rows(u_hat)
        x_hat[:, spec.info_set[-1]] ^= 1
        return PF.batch.transform_rows(x_hat)

    return wrong


def never_corrects(received):
    """An RS decoder that gives up on every dirty word."""
    return PF.reed_solomon.RsDecodeResult(tuple(int(s) for s in received[: PF.reed_solomon.K_SYMBOLS]), True)


def flipped_scalar(decode):
    """A scalar SC decoder whose first decision is always inverted."""

    def wrong(llrs, spec, *args):
        result = decode(llrs, spec, *args)
        u_hat = result.u_hat.copy()
        u_hat[spec.info_set[0]] ^= 1
        return result.__class__(u_hat, result.x_hat, result.info_bits, result.pe_op_count)

    return wrong


# workload -> (module, attribute, factory of the wrong replacement)
WRONG = {
    "polar16": (PF.batch, "decode_minsum_rows", flip_last_info_bit),
    "polar_wide": (PF.batch, "decode_minsum_rows", flip_last_info_bit),
    "rs15": (PF.reed_solomon, "rs_decode", lambda _: never_corrects),
    "cosim16": (PF.codec, "sc_decode", flipped_scalar),
}


def small_run(name):
    """Gate plus one repetition of a shrunken workload at 1 worker; its Tally."""
    workload = WORKLOADS[name](PF, common.load_definitions())
    workload.cfg = {**workload.cfg, **SMALL[name]}
    workload.setup()
    tally = Tally()
    workload.gate(7, tally)
    workload.rep(7, 0, tally, 1)
    workload.worker_gate(7, tally)
    return tally


class WrongDecoderFails(unittest.TestCase):
    def test_each_workload(self):
        for name, (module, attr, make_wrong) in WRONG.items():
            with self.subTest(workload=name):
                self.assertEqual(small_run(name).failed, 0)
                original = getattr(module, attr)
                setattr(module, attr, make_wrong(original))
                try:
                    tally = small_run(name)
                finally:
                    setattr(module, attr, original)
                self.assertGreater(tally.failed / tally.attempted, 0.0)


def run_benchmark(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class SmokeRun(unittest.TestCase):
    def test_every_metric_printed(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_benchmark(common.ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCH[section]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))


class BareDirectoryFails(unittest.TestCase):
    def test_no_sources(self):
        bare = common.ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(common.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = run_benchmark(bare, "polar16", 0)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

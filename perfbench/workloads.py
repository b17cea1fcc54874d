"""The benchmark's workloads: set-up, warm-up, one timed repetition, gate.

Sizes live in definitions.json under "workloads"; every input is derived
from the run's --seed.  A repetition returns the frames it simulated (or
co-simulated) and adds its correctness checks to a Tally.  Calls into
polarfec always go through module attributes (``self.pf.sweep.run_sweep``),
so the span recorder's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

import common
from checks import Tally, point_ok


def derived_seed(seed, tag, index):
    """Sweep master seed for repetition `index` of stream `tag` in run `seed`."""
    return seed * 1_000_000 + tag * 10_000 + index


def frame_rng(seed, tag, index):
    return np.random.Generator(np.random.Philox(key=[derived_seed(seed, tag, index), 0]))


class Workload:
    """One benchmark workload; subclasses fill in the hooks below."""

    name = ""

    def __init__(self, pf, defs):
        self.pf = pf
        self.cfg = defs["workloads"][self.name]
        # Worker count of the timed phase; the traced run always uses 1.
        self.workers = self.cfg.get("workers", 1)
        self.curves = defs["curves"]
        self.refs = defs["references"]

    def setup(self):
        """Build the workload's codes."""

    def warmup(self):
        """One small call through every path the repetition takes."""

    def gate(self, seed, tally):
        """Untimed correctness checks run once per benchmark run."""

    def worker_gate(self, seed, tally):
        """emit_csv is byte-identical at 1 and 2 workers on short configs.

        run.py calls this after reading peak_rss_mb, because its runs are
        not the workload's own.
        """
        sweep = self.pf.sweep
        for config in self._short_configs(seed):
            meta = {"code": config.code_label(), "decoder": config.decoder_label(), "seed": config.master_seed}
            one = sweep.emit_csv(sweep.run_sweep(config, workers=1), meta)
            two = sweep.emit_csv(sweep.run_sweep(config, workers=2), meta)
            tally.check(one == two, f"emit_csv differs between 1 and 2 workers for {config}")

    def _short_configs(self, seed):
        """The configs worker_gate runs; none by default."""
        return []

    def rep(self, seed, index, tally, workers):
        """One timed repetition; returns the frames it completed."""
        raise NotImplementedError

    # Shared helpers for the sweep workloads.

    def _config(self, curve_id, spec, frames, seed, early_stop=None):
        """SweepConfig for a curve at fixed frames; early stop off unless given."""
        curve = self.curves[curve_id]
        grid = curve["ebn0_db"]
        return self.pf.sweep.SweepConfig(
            code=spec,
            decoder=curve["decoder"],
            ebn0_start=grid[0],
            ebn0_stop=grid[-1],
            ebn0_step=(grid[1] - grid[0]) if len(grid) > 1 else 1.0,
            max_frames=frames,
            min_frame_errors=early_stop or frames + 1,
            master_seed=seed,
            quant_bits=curve.get("quant_bits", 5),
            frac_bits=curve.get("frac_bits", 1),
        )

    def _check_points(self, curve_id, points, payload_bits, tally):
        grid = [float(e) for e in self.curves[curve_id]["ebn0_db"]]
        tally.check(
            [p.ebn0_db for p in points] == grid,
            f"{curve_id}: points at {[p.ebn0_db for p in points]}, expected {grid}",
        )
        for p in points:
            ref = self.refs[common.ref_key(curve_id, p.ebn0_db)]
            tally.check(
                point_ok(p, payload_bits, ref),
                f"{curve_id} {p.ebn0_db:g} dB: {p.frame_errors} frame / {p.bit_errors} bit"
                f" errors in {p.frames} frames; reference {ref}",
            )
        return sum(p.frames for p in points)

    def _noisy_llrs(self, spec, rows, ebn0, rng):
        """Soft LLRs of random systematic codewords over BPSK/AWGN."""
        messages = rng.integers(0, 2, size=(rows, spec.info_len), dtype=np.uint8)
        codewords = self.pf.batch.encode_systematic_rows(messages, spec)
        sigma = np.sqrt(1.0 / (2.0 * spec.info_len / spec.block_len * 10.0 ** (ebn0 / 10.0)))
        received = 1.0 - 2.0 * codewords + rng.normal(0.0, sigma, size=codewords.shape)
        return 2.0 * received / sigma**2

    def _minsum_agrees(self, spec, llrs, tally):
        """Batch min-sum decode equals the scalar reference on every row."""
        batch_u = self.pf.batch.decode_minsum_rows(llrs, spec)
        for row, u in zip(llrs, batch_u):
            scalar = self.pf.codec.sc_decode(row, spec, "minsum").u_hat
            tally.check(np.array_equal(scalar, u), f"batch min-sum differs from sc_decode on N={spec.block_len}")

    def _hard_agrees(self, spec, llrs, tally):
        """Batch hard decode equals hard_decision_decode; ties are common here."""
        bits = (llrs < 0).astype(np.uint8)
        batch_u = self.pf.batch.decode_minsum_rows(self.pf.batch.hard_llr_rows(bits), spec)
        for row, u in zip(bits, batch_u):
            scalar = self.pf.codec.hard_decision_decode(row, spec).u_hat
            tally.check(np.array_equal(scalar, u), f"batch hard decode differs on N={spec.block_len}")


class Polar16(Workload):
    """(16,11) min-sum and Q5 curves through the CLI at 2 workers."""

    name = "polar16"

    def setup(self):
        self.spec = common.curve_spec(self.curves["polar16_minsum"])
        self.qspec = self.pf.quantized.QuantSpec(5, 1)

    def _cli_sweep(self, curve_id, frames, seed, workers, tally):
        curve = self.curves[curve_id]
        grid = curve["ebn0_db"]
        argv = [
            "sweep", "--code", ",".join(map(str, curve["code"])),
            "--decoder", curve["decoder"],
            "--ebn0", f"{grid[0]}:{grid[-1]}:{grid[1] - grid[0]}",
            "--max-frames", str(frames),
            "--min-frame-errors", str(self.cfg["min_frame_errors"]),
            "--seed", str(seed), "--workers", str(workers), "--out", "-",
        ]
        if curve["decoder"] == "fixed":
            argv += ["--quant-bits", str(curve["quant_bits"]), "--frac-bits", str(curve["frac_bits"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.pf.cli.main(argv)
        tally.check(status == 0, f"polarfec {' '.join(argv)} exited {status}")
        points, _ = self.pf.sweep.parse_csv(out.getvalue())
        return points

    def warmup(self):
        for curve_id in self.cfg["curves"]:
            self._cli_sweep(curve_id, 64, 0, 1, Tally())

    def rep(self, seed, index, tally, workers):
        frames = 0
        for tag, curve_id in enumerate(self.cfg["curves"]):
            points = self._cli_sweep(curve_id, self.cfg["max_frames"], derived_seed(seed, tag, index), workers, tally)
            frames += self._check_points(curve_id, points, self.spec.info_len, tally)
        return frames

    def _short_configs(self, seed):
        return [
            self._config(
                curve_id, self.spec, self.cfg["gate_frames"], derived_seed(seed, 90 + tag, 0),
                early_stop=self.cfg["gate_min_frame_errors"],
            )
            for tag, curve_id in enumerate(self.cfg["curves"])
        ]

    def gate(self, seed, tally):
        rng = frame_rng(seed, 99, 0)
        llrs = self._noisy_llrs(self.spec, self.cfg["gate_rows"], 3.0, rng)
        self._minsum_agrees(self.spec, llrs, tally)
        self._hard_agrees(self.spec, llrs, tally)
        batch_u = self.pf.batch.decode_fixed_rows(llrs, self.spec, self.qspec)
        for row, u in zip(llrs, batch_u):
            scalar = self.pf.quantized.sc_decode_fixed(row, self.spec, self.qspec).u_hat
            tally.check(np.array_equal(scalar, u), "batch fixed-point decode differs from sc_decode_fixed")


class PolarWide(Workload):
    """(1024,512) min-sum at 2 dB and (128,96) hard at 6.5 dB, 1 worker."""

    name = "polar_wide"

    def setup(self):
        self.specs = {c: common.curve_spec(self.curves[c]) for c in self.cfg["frames"]}

    def warmup(self):
        for curve_id, spec in self.specs.items():
            self.pf.sweep.run_sweep(self._config(curve_id, spec, 16, 0))

    def rep(self, seed, index, tally, workers):
        frames = 0
        for tag, (curve_id, count) in enumerate(self.cfg["frames"].items()):
            spec = self.specs[curve_id]
            config = self._config(curve_id, spec, count, derived_seed(seed, tag, index))
            points = self.pf.sweep.run_sweep(config, workers=workers)
            frames += self._check_points(curve_id, points, spec.info_len, tally)
        return frames

    def _short_configs(self, seed):
        hard = self.specs["wide128_hard"]
        return [self._config("wide128_hard", hard, self.cfg["gate_frames"], derived_seed(seed, 90, 0))]

    def gate(self, seed, tally):
        hard = self.specs["wide128_hard"]
        rng = frame_rng(seed, 99, 0)
        self._hard_agrees(hard, self._noisy_llrs(hard, self.cfg["gate_rows"], 6.5, rng), tally)
        wide = self.specs["wide1024_minsum"]
        self._minsum_agrees(wide, self._noisy_llrs(wide, self.cfg["gate_wide_rows"], 2.0, rng), tally)


class Rs15(Workload):
    """RS(15,11) at 4 dB (mostly dirty frames) and 7 dB (mostly clean), 1 worker."""

    name = "rs15"

    def warmup(self):
        for ebn0 in self.curves["rs15"]["ebn0_db"]:
            self.pf.sweep.run_sweep(self._point_config(ebn0, 16, 0))

    def _point_config(self, ebn0, frames, seed):
        return self.pf.sweep.SweepConfig(
            code=None, decoder="rs15_11", ebn0_start=ebn0, ebn0_stop=ebn0,
            max_frames=frames, min_frame_errors=frames + 1, master_seed=seed,
        )

    def rep(self, seed, index, tally, workers):
        frames = 0
        for tag, (ebn0, count) in enumerate(zip(self.curves["rs15"]["ebn0_db"], self.cfg["frames"])):
            points = self.pf.sweep.run_sweep(self._point_config(ebn0, count, derived_seed(seed, tag, index)), workers=workers)
            for p in points:
                ref = self.refs[common.ref_key("rs15", p.ebn0_db)]
                tally.check(point_ok(p, self._payload_bits, ref), f"rs15 {p.ebn0_db:g} dB: {p}; reference {ref}")
                frames += p.frames
        return frames

    @property
    def _payload_bits(self):
        rs = self.pf.reed_solomon
        return rs.K_SYMBOLS * rs.BITS_PER_SYMBOL

    def _short_configs(self, seed):
        return [self._point_config(4.0, self.cfg["gate_frames"], derived_seed(seed, 90, 0))]

    def gate(self, seed, tally):
        rs = self.pf.reed_solomon
        rng = frame_rng(seed, 99, 0)
        rows = self.cfg["gate_rows"]
        info = rng.integers(0, 16, size=(rows, rs.K_SYMBOLS))
        encoded = rs.rs_encode_rows(info)
        received = encoded.copy()
        for i in range(rows):
            where = rng.choice(rs.N_SYMBOLS, size=i % (rs.T_CORRECTABLE + 1), replace=False)
            received[i, where] ^= rng.integers(1, 16, size=where.size).astype(np.uint8)
        syndromes = rs.rs_syndromes_rows(received)
        for i in range(rows):
            tally.check(list(encoded[i]) == rs.rs_encode(info[i]), "rs_encode_rows differs from rs_encode")
            tally.check(list(syndromes[i]) == rs.rs_syndromes(received[i]), "rs_syndromes_rows differs from rs_syndromes")
            result = rs.rs_decode(received[i])
            tally.check(
                not result.failure and list(result.info) == list(info[i]),
                f"rs_decode did not correct {i % (rs.T_CORRECTABLE + 1)} symbol errors",
            )


class Cosim16(Workload):
    """Per-frame scalar decoders plus all three architecture schedules on (16,11)."""

    name = "cosim16"

    def setup(self):
        arch = self.pf.architecture
        self.spec = common.curve_spec({"code": [16, 11], "decoder": "soft_minsum"})
        self.qspec = self.pf.quantized.QuantSpec(5, 1)
        n, stages = self.spec.block_len, self.spec.stages
        # PE activations per decode, which the schedules fix independently of
        # the data: every node's F and G ops; size-2 nodes merged into one FG
        # op; or one F/G op per stage PE plus the FG op, on each of N/2 clocks.
        self.activations = {
            "conventional": n * stages,
            "two_bit_sc": n * (stages - 1) + n // 2,
            "proposed": (n // 2) * (n - 1),
        }
        self.clocks = {a: self.cfg["clocks"][a] for a in arch.ARCH_KINDS}

    def warmup(self):
        self._frames(frame_rng(0, 99, 0).normal(0.0, 2.0, size=(1, self.spec.block_len)), Tally())

    def _frames(self, llrs, tally):
        pf, spec = self.pf, self.spec
        minsum_rows = pf.batch.decode_minsum_rows(llrs, spec)
        fixed_rows = pf.batch.decode_fixed_rows(llrs, spec, self.qspec)
        for row, minsum_u, fixed_u in zip(llrs, minsum_rows, fixed_rows):
            golden = pf.codec.sc_decode(row, spec, "minsum").u_hat
            fixed = pf.quantized.sc_decode_fixed(row, spec, self.qspec).u_hat
            ok = np.array_equal(golden, minsum_u) and np.array_equal(fixed, fixed_u)
            for arch, clocks in self.clocks.items():
                trace = pf.architecture.build_schedule(spec, arch, row)
                ok = ok and (
                    trace.total_clocks == clocks
                    and len(trace.activations) == self.activations[arch]
                    and np.array_equal(trace.decoded_bits(), golden)
                )
            tally.check(ok, "co-simulated frame disagrees with the reference decoders")
        return len(llrs)

    def rep(self, seed, index, tally, workers):
        llrs = frame_rng(seed, 0, index).normal(0.0, 2.0, size=(self.cfg["block_frames"], self.spec.block_len))
        return self._frames(llrs, tally)

    def gate(self, seed, tally):
        arch = self.pf.architecture
        for name, clocks in self.clocks.items():
            tally.check(arch.latency_clocks(self.spec.block_len, name) == clocks, f"{name} latency is not {clocks} clocks")


WORKLOADS = {w.name: w for w in (Polar16, PolarWide, Rs15, Cosim16)}

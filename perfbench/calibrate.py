"""Measure the reference error rates the correctness gate checks against.

Runs every curve named in definitions.json with a large frame budget, on
master seeds far above those the benchmark derives from its run seeds, and
writes the counts into
the "references" table of that file.  Only needed when a curve is added or
its code, decoder or Eb/N0 grid changes; a change to the random stream
definition leaves the true rates, and so these references, unchanged.

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import json
import re
import sys
import time

import common

# Large-run budget per point: stop at this many frame errors or frames.
CAL_FRAME_ERRORS = 2000
CAL_MAX_FRAMES = 2_000_000
CAL_SEED_BASE = 900_000_000
CAL_WORKERS = 2


def main():
    sweep = common.load_polarfec().sweep
    defs = common.load_definitions()
    refs = {}
    for index, (curve_id, curve) in enumerate(defs["curves"].items()):
        spec = common.curve_spec(curve)
        for ebn0 in curve["ebn0_db"]:
            config = sweep.SweepConfig(
                code=spec,
                decoder=curve["decoder"],
                ebn0_start=ebn0,
                ebn0_stop=ebn0,
                max_frames=CAL_MAX_FRAMES,
                min_frame_errors=CAL_FRAME_ERRORS,
                master_seed=CAL_SEED_BASE + 1000 * index + int(round(10 * ebn0)),
                quant_bits=curve.get("quant_bits", 5),
                frac_bits=curve.get("frac_bits", 1),
            )
            t0 = time.perf_counter()
            (point,) = sweep.run_sweep(config, workers=CAL_WORKERS)
            refs[common.ref_key(curve_id, ebn0)] = {
                "frames": point.frames,
                "frame_errors": point.frame_errors,
                "bit_errors": point.bit_errors,
            }
            print(
                f"{curve_id} {ebn0:g} dB: {point.frame_errors}/{point.frames} frames"
                f" fer={point.fer:.3e} ber={point.ber:.3e}"
                f" ({time.perf_counter() - t0:.1f} s)",
                file=sys.stderr,
            )
    defs["references"] = refs
    common.DEFINITIONS.write_text(dumps(defs))


def dumps(defs):
    """Indented JSON with each list of numbers or strings kept on one line."""
    text = json.dumps(defs, indent=2)
    return re.sub(r"\[[^\[\]{}]*\]", lambda m: re.sub(r"\s*\n\s*", " ", m.group(0)).replace("[ ", "[").replace(" ]", "]"), text) + "\n"


if __name__ == "__main__":
    main()

"""Which polarfec names the traced run rebinds, and the per-layer metrics.

The layer metrics are computed from the spans of the traced repetitions
only; construction time comes from one traced set-up of the workload.
Every metric is reported on every workload, reading 0 where the workload
does not exercise the layer (rs_decode on polar16, say), so one table
lines up across workloads.
"""

from __future__ import annotations

from collections import defaultdict

from spans import median, tail_quantile

BATCH = ("encode_systematic_rows", "transform_rows", "decode_minsum_rows", "decode_fixed_rows", "hard_llr_rows")
RS_ROWS = ("rs_encode_rows", "rs_syndromes_rows", "bits_to_symbols", "symbols_to_bits")
CHANNEL = ("modulate", "llr_from_awgn", "hard_slice")
ARCHS = ("conventional", "two_bit_sc", "proposed")

# Layer each workload's largest self time is expected in.
EXPECTED_HOTSPOT = {
    "polar16": "sweep",
    "polar_wide": "batch",
    "rs15": "reed_solomon.rs_decode",
    "cosim16": "architecture.build_schedule",
}


def _rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _rs_result(args, kwargs, result):
    return {"failure": bool(result.failure)}


def _schedule_name(args, kwargs):
    arch = args[1] if len(args) > 1 else kwargs["arch"]
    return f"architecture.build_schedule.{arch}"


def _schedule_result(args, kwargs, result):
    return {"clocks": result.total_clocks, "activations": len(result.activations)}


def install(recorder, pf):
    """Rebind every traced name; each is rebound where its callers resolve it."""
    recorder.wrap(pf.sweep, "run_sweep")
    for name in BATCH:
        recorder.wrap(pf.batch, name, detail=_rows)
    recorder.wrap(pf.reed_solomon, "rs_decode", detail=_rs_result)
    for name in RS_ROWS:
        recorder.wrap(pf.reed_solomon, name, name="reed_solomon.rows", detail=_rows)
    # Imported by name into sweep and cli, so rebound there as well.
    for module in (pf.construction, pf.sweep, pf.cli):
        recorder.wrap(module, "bhattacharyya_construct", name="construction.bhattacharyya_construct")
    recorder.wrap(pf.codec, "sc_decode")
    recorder.wrap(pf.quantized, "sc_decode_fixed")
    recorder.wrap(pf.architecture, "build_schedule", name=_schedule_name, detail=_schedule_result)
    recorder.wrap(pf.architecture, "encode_nonsystematic")
    for name in CHANNEL:
        recorder.wrap(pf.channel, name)


def layer_metrics(recorder, run_ids, setup_ids, frames, pool=None, pool_frames=0):
    """Per-layer metrics from the traced spans.

    run_ids: run ids of the traced repetitions; setup_ids: of the traced
    set-up.  frames: frames completed in the traced repetitions.  pool: the
    PoolCounter of the 2-worker phase, and pool_frames the frames it counted.
    """
    idx = recorder.select(run_ids)
    spans = recorder.spans
    own = recorder.self_times(idx)
    by_name = defaultdict(list)
    for i in idx:
        by_name[spans[i].name].append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name[name])

    def self_s(name):
        return sum(own[i] for i in by_name[name])

    def rows(name):
        return sum(spans[i].detail.get("rows", 0) for i in by_name[name])

    def us(name):
        return [spans[i].duration * 1e6 for i in by_name[name]]

    m = {
        "sweep.run_sweep_s": total("sweep.run_sweep"),
        "sweep.self_s": self_s("sweep.run_sweep"),
    }
    if pool is not None:
        submitted, ran, consumed, simulated = pool.totals()
        m.update({
            "sweep.pools": pool.pools,
            "sweep.chunks_submitted": submitted,
            "sweep.chunks_wasted": ran - consumed,
            "sweep.pool_wait_s": pool.wait_s,
            "sweep.useful_frame_share": pool_frames / simulated if simulated else 0.0,
        })
    else:
        m.update({
            "sweep.pools": 0, "sweep.chunks_submitted": 0, "sweep.chunks_wasted": 0,
            "sweep.pool_wait_s": 0.0, "sweep.useful_frame_share": 0.0,
        })
    for name in BATCH:
        key = f"batch.{name}"
        busy = total(key)
        m[f"{key}.self_s"] = self_s(key)
        m[f"{key}.calls"] = len(by_name[key])
        m[f"{key}.rows_per_s"] = rows(key) / busy if busy else 0.0

    decode = "reed_solomon.rs_decode"
    calls = len(by_name[decode])
    tail = tail_quantile(us(decode))
    m.update({
        f"{decode}.self_s": self_s(decode),
        f"{decode}.calls": calls,
        f"{decode}.us_p50": median(us(decode)),
        f"{decode}.us_tail": tail,
        f"{decode}.failure_share": (
            sum(spans[i].detail["failure"] for i in by_name[decode]) / calls if calls else 0.0
        ),
        "reed_solomon.dirty_share": calls / frames if frames else 0.0,
        "reed_solomon.rows_s": total("reed_solomon.rows"),
    })

    setup_idx = recorder.select(setup_ids)
    m["construction.bhattacharyya_construct_s"] = sum(
        spans[i].duration for i in setup_idx if spans[i].name == "construction.bhattacharyya_construct"
    )
    m["codec.sc_decode.self_s"] = self_s("codec.sc_decode")
    m["quantized.sc_decode_fixed.self_s"] = self_s("quantized.sc_decode_fixed")

    clocks = activations = 0
    busy = 0.0
    for arch in ARCHS:
        key = f"architecture.build_schedule.{arch}"
        tail = tail_quantile(us(key))
        m[f"{key}.self_s"] = self_s(key)
        m[f"{key}.us_p50"] = median(us(key))
        m[f"{key}.us_tail"] = tail
        clocks += sum(spans[i].detail["clocks"] for i in by_name[key])
        activations += sum(spans[i].detail["activations"] for i in by_name[key])
        busy += total(key)
    m["architecture.sim_clocks_per_s"] = clocks / busy if busy else 0.0
    m["architecture.activations_per_frame"] = activations / frames if frames else 0.0
    m["architecture.encode_nonsystematic.calls_per_frame"] = (
        len(by_name["architecture.encode_nonsystematic"]) / frames if frames else 0.0
    )
    for name in CHANNEL:
        m[f"channel.{name}.calls"] = len(by_name[f"channel.{name}"])
    return m


def self_time_by_layer(recorder, run_ids, rep_wall_s):
    """Self seconds per layer, plus the benchmark's own time outside any span.

    Layers group span names the way the expected hotspots are stated: the
    sweep engine's own work, the batch kernels, rs_decode, the row RS
    helpers, construction, the scalar decoders and the schedules.
    """
    idx = recorder.select(run_ids)
    own = recorder.self_times(idx)
    layers = defaultdict(float)
    top = 0.0
    for i in idx:
        span = recorder.spans[i]
        name = span.name
        if name == "sweep.run_sweep":
            layer = "sweep"
        elif name.startswith("batch."):
            layer = "batch"
        elif name.startswith("architecture.build_schedule"):
            layer = "architecture.build_schedule"
        else:
            layer = name
        layers[layer] += own[i]
        if span.parent not in own:
            top += span.duration
    layers["benchmark"] = rep_wall_s - top
    return dict(layers)

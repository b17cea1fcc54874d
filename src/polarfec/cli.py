"""Command-line interface.

Subcommands: construct, encode, decode, sweep, latency, gain.  Exit codes:
0 success, 1 usage error, 2 no-crossing in `gain`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import islice

import numpy as np

from . import architecture, codec, quantized, sweep as sweep_mod
from .construction import (
    ConstructionParams,
    _check_exact_encoding,
    bhattacharyya_construct,
    parse_spec_text,
    to_spec_text,
)

USAGE_EXIT = 1
NO_CROSSING_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _parse_code(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--code expects N,K, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_ebn0(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--ebn0 expects start:stop:step, got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _load_spec(args):
    if args.spec_file:
        with open(args.spec_file) as fh:
            spec = parse_spec_text(fh.read())
        try:
            return _check_exact_encoding(spec)
        except ValueError as exc:
            raise ValueError(f"{args.spec_file}: {exc}") from None
    if args.code:
        n, k = _parse_code(args.code)
        return bhattacharyya_construct(n, k, ConstructionParams(args.design_z0))
    raise ValueError("one of --code or --spec-file is required")


def _write_out(text, out):
    _write_blocks((text,), out)


def _write_blocks(pieces, out, block=4096):
    """Write an iterable of text pieces to out, joined a block of pieces at a
    time, so the whole text is never held at once."""
    pieces = iter(pieces)
    with nullcontext(sys.stdout) if out in (None, "stdout", "-") else open(out, "w") as fh:
        while text := "".join(islice(pieces, block)):
            fh.write(text)


def _parse_bits(text):
    """Bits of a string of 0s and 1s, optionally split by whitespace or commas."""
    bad = "".join(sorted({c for c in text if c not in "01," and not c.isspace()}))
    if bad:
        raise ValueError(f"bits must be 0 or 1, got {bad!r}")
    return [int(c) for c in text if c in "01"]


def _bits_str(bits):
    return "".join(str(int(b)) for b in bits)


def _cmd_construct(args):
    spec = _load_spec(args)
    _write_out(to_spec_text(spec), args.out)
    return 0


def _cmd_encode(args):
    spec = _load_spec(args)
    info = _parse_bits(args.bits)
    codeword = codec.encode_systematic(info, spec)
    _write_out(_bits_str(codeword) + "\n", args.out)
    return 0


def _cmd_decode(args):
    spec = _load_spec(args)
    if args.decoder == "hard":
        result = codec.hard_decision_decode(_parse_bits(args.values), spec)
    else:
        llrs = [float(t) for t in args.values.replace(",", " ").split()]
        if args.decoder == "fixed":
            result = quantized.sc_decode_fixed(
                llrs, spec, quantized.QuantSpec(args.quant_bits, args.frac_bits)
            )
        else:
            mode = "exact" if args.decoder == "soft_exact" else "minsum"
            result = codec.sc_decode(llrs, spec, f_mode=mode)
    out = (
        f"info={_bits_str(result.info_bits)}\n"
        f"u_hat={_bits_str(result.u_hat)}\n"
        f"x_hat={_bits_str(result.x_hat)}\n"
    )
    _write_out(out, args.out)
    return 0


def _cmd_sweep(args):
    if args.decoder == "rs15_11" and not args.spec_file:
        code = _parse_code(args.code) if args.code else None
    else:
        code = _load_spec(args)
    start, stop, step = _parse_ebn0(args.ebn0)
    config = sweep_mod.SweepConfig(
        code=code,
        decoder=args.decoder,
        ebn0_start=start,
        ebn0_stop=stop,
        ebn0_step=step,
        max_frames=args.max_frames,
        min_frame_errors=args.min_frame_errors,
        master_seed=args.seed,
        quant_bits=args.quant_bits,
        frac_bits=args.frac_bits,
    )
    points = sweep_mod.run_sweep(config, workers=args.workers)
    metadata = {
        "code": config.code_label(),
        "decoder": config.decoder_label(),
        "seed": config.master_seed,
    }
    _write_out(sweep_mod.emit_csv(points, metadata), args.out)
    return 0


def _cmd_latency(args):
    spec = _load_spec(args)
    n, k = spec.block_len, spec.info_len
    seed = codec._as_int("--seed", args.seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"--seed must be in [0, 2^64), got {seed}")
    if args.trace:
        # The frame is keyed by the exact 64-bit seed: a list key would turn a
        # seed of 2^63 or more into a float and wrap a negative one.
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        llrs = gen.normal(0.0, 2.0, size=spec.block_len)
        trace = architecture.build_schedule(spec, args.arch, llrs)
        _write_blocks(architecture.trace_lines(trace), args.out)
        return 0
    labels = {arch: architecture.schedule_label(n, arch) for arch in architecture.ARCH_KINDS}
    width = max(22, *map(len, labels.values()))
    lines = [f"architecture  {'schedule(first pair)':<{width}} clocks for ({n},{k})"]
    clocks = {}
    for arch, label in labels.items():
        clocks[arch] = architecture.latency_clocks(n, arch)
        lines.append(f"{arch:<13} {label:<{width}} {clocks[arch]} clocks")
    lines.append(
        "speedup of proposed: "
        f"{clocks['conventional'] / clocks['proposed']:g}x vs conventional, "
        f"{clocks['two_bit_sc'] / clocks['proposed']:g}x vs 2b-SC"
    )
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_gain(args):
    with open(args.curve_a) as fh:
        curve_a, _ = sweep_mod.parse_csv(fh.read())
    with open(args.curve_b) as fh:
        curve_b, _ = sweep_mod.parse_csv(fh.read())
    try:
        gain = sweep_mod.compare_gain(curve_a, curve_b, args.target_ber)
    except sweep_mod.NoCrossingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NO_CROSSING_EXIT
    for path, curve in ((args.curve_a, curve_a), (args.curve_b, curve_b)):
        for point in sweep_mod.crossing_points(curve, args.target_ber):
            if point.low_confidence:
                print(
                    f"warning: {path}: the crossing interpolates the {point.ebn0_db:g} dB point,"
                    f" which has {point.frame_errors} frame errors"
                    f" (fewer than {sweep_mod.MIN_CONFIDENT_ERRORS})",
                    file=sys.stderr,
                )
    _write_out(f"gain_db={gain:.4f}\n", args.out)
    return 0


def _add_code_args(parser, default_code=None):
    parser.add_argument("--code", default=default_code, help="code parameters as N,K")
    parser.add_argument("--spec-file", help="path to a saved code spec (overrides --code)")
    parser.add_argument(
        "--design-z0",
        type=float,
        default=0.5,
        help="erasure-proxy design parameter for construction (default 0.5)",
    )


def build_parser():
    parser = _Parser(prog="polarfec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code spec and print/save it")
    _add_code_args(p)
    p.add_argument("--out", default="stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("encode", help="systematically encode K info bits")
    _add_code_args(p)
    p.add_argument("bits", help="K information bits, e.g. 10110111011")
    p.add_argument("--out", default="stdout")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode one frame of LLRs or hard bits")
    _add_code_args(p)
    p.add_argument(
        "--decoder",
        default="soft_minsum",
        choices=["soft_exact", "soft_minsum", "hard", "fixed"],
    )
    p.add_argument("--quant-bits", type=int, default=5)
    p.add_argument("--frac-bits", type=int, default=1)
    p.add_argument(
        "values",
        help="N comma/space-separated LLRs (prefix with -- when the first is"
        " negative), or N bits for hard",
    )
    p.add_argument("--out", default="stdout")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("sweep", help="Monte-Carlo BER/FER sweep, CSV output")
    _add_code_args(p)
    p.add_argument("--decoder", default="soft_minsum", choices=list(sweep_mod.DECODERS))
    p.add_argument("--quant-bits", type=int, default=5)
    p.add_argument("--frac-bits", type=int, default=1)
    p.add_argument("--ebn0", default="0:8:1", help="start:stop:step in dB")
    p.add_argument("--max-frames", type=int, default=100_000)
    p.add_argument("--min-frame-errors", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("latency", help="decode-latency table for the three designs")
    _add_code_args(p, default_code="16,11")
    p.add_argument("--arch", default="proposed", choices=list(architecture.ARCH_KINDS))
    p.add_argument("--trace", action="store_true", help="dump one schedule trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="stdout")
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("gain", help="coding-gain difference between two CSV curves")
    p.add_argument("curve_a")
    p.add_argument("curve_b")
    p.add_argument("--target-ber", type=float, default=1e-4)
    p.add_argument("--out", default="stdout")
    p.set_defaults(func=_cmd_gain)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())

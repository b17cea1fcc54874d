"""polarfec: compact systematic SC polar coding toolkit.

Encoders and SC decoders (exact log-domain, min-sum, hard-decision and
fixed-point), a Bhattacharyya-recursion code constructor, a cycle-accurate
latency model of three decoder architectures, an RS(15,11) baseline over
GF(16), and a deterministic Monte-Carlo BER/FER sweep engine with a CLI.
"""

from .architecture import (
    ARCH_KINDS,
    PeActivation,
    ScheduleTrace,
    build_schedule,
    format_trace,
    latency_clocks,
)
from .channel import (
    ChannelParams,
    hard_slice,
    llr_from_awgn,
    modulate,
)
from .codec import (
    DecodeResult,
    encode_nonsystematic,
    encode_systematic,
    f_exact,
    f_minsum,
    g_func,
    hard_decision_decode,
    sc_decode,
)
from .construction import (
    CodeSpec,
    ConstructionParams,
    bhattacharyya_construct,
    bhattacharyya_reliabilities,
    parse_spec_text,
    to_spec_text,
    validate_domination,
)
from .quantized import QuantSpec, quantize, sc_decode_fixed
from .reed_solomon import (
    GENERATOR_POLY,
    RsDecodeResult,
    gf16_inv,
    gf16_mul,
    rs_decode,
    rs_encode,
    rs_syndromes,
)
from .sweep import (
    NoCrossingError,
    SweepConfig,
    SweepPoint,
    compare_gain,
    emit_csv,
    parse_csv,
    run_sweep,
)

__all__ = [
    "ARCH_KINDS",
    "ChannelParams",
    "CodeSpec",
    "ConstructionParams",
    "DecodeResult",
    "GENERATOR_POLY",
    "NoCrossingError",
    "PeActivation",
    "QuantSpec",
    "RsDecodeResult",
    "ScheduleTrace",
    "SweepConfig",
    "SweepPoint",
    "bhattacharyya_construct",
    "bhattacharyya_reliabilities",
    "build_schedule",
    "compare_gain",
    "emit_csv",
    "encode_nonsystematic",
    "encode_systematic",
    "f_exact",
    "f_minsum",
    "format_trace",
    "g_func",
    "gf16_inv",
    "gf16_mul",
    "hard_decision_decode",
    "hard_slice",
    "latency_clocks",
    "llr_from_awgn",
    "modulate",
    "parse_csv",
    "parse_spec_text",
    "quantize",
    "rs_decode",
    "rs_encode",
    "rs_syndromes",
    "run_sweep",
    "sc_decode",
    "sc_decode_fixed",
    "to_spec_text",
    "validate_domination",
]

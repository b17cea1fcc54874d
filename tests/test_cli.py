import warnings

import numpy as np
import pytest

from polarfec import (
    ConstructionParams,
    SweepConfig,
    bhattacharyya_construct,
    build_schedule,
    emit_csv,
    encode_systematic,
    format_trace,
    parse_spec_text,
    run_sweep,
    sc_decode,
)
from polarfec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_stdout_format(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--code", "16,11")
        assert code == 0
        assert out.splitlines() == ["16 11", "0 1 2 4 8"]

    def test_out_file_and_reuse(self, capsys, tmp_path, spec16_11):
        spec_path = tmp_path / "code.spec"
        code, _, _ = run_cli(capsys, "construct", "--code", "16,11", "--out", str(spec_path))
        assert code == 0
        assert parse_spec_text(spec_path.read_text()) == spec16_11

    def test_design_z0_flag(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--code", "128,96", "--design-z0", "0.02")
        assert code == 0
        assert out.splitlines()[0] == "128 96"

    def test_bad_code_string(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--code", "16:11")
        assert code == 1 and "error" in err

    def test_missing_code(self, capsys):
        code, _, err = run_cli(capsys, "construct")
        assert code == 1


class TestEncodeDecode:
    def test_encode_matches_library(self, capsys, spec16_11):
        message = "10110111011"
        code, out, _ = run_cli(capsys, "encode", "--code", "16,11", message)
        assert code == 0
        m = np.array([int(c) for c in message], dtype=np.uint8)
        expected = "".join(str(b) for b in encode_systematic(m, spec16_11))
        assert out.strip() == expected

    def test_decode_round_trip(self, capsys, spec16_11, rng):
        m = rng.integers(0, 2, 11).astype(np.uint8)
        x = encode_systematic(m, spec16_11)
        llrs = " ".join("8.0" if b == 0 else "-8.0" for b in x)
        code, out, _ = run_cli(
            capsys, "decode", "--code", "16,11", "--decoder", "soft_minsum", "--", llrs
        )
        assert code == 0
        assert out.splitlines()[0] == "info=" + "".join(str(b) for b in m)

    def test_decode_hard(self, capsys, spec16_11, rng):
        m = rng.integers(0, 2, 11).astype(np.uint8)
        x = encode_systematic(m, spec16_11)
        bits = "".join(str(b) for b in x)
        code, out, _ = run_cli(capsys, "decode", "--code", "16,11", "--decoder", "hard", bits)
        assert code == 0
        assert out.splitlines()[0] == "info=" + "".join(str(b) for b in m)

    def test_decode_fixed(self, capsys, spec16_11, rng):
        m = rng.integers(0, 2, 11).astype(np.uint8)
        x = encode_systematic(m, spec16_11)
        llrs = ",".join("6.0" if b == 0 else "-6.0" for b in x)
        code, out, _ = run_cli(
            capsys, "decode", "--code", "16,11", "--decoder", "fixed",
            "--quant-bits", "5", "--frac-bits", "1", "--", llrs,
        )
        assert code == 0
        assert out.splitlines()[0] == "info=" + "".join(str(b) for b in m)

    def test_wrong_bit_count(self, capsys):
        code, _, err = run_cli(capsys, "encode", "--code", "16,11", "1011")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("bits", ["1011x0111011", "1011-011-1011", "1011 0111 01O"])
    def test_encode_rejects_bad_characters(self, capsys, bits):
        code, out, err = run_cli(capsys, "encode", "--code", "16,11", bits)
        assert code == 1 and out == ""
        assert err.startswith("error: bits must be 0 or 1")

    def test_encode_accepts_separators(self, capsys):
        _, plain, _ = run_cli(capsys, "encode", "--code", "16,11", "10110111011")
        code, out, _ = run_cli(capsys, "encode", "--code", "16,11", "1011 0111,011\t")
        assert code == 0 and out == plain

    def test_decode_hard_rejects_bad_characters(self, capsys):
        code, out, err = run_cli(
            capsys, "decode", "--code", "16,11", "--decoder", "hard", "101101110111011x"
        )
        assert code == 1 and out == ""
        assert err == "error: bits must be 0 or 1, got 'x'\n"

    def test_wrong_llr_count(self, capsys):
        code, _, err = run_cli(capsys, "decode", "--code", "16,11", "1.0 2.0")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("decoder", ["soft_minsum", "soft_exact", "fixed"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_llr(self, capsys, decoder, bad):
        llrs = " ".join([bad] + ["1"] * 15)
        code, out, err = run_cli(capsys, "decode", "--code", "16,11", "--decoder", decoder, "--", llrs)
        assert code == 1 and out == ""
        assert err == "error: LLR must be finite\n"


class TestSpecFileExactness:
    # at N=8 freezing 1, 2, 3 and 5 breaks two-pass systematic encoding:
    # the message 1111 encodes to 01110111, whose info positions read 0011
    @pytest.fixture
    def bad_spec(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("8 4\n1 2 3 5\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["construct"],
        ["encode", "1111"],
        ["decode", "--", "1 1 1 1 1 1 1 1"],
        ["decode", "--decoder", "hard", "00000000"],
        ["sweep", "--ebn0", "60:60:1", "--max-frames", "200", "--min-frame-errors", "1000"],
        ["latency"],
        ["latency", "--trace"],
    ])
    def test_non_exact_spec_file_exits_1(self, capsys, bad_spec, argv):
        code, out, err = run_cli(capsys, argv[0], "--spec-file", bad_spec, *argv[1:])
        assert code == 1 and out == ""
        assert err == f"error: {bad_spec}: two-pass systematic encoding is not exact for this frozen set\n"

    def test_exact_hand_written_spec_file_accepted(self, capsys, tmp_path):
        path = tmp_path / "good.spec"
        path.write_text("8 4\n0 1 2 4\n")
        code, out, _ = run_cli(capsys, "encode", "--spec-file", str(path), "1111")
        assert code == 0 and out == "11111111\n"


class TestSweepCommand:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--code", "16,11", "--decoder", "soft_minsum",
            "--ebn0", "2:3:1", "--max-frames", "3000", "--min-frame-errors", "40",
            "--seed", "5", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# code=16,11 decoder=soft_minsum seed=5"
        assert lines[1] == "ebno_db,frames,bit_errors,frame_errors,ber,fer"
        assert len(lines) == 4

    def test_deterministic_bytes(self, capsys):
        argv = [
            "sweep", "--code", "16,11", "--ebn0", "2:2:1",
            "--max-frames", "2000", "--min-frame-errors", "30", "--seed", "8",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_spec_file_input(self, capsys, tmp_path):
        spec_path = tmp_path / "code.spec"
        run_cli(capsys, "construct", "--code", "8,5", "--out", str(spec_path))
        code, out, _ = run_cli(
            capsys, "sweep", "--spec-file", str(spec_path), "--ebn0", "3:3:1",
            "--max-frames", "1000", "--min-frame-errors", "20",
        )
        assert code == 0
        assert "# code=8,5" in out

    def test_rs_decoder(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--decoder", "rs15_11", "--ebn0", "5:5:1",
            "--max-frames", "1000", "--min-frame-errors", "20",
        )
        assert code == 0
        assert "# code=15,11 decoder=rs15_11" in out

    def test_rs_with_polar_code_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--decoder", "rs15_11", "--code", "16,11",
            "--ebn0", "5:5:1", "--max-frames", "100", "--min-frame-errors", "5",
        )
        assert code == 1 and "error" in err

    def test_design_z0_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--code", "128,96", "--design-z0", "0.02", "--decoder", "hard",
            "--ebn0", "4:6:2", "--max-frames", "500", "--min-frame-errors", "20", "--seed", "3",
        )
        assert code == 0
        config = SweepConfig(
            code=bhattacharyya_construct(128, 96, ConstructionParams(0.02)), decoder="hard",
            ebn0_start=4.0, ebn0_stop=6.0, ebn0_step=2.0,
            max_frames=500, min_frame_errors=20, master_seed=3,
        )
        metadata = {"code": "128,96", "decoder": "hard", "seed": 3}
        assert out == emit_csv(run_sweep(config), metadata)

    def test_workers_zero_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--code", "16,11", "--ebn0", "5:5:1",
            "--max-frames", "100", "--min-frame-errors", "5", "--workers", "0",
        )
        assert code == 1 and "workers" in err

    def test_bad_ebn0_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--code", "16,11", "--ebn0", "5")
        assert code == 1

    @pytest.mark.parametrize("grid", ["0:1:inf", "0:inf:1", "nan:1:1"])
    def test_non_finite_ebn0_grid(self, capsys, grid):
        code, out, err = run_cli(
            capsys, "sweep", "--code", "16,11", "--ebn0", grid, "--max-frames", "10",
        )
        assert code == 1 and out == ""
        assert err == "error: Eb/N0 start, stop and step must be finite\n"

    def test_oversized_ebn0_grid(self, capsys):
        # the point count overflows a float: an OverflowError traceback before
        code, out, err = run_cli(
            capsys, "sweep", "--code", "16,11", "--ebn0", "0:1e308:1e-308", "--max-frames", "10",
        )
        assert code == 1 and out == ""
        assert err == "error: Eb/N0 grid must have at most 10000 points\n"

    @pytest.mark.parametrize("grid", ["3090:3090:1", "3080:3080:1", "-3090:-3090:1"])
    def test_ebn0_beyond_float_sigma(self, capsys, grid):
        # 3090 dB was an OverflowError traceback; 3080 and -3090 dB a numpy
        # warning, then "LLR must be finite"
        code, out, err = run_cli(
            capsys, "sweep", "--code", "16,11", f"--ebn0={grid}", "--max-frames", "10",
        )
        assert code == 1 and out == ""
        ebn0 = float(grid.split(":")[0])
        assert err == f"error: Eb/N0 {ebn0} dB gives noise sigma^2 outside the normal float range\n"

    @pytest.mark.filterwarnings("error")
    def test_ebn0_llrs_beyond_float(self, capsys):
        # sigma^2 is a normal float at 3070 dB, but a min-sum g over 16 LLRs
        # of about 2.7e307 overflowed: a RuntimeWarning and a count row, or
        # under -W error a traceback
        code, out, err = run_cli(
            capsys, "sweep", "--code", "16,11", "--ebn0=3070:3070:1", "--max-frames", "10",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: Eb/N0 3070.0 dB gives LLRs of up to 4/sigma^2")
        assert err.endswith(" too large for a length-16 decode\n") and err.count("\n") == 1

    def test_quant_bits_beyond_int32_grid(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--code", "16,11", "--decoder", "fixed", "--quant-bits", "32",
            "--ebn0", "5:5:1", "--max-frames", "100", "--min-frame-errors", "5",
        )
        assert code == 1 and "total_bits_q" in err

    @pytest.mark.parametrize("flag, value", [("--quant-bits", "5.5"), ("--frac-bits", "1.5")])
    def test_non_integer_fixed_format(self, flag, value, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--code", "16,11", "--decoder", "fixed", flag, value,
            "--ebn0", "5:5:1", "--max-frames", "100",
        )
        assert code == 1 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: argument {flag}: invalid int value: '{value}'"
        ]


class TestLatencyCommand:
    def test_table_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "latency", "--code", "16,11")
        assert code == 0
        assert "30 clocks" in out
        assert "22 clocks" in out
        assert "8 clocks" in out
        assert "3.75x" in out and "2.75x" in out

    def test_table_n16_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "latency", "--code", "16,11")
        assert code == 0
        assert out == (
            "architecture  schedule(first pair)   clocks for (16,11)\n"
            "conventional  (F)-(F)-(F)-(F)-(G)    30 clocks\n"
            "two_bit_sc    (F)-(F)-(F)-(F-G)      22 clocks\n"
            "proposed      (F-F-F-F-G)            8 clocks\n"
            "speedup of proposed: 3.75x vs conventional, 2.75x vs 2b-SC\n"
        )

    def test_table_labels_follow_block_length(self, capsys):
        code, out, _ = run_cli(capsys, "latency", "--code", "4,2")
        assert code == 0
        assert out.splitlines()[1:4] == [
            "conventional  (F)-(F)-(G)            6 clocks",
            "two_bit_sc    (F)-(F-G)              4 clocks",
            "proposed      (F-F-G)                2 clocks",
        ]
        code, out, _ = run_cli(capsys, "latency", "--code", "128,96")
        assert code == 0
        rows = out.splitlines()
        assert rows[1].split()[1] == "-".join(["(F)"] * 7 + ["(G)"])
        assert rows[2].split()[1] == "-".join(["(F)"] * 6 + ["(F-G)"])
        assert rows[3].split()[1] == "(F-F-F-F-F-F-F-G)"

    def test_table_columns_aligned_at_n128(self, capsys):
        code, out, _ = run_cli(capsys, "latency", "--code", "128,96")
        assert code == 0
        header, *rows = out.splitlines()[:4]
        offsets = {header.index("clocks for")} | {row.index(row.split()[2]) for row in rows}
        assert len(offsets) == 1
        assert rows[0].startswith("conventional  " + "-".join(["(F)"] * 7 + ["(G)"]) + " 254 clocks")

    def test_trace_dump(self, capsys):
        code, out, _ = run_cli(
            capsys, "latency", "--code", "16,11", "--arch", "proposed", "--trace"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 120
        assert all(line.startswith("clk=") for line in lines)

    def test_trace_conventional(self, capsys):
        code, out, _ = run_cli(
            capsys, "latency", "--code", "8,5", "--arch", "conventional", "--trace"
        )
        assert code == 0
        clocks = {line.split()[0] for line in out.strip().splitlines()}
        assert len(clocks) == 14  # 2N - 2 for N = 8

    def test_trace_written_to_file_in_blocks(self, capsys, tmp_path):
        # 8128 lines: the trace is written a block of lines at a time
        path = tmp_path / "wide.trace"
        code, out, _ = run_cli(
            capsys, "latency", "--code", "128,96", "--arch", "proposed", "--trace", "--seed", "5", "--out", str(path)
        )
        assert code == 0 and out == ""
        llrs = np.random.Generator(np.random.Philox(key=[5, 0])).normal(0.0, 2.0, size=128)
        text = format_trace(build_schedule(bhattacharyya_construct(128, 96), "proposed", llrs))
        assert path.read_text() == text
        assert text.count("\n") == 8128

    def test_trace_uses_spec_file(self, capsys, tmp_path, spec16_11):
        spec_path = tmp_path / "code.spec"
        spec_path.write_text("16 11\n0 1 2 3 4\n")
        spec = parse_spec_text(spec_path.read_text())
        assert spec.frozen_set != spec16_11.frozen_set
        code, out, _ = run_cli(
            capsys, "latency", "--spec-file", str(spec_path), "--arch", "two_bit_sc",
            "--trace", "--seed", "3",
        )
        assert code == 0
        llrs = np.random.Generator(np.random.Philox(key=[3, 0])).normal(0.0, 2.0, size=16)
        assert out == format_trace(build_schedule(spec, "two_bit_sc", llrs))
        assert out != format_trace(build_schedule(spec16_11, "two_bit_sc", llrs))

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_trace_rejects_seed_outside_64_bits(self, capsys, seed):
        code, out, err = run_cli(capsys, "latency", "--trace", "--seed", seed)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: --seed must be in [0, 2^64), got {seed}"]

    def test_trace_keys_the_exact_64_bit_seed(self, capsys, spec16_11):
        def trace(seed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "latency", "--trace", "--seed", str(seed))
            assert code == 0 and err == ""
            return out

        top = (1 << 64) - 1
        key = np.array([top, 0], dtype=np.uint64)
        llrs = np.random.Generator(np.random.Philox(key=key)).normal(0.0, 2.0, size=16)
        assert trace(top) == format_trace(build_schedule(spec16_11, "proposed", llrs))
        assert trace(top) != trace(0)
        assert trace((1 << 63) + 1) != trace((1 << 63) + 2)

    def test_table_from_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "code.spec"
        run_cli(capsys, "construct", "--code", "32,16", "--out", str(spec_path))
        code, out, _ = run_cli(capsys, "latency", "--spec-file", str(spec_path))
        assert code == 0
        assert "clocks for (32,16)" in out.splitlines()[0]

    def test_design_z0_flag(self, capsys):
        code, out, _ = run_cli(capsys, "latency", "--code", "64,32", "--design-z0", "0.1", "--trace")
        assert code == 0
        llrs = np.random.Generator(np.random.Philox(key=[0, 0])).normal(0.0, 2.0, size=64)
        spec = bhattacharyya_construct(64, 32, ConstructionParams(0.1))
        assert spec.frozen_set != bhattacharyya_construct(64, 32).frozen_set
        assert out == format_trace(build_schedule(spec, "proposed", llrs))


class TestGainCommand:
    def write_curve(self, path, shift, frame_errors=(500, 500, 500, 500)):
        rows = [
            "# code=16,11 decoder=soft_minsum seed=0",
            "ebno_db,frames,bit_errors,frame_errors,ber,fer",
        ]
        points = [(0.0, 1e-2), (2.0, 1e-3), (4.0, 1e-4), (6.0, 1e-5)]
        for (e, b), errors in zip(points, frame_errors):
            rows.append(f"{e + shift},100000,{int(b * 1.1e6)},{errors},{b!r},{b * 5!r}")
        path.write_text("\n".join(rows) + "\n")

    def test_shifted_gain(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0)
        self.write_curve(b, 0.0)
        code, out, err = run_cli(capsys, "gain", str(a), str(b), "--target-ber", "3e-4")
        assert code == 0
        assert out.strip() == "gain_db=1.0000"
        assert err == ""

    def test_low_confidence_crossing_warns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0, frame_errors=(500, 500, 19, 500))
        self.write_curve(b, 0.0, frame_errors=(500, 500, 500, 3))
        code, out, err = run_cli(capsys, "gain", str(a), str(b), "--target-ber", "3e-4")
        assert code == 0
        assert out.strip() == "gain_db=1.0000"
        warnings = err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith(f"warning: {a}:") and "5 dB point" in warnings[0]
        assert "19 frame errors" in warnings[0]

    def test_no_crossing_exit_2(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 0.0)
        self.write_curve(b, 0.0)
        code, _, err = run_cli(capsys, "gain", str(a), str(b), "--target-ber", "1e-9")
        assert code == 2 and "no crossing" in err

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gain", str(tmp_path / "nope.csv"), str(tmp_path / "nada.csv"))
        assert code == 1


def test_unknown_argument_exits_1(capsys):
    code, _, _ = run_cli(capsys, "latency", "--frobnicate")
    assert code == 1

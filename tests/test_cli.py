import numpy as np
import pytest

import xfmr.tensor as T
from xfmr import load_checkpoint
from xfmr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVariants:
    def test_lists_all_eight_plus_toy(self, capsys):
        code, out, _ = run(capsys, "variants")
        assert code == 0
        for name in ("tiny", "small", "base", "large"):
            assert f"== {name} (classification)" in out
            assert f"== {name} (dense)" in out
        assert "== toy" in out

    @staticmethod
    def _table_lines(out, header):
        # line 0 is the header remainder, line 1 the column names
        lines = out.split(header)[1].splitlines()
        return lines[2:6]

    def test_small_row_groups(self, capsys):
        _, out, _ = run(capsys, "variants")
        rows = self._table_lines(out, "== small (classification)")
        for line, interval in zip(rows, (8, 4, 2, 1)):
            cols = line.split()
            assert cols[-3:-1] == ["7", str(interval)]

    def test_dense_small_row(self, capsys):
        _, out, _ = run(capsys, "variants")
        stage1 = self._table_lines(out, "== small (dense)")[0].split()
        assert stage1[-3:-1] == ["14", "16"]


class TestCount:
    def test_small_passes_budgets(self, capsys):
        code, out, _ = run(capsys, "count", "--variant", "s")
        assert code == 0
        assert "30.9303M params" in out
        assert "PASS" in out and "FAIL" not in out

    def test_ape_budget(self, capsys):
        code, out, _ = run(capsys, "count", "--variant", "s", "--bias", "ape")
        assert code == 0
        assert "small/ape params" in out

    def test_single_cel_budget(self, capsys):
        code, out, _ = run(capsys, "count", "--variant", "s", "--cel", "single")
        assert code == 0
        assert "small/single" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "count", "--variant", "toy", "--csv")
        assert code == 0
        assert "module,params" in out and "module,macs" in out


class TestForward:
    def test_toy_forward(self, capsys):
        code, out, _ = run(capsys, "forward", "--variant", "toy", "--seed", "1")
        assert code == 0
        assert "logits (1, 10)" in out


class TestGradcheck:
    def test_toy_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--variant", "toy",
                           "--entries-per-tensor", "1", "--tol", "1e-4")
        assert code == 0
        assert "PASS" in out and "worst parameter groups" in out

    def test_corrupted_backward_fails(self, capsys):
        try:
            code, out, _ = run(capsys, "gradcheck", "--variant", "toy",
                               "--entries-per-tensor", "1", "--corrupt-backward")
        finally:
            T.CORRUPT_BACKWARD = False
        assert code == 1
        assert "FAIL" in out

    def test_refuses_large_models(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--variant", "small")
        assert code == 2
        assert "toy-scale" in err


class TestTrainAndBake:
    def test_train_bake_cycle(self, capsys, tmp_path):
        ckpt = tmp_path / "toy.xfmr"
        code, out, _ = run(capsys, "train-toy", "--seed", "0", "--steps", "500",
                           "--out", str(ckpt))
        assert code == 0
        assert "100% at step" in out
        entries = load_checkpoint(ckpt)
        assert any(name.endswith("head.w") for name in entries)

        baked = tmp_path / "baked.xfmr"
        code, out, _ = run(capsys, "bake-dpb", "--variant", "toy", "--seed", "0",
                           str(ckpt), "--out", str(baked))
        assert code == 0
        assert "forward diff" in out
        assert "0.000e+00" in out
        frozen = load_checkpoint(baked)
        assert any(".attn.bias.table" in name for name in frozen)
        assert not any(".attn.bias.fc_in" in name for name in frozen)

    def test_bake_rejects_non_dpb_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "bake-dpb", "--variant", "toy", "--bias", "rpb",
                           str(tmp_path / "x.xfmr"), "--out", str(tmp_path / "y.xfmr"))
        assert code == 2

    def test_bake_rejects_non_dpb_checkpoint(self, capsys, tmp_path):
        from xfmr import build_model, save_checkpoint, toy_spec

        model = build_model(toy_spec(classes=4, bias_kind="rpb"), seed=0)
        path = tmp_path / "rpb.xfmr"
        save_checkpoint(path, {n: p.data for n, p in model.named_parameters()})
        code, _, err = run(capsys, "bake-dpb", "--variant", "toy",
                           str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 2
        assert "dynamic-position-bias" in err


    def test_bake_rebuilds_from_stored_config(self, capsys, tmp_path):
        from xfmr import RunConfig, build_model, save_checkpoint, to_model_spec

        cfg = RunConfig(variant="toy", classes=4)
        model = build_model(to_model_spec(cfg), seed=0)
        path = tmp_path / "toy4.xfmr"
        save_checkpoint(path, {n: p.data for n, p in model.named_parameters()}, config=cfg)
        code, out, _ = run(capsys, "bake-dpb", "--variant", "toy",
                           str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 0
        assert "0.000e+00" in out

    def test_bake_refuses_flags_that_change_stored_config(self, capsys, tmp_path):
        from xfmr import RunConfig, build_model, emit_config, save_checkpoint, to_model_spec

        cfg = RunConfig(variant="toy", classes=4)
        model = build_model(to_model_spec(cfg), seed=0)
        path = tmp_path / "toy4.xfmr"
        save_checkpoint(path, {n: p.data for n, p in model.named_parameters()}, config=cfg)
        out = str(tmp_path / "o.xfmr")
        code, _, err = run(capsys, "bake-dpb", "--bias", "rpb", str(path), "--out", out)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "--bias rpb" in err and "bias = dpb" in err

        other = tmp_path / "other.cfg"
        other.write_text(emit_config(RunConfig(variant="toy", classes=10)))
        code, _, err = run(capsys, "bake-dpb", "--config", str(other), str(path), "--out", out)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "classes = 10" in err and "classes = 4" in err

        code, _, _ = run(capsys, "bake-dpb", "--bias", "dpb", "--seed", "0", str(path), "--out", out)
        assert code == 0

    def test_bake_v1_mismatch_names_shapes(self, capsys, tmp_path):
        from xfmr import build_model, save_checkpoint, toy_spec

        model = build_model(toy_spec(classes=4), seed=0)
        path = tmp_path / "v1.xfmr"
        save_checkpoint(path, {n: p.data for n, p in model.named_parameters()})
        code, _, err = run(capsys, "bake-dpb", "--variant", "toy",
                           str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "head.w" in err and "(128, 4)" in err and "(128, 10)" in err
        assert "--config" in err

    def test_bake_rejects_bad_stored_config(self, capsys, tmp_path):
        import struct
        import zlib

        from xfmr import save_checkpoint

        path = tmp_path / "bad.xfmr"
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
        body = bytearray(path.read_bytes()[:-4])
        text = b"classes = four\n"
        body[4:8] = struct.pack("<I", 2)
        body[12:12] = struct.pack("<I", len(text)) + text
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        code, _, err = run(capsys, "bake-dpb", str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 2
        assert "error:" in err and "classes" in err


class TestBench:
    def test_scaling_assertion(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "14", "28")
        assert code == 0
        assert "x4.00 (expect 4.00)" in out
        assert "x16.00 (expect 16.00)" in out


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--variant", "nope"])
        assert exc.value.code == 2

    def test_config_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("variant = smol\n")
        code, _, err = run(capsys, "count", "--config", str(bad))
        assert code == 2
        assert "error:" in err

    def test_shape_error_is_2(self, capsys):
        code, _, err = run(capsys, "forward", "--variant", "toy", "--size", "0", "0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["count", "forward"])
    def test_kernel_smaller_than_stride_is_2(self, capsys, tmp_path, command):
        from xfmr.config import RunConfig, StageOverride, emit_config

        stages = tuple(
            StageOverride(kernels=(2, 4), stride=4 if i == 0 else 2, dim=16 * 2 ** i,
                          heads=2 ** i, group=2, interval=2, blocks=1)
            for i in range(4)
        )
        cfg = tmp_path / "small_kernel.cfg"
        cfg.write_text(emit_config(RunConfig(stages=stages, input_size=(64, 64), classes=4)))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: kernel 2 smaller than stride 4: padding (k-s)/2 would be negative"]

    @pytest.mark.parametrize("argv", [
        ("forward", "--variant", "toy", "--batch", "0"),
        ("forward", "--variant", "toy", "--batch", "-1"),
        ("bench", "--sizes", "0"),
        ("bench", "--group", "0"),
        ("train-toy", "--steps", "0"),
        ("gradcheck", "--variant", "toy", "--entries-per-tensor", "0"),
    ])
    def test_non_positive_count_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: {argv[-1]} is not a positive count" in err.splitlines()[-1]

    def test_emit_config_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "emit-config", "--variant", "small", "--bias", "rpb")
        assert code == 0
        from xfmr import parse_config

        cfg = parse_config(out)
        assert cfg.variant == "small" and cfg.bias == "rpb"

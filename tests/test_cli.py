import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import xfmr
import xfmr.tensor as T
from xfmr import RunConfig, load_checkpoint
from xfmr.cli import main

from oracles import scaled_backward


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def stage_sections(first_kernels: str) -> str:
    """`[stage.1..4]` text with the toy's dims and heads at 64x64; stage 1
    embeds with ``first_kernels`` at stride 4."""
    return "".join(
        f"[stage.{n}]\nkernels = {first_kernels if n == 1 else '2, 4'}\nstride = {4 if n == 1 else 2}\n"
        f"dim = {8 * 2 ** n}\nheads = {2 ** (n - 1)}\ngroup = 2\ninterval = 2\nblocks = 1\n"
        for n in (1, 2, 3, 4))


def module_env() -> dict[str, str]:
    """This environment, with the imported ``xfmr``'s source first on PYTHONPATH."""
    src = str(Path(xfmr.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_module(*argv) -> subprocess.CompletedProcess:
    """`python -m xfmr.cli ARGV` in a fresh interpreter, as the console script runs it."""
    return subprocess.run([sys.executable, "-m", "xfmr.cli", *argv], capture_output=True, text=True,
                          env=module_env(), timeout=120)


def test_module_entry_point_lists_the_commands():
    done = run_module("--help")
    assert done.returncode == 0, done.stderr
    commands = re.search(r"\{(.*?)\}", done.stdout).group(1).split(",")
    assert commands == "variants count forward gradcheck train-toy bake-dpb emit-config".split()


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

    def test_pvt_like_takes_ape(self, capsys):
        code, out, _ = run(capsys, "count", "--variant", "s", "--attn", "pvt-like", "--bias", "ape")
        assert code == 0
        assert "bias=ape attn=pvt-like" in out
        assert "30.9327M params, 4.4201G MACs" in out

    def test_single_cel_budget(self, capsys):
        code, out, _ = run(capsys, "count", "--variant", "s", "--cel", "single")
        assert code == 0
        assert "small/single" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "count", "--variant", "toy", "--csv")
        assert code == 0
        assert "module,params" in out and "module,macs" in out

    @pytest.mark.parametrize("argv, cel", [
        (("--variant", "toy"), "two"),
        (("--variant", "tiny"), "cross"),
        (("--variant", "tiny", "--cel", "single"), "single"),
    ], ids=["toy", "tiny", "tiny-single"])
    def test_header_names_the_embedding_mode_the_stages_use(self, capsys, argv, cel):
        code, out, _ = run(capsys, "count", *argv)
        assert code == 0
        assert out.splitlines()[0].startswith(f"configuration: variant={argv[1]} cel={cel} bias=dpb ")

    def test_stage_config_header_names_no_variant(self, capsys, tmp_path):
        cfg = tmp_path / "stages.cfg"
        cfg.write_text("input_size = 64 64\nclasses = 4\n" + stage_sections("4, 8"))
        code, out, _ = run(capsys, "count", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == ("configuration: stages from the config bias=dpb attn=lsda "
                                       "input=64x64")

    def test_dense_grouping_at_224_has_no_budgets(self, capsys):
        """The paper's budgets are for the classification grouping; small with
        the dense grouping (G=14) at 224x224 is none of its rows."""
        code, out, _ = run(capsys, "count", "--variant", "small", "--task", "dense", "--size", "224", "224")
        assert code == 0
        assert "reference budgets" not in out

    def test_stages_spelling_out_small_get_its_budgets(self, capsys, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("input_size = 224 224\n" + "".join(
            f"[stage.{n}]\nkernels = {'4, 8, 16, 32' if n == 1 else '2, 4'}\nstride = {4 if n == 1 else 2}\n"
            f"dim = {48 * 2 ** n}\nheads = {3 * 2 ** (n - 1)}\ngroup = 7\ninterval = {2 ** (4 - n)}\n"
            f"blocks = {6 if n == 3 else 2}\n"
            for n in (1, 2, 3, 4)))
        budgets = []
        for argv in (("--config", str(cfg)), ("--variant", "small")):
            code, out, _ = run(capsys, "count", *argv)
            assert code == 0
            budgets.append(out.split("\nreference budgets\n")[1])
        assert budgets[0] == budgets[1]
        assert budgets[0].splitlines()[0].startswith("small params")


class TestForward:
    def test_toy_forward(self, capsys):
        code, out, _ = run(capsys, "forward", "--variant", "toy", "--seed", "1")
        assert code == 0
        assert "logits (1, 10)" in out

    @pytest.mark.parametrize("dtype, expected", [("f32", np.float32), ("f64", np.float64)])
    def test_config_dtype_sets_model_and_input(self, capsys, tmp_path, monkeypatch, dtype, expected):
        seen = []

        def spy(model, x):
            logits = xfmr.model_forward(model, x)
            seen.append((x.dtype, logits.dtype))
            return logits

        monkeypatch.setattr(xfmr.cli, "model_forward", spy)
        path = tmp_path / "run.cfg"
        path.write_text(f"variant = toy\ndtype = {dtype}\n")
        code, out, _ = run(capsys, "forward", "--config", str(path))
        assert code == 0 and "logits (1, 10)" in out
        assert seen == [(expected, expected)]


class TestGradcheck:
    def test_toy_passes(self, toy_gradcheck_run):
        code, out = toy_gradcheck_run  # gradcheck --variant toy --entries-per-tensor 1 --tol 1e-4
        assert code == 0
        assert "PASS" in out and "worst parameter groups" in out

    def test_corrupted_backward_fails(self, capsys, monkeypatch, toy_gradcheck_run):
        argv = ("gradcheck", "--variant", "toy", "--entries-per-tensor", "1")
        monkeypatch.setattr(T, "relu", scaled_backward(T.relu))  # the position-bias MLP's relu
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "FAIL" in out
        code, out = toy_gradcheck_run  # the same argv unpatched; --tol 1e-4 is the default
        assert code == 0
        assert "PASS" in out

    def test_refuses_large_models(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--variant", "small")
        assert code == 2
        assert "toy-scale" in err


def save_model(path, cfg, stored=None, drop=(), extra=None):
    """Save the seed-0 model of ``cfg``, less the tensors named in ``drop``
    and plus those of ``extra``, with ``stored`` (default ``cfg``) as its
    stored config (format 2)."""
    from xfmr import build_model, save_checkpoint, to_model_spec
    from xfmr.config import DTYPES

    model = build_model(to_model_spec(cfg), seed=0, dtype=DTYPES[cfg.dtype])
    entries = {n: p.data for n, p in model.named_parameters() if n not in drop}
    save_checkpoint(path, {**entries, **(extra or {})}, config=stored or cfg)
    return path


class TestTrainAndBake:
    def test_train_bake_cycle(self, capsys, tmp_path, toy_training_run):
        code, out, ckpt = toy_training_run  # train-toy --seed 0 --steps 500 --out ckpt
        assert code == 0
        assert "100% at step" in out
        entries = load_checkpoint(ckpt)
        assert any(name.endswith("head.w") for name in entries)

        baked = tmp_path / "baked.xfmr"
        code, out, _ = run(capsys, "bake-dpb", str(ckpt), "--out", str(baked))
        assert code == 0
        assert "forward diff" in out
        assert "0.000e+00" in out
        frozen = load_checkpoint(baked)
        assert any(".attn.bias.table" in name for name in frozen)
        assert not any(".attn.bias.fc_in" in name for name in frozen)

    def test_baked_checkpoint_loads_as_the_live_model(self, capsys, tmp_path, toy_training_run):
        from xfmr import BiasRangeError, load_model, model_forward

        ckpt = toy_training_run[2]
        baked = tmp_path / "baked.xfmr"
        assert run(capsys, "bake-dpb", str(ckpt), "--out", str(baked))[0] == 0
        live, cfg = load_model(ckpt)
        frozen, baked_cfg = load_model(baked)
        assert baked_cfg == replace(cfg, bias="rpb")
        x = np.random.default_rng(9).standard_normal((2, 64, 64, 3)).astype(np.float32)
        assert model_forward(frozen, x).data.tobytes() == model_forward(live, x).data.tobytes()
        model_forward(live, np.zeros((1, 96, 96, 3), np.float32))  # the live bias serves any size
        with pytest.raises(BiasRangeError, match="bias table only covers"):
            model_forward(frozen, np.zeros((1, 96, 96, 3), np.float32))

    def test_bake_with_closed_stdout_still_writes_the_checkpoint(self, capsys, tmp_path, toy_training_run):
        # the pipe's read end is closed before the child starts and stdout is
        # unbuffered, so the first print meets a broken pipe
        ckpt = toy_training_run[2]
        normal, piped = tmp_path / "normal.xfmr", tmp_path / "piped.xfmr"
        assert run(capsys, "bake-dpb", str(ckpt), "--out", str(normal))[0] == 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "xfmr.cli", "bake-dpb", str(ckpt), "--out", str(piped)],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env={**module_env(), "PYTHONUNBUFFERED": "1"}, timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")
        assert piped.read_bytes() == normal.read_bytes()

    def test_bake_rejects_non_dpb_config(self, capsys, tmp_path):
        path = save_model(tmp_path / "toy.xfmr", RunConfig(variant="toy", bias="rpb"))
        code, out, err = run(capsys, "bake-dpb", str(path), "--out", str(tmp_path / "y.xfmr"))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["bake-dpb requires a dynamic-position-bias configuration"]
        assert not (tmp_path / "y.xfmr").exists()

    def test_bake_rejects_non_dpb_checkpoint(self, capsys, tmp_path):
        cfg = RunConfig(variant="toy", classes=4)
        path = save_model(tmp_path / "rpb.xfmr", replace(cfg, bias="rpb"), stored=cfg)
        code, out, err = run(capsys, "bake-dpb", str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: checkpoint lacks tensor stages.0.0.attn.bias.fc_in.w of the model "
                                    "built from the checkpoint's stored config"]

    def test_bake_rebuilds_from_stored_config(self, capsys, tmp_path):
        path = save_model(tmp_path / "toy4.xfmr", RunConfig(variant="toy", classes=4))
        code, out, _ = run(capsys, "bake-dpb", str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 0
        assert "0.000e+00" in out

    def test_bake_refuses_flags_that_change_stored_config(self, capsys, tmp_path):
        path = save_model(tmp_path / "toy4.xfmr", RunConfig(variant="toy", classes=4))
        out = str(tmp_path / "o.xfmr")
        for flags in (("--bias", "rpb"), ("--variant", "toy"), ("--seed", "0"), ("--config", str(path))):
            with pytest.raises(SystemExit) as exc:
                main(["bake-dpb", *flags, str(path), "--out", out])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_bake_mismatch_names_shapes(self, capsys, tmp_path):
        path = save_model(tmp_path / "toy.xfmr", RunConfig(variant="toy", classes=4), stored=RunConfig(variant="toy"))
        code, _, err = run(capsys, "bake-dpb", str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "head.w" in err and "(128, 4)" in err and "(128, 10)" in err
        assert "--config" not in err

    def test_bake_missing_tensor_names_it(self, capsys, tmp_path):
        path = save_model(tmp_path / "toy.xfmr", RunConfig(variant="toy"), drop=("head.b",))
        code, out, err = run(capsys, "bake-dpb", str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: checkpoint lacks tensor head.b of the model built from the "
                                    "checkpoint's stored config"]

    def test_bake_refuses_extra_tensor(self, capsys, tmp_path):
        extra = {"stages.9.0.attn.q_proj.w": np.zeros((16, 16), np.float32)}
        path = save_model(tmp_path / "toy.xfmr", RunConfig(variant="toy"), extra=extra)
        code, out, err = run(capsys, "bake-dpb", str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: checkpoint tensor stages.9.0.attn.q_proj.w is not a parameter of "
                                    "the model built from the checkpoint's stored config"]
        assert not (tmp_path / "o.xfmr").exists()

    def test_bake_refuses_format_1(self, capsys, tmp_path):
        from xfmr import build_model, save_checkpoint, toy_spec

        path = tmp_path / "v1.xfmr"
        save_checkpoint(path, {n: p.data for n, p in build_model(toy_spec(), seed=0).named_parameters()})
        code, out, err = run(capsys, "bake-dpb", str(path), "--out", str(tmp_path / "o.xfmr"))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "has no stored config" in err

    def test_bake_keeps_float64(self, capsys, tmp_path):
        from xfmr import emit_config, load_model

        config = tmp_path / "f64.cfg"
        config.write_text(emit_config(RunConfig(variant="toy", classes=4, steps=3, dtype="f64")))
        ckpt, baked = tmp_path / "f64.xfmr", tmp_path / "baked.xfmr"
        run(capsys, "train-toy", "--config", str(config), "--out", str(ckpt))
        code, out, _ = run(capsys, "bake-dpb", str(ckpt), "--out", str(baked))
        assert code == 0
        assert "forward diff between dynamic and baked bias: 0.000e+00" in out
        entries = load_checkpoint(baked)
        assert entries and all(arr.dtype == np.float64 for arr in entries.values())
        assert load_model(baked)[1].dtype == "f64"

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

    @pytest.mark.parametrize("argv, size", [
        (("count", "--variant", "toy", "--size", "0", "0"), "0x0"),
        (("forward", "--variant", "toy", "--bias", "rpb", "--size", "0", "0"), "0x0"),
        (("count", "--variant", "tiny", "--size", "-224", "-224"), "-224x-224"),
        (("emit-config", "--size", "0", "-5"), "0x-5"),
    ])
    def test_non_positive_input_size_is_2(self, capsys, argv, size):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: input {size} must be at least 1x1"]

    def test_non_positive_config_input_size_is_2(self, capsys, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("variant = toy\ninput_size = 0 0\n")
        code, out, err = run(capsys, "count", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: input 0x0 must be at least 1x1"]

    @pytest.mark.parametrize("size", ["0 0", "64 -1"])
    def test_emit_config_refuses_non_positive_config_input_size(self, capsys, tmp_path, size):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(f"input_size = {size}\n")
        code, out, err = run(capsys, "emit-config", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: input {size.replace(' ', 'x')} must be at least 1x1"]

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_1_without_an_error_line(self, unbuffered):
        # the pipe's read end is closed before the child starts, so its first
        # write (or its flush) meets a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**module_env(), "PYTHONUNBUFFERED": unbuffered}  # "" leaves stdout buffered
        try:
            done = subprocess.run([sys.executable, "-m", "xfmr.cli", "emit-config"], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""

    @pytest.mark.parametrize("command", ["count", "forward"])
    def test_kernel_smaller_than_stride_is_2(self, capsys, tmp_path, command):
        cfg = tmp_path / "small_kernel.cfg"
        cfg.write_text("input_size = 64 64\nclasses = 4\n" + stage_sections("2, 4"))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: [stage.1] at line 3: kernel 2 smaller than stride 4: padding (k-s)/2 would be negative"]

    @pytest.mark.parametrize("argv, line", [
        (("count", "--variant", "toy", "--cel", "single"),
         "error: cel = single does not apply: the toy variant's stages are fixed; drop it"),
        (("count", "--variant", "toy", "--task", "dense"),
         "error: task = dense does not apply: the toy variant's stages are fixed; drop it"),
        (("train-toy", "--cel", "two", "--steps", "1"),
         "error: cel = two does not apply: the toy variant's stages are fixed; drop it"),
    ], ids=["count-cel", "count-task", "train-toy-cel"])
    def test_field_the_toy_ignores_is_2(self, capsys, argv, line):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [line]

    @pytest.mark.parametrize("variant, code, line", [
        ("toy", 0, None),
        ("small", 2, "error: variant = small does not apply: [stage.N] sections give the stages; drop it"),
    ], ids=["toy", "small"])
    def test_variant_beside_stage_sections(self, capsys, tmp_path, variant, code, line):
        cfg = tmp_path / "stages.cfg"
        cfg.write_text(f"variant = {variant}\ninput_size = 64 64\nclasses = 4\n" + stage_sections("4, 8"))
        got, out, err = run(capsys, "count", "--config", str(cfg))
        assert got == code
        if line is None:
            assert "reference budgets" not in out
        else:
            assert out == ""
            assert err.splitlines() == [line]

    @pytest.mark.parametrize("argv", [("emit-config",), ("count",), ("forward",), ("gradcheck",),
                                      ("train-toy", "--steps", "1")], ids=lambda argv: argv[0])
    def test_stage_dims_that_do_not_double_are_2(self, capsys, tmp_path, argv):
        cfg = tmp_path / "dims.cfg"
        cfg.write_text("input_size = 64 64\nclasses = 4\n" + stage_sections("4, 8").replace("dim = 32\n", "dim = 48\n"))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: [stage.2] at line 11: dim 48 must double the previous stage's dim 16"]

    @pytest.mark.parametrize("argv", [("emit-config",), ("count",), ("forward",), ("gradcheck",),
                                      ("train-toy", "--steps", "1")], ids=lambda argv: argv[0])
    def test_non_utf8_config_is_2(self, capsys, tmp_path, argv):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe\x00" + "variant = toy\n".encode("utf-16-le"))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {cfg}: not UTF-8 text (byte 0)"]

    def test_emitted_toy_config_with_too_many_classes_is_2(self, capsys, tmp_path):
        code, text, _ = run(capsys, "emit-config", "--variant", "toy")
        assert code == 0 and "classes" not in text
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "train-toy", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: the synthetic dataset has 2..8 classes, 10 requested"]

    @pytest.mark.parametrize("argv", [
        ("forward", "--variant", "toy", "--batch", "0"),
        ("forward", "--variant", "toy", "--batch", "-1"),
        ("train-toy", "--steps", "-1"),
        ("gradcheck", "--variant", "toy", "--entries-per-tensor", "-1"),
        ("train-toy", "--steps", "0"),
        ("gradcheck", "--variant", "toy", "--entries-per-tensor", "0"),
    ])
    def test_non_positive_count_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: {argv[-1]} is not a positive count" in err.splitlines()[-1]

    @pytest.mark.parametrize("argv, config, line", [
        (("forward", "--variant", "toy", "--seed", "-1"), None, "error: seed = -1 must be at least 0"),
        (("count",), "classes = -3", "error: classes = -3 must be at least 1"),
        (("forward",), "classes = -3", "error: classes = -3 must be at least 1"),
        (("count",), "classes = 0", "error: classes = 0 must be at least 1"),
        (("train-toy",), "dtype = f16", "error: dtype = f16 must be f32 or f64"),
        (("train-toy",), "steps = 0", "error: steps = 0 must be at least 1"),
        (("train-toy",), "batch = 0", "error: batch = 0 must be at least 1"),
        (("train-toy",), "samples = 0", "error: samples = 0 must be at least 1"),
        (("train-toy",), "lr = nan", "error: lr = nan must be a positive finite number"),
        (("train-toy",), "weight_decay = nan",
         "error: weight_decay = nan must be a finite number of at least 0"),
        (("train-toy",), "drop_path = 1.0", "error: drop_path = 1.0 must be at least 0 and below 1"),
        (("gradcheck", "--variant", "toy", "--tol", "nan"), None,
         "xfmr gradcheck: error: argument --tol: nan is not a positive finite number"),
        (("gradcheck", "--variant", "toy", "--tol", "-1"), None,
         "xfmr gradcheck: error: argument --tol: -1 is not a positive finite number"),
        (("count",), "input_size = 64 64\n" + stage_sections("4, 8").replace("heads = 2\n", "heads = 3\n"),
         "error: [stage.2] at line 11: dim 32 not divisible by heads 3"),
        (("forward",), "input_size = 64 64\n" + stage_sections("4, 8").replace("1\n[stage.3]", "0\n[stage.3]"),
         "error: [stage.2] at line 11: blocks, group size and interval must be positive"),
        (("count",), "input_size = 64 64\n" + stage_sections("4, 8").replace("heads = 2\n", "heads = 0\n"),
         "error: [stage.2] at line 11: heads 0 must be at least 1"),
        (("count",), "input_size = 64 64\n" + stage_sections("4, 8").replace("heads = 2\n", "heads = -1\n"),
         "error: [stage.2] at line 11: heads -1 must be at least 1"),
        (("forward",), "input_size = 64 64\n" + re.sub(r"dim = \d+", "dim = 0", stage_sections("4, 8")),
         "error: [stage.1] at line 3: dim 0 must be at least 1"),
        (("count",), "input_size = 64 64\n" + re.sub(r"dim = (\d+)", r"dim = -\1", stage_sections("4, 8")),
         "error: [stage.1] at line 3: dim -16 must be at least 1"),
        (("train-toy",), stage_sections("4, 8"), "error: explicit stages require input_size"),
        (("count",), "seed 3", "error: line 2: expected 'key = value'"),
        (("emit-config",), "[stage.x]\ndim = 4", "error: line 2: bad stage number in 'stage.x'"),
        (("train-toy", "--size", "64", "96"), None,
         "error: input 64x96 must be square: the synthetic dataset draws square images"),
        (("train-toy", "--bias", "ape", "--size", "64", "96"), None,
         "error: input 64x96 must be square: the synthetic dataset draws square images"),
        (("count", "--variant", "small", "--attn", "pvt-like", "--bias", "rpb"), None,
         "error: bias = rpb does not apply: pvt-like attention takes no position bias"),
        (("forward", "--attn", "pvt-like"), "bias = dpb-res",
         "error: bias = dpb-res does not apply: pvt-like attention takes no position bias"),
    ], ids=["seed", "count-classes", "forward-classes", "zero-classes", "dtype", "steps", "batch",
            "samples", "lr", "weight-decay", "drop-path", "tol-nan", "tol-negative", "stage-heads",
            "stage-blocks", "stage-zero-heads", "stage-negative-heads", "stage-zero-dims",
            "stage-negative-dims", "stages-without-input-size", "line-without-equals", "stage-number",
            "non-square-toy", "non-square-toy-ape", "pvt-like-rpb", "pvt-like-dpb-res"])
    def test_bad_run_setting_is_2(self, capsys, tmp_path, argv, config, line):
        if config is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(f"variant = toy\n{config}\n")
            argv += ("--config", str(path))
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refuses the flag
            code = exc.code
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.splitlines()[-1] == line
        assert "Traceback" not in out.err

    def test_out_of_memory_is_2(self, capsys, monkeypatch):
        def refuse(model, images):
            raise MemoryError("Unable to allocate 8.94 TiB for an array with shape (100000000, 64, 64, 3)")

        monkeypatch.setattr(xfmr.cli, "model_forward", refuse)
        code, out, err = run(capsys, "forward", "--variant", "toy")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: Unable to allocate 8.94 TiB for an array with shape (100000000, 64, 64, 3)"]

    def test_diverging_training_is_1_with_one_stderr_line(self, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("variant = toy\nclasses = 4\nlr = 1000000.0\n")
        proc = run_module("train-toy", "--config", str(cfg))
        assert proc.returncode == 1
        assert [line.split()[:2] for line in proc.stdout.splitlines()] == [["step", "1"]]
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("training aborted: loss became non-finite at step 2 "
                                   "(first floating-point warning: ")

    @pytest.mark.parametrize("command", ["emit-config", "count"])
    @pytest.mark.parametrize("line, allowed", [
        ("variant = smol", "tiny, small, base, large, t, s, b, l or toy"),
        ("variant = TOY", "tiny, small, base, large, t, s, b, l or toy"),
        ("task = segmentation", "classification or dense"),
        ("bias = nope", "ape, rpb, dpb or dpb-res"),
        ("attention = full", "lsda, sda-only or pvt-like"),
        ("cel = three", "cross, two or single"),
    ], ids=["variant", "variant-case", "task", "bias", "attention", "cel"])
    def test_unknown_choice_in_config_is_2(self, capsys, tmp_path, command, line, allowed):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{line}\n")
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {line} must be {allowed}"]

    def test_emit_config_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "emit-config", "--variant", "small", "--bias", "rpb")
        assert code == 0
        from xfmr import parse_config

        cfg = parse_config(out)
        assert cfg.variant == "small" and cfg.bias == "rpb"


class TestEmitConfig:
    @pytest.mark.parametrize("argv, field, value", [
        (("--variant", "small"), "variant", "small"),
        (("--task", "dense"), "task", "dense"),
        (("--bias", "rpb"), "bias", "rpb"),
        (("--attn", "sda-only"), "attention", "sda-only"),
        (("--cel", "two"), "cel", "two"),
        (("--seed", "7"), "seed", 7),
        (("--size", "192", "256"), "input_size", (192, 256)),
    ], ids=["variant", "task", "bias", "attn", "cel", "seed", "size"])
    def test_each_config_flag_sets_its_field(self, capsys, argv, field, value):
        from xfmr import RunConfig, parse_config

        code, out, _ = run(capsys, "emit-config", *argv)
        assert code == 0
        assert parse_config(out) == RunConfig(**{field: value})

    def test_emit_config_subprocess_output_parses_back(self):
        from xfmr import RunConfig, parse_config

        done = run_module("emit-config", "--attn", "sda-only", "--size", "192", "256")
        assert done.returncode == 0, done.stderr
        assert parse_config(done.stdout) == RunConfig(attention="sda-only", input_size=(192, 256))

import pytest

from xfmr import CelSpec, ConfigError, RunConfig, StageSpec, emit_config, parse_config, to_model_spec


def test_emit_parse_roundtrip_default():
    cfg = RunConfig()
    assert parse_config(emit_config(cfg)) == cfg


def test_emit_parse_roundtrip_custom():
    cfg = RunConfig(
        variant="small",
        task="dense",
        bias="rpb",
        attention="sda-only",
        cel="two",
        input_size=(192, 256),
        classes=21,
        seed=9,
        dtype="f64",
        steps=77,
        batch=8,
        samples=24,
        lr=0.0025,
        weight_decay=0.01,
        warmup=10,
        drop_path=0.15,
    )
    assert parse_config(emit_config(cfg)) == cfg


def test_roundtrip_with_stage_sections():
    stages = tuple(
        StageSpec(cel=CelSpec((4, 8) if i == 0 else (2, 4), 4 if i == 0 else 2, 16 * 2 ** i),
                  dim=16 * 2 ** i, heads=2 ** i, group_size=2, interval=2, blocks=1)
        for i in range(4)
    )
    cfg = RunConfig(stages=stages, input_size=(64, 64), classes=4)
    text = emit_config(cfg)
    assert "[stage.1]" in text and "kernels = 4, 8" in text
    assert parse_config(text) == cfg
    spec = to_model_spec(cfg)
    assert [s.dim for s in spec.stages] == [16, 32, 64, 128]


def test_comments_and_blank_lines():
    cfg = parse_config("# hello\nvariant = small\n\nseed = 3 # trailing\n")
    assert cfg.variant == "small" and cfg.seed == 3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("momentum = 0.9\n")


def test_bad_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("[optimizer]\nlr = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[stage.7]\ndim = 4\n")


def test_partial_stage_sections_rejected():
    with pytest.raises(ConfigError, match="stages 1..4"):
        parse_config("[stage.1]\nkernels = 4\nstride = 4\ndim = 16\nheads = 1\ngroup = 2\ninterval = 2\nblocks = 1\n")


def test_missing_stage_key_rejected():
    text = "\n".join(
        f"[stage.{n}]\nkernels = 2\nstride = 2\ndim = {8 * 2 ** n}\nheads = 1\ngroup = 2\ninterval = 1"
        for n in (1, 2, 3, 4)
    )
    with pytest.raises(ConfigError, match="missing keys"):
        parse_config(text)


def test_invalid_stage_section_rejected_at_parse():
    text = "input_size = 64 64\n" + "".join(
        f"[stage.{n}]\nkernels = 2\nstride = {4 if n == 1 else 2}\ndim = {8 * 2 ** n}\n"
        f"heads = 1\ngroup = 2\ninterval = 1\nblocks = 1\n"
        for n in (1, 2, 3, 4))
    with pytest.raises(ConfigError, match="kernel 2 smaller than stride 4"):
        parse_config(text)


@pytest.mark.parametrize("fields, what", [
    ({"variant": "small"}, "variant = small"),
    ({"task": "dense"}, "task = dense"),
    ({"cel": "two"}, "cel = two"),
], ids=["variant", "task", "cel"])
def test_stage_sections_refuse_fields_they_replace(fields, what):
    stages = to_model_spec(RunConfig(variant="toy")).stages
    with pytest.raises(ConfigError, match=f"{what} does not apply"):
        to_model_spec(RunConfig(stages=stages, input_size=(64, 64), **fields))


def test_to_model_spec_variant_overrides():
    cfg = RunConfig(variant="small", bias="ape", attention="sda-only", cel="single",
                    input_size=(224, 224), drop_path=0.05)
    spec = to_model_spec(cfg)
    assert spec.bias_kind == "ape"
    assert spec.attention_mode == "sda-only"
    assert spec.stages[0].cel.kernel_sizes == (4,)
    assert spec.drop_path_max == 0.05


def test_toy_spec_from_config():
    spec = to_model_spec(RunConfig(variant="toy", classes=4))
    assert spec.input_size == (64, 64)
    assert spec.classes == 4


def test_reference_hyperparameter_defaults():
    cfg = RunConfig()
    assert cfg.lr == 1e-3
    assert cfg.weight_decay == 0.05

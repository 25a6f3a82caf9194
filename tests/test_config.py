from dataclasses import fields, replace

import pytest

from xfmr import CelSpec, ConfigError, RunConfig, StageSpec, emit_config, parse_config, to_model_spec
from xfmr.checkpoint import read_checkpoint
from xfmr.config import TOY_TRAINING


FOUR_STAGES = tuple(
    StageSpec(cel=CelSpec((4, 8) if i == 0 else (2, 4), 4 if i == 0 else 2, 16 * 2 ** i),
              heads=2 ** i, group_size=2, interval=2 if i < 2 else 1, blocks=1 + i % 2)
    for i in range(4)
)

DEFAULT_TEXT = """\
variant = toy
task = classification
bias = dpb
attention = lsda
cel = cross
seed = 0
dtype = f32
steps = 500
batch = 32
samples = 32
lr = 0.001
weight_decay = 0.05
warmup = 0
drop_path = auto
"""


def test_emit_parse_roundtrip_default():
    cfg = RunConfig()
    assert emit_config(cfg) == DEFAULT_TEXT
    assert parse_config(DEFAULT_TEXT) == cfg


@pytest.mark.parametrize("size", [(0, 0), (0, -5), (64, 0), (-224, -224)])
def test_input_size_below_one_is_refused(size):
    with pytest.raises(ConfigError) as exc:
        RunConfig(input_size=size)
    assert str(exc.value) == f"input {size[0]}x{size[1]} must be at least 1x1"


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
    cfg = RunConfig(stages=FOUR_STAGES, input_size=(96, 128), classes=4, drop_path=0.15)
    stage = ("[stage.{n}]\nkernels = {k}\nstride = {s}\ndim = {d}\nheads = {h}\ngroup = 2\n"
             "interval = {i}\nblocks = {b}\n")
    expected = (DEFAULT_TEXT.replace("cel = cross\n", "cel = cross\ninput_size = 96 128\nclasses = 4\n")
                .replace("drop_path = auto\n", "drop_path = 0.15\n")
                + stage.format(n=1, k="4, 8", s=4, d=16, h=1, i=2, b=1)
                + stage.format(n=2, k="2, 4", s=2, d=32, h=2, i=2, b=2)
                + stage.format(n=3, k="2, 4", s=2, d=64, h=4, i=1, b=1)
                + stage.format(n=4, k="2, 4", s=2, d=128, h=8, i=1, b=2))
    assert emit_config(cfg) == expected
    assert parse_config(expected) == cfg
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


def test_config_text_train_toy_records(toy_training_run):
    """`train-toy --seed 0 --steps 500` on the toy recipe stores exactly this text."""
    text = DEFAULT_TEXT.replace("cel = cross\n", "cel = cross\nclasses = 4\n")
    text = text.replace("lr = 0.001\nweight_decay = 0.05\nwarmup = 0\ndrop_path = auto\n",
                        "lr = 0.01\nweight_decay = 0.01\nwarmup = 20\ndrop_path = 0.0\n")
    assert emit_config(replace(RunConfig(), **TOY_TRAINING)) == text
    assert read_checkpoint(toy_training_run[2])[1] == text


# one value unlike the default for every RunConfig field; a new field must be
# added here, and then the emitter and the parser must carry it
NON_DEFAULT = {
    "variant": "small", "task": "dense", "bias": "rpb", "attention": "sda-only", "cel": "two",
    "input_size": (192, 256), "classes": 21, "seed": 9, "dtype": "f64", "steps": 77, "batch": 8,
    "samples": 24, "lr": 0.1 + 0.2, "weight_decay": 1e-300, "warmup": 10, "drop_path": 0.15,
    "stages": FOUR_STAGES,
}


def test_every_set_field_is_written_once_in_field_order():
    names = [f.name for f in fields(RunConfig)]
    assert sorted(NON_DEFAULT) == sorted(names)
    cfg = RunConfig(**NON_DEFAULT)
    text = emit_config(cfg)
    top = text.split("[stage.", 1)[0]
    assert [line.split(" = ", 1)[0] for line in top.splitlines()] == [n for n in names if n != "stages"]
    assert text.count("[stage.") == 4
    assert parse_config(text) == cfg
    for name, value in NON_DEFAULT.items():
        one = replace(RunConfig(), **{name: value})
        assert parse_config(emit_config(one)) == one, name


STAGES_TEXT = "".join(
    f"[stage.{n}]\nkernels = 2\nstride = 2\ndim = {8 * 2 ** n}\nheads = 1\ngroup = 2\ninterval = 1\nblocks = 1\n"
    for n in (1, 2, 3, 4))


@pytest.mark.parametrize("text, lineno, key", [
    ("variant = toy\ninput_size = 64\n", 2, "input_size"),
    ("classes = four\n", 1, "classes"),
    ("seed = 1.5\n", 1, "seed"),
    ("# the rate\nlr = fast\n", 2, "lr"),
    ("input_size = 64 64\n" + STAGES_TEXT.replace("dim = 32", "dim = x"), 13, "dim"),
    ("input_size = 64 64\n" + STAGES_TEXT.replace("blocks = 1\n[stage.3]", "width = 4\n[stage.3]"), 17,
     "width"),
], ids=["input-size", "classes", "seed", "lr", "stage-dim", "unknown-stage-key"])
def test_malformed_line_is_one_error_naming_line_and_key(text, lineno, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    message = str(exc.value)
    assert "\n" not in message
    assert message.startswith(f"line {lineno}: ") and key in message


@pytest.mark.parametrize("text, message", [
    ("variant = tiny\nseed = 1\nvariant = small\n", "line 3: repeated key 'variant'"),
    ("input_size = 64 64\n" + STAGES_TEXT.replace("heads = 1\n", "heads = 1\nheads = 2\n", 1),
     "line 7: repeated stage key 'heads'"),
    ("input_size = 64 64\n" + STAGES_TEXT + "[stage.1]\nheads = 2\n",
     "line 34: repeated section [stage.1]"),
], ids=["top-level-key", "stage-key", "section"])
def test_repeated_key_or_section_is_refused(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == message


def test_stage_spec_error_names_its_section_and_line():
    text = "input_size = 64 64\n" + STAGES_TEXT.replace("[stage.2]\nkernels = 2\n", "[stage.2]\nkernels =\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == "[stage.2] at line 10: need at least one kernel"


def test_stage_dims_that_do_not_double_are_refused_at_parse():
    text = "input_size = 64 64\n" + STAGES_TEXT.replace("dim = 32\n", "dim = 48\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == "[stage.2] at line 10: dim 48 must double the previous stage's dim 16"


def test_kernels_are_emitted_in_ascending_order():
    text = "input_size = 64 64\n" + STAGES_TEXT.replace("[stage.1]\nkernels = 2\n", "[stage.1]\nkernels = 4, 2\n")
    cfg = parse_config(text)
    assert cfg.stages[0].cel.kernel_sizes == (2, 4)
    assert "[stage.1]\nkernels = 2, 4\n" in emit_config(cfg)


@pytest.mark.parametrize("variant", ["toy", "tiny", "Tiny", "T", "large", "l"])
def test_variant_names_and_aliases_accepted(variant):
    """`RunConfig` takes exactly the variants `to_model_spec` can build."""
    assert len(to_model_spec(RunConfig(variant=variant)).stages) == 4

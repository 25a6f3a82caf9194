"""Command-line surface: architecture listings, cost accounting,
verification and toy training.

Exit codes: 0 success, 1 a check failed, 2 usage or configuration error.
A closed standard output (``xfmr ... | head -1``) stops the command quietly
with exit code 1, as Python's own exit on a broken pipe; files it wrote stay.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .analysis import check_against_targets, count_flops, count_params
from .bias import BIAS_KINDS, DYNAMIC_BIAS_KINDS, BiasRangeError, bake_to_table
from .checkpoint import CheckpointError, load_model, save_checkpoint
from .config import DTYPES, TOY_TRAINING, RunConfig, emit_config, load_config, to_model_spec
from .embed import ConfigError
from .gradcheck import GradCheckError, grad_check
from .model import (ATTENTION_MODES, CEL_KERNELS, TASKS, VARIANT_CHOICES, VARIANT_NAMES, build_model,
                    build_variant, model_forward, toy_spec)
from .tensor import ShapeError, Tensor, cross_entropy
from .train import DivergenceError, train_toy

USAGE_ERROR, CHECK_FAILED, OK = 2, 1, 0

GRADCHECK_PARAM_LIMIT = 2_000_000


# the RunConfig fields that flags set; each flag's dest is its field
_FLAG_FIELDS = ("variant", "task", "bias", "attention", "cel", "seed", "input_size", "steps")


def _flag_updates(args) -> dict[str, object]:
    """RunConfig field -> value for every config flag given."""
    return {name: tuple(v) if isinstance(v, list) else v
            for name in _FLAG_FIELDS if (v := getattr(args, name, None)) is not None}


def _config_from_args(args) -> RunConfig:
    """``--config`` (else the defaults) with the flags on top."""
    base = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    return replace(base, **_flag_updates(args))


def _stage_table(spec) -> str:
    lines = [f"{'stage':>5} {'grid':>10} {'kernels':>18} {'stride':>6} {'dim':>5} "
             f"{'heads':>5} {'G':>3} {'I':>3} {'blocks':>6}"]
    for i, (stage, grid) in enumerate(zip(spec.stages, spec.stage_grids()), 1):
        kernels = ",".join(str(k) for k in stage.cel.kernel_sizes)
        lines.append(
            f"{i:>5} {grid[0]:>4}x{grid[1]:<5} {kernels:>18} {stage.cel.stride:>6} "
            f"{stage.dim:>5} {stage.heads:>5} {stage.group_size:>3} {stage.interval:>3} {stage.blocks:>6}"
        )
    return "\n".join(lines)


def cmd_variants(args) -> int:
    for name in VARIANT_NAMES:
        for task in TASKS:
            spec = build_variant(name, task=task)
            print(f"== {name} ({task}), input {spec.input_size[0]}x{spec.input_size[1]} ==")
            print(_stage_table(spec))
            print()
    spec = toy_spec()
    print(f"== toy (testing), input {spec.input_size[0]}x{spec.input_size[1]} ==")
    print(_stage_table(spec))
    return OK


def cmd_count(args) -> int:
    cfg = _config_from_args(args)
    spec = to_model_spec(cfg)
    params = count_params(spec)
    macs = count_flops(spec)
    model = "stages from the config"
    if not cfg.stages:  # name the embedding-layer mode the stages use; the toy fixes its own
        kernels = (spec.stages[0].cel.kernel_sizes, spec.stages[1].cel.kernel_sizes)
        cel = next(mode for mode, sets in CEL_KERNELS.items() if sets == kernels)
        model = f"variant={cfg.variant} cel={cel}"
    print(f"configuration: {model} bias={cfg.bias} attn={cfg.attention} "
          f"input={spec.input_size[0]}x{spec.input_size[1]}")
    print("\nparameters")
    print(params.table_text())
    print("\nmultiply-accumulates (single image)")
    print(macs.table_text())
    print(f"\ntotals: {params.total / 1e6:.4f}M params, {macs.total / 1e9:.4f}G MACs")
    if args.csv:
        print("\n" + params.table_csv())
        print("\n" + macs.table_csv())
    checks = check_against_targets(spec)
    failed = False
    if checks:
        print("\nreference budgets")
        for check in checks:
            print(check.line())
            failed |= not check.passed
    return CHECK_FAILED if failed else OK


def cmd_forward(args) -> int:
    cfg = _config_from_args(args)
    spec = to_model_spec(cfg)
    dtype = DTYPES[cfg.dtype]
    model = build_model(spec, seed=cfg.seed, dtype=dtype)
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((args.batch, *spec.input_size, 3)).astype(dtype)
    start = time.perf_counter()
    logits = model_forward(model, x)
    elapsed = time.perf_counter() - start
    print(f"forward: input {tuple(x.shape)} -> logits {tuple(logits.shape)} in {elapsed:.3f}s")
    print(f"logit mean {logits.data.mean():+.4f}  std {logits.data.std():.4f}  "
          f"argmax {logits.data.argmax(axis=1).tolist()}")
    return OK


def cmd_gradcheck(args) -> int:
    cfg = _config_from_args(args)
    spec = to_model_spec(cfg)
    n_params = count_params(spec).total
    if n_params > GRADCHECK_PARAM_LIMIT:
        print(f"refusing gradcheck on {n_params / 1e6:.1f}M parameters "
              f"(limit {GRADCHECK_PARAM_LIMIT / 1e6:.1f}M); use a toy-scale config", file=sys.stderr)
        return USAGE_ERROR
    model = build_model(spec, seed=cfg.seed, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    # check at a generic parameter point: with zero-initialized biases the
    # position-bias MLP sits exactly on relu kinks for the (0,0) offset
    for p in model.parameters():
        p.data = p.data + rng.normal(0.0, 0.02, p.data.shape)
    images = Tensor(rng.standard_normal((2, *spec.input_size, 3)) * 0.5)
    labels = rng.integers(0, spec.classes, 2)
    train_rng = np.random.default_rng(cfg.seed)

    def loss() -> Tensor:
        return cross_entropy(model(images, train=False, rng=train_rng), labels)

    report = grad_check(
        loss,
        list(model.named_parameters()),
        tol=args.tol,
        max_entries_per_tensor=args.entries_per_tensor,
        rng=np.random.default_rng(cfg.seed),
    )
    print(report.summary())
    worst_groups = sorted(report.per_tensor.items(), key=lambda kv: kv[1], reverse=True)[:5]
    print("worst parameter groups:")
    for name, err in worst_groups:
        print(f"  {name}: {err:.3e}")
    return OK if report.passed else CHECK_FAILED


def cmd_train_toy(args) -> int:
    cfg = _config_from_args(args)
    if cfg.variant == "toy" and not getattr(args, "config", None):
        cfg = replace(cfg, **TOY_TRAINING)
    warned = io.StringIO()  # numpy's floating-point warnings, one line each
    try:
        with np.errstate(over="log", invalid="log", divide="log", call=warned):
            model, result = train_toy(cfg, log=print)
    except DivergenceError as exc:
        first = warned.getvalue().partition("\n")[0].removeprefix("Warning: ")
        seen = f" (first floating-point warning: {first})" if first else ""
        print(f"training aborted: {exc}{seen}", file=sys.stderr)
        return CHECK_FAILED
    ok = result.reached_full_accuracy_at is not None
    print(f"finished after {result.steps_run} steps, final accuracy {result.final_accuracy:.3f}"
          + (f" (100% at step {result.reached_full_accuracy_at})" if ok else ""))
    if args.out:
        save_checkpoint(args.out, {name: p.data for name, p in model.named_parameters()}, config=cfg)
        print(f"checkpoint written to {args.out}")
    return OK if ok else CHECK_FAILED


def cmd_bake_dpb(args) -> int:
    model, cfg = load_model(args.checkpoint)
    if cfg.bias not in DYNAMIC_BIAS_KINDS or cfg.attention == "pvt-like":
        print("bake-dpb requires a dynamic-position-bias configuration", file=sys.stderr)
        return USAGE_ERROR

    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((1, *model.spec.input_size, 3)).astype(np.float32)
    live = model_forward(model, x).data

    for blocks in model.stages:
        for block in blocks:
            block.attn.bias = bake_to_table(block.attn.bias, *block.layout.slots)
    frozen = model_forward(model, x).data
    diff = float(np.abs(live - frozen).max())
    # saved before anything is printed, so that a closed stdout cannot stop it
    save_checkpoint(args.out, {name: p.data for name, p in model.named_parameters()},
                    config=replace(cfg, bias="rpb"))
    print(f"forward diff between dynamic and baked bias: {diff:.3e}")
    print(f"baked checkpoint written to {args.out}")
    return OK if diff <= 1e-6 else CHECK_FAILED


def _positive(cast, what: str):
    """argparse type of the count flags and ``--tol``: ``cast(text)``, finite and above 0."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"{text} is not a positive {what}")
        return value

    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=VARIANT_CHOICES)
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--bias", choices=BIAS_KINDS)
    p.add_argument("--attn", choices=ATTENTION_MODES, dest="attention")
    p.add_argument("--cel", choices=tuple(CEL_KERNELS))
    p.add_argument("--seed", type=int)
    p.add_argument("--size", type=int, nargs=2, metavar=("H", "W"), dest="input_size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xfmr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("variants", help="list built-in model variants").set_defaults(fn=cmd_variants)

    p = sub.add_parser("count", help="parameter and MAC accounting")
    _add_common(p)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("forward", help="run one inference forward pass")
    _add_common(p)
    p.add_argument("--batch", type=_positive(int, "count"), default=1)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model loss")
    _add_common(p)
    p.add_argument("--tol", type=_positive(float, "finite number"), default=1e-4)
    p.add_argument("--entries-per-tensor", type=_positive(int, "count"), default=4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="overfit the synthetic dataset")
    _add_common(p)
    p.add_argument("--steps", type=_positive(int, "count"))
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_train_toy)

    text = ("freeze dynamic position bias into fixed tables; the model comes from the checkpoint's "
            "stored config, and the output is a checkpoint of that config with bias = rpb")
    p = sub.add_parser("bake-dpb", help=text, description=text)
    p.add_argument("checkpoint", metavar="CHECKPOINT")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(fn=cmd_bake_dpb)

    p = sub.add_parser("emit-config", help="print the canonical config for the given flags")
    _add_common(p)
    p.set_defaults(fn=lambda args: (print(emit_config(_config_from_args(args)), end=""), OK)[1])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader is gone: say nothing more, and point stdout at devnull so
        # that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CHECK_FAILED
    except (ConfigError, CheckpointError, BiasRangeError, GradCheckError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

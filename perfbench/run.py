"""Benchmark of the xfmr package, end to end or traced per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer-live-b1 --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): infer-live-b1, infer-baked-b2, train-toy-b32;
``--workload all`` runs the three in turn and exits non-zero if any failed.
With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced calls and
reports the per-module metrics. Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Each run also writes its raw
samples, environment and (traced) spans to perfbench/out/. The exit code is
1 when an output check failed, 2 when the program is missing or the
arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_SAMPLES = 40  # untraced samples per run at least, so the tail has ten beyond p75
# Every workload runs on one BLAS thread, whatever the caller's environment.
# On a 2-vCPU host the toy step ran faster and steadier on one thread (p50 178
# vs 194 ms), and inference on two slowed by up to a quarter whenever the
# other vCPU was busy (four ten-seed sets of baked b=8 read 1932-2456 ms).
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="least length of the timed phase, which also runs at least MIN_SAMPLES calls or steps")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = read_text(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = read_text(ROOT / ".git" / ref)
    if sha is None:
        for line in (read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def os_threads() -> int | None:
    for line in (read_text(Path("/proc/self/status")) or "").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def environment(loadavg: str | None) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "loadavg_start": loadavg,
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest order statistic with
    at least ten samples above it, or the lowest when there are fewer."""
    ordered = sorted(samples)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


@dataclass
class Phase:
    plain: list = field(default_factory=list)  # untraced samples, ms
    traced: list = field(default_factory=list)  # traced samples, ms
    attempted: int = 0
    failed: int = 0
    plain_items: int = 0  # images or training samples done in untraced units
    plain_s: float = 0.0  # wall time of the untraced units


def timed_phase(workload, seconds: float, tracer) -> Phase:
    """Run rounds until ``seconds`` have passed (or the next round would pass
    them) and MIN_SAMPLES untraced samples are in: one untraced unit per
    round, then a traced one when ``tracer`` is given."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for active in ((None, tracer) if tracer else (None,)):
            unit_start = time.perf_counter()
            results = workload.run_unit(active)
            if not active:
                phase.plain_s += time.perf_counter() - unit_start
                phase.plain_items += workload.batch * sum(ok for _, ok in results)
            for elapsed, ok in results:
                phase.attempted += 1
                phase.failed += not ok
                if elapsed is not None:
                    (phase.traced if active else phase.plain).append(elapsed / 1e6)
        now = time.perf_counter()
        enough = len(phase.plain) >= MIN_SAMPLES or phase.failed  # a failing run stops on time
        if now - start + (now - round_start) > seconds and enough:
            return phase


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "xfmr" / "__init__.py").is_file():
        print(f"perfbench: no xfmr package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        # one process per workload, so each has its own peak memory
        return max(subprocess.run([sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                                   "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]).returncode
                   for w in spec["workloads"])
    loadavg = read_text(Path("/proc/loadavg"))
    for name in BLAS_ENV:  # before numpy loads
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    from workloads import BAKE_TOLERANCE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ckpt = out_dir / f"{stem}-{os.getpid()}.ckpt"
    try:
        subprocess.run([sys.executable, str(HERE / "write_inputs.py"), args.workload,
                        str(args.seed), str(ckpt)], check=True, timeout=170)
        setup_s, setups = [], []
        for _ in range(SETUPS):
            start = time.perf_counter()
            setups.append(workload.setup(args.seed, ckpt))
            setup_s.append(time.perf_counter() - start)
    finally:
        ckpt.unlink(missing_ok=True)
    gate = workload.gate()

    tracer = tracing.Tracer() if args.trace else None
    phase = timed_phase(workload, args.seconds, tracer)
    plain, traced, attempted, failed = phase.plain, phase.traced, phase.attempted, phase.failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    macs_ok = all(s.executed_macs == s.analytic_macs for s in setups)
    gate_ok = gate is None or gate <= BAKE_TOLERANCE
    correct = macs_ok and gate_ok and failed == 0 and bool(plain)
    tail_ms, tail_pct, tail_beyond = tail(plain) if plain else (0.0, 0.0, 0)
    figures = {
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": statistics.median(plain) if plain else 0.0,
        "latency_tail_ms": tail_ms,
        "items_per_s": phase.plain_items / phase.plain_s,
        "peak_rss_mb": peak_rss_mb,
        "failed_share": failed / attempted,
        "checkpoint.load_ms": 1e3 * statistics.median(s.load_s for s in setups),
        "analysis.mac_ratio": setups[-1].executed_macs / setups[-1].analytic_macs,
        **workload.report(),
    }
    if tracer:
        figures.update(tracing.median_figures(tracer.units))
        figures["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("  " + next(w["why"] for w in spec["workloads"] if w["name"] == args.workload))
    for name, value in figures.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{tail_pct:.1f} of {len(plain)} samples, {tail_beyond} beyond)"
        elif name == "failed_share":
            note = f"  ({failed} of {attempted})"
        elif name == "analysis.mac_ratio":
            note = f"  (executed {setups[-1].executed_macs:,} / analytic {setups[-1].analytic_macs:,})"
        unit = units.get(name, "ms" if name.endswith("ms") else "")
        print(f"  {name:<28}{value:>16.6g} {unit}{note}")
    if gate is not None:
        print(f"  bake gate: max |live - baked| logit = {gate:.3e} (limit {BAKE_TOLERANCE:g})")
    if tracer:
        print(tracing.module_table(tracer.units))

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": {**environment(loadavg), "os_threads": os_threads()},
        "checks": {"bake_gate_max_abs": gate,
                   "macs": [{"executed": s.executed_macs, "analytic": s.analytic_macs} for s in setups],
                   "attempted": attempted, "failed": failed},
        "figures": figures,
        "latency_tail": {"percentile": tail_pct, "samples": len(plain), "beyond": tail_beyond},
        "samples": {"setup_s": setup_s, "load_s": [s.load_s for s in setups],
                    "call_ms": plain, "traced_call_ms": traced},
        "units": tracer.units if tracer else [],
    }
    out_file = out_dir / f"{stem}.json"
    out_file.write_text(json.dumps(result))
    print(f"  results and samples written to {out_file.relative_to(ROOT)}")
    if not correct:
        print("  OUTPUT CHECK FAILED", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Write a workload's generated weights to a checkpoint file.

Run as a child of run.py, so the memory of writing the file does not count in
the workload's peak resident memory:
    python3 perfbench/write_inputs.py <workload> <seed> <path>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402
from xfmr import build_model, save_checkpoint  # noqa: E402

if __name__ == "__main__":
    name, seed, path = sys.argv[1:]
    model = build_model(WORKLOADS[name].spec, seed=int(seed))
    save_checkpoint(path, {n: p.data for n, p in model.named_parameters()})

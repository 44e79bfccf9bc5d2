"""midasll1 benchmark: time to target, µs/iter, set-up time and peak RSS.

    python3 perfbench/run.py --workload mid_saga --seed 0 --seconds 60 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
One run is one fresh measuring process (measure.py) with BLAS pinned to one
thread, solving one instance at a time (closed loop, one client). The number
of instances follows from the workload and `--seconds` alone, never from host
speed, so every run of a seed solves the same instances. This process
generates them from `--seed` and writes each to a `.dten` file before the
measuring process starts, and deletes the files afterwards.

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1` (see BENCHMARK.json and perfbench/NOTES.md).
"""

from __future__ import annotations

import workloads

workloads.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / "_work"  # instance files, removed at the end of each run
SPANS_ROOT = HERE / "_spans"  # spans of the last traced solve per workload
BENCHMARK = workloads.CHECKOUT / "BENCHMARK.json"
TIME_LIMIT_S = 170.0  # a run, generation included, must end within this
# the initial relative residual must exceed the target by this factor
GUARD_FACTOR = 5.0


def metric_units(kind: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def write_instances(w: workloads.Workload, seed: int, count: int, work: Path) -> list[dict]:
    """Instances 0..count-1 of `seed`: a `.dten` file and config files for each."""
    from midasll1 import model, synth, tensorfile

    instances = []
    for index in range(count):
        inst_seed, solver_seed = workloads.derive_seeds(seed, index)
        tensor, _ = synth.generate(w.dims, model.RankVector(w.ranks), w.snr_db, inst_seed)
        norm = tensor.norm()

        # guard: the solver must start far from the planted truth
        start_cfg = w.solver_config(w.config_text(solver_seed, epochs=0))
        factors, _ = w.solver_entry()(start_cfg, tensor)
        f0 = model.objective(factors, tensor, start_cfg.reg).f
        rel0 = math.sqrt(2 * tensor.size * f0) / norm
        if not rel0 > GUARD_FACTOR * w.target:
            raise SystemExit(
                f"benchmark: seed {seed}, instance {index}: initial rel. residual "
                f"{rel0:.3g} is not above {GUARD_FACTOR} x target {w.target}"
            )

        base = work / f"x{index}"
        inst = {"tensor": f"{base}.dten", "norm": norm}
        tensorfile.write_tensor(inst["tensor"], tensor)
        # full solve; set-up only (no epochs); 2-epoch prefix for the repeat check
        for kind, epochs in (("full", None), ("setup", 0), ("prefix", 2)):
            inst[kind] = f"{base}.{kind}.cfg"
            Path(inst[kind]).write_text(w.config_text(solver_seed, epochs))
        instances.append(inst)
    return instances


def measure(w: workloads.Workload, seed: int, seconds: float, trace: int) -> dict:
    t_start = time.perf_counter()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    try:
        manifest = work / "instances.json"
        instances = write_instances(w, seed, w.instance_count(seconds, bool(trace)), work)
        manifest.write_text(json.dumps(instances))
        budget = TIME_LIMIT_S - (time.perf_counter() - t_start)
        cmd = [sys.executable, str(HERE / "measure.py"), "--workload", w.name,
               "--instances", str(manifest), "--budget", f"{budget:.1f}", "--trace", str(trace)]
        if trace:
            SPANS_ROOT.mkdir(exist_ok=True)
            cmd += ["--spans-out", str(SPANS_ROOT / f"{w.name}.npz")]
        env = dict(os.environ)
        workloads.pin_threads(env)
        try:
            # on timeout the measuring process is killed and waited for
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=budget + 5)
        except subprocess.TimeoutExpired:
            raise SystemExit("benchmark: measuring process did not finish in time") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark: measuring process exited with {proc.returncode} and no result")
    return json.loads(lines[-1])["result"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    workloads.load_midasll1()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    w = workloads.WORKLOADS[args.workload]
    res = measure(w, args.seed, args.seconds, args.trace)

    print("machine: " + json.dumps(res["machine"]))
    print(f"workload {w.name}: seed {args.seed}, {res['solves']} solves, target {w.target}")
    if res["kernel_s"] is not None:
        print(f"reference kernel: median {1e3 * res['kernel_s']:.2f} ms over {res['kernel_runs']} runs")
    for err in res["errors"]:
        print(f"FAILED {err}")
    measured = res["metrics"]
    metrics = {name: {"value": measured.get(name), "unit": unit} for name, unit in units.items()}
    unmeasured = [name for name, m in metrics.items() if m["value"] is None]
    if unmeasured:
        print(f"FAILED not measured: {', '.join(unmeasured)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": res["correct"] and not unmeasured,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

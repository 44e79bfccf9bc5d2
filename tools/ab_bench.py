"""Alternating A/B runs of the repo benchmark on two checkouts.

    python tools/ab_bench.py --parent ../base --change . --workloads mid_palm,mid_saga \
        --seeds 2501-2512 --out BENCH_name.json [--control ../base-copy]

For each workload and seed it runs `python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0` once in each checkout, each from its own
root, one run at a time, with T the `run_seconds` of this checkout's
BENCHMARK.json.  Which side runs first alternates from seed to seed, so a
drift in host speed falls on both sides alike.

It prints every run, then per end-to-end metric each side's median and
quartiles, the change's wins (ties count for neither side) beside the
minimum, quartiles and maximum of the per-pair ratios change / parent, the
relative change of the median and the parent's interquartile range, and
writes all of it as JSON to `--out`.  The ratios show how far a claim sits
from the nine-in-ten rule below.  A metric's claim rule holds when at least ten
pairs have both runs correct, the change wins at least nine pairs in ten,
its median is better than the parent's by more than the parent's
interquartile range, and its share of failed operations over those pairs
is no larger than the parent's; its bound holds when the
change's median is no worse than the parent's by more than the bound that
BENCHMARK.json fixes for it.

`--control DIR` names a byte-identical copy of the parent, run as a third
side: the order is parent, change, control and its reverse from seed to
seed.  Beside each of the change's lines the tool prints the control's
quartiles, wins and ratios against the parent, summarized by the same rules
(written to `--out` as `control_summary`).  It is an A/A check of the
harness: a control that "wins" by the claim rule shows how far the host's
drift alone can move a metric.  The claim is the change's alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """`a-b` (inclusive) or a comma list of seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def revision(checkout: Path) -> str | None:
    """The checkout's short commit id, with `-dirty` for uncommitted edits to
    tracked files; None outside a git checkout."""
    try:
        rev = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain", "-uno"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return rev + ("-dirty" if dirty else "")


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the checkout's benchmark: its final JSON line, plus the
    `machine:` line it prints.  A run that exits non-zero or prints no JSON
    is recorded as not correct, with its exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "returncode": proc.returncode, "metrics": {}}
    machine = next((json.loads(line[len("machine: "):]) for line in lines
                    if line.startswith("machine: ")), None)
    return {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "machine": machine,
    }


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], specs: list[dict], side: str = "change") -> dict:
    """Per end-to-end metric of `specs` (BENCHMARK.json's `end_to_end`
    entries), over the seeds where the parent's and `side`'s runs are
    correct: each side's quartiles, `side`'s wins, the relative change of
    the median, the parent's IQR, each side's share of failed operations and
    the two rules of the module docstring.  The entries name `side` as
    `change` whichever side it is."""
    by_seed: dict[int, dict[str, dict]] = {}
    for r in runs:
        if r["side"] in ("parent", side):
            by_seed.setdefault(r["seed"], {})["change" if r["side"] == side else "parent"] = r
    pairs = [p for p in by_seed.values()
             if all(s in p and p[s]["correct"] for s in SIDES)]
    fail_share = {s: sum(p[s]["failed"] for p in pairs) / max(1, sum(p[s]["attempted"] for p in pairs))
                  for s in SIDES}
    out = {}
    for spec in specs:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        vals = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        if not pairs or any(v is None for s in SIDES for v in vals[s]):
            out[name] = {"pairs": len(pairs), "measured": False}
            continue
        # how much lower (or, for a `higher` metric, higher) the change reads
        gains = [sign * (p - c) for p, c in zip(vals["parent"], vals["change"])]
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        qp, qc = quartiles(vals["parent"]), quartiles(vals["change"])
        ratios = [c / p for p, c in zip(vals["parent"], vals["change"]) if p]
        qr = quartiles(ratios) if ratios else (None,) * 3
        iqr = qp[2] - qp[0]
        gain = sign * (qp[1] - qc[1])
        out[name] = {
            "pairs": len(pairs),
            "measured": True,
            "parent": {"q1": qp[0], "median": qp[1], "q3": qp[2]},
            "change": {"q1": qc[0], "median": qc[1], "q3": qc[2]},
            "wins": wins,
            "losses": losses,
            # change / parent per pair (pairs whose parent reads 0 left out)
            "pair_ratio": {"min": min(ratios, default=None), "q1": qr[0], "median": qr[1],
                           "q3": qr[2], "max": max(ratios, default=None)},
            "median_rel_change": (qc[1] - qp[1]) / qp[1] if qp[1] else None,
            "parent_iqr": iqr,
            "failed_share": fail_share,
            "claim_rule_met": (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > iqr
                               and fail_share["change"] <= fail_share["parent"]),
            "within_bound": -gain <= spec["bound"] * abs(qp[1]),
        }
    return out


def _ratio_text(r: dict) -> str:
    """The per-pair ratios as `min [q1, median, q3] max`."""
    if r["min"] is None:
        return "undefined"
    return f"{r['min']:.3f} [{r['q1']:.3f}, {r['median']:.3f}, {r['q3']:.3f}] {r['max']:.3f}"


def summary_line(workload: str, name: str, s: dict, side: str = "change") -> str:
    """One metric's summary of `side` against the parent, as printed."""
    if not s["measured"]:
        return f"{workload} {name}: not measured on both sides of {s['pairs']} pairs"
    pq, cq = s["parent"], s["change"]
    rel = s["median_rel_change"]
    return (f"{workload} {name}: parent {pq['median']:.6g} [{pq['q1']:.6g}, {pq['q3']:.6g}]"
            f" -> {side} {cq['median']:.6g} [{cq['q1']:.6g}, {cq['q3']:.6g}]"
            + (f" ({100 * rel:+.1f} %)" if rel is not None else "")
            + f", {side} better in {s['wins']}/{s['pairs']} pairs (worse in {s['losses']};"
            f" {side}/parent {_ratio_text(s['pair_ratio'])}),"
            f" claim rule {'met' if s['claim_rule_met'] else 'not met'},"
            f" bound {'held' if s['within_bound'] else 'EXCEEDED'}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workloads", required=True, type=lambda v: v.split(","), help="a,b")
    p.add_argument("--seeds", required=True, type=parse_seeds, help="a-b or a,b,c")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--control", type=Path,
                   help="a byte-identical copy of the parent, run as a third side")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.control is not None:
        checkouts["control"] = args.control.resolve()
    sides = tuple(checkouts)

    results = {}
    for workload in args.workloads:
        runs = []
        for i, seed in enumerate(args.seeds):
            for order, side in enumerate(sides if i % 2 == 0 else sides[::-1]):
                r = {"seed": seed, "side": side, "order": order,
                     **bench_once(checkouts[side], workload, seed, seconds)}
                runs.append(r)
                shown = " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items() if v is not None)
                print(f"{workload} seed {seed} {side:6} correct={r['correct']} {shown}", flush=True)
        results[workload] = {
            "runs": runs,
            "incorrect_runs": {side: sum(r["side"] == side and not r["correct"] for r in runs)
                               for side in sides},
            "summary": summarize(runs, spec["end_to_end"]),
        }
        if "control" in checkouts:
            results[workload]["control_summary"] = summarize(runs, spec["end_to_end"], "control")

    for workload, res in results.items():
        for name, s in res["summary"].items():
            print(summary_line(workload, name, s))
            if "control_summary" in res:
                print(summary_line(workload, name, res["control_summary"][name], "control"))
    args.out.write_text(json.dumps({
        "seconds": seconds,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "revisions": {side: revision(path) for side, path in checkouts.items()},
        "workloads": results,
    }, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

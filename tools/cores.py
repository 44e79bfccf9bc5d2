"""Tier-1's kernel suites and the bitwise digest under several OpenBLAS cores.

    python tools/cores.py [--full] [checkout]

For each of SkylakeX, Haswell and Prescott it runs, in the checkout (this
one by default), `pytest -q tests/test_model.py tests/test_estimators.py`
and `tools/bitwise_digest.py --quick` (the whole matrix with `--full`),
each as a child process whose environment alone sets `OPENBLAS_CORETYPE`
to the core and `OPENBLAS_NUM_THREADS` to 1: the `blocked` group's digest
depends on the BLAS thread count too (it differs between 1 and 2 threads
under SkylakeX).  OpenBLAS reads both when it loads, so a core the host's
CPU cannot run fails in the child, not here.  (Prescott's kernels load
under the name Katmai.)

It prints, per core, the core that BLAS dispatched to (from the digest's
stderr), the tests' summary line and the digest's total and group lines.
The digests depend on the BLAS kernel, so a digest recorded for a change
names its core; run the tool at the parent and at the change and compare
the lines of each core.  Exits 1 when a child fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORES = ("SkylakeX", "Haswell", "Prescott")
SUITES = ("tests/test_model.py", "tests/test_estimators.py")


def child(checkout: Path, core: str, args: list[str]) -> subprocess.CompletedProcess:
    """`python args` in `checkout`, with OpenBLAS on `core` and one thread for it alone."""
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, text=True)


def on_core(checkout: Path, core: str, full: bool) -> tuple[bool, list[str]]:
    """Whether both children succeeded, and the lines to print for `core`."""
    tests = child(checkout, core, ["-m", "pytest", "-q", "-p", "no:cacheprovider", *SUITES])
    summary = (tests.stdout.strip().splitlines() or ["no output"])[-1]
    digest = child(checkout, core, ["tools/bitwise_digest.py", *([] if full else ["--quick"])])
    blas = digest.stderr.strip().splitlines()
    dispatched = blas[-1].rsplit(", core ", 1)[-1] if digest.returncode == 0 else "?"
    lines = [f"{core}: core {dispatched}, tests: {summary}"]
    if digest.returncode == 0:
        lines += [f"  total {line}" if " " not in line else f"  {line}"
                  for line in digest.stdout.split("\n") if line]
        lines.append(f"  {blas[0]}")
    else:
        lines.append(f"  digest failed with exit code {digest.returncode}")
    return tests.returncode == 0 and digest.returncode == 0, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", nargs="?", type=Path, default=ROOT,
                   help="the checkout to run in (default: this one)")
    p.add_argument("--full", action="store_true", help="the whole digest matrix, not --quick")
    args = p.parse_args(argv)
    ok = True
    for core in CORES:
        passed, lines = on_core(args.checkout.resolve(), core, args.full)
        ok = ok and passed
        print("\n".join(lines), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

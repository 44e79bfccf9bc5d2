"""`tools/bitwise_digest.py`, the check that a change keeps every output bit,
still runs and is deterministic within one process."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitwise_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bitwise_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_quick_digest_is_reproducible():
    tool = _load_tool()
    first, counts, groups = tool.digest(quick=True)
    assert tool.digest(quick=True) == (first, counts, groups)
    assert len(first) == 64 and counts["runs"] > 0 and counts["aborts"] > 0 and counts["cli"] > 0
    # one digest per (estimator, depth) of the quick matrix, per baseline and for the CLI
    assert list(groups) == [f"{est}/t{t}" for est in ("sgd", "saga", "sarah") for t in (0, 3)] + [
        "palm", "als-mu", "cli", "blocked", "inertia", "mixed"]
    assert all(len(g) == 64 for g in groups.values())
    assert len(set(groups.values())) == len(groups) and first not in groups.values()


def test_group_digest_moves_with_its_group_only():
    """Changing one group's input moves that group's digest and the total,
    and leaves every other group's digest as it was."""
    tool = _load_tool()
    a, b = tool.Digest(), tool.Digest()
    for d, value in ((a, 1.0), (b, 1.0 + 2.0**-52)):
        d.add("x", "label", 0.5)
        d.add("y", "label", value)
    assert a.groups["x"].hexdigest() == b.groups["x"].hexdigest()
    assert a.groups["y"].hexdigest() != b.groups["y"].hexdigest()
    assert a.h.hexdigest() != b.h.hexdigest()


def test_stderr_names_numpy_blas_and_core(capsys):
    """After the counts, stderr names numpy's version, its BLAS, OpenBLAS's
    thread count and core, and stdout holds only the digests."""
    tool = _load_tool()
    assert tool.main(["--quick"]) == 0
    out, err = capsys.readouterr()
    counts, blas = err.splitlines()
    assert counts.endswith(" cli")
    prefix = f"numpy {np.__version__}, BLAS "
    assert blas.startswith(prefix) and ", core " in blas and blas.split(", core ")[1]
    threads = blas.split(", threads ")[1].split(", core ")[0]
    assert threads == tool.openblas_threads() and (threads == "unknown" or int(threads) >= 1)
    assert "numpy" not in out and all(len(line.split()[-1]) == 64 for line in out.splitlines())


@pytest.mark.parametrize("caller", [None, "2"])
def test_blas_runs_one_thread_unless_the_caller_sets_a_count(caller):
    """Loaded in a fresh process, the tool sets the three thread variables
    to 1 before numpy loads, so OpenBLAS runs one thread; a count the
    caller's environment sets is kept and is the one OpenBLAS runs with."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    code = ("import importlib.util, os, sys\n"
            f"spec = importlib.util.spec_from_file_location('bitwise_digest', {str(TOOL)!r})\n"
            "tool = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tool)\n"
            "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'],"
            " os.environ['MKL_NUM_THREADS'])\n"
            "print(tool.openblas_threads())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    variables, threads = proc.stdout.splitlines()
    assert variables == ("1 1 1" if caller is None else f"1 {caller} 1")
    # OpenBLAS runs no more threads than the process may use cores
    assert threads in ("unknown", str(min(int(caller or 1), len(os.sched_getaffinity(0)))))


def test_core_is_unknown_without_the_symbol(monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool.ctypes, "CDLL", lambda path: object())
    assert tool.openblas_core() == "unknown"

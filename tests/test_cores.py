"""`tools/cores.py`: the core and one BLAS thread are set for each child
process alone, and each core's lines name the dispatched core, the tests'
summary and the digests (canned children; no test suite or digest is run)."""

import importlib.util
import os
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cores.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cores", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_core_and_one_thread_are_set_in_the_child_only():
    tool = _load_tool()
    names = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")
    before = [os.environ.get(name) for name in names]
    got = tool.child(TOOL.parents[1], "Prescott", [
        "-c", "import os; print(os.environ['OPENBLAS_CORETYPE'], os.environ['OPENBLAS_NUM_THREADS'])"])
    assert got.returncode == 0 and got.stdout.split() == ["Prescott", "1"]
    assert [os.environ.get(name) for name in names] == before


def test_lines_of_a_core(monkeypatch):
    tool = _load_tool()
    calls = []

    def canned(checkout, core, args):
        calls.append((core, args))
        if args[0] == "-m":
            return subprocess.CompletedProcess(args, 0, "....\n12 passed in 1.0s\n", "")
        return subprocess.CompletedProcess(
            args, 0, "ab12\nsgd/t0 cd34\npalm ef56\n",
            "9 runs, 2 aborts, 3 cli\nnumpy 2.0, BLAS x 1.0, core Haswell\n")

    monkeypatch.setattr(tool, "child", canned)
    ok, lines = tool.on_core(TOOL.parents[1], "Haswell", full=False)
    assert ok
    assert lines == ["Haswell: core Haswell, tests: 12 passed in 1.0s", "  total ab12",
                     "  sgd/t0 cd34", "  palm ef56", "  9 runs, 2 aborts, 3 cli"]
    assert calls[1] == ("Haswell", ["tools/bitwise_digest.py", "--quick"])
    tool.on_core(TOOL.parents[1], "Haswell", full=True)
    assert calls[3] == ("Haswell", ["tools/bitwise_digest.py"])


def test_a_failing_child_fails_the_core(monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "child", lambda checkout, core, args:
                        subprocess.CompletedProcess(args, 1, "1 failed\n", "boom\n"))
    ok, lines = tool.on_core(TOOL.parents[1], "Prescott", full=False)
    assert not ok
    assert lines == ["Prescott: core ?, tests: 1 failed",
                     "  digest failed with exit code 1"]

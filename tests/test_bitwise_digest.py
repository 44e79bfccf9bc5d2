"""`tools/bitwise_digest.py`, the check that a change keeps every output bit,
still runs and is deterministic within one process."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitwise_digest.py"


def test_quick_digest_is_reproducible():
    spec = importlib.util.spec_from_file_location("bitwise_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first, counts = tool.digest(quick=True)
    assert tool.digest(quick=True) == (first, counts)
    assert len(first) == 64 and counts["runs"] > 0 and counts["aborts"] > 0 and counts["cli"] > 0

"""Two traced runs with the same seed must give identical counters and
identical output digests.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent


def _traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    counts = {
        name: m["value"] for name, m in record["metrics"].items() if m["unit"] in ("count", "bytes")
    }
    return counts, record["digests"]


@pytest.mark.parametrize("workload", ["closure", "chain", "recovery"])
def test_traced_runs_repeat(workload):
    counts, digests = _traced_run(workload, 11)
    assert any(counts.values())
    assert _traced_run(workload, 11) == (counts, digests)

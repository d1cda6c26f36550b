"""The traced benchmark pass runs against the current package.

`perfbench/spans.py` wraps `motivic` functions and methods by name, so a
renamed or deleted traced name breaks the traced benchmark. One traced
jet-count pass, in its own interpreter, catches that here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_traced_jet_count_pass_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "jet-count", "1", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert "layers" in summary
    assert [item["id"] for item in summary["items"] if "raised" in item] == []

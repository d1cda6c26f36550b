"""Record the report digests that ``run.py`` checks fixed items against.

    python3 perfbench/record.py

Digest-checked items (ladders, corpus, union ladder, arcs, measures, topology
checks) do not depend on the seed.  Rerun this only when a change to the
report format is deliberate, and say so where the change is described.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from motivic.cli import run_script  # noqa: E402


def main():
    out = {}
    for workload in ("jet-count", "class-canon"):
        out[workload] = {
            item["id"]: hashlib.sha256(run_script(item["text"])[0].encode()).hexdigest()
            for item in gen.items_for(workload, 0) if ("digest",) in item["checks"]}
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

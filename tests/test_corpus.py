"""Golden reports: each corpus script's report and exit code, byte for byte.

`tests/corpus/NN_name.out` holds the report of `NN_name.mot` under the default
config, followed by one `exit=N` line. To record them again after a change
that is meant to alter a report:

    PYTHONPATH=src python tests/test_corpus.py
"""

import glob
import os

import pytest

from motivic.cli import run_script

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPTS = sorted(glob.glob(os.path.join(HERE, "corpus", "*.mot")))


def golden(path):
    with open(path) as fh:
        report, code = run_script(fh.read())
    return report + "exit=%d\n" % code


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_report_matches_the_golden_file(path):
    with open(path[:-len(".mot")] + ".out") as fh:
        want = fh.read()
    assert golden(path) == want


if __name__ == "__main__":
    for path in SCRIPTS:
        with open(path[:-len(".mot")] + ".out", "w") as fh:
            fh.write(golden(path))

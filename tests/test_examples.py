"""The examples are part of the public API surface: they must run, and
print exactly what they printed when pinned.

Every example is a seeded, deterministic run whose output does not
depend on ``PYTHONHASHSEED``, so its stdout is pinned byte for byte by
sha256.  A behaviour-preserving change leaves all five digests alone;
re-pin one only for a change that is meant to alter what the example
prints.
"""

import hashlib
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)

#: sha256 of each example's stdout.
STDOUT_SHA256 = {
    "cloud_telemetry.py":
        "4828067e410126f66ac11df03f4d6f9a737883117eddedc25330e974afc7b039",
    "cluster_simulation.py":
        "10b7c28ca4660ae57f7a9558e084971132e0d856ceab883d956b2fcad8cec7a7",
    "finder_failover.py":
        "d3b12598e6cf4a36ee07f6a832e132ed1a5870e515e787e112d5868a94034d9c",
    "quickstart.py":
        "c7265dff5c2bd6457313175028db2106dfade1d01a63a7810349338c33273b89",
    "serverless_workflow.py":
        "4db702c9ce72e36c52dfd72a14929bbf4511e182ac8f780cba95df23e1129d87",
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    assert completed.stdout.strip(), "examples narrate what they do"
    assert hashlib.sha256(completed.stdout).hexdigest() == \
        STDOUT_SHA256[script.name], (
        f"{script.name} printed something else than when it was pinned")


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert names == set(STDOUT_SHA256)

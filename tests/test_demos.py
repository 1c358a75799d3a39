"""The demos print the same bytes as before.

Each demo runs in a fresh interpreter and the sha256 of its standard
output is compared with a digest recorded from an earlier run, so a
change that moves any printed number fails here. ``center_coresets``
is left out: it takes about 14 s, seven times the other three
together, and its layers are pinned by the coreset and acceptance
tests and by the CLI output digests.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "distance_basics": "9eabfebcbea358f7f03b00aad1829d4ffcacc077d9015d212d6b2f0aa00befd7",
    "clustering_vs_oracle": "7b48695d72e28682b71a748f0acbf4b7c49799b506f68ef778608b29066e8ae6",
    "median_sampling": "fe0295ee2f653285da337172cc0dd8a1e5f97c0f172152236b322bd9aa3c58c5",
}


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_prints_its_recorded_bytes(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("CORESET_LOG", None)
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, check=True, timeout=120,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[demo]

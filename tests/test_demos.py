"""Every script under demos/ runs to completion from the package under test."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leeperfect

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# demo 02 prints the per-candidate theta value counts of field_check at n = 14
_STDOUT_SHA256 = {
    "02_single_dimension_audit":
        "d4d527445a8a8e8b272e920723db93496fd75be74a8901c8e73360e3a1e7ac70",
}


def test_all_demos_are_collected():
    assert [d.stem[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    # the child imports the same leeperfect package as this test process
    src = str(Path(leeperfect.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=600, env=env)
    assert res.returncode == 0, res.stderr.decode()
    if demo.stem in _STDOUT_SHA256:
        assert hashlib.sha256(res.stdout).hexdigest() == _STDOUT_SHA256[demo.stem]

"""Every demo script runs to completion against the package in src/ and
prints the transcript recorded in ``goldens/demos.json``.

After a deliberate change of output, regenerate the transcripts with

    PYTHONPATH=src python tests/test_demos.py > goldens/demos.json

CI runs this recipe and requires the committed file to match it byte for
byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "goldens" / "demos.json"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "classification_tables.py",
        "discriminant_forms.py",
        "isometry_search.py",
        "lefschetz_arithmetic.py",
    ]
    assert sorted(json.loads(GOLDEN.read_text())) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.loads(GOLDEN.read_text())[demo.name]


if __name__ == "__main__":
    transcripts = {}
    for demo in DEMOS:
        proc = run_demo(demo)
        proc.check_returncode()
        transcripts[demo.name] = proc.stdout
    json.dump(transcripts, sys.stdout, indent=1, ensure_ascii=False)
    print()

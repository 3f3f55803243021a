"""The scripts under scripts/ and README's library sketch, run as a user
runs them.

Each script runs in a fresh interpreter with ``src`` on PYTHONPATH, and
is held to its exit code and to the lines that carry its verdict.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_catalog_diff_lists_the_rank_4_welded_difference():
    proc = run_script("catalog_diff.py")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    catalog_rows = [l for l in lines if " window [-2, 2]: " in l]
    assert len(catalog_rows) == 6
    assert all(l.endswith("-> MATCH") for l in catalog_rows)
    assert "WB4_REDUCE: final presentation differs from the stated families" in lines
    missing = {l.split(":")[1].strip() for l in lines if l.startswith("  missing: ")}
    assert missing == {
        "c3-exchange",
        "f-c3-conjugate-square",
        "f-c3-mixed-braid",
        "f-pair-shift",
        "g-f-exchange",
        "long-exchange",
    }
    for name in ("VB3_REDUCE", "WB3_REDUCE"):
        assert "%s: final presentation matches the stated families" % name in lines


def test_window_profiles_exit_zero_on_wide_windows():
    proc = run_script("window_profiles.py", "--ranks", "3,4,5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert not any("error:" in l for l in lines)
    assert lines[0].startswith("vb n=3  [3, 3, 3] + Z^7, [3, 3, 3] + Z^9, [3, 3, 3] + Z^11")


def test_window_profiles_exit_two_on_an_error_row():
    # [-1, 1] instantiates no span-3 recurrence relator at rank 5
    proc = run_script("window_profiles.py", "--radii", "0,1", "--ranks", "5")
    assert proc.returncode == 2
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert all("error: window [" in l for l in lines)


def test_readme_library_sketch_prints_what_it_says():
    text = (ROOT / "README.md").read_text()
    sketch = text.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.split("#", 1)[1].strip()
        for line in sketch.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    proc = run_python("-c", sketch)
    assert proc.returncode == 0, proc.stderr
    assert expected and proc.stdout.splitlines() == expected

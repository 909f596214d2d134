"""The demos run as a user runs them: each in a fresh interpreter on the
source tree, with every warning an error.  Each must exit 0 with nothing on
stderr, and its stdout is pinned by SHA-256 (numpy 2.4.6, scipy 1.17.1,
Python 3.11.7), so a change to any number a demo prints shows here."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_worked_example_all_algorithms.py":
        "9ed73922e8be162ef3bf2954567008644b255204b80337b46ab318f0ed865d4c",
    "02_commutator_identities.py":
        "64f3135e595997ffebafab7331b7e8f14bc80bdd7a5784c5fe8dd47843529db7",
    "03_exact_oracle_vs_float.py":
        "42de76b18694f5dca421b33c5a05c0abed81c73a41ae0f28e84d0caf722e1a99",
    "04_conditioning_study.py":
        "afec130abd33d7503a79213d53a9e72ca80eaac5fa80130985270793173ff3e3",
    "05_closed_loop_simulation.py":
        "868334b626fc7b7b98452869229b5e8843fd7e410c2f0658993dc48a2903da5f",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_runs_clean_with_pinned_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                         capture_output=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, b"")
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[demo]

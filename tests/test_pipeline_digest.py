"""The whole CLI pipeline writes the bytes ``pipeline_digest.expected`` records.

A subprocess runs ``tests/pipeline_digest.py OUT --expect
tests/pipeline_digest.expected``: every command's exit code and every file's
SHA-256 must match the committed printout.  The bytes depend on numpy,
OpenBLAS and Python, so the test skips on a stack other than the one the
file's ``#`` line names.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pipeline_digest import stack

TESTS = Path(__file__).resolve().parent
EXPECTED = TESTS / "pipeline_digest.expected"


def test_the_pipeline_writes_the_expected_bytes(tmp_path):
    recorded = EXPECTED.read_text().splitlines()[0]
    if stack() != recorded:
        pytest.skip(f"the expectation was written on {recorded[2:]}; this is {stack()[2:]}")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(TESTS.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, str(TESTS / "pipeline_digest.py"), str(tmp_path / "out"),
         "--expect", str(EXPECTED)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

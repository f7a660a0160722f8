"""Pinned bytes of the quick fig14 health and Chrome-trace documents.

``repro health fig14 --quick --strict`` and ``repro trace fig14
--quick`` must write exactly these files.  The event schema and its
consumers may change how telemetry is published, spooled and joined,
but not one byte of what a consumer builds from it.

Each command runs in a fresh interpreter: flow, transfer and function
instance ids come from process-wide counters, so an in-process run
would see ids that depend on which tests ran before it.

After an intentional change to either document, print the new digests
with ``sha256sum`` over the files the two commands write.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

# SHA-256 of the file each command writes to --out.
GOLDEN = {
    "health": "d8dfa99c1473ed25c59da5bbb7460f60873b74c6933776b08997764fb26b3bdc",
    "trace": "a07c0b01514ed978b1d7ad6852b4c5b6d4cdfe7386a1eb3e936f231861deea87",
}

COMMANDS = {
    "health": ["health", "fig14", "--quick", "--strict", "--quiet"],
    "trace": ["trace", "fig14", "--quick", "--quiet"],
}


def run_cli(cwd, *args):
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_document_bytes_are_pinned(tmp_path, command):
    out = tmp_path / f"{command}.json"
    result = run_cli(tmp_path, *COMMANDS[command], "--out", str(out))
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[command]

"""Every demo script, and the README's library quick start and command-line block, run to completion against the
package sources."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mlbq.harness import read_records_csv

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    result = _run([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    assert block, "README has no python block under 'Library quick start'"
    result = _run(["-c", block.group(1)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_command_line_runs(tmp_path):
    # every `mlbq ...` line of the block, continuation lines joined, through cli.main in one process
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```bash\n(.*?)^```", readme, re.S | re.M)
    assert block, "README has no bash block under 'Command line'"
    lines = [line.strip() for line in block.group(1).replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("mlbq ")]
    assert [c[0] for c in commands] == ["allocate", "allocate", "estimate", "experiment", "calibrate", "claims"]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    script = "import json, sys; from mlbq.cli import main; print('exit codes', [main(c) for c in json.loads(sys.argv[1])])"
    result = _run(["-c", script, json.dumps(commands)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert f"exit codes {[0] * len(commands)}" in result.stdout, result.stderr
    assert (ROOT / "CLAIMS.json").read_text() in result.stdout  # the ledger of a fresh process's own sweeps
    assert len(read_records_csv(tmp_path / "records.csv")) == 600
    assert (tmp_path / "coverage.csv").exists()

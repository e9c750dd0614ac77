"""The benchmark's seed-0 commands, run as CLI children, pass its own checks.

perfbench/workloads.py pins a digest of every seed-0 output and checks each
against reference values; its verify() is imported here, not copied, so a
change that would make the benchmark report wrong outputs fails tier-1 too.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", ("density-1e8", "slide-1e7", "tuples-1e6"))
def test_seed0_outputs_pass_the_benchmark_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for cmd in workload.commands(0):
        done = subprocess.run(
            [sys.executable, "-m", "shortint.cli", *cmd.argv],
            cwd=tmp_path, env=env, capture_output=True,
        )
        files = {
            f: (tmp_path / f).read_bytes() for f in cmd.files if (tmp_path / f).is_file()
        }
        outputs.append(workloads.Output(done.returncode, done.stdout, done.stderr, files))
    assert workloads.verify(workload, 0, outputs) == []

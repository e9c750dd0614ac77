"""The benchmark's seed-0 commands, run as CLI children, pass its own checks,
and its tracer still finds the names it patches.

perfbench/workloads.py pins a digest of every seed-0 output and checks each
against reference values; its verify() is imported here, not copied, so a
change that would make the benchmark report wrong outputs fails tier-1 too.
perfbench/tracing.py wraps package functions by name and reads their
arguments by position, so a renamed or reordered one fails here too.
"""

import importlib.util
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shortint
import shortint.cli
from shortint.clusters import find_clusters

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


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


def test_tracer_counts_the_bases_a_slide_scanned(tmp_path, capsys):
    # the tracer counts find_clusters' bases from its x_lo, its third
    # positional argument, and patches cli.build_table by name
    x_lo, x_hi, take = 100000, 200000, 3000
    out = tmp_path / "traces.csv"
    slide = ["slide", "--lambda", "1", "--x-lo", str(x_lo), "--x-hi", str(x_hi),
             "--m", "1", "--max-clusters", str(take), "--out", str(out)]
    series = ["tuples", "series", "--offsets", "0,2,6", "--cutoff", "100000"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, shortint):
        slide_code = tracer.run_cli(shortint.cli.main, slide)[0]
        series_code, series_out, _, _ = tracer.run_cli(shortint.cli.main, series)
    assert (slide_code, series_code) == (0, 0)
    assert shortint.cli.main(series) == 0
    assert capsys.readouterr().out.encode() == series_out  # the same, untraced
    metrics = tracing.layer_metrics(tracer)
    bases = [c.base for c in itertools.islice(find_clusters(1.0, 1, x_lo, x_hi), take)]
    assert metrics["clusters.yielded"] == len(bases) == take
    assert metrics["clusters.bases_scanned"] == bases[-1] - x_lo + 1
    assert metrics["clusters.windows"] == out.read_text().count("\n") - 1
    assert metrics["tuples.series_primes"] == 9592  # pi(1e5)
    # every patch is undone
    assert shortint.cli.build_table is shortint.primes.build_table
    assert shortint.clusters.find_clusters is find_clusters

"""What a process loads at start: `import shortint` loads no submodule and
not numpy, the CLI and the test process run in one thread, and each command
imports only the modules it runs.

Every other check runs in a fresh interpreter whose environment sets no BLAS
or OpenMP thread count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")

# the package's exports as they were when its __init__ imported them eagerly,
# less kronecker_symbol, which no module of the package calls: it is now the
# tests' oracle for the Kronecker classes, in tests/kronecker.py; and less
# required_limit, a float sieve bound that density.right_edge replaced
EXPORTS = [
    "BoundParams", "BoundValue", "DEFAULT_PARAMS", "ParamCheck", "bounds_report",
    "check_uniform_range", "lambda_cap", "lower_bound", "mertens_product",
    "spacing_divisor", "tuple_size",
    "Cluster", "Falsification", "Slides", "extract_m_runs", "find_clusters",
    "guaranteed_run_floor", "slide",
    "DensityReport", "GrowthResult", "growth_check", "measure_density",
    "poisson_reference", "window_counts",
    "InadmissibleTupleError", "MemoryBudgetError", "ParameterRangeError",
    "ShortIntervalError", "WorkerError",
    "ALL", "PrimeFilter", "PrimeTable", "build_table", "is_fundamental_discriminant",
    "AdmissibleTuple", "SievedSet", "count_spaced_selections", "first_covered_prime",
    "format_offsets", "greedy_sieve", "is_admissible", "parse_offsets", "select_spaced",
    "singular_series",
]

# runs the CLI's main() on the arguments, then prints the names of the modules
# loaded by then as the last stdout line; json loads only after they are read
RUN_CLI = """
import sys
import shortint.cli
code = shortint.cli.main(sys.argv[1:])
assert code == 0, code
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""


def child(code: str, *args: str, **env_extra: str):
    """Run code in a fresh interpreter; its last stdout line, as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_extra, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_shortint_loads_nothing_and_leaves_the_environment():
    loaded, pinned = child(
        "import json, os, sys, shortint\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(('shortint', 'numpy')))\n"
        "shortint.measure_density(1.0, 100, 2)\n"
        "print(json.dumps([loaded, os.environ.get('OPENBLAS_NUM_THREADS')]))"
    )
    assert loaded == ["shortint"]
    assert pinned is None  # only the CLI pins the BLAS pool


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_runs_in_one_thread():
    assert child("import os, shortint.cli; print(len(os.listdir('/proc/self/task')))") == 1
    # a user's own setting wins
    setting = "import os, shortint.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert child(setting, OPENBLAS_NUM_THREADS="2") == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_tests_fork_density_parts_from_one_thread():
    # conftest.py pins the BLAS pool before numpy loads in this process
    import numpy  # noqa: F401

    assert len(os.listdir("/proc/self/task")) == 1


@pytest.mark.parametrize("argv", (
    ["tuples", "check", "--offsets", "0,2,6"],
    ["tuples", "series", "--offsets", "0,2,6", "--cutoff", "1000"],
    ["tuples", "greedy", "--window", "1000", "--k", "10", "--spacing", "20", "--count"],
))
def test_tuples_commands_load_no_scan_modules(argv):
    loaded = child(RUN_CLI, *argv)
    assert "shortint.tuples" in loaded
    unwanted = {
        "shortint.density", "shortint.clusters", "shortint.bounds", "multiprocessing",
        "json",
    }
    assert unwanted.isdisjoint(loaded)


def test_density_loads_no_tuple_module():
    loaded = child(RUN_CLI, "density", "--lambda", "1", "--x", "100000", "--m-max", "4")
    assert "shortint.density" in loaded and "shortint.tuples" not in loaded


def test_density_loads_no_multiprocessing_or_json():
    from shortint.density import WORKERS

    # in one part per CPU: with two or more, they fork without multiprocessing
    loaded = child(RUN_CLI, "density", "--lambda", "1", "--x", "100000", "--m-max", "4")
    assert ("shortint.workers" in loaded) == (WORKERS > 1)
    assert {"multiprocessing", "json"}.isdisjoint(loaded)


def test_slide_loads_no_json_fractions_or_decimal(tmp_path):
    # no falsification to write, no density report and no window edge near
    # enough to a breakpoint to need decimal arithmetic
    loaded = child(
        RUN_CLI, "slide", "--lambda", "1", "--x-lo", "1000", "--x-hi", "100000",
        "--m", "2", "--max-clusters", "50", "--out", str(tmp_path / "trace.csv"),
    )
    assert "shortint.clusters" in loaded
    assert {"json", "fractions", "decimal"}.isdisjoint(loaded)


def test_import_shortint_cli_loads_no_json():
    loaded = child(
        "import sys, shortint.cli\n"
        "loaded = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps(loaded))"
    )
    assert "json" not in loaded


def test_every_export_resolves():
    names, missing, listed = child(
        "import json, shortint\n"
        "names = shortint.__all__\n"
        "missing = [n for n in names + ['density', 'tuples'] if getattr(shortint, n, None) is None]\n"
        "assert not hasattr(shortint, 'no_such_name')\n"
        "print(json.dumps([names, missing, sorted(set(names) - set(dir(shortint)))]))"
    )
    assert names == EXPORTS
    assert missing == [] and listed == []

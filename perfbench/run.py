"""Run one shortint benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload density-1e8 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is taken from ./src.
Each repetition runs the workload's commands as fresh, single-threaded
`python -m shortint.cli` children, one after another, accounts each child
through os.wait4 and checks every output.  Repetitions go on while another
one still fits in --seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
repetitions, and setup_s, the median time of a fresh interpreter importing
shortint.cli.  --trace 1 makes the same untraced repetitions, then runs the
workload once more in this process with spans around every layer (see
tracing.py) and reports the per-layer metrics.  The last stdout line is the
result; the line before it records the environment and the raw samples.
The exit code is 2, with no result, when the source or its import is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy

from tracing import Tracer, installed, layer_metrics
from workloads import WORKLOADS, Command, Output, Workload, verify

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 7


class SetupError(Exception):
    """The checkout cannot run the CLI; no measurement is possible."""


@dataclass
class Rep:
    """One untraced repetition of a workload."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    work_per_s: float
    problems: list[str]


def spawn(args: list[str], cwd: Path):
    """Run the interpreter on args in cwd; return exit code, stdout, stderr,
    wall seconds and this child's own rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = cwd / "_stdout", cwd / "_stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall, usage


def setup_samples() -> list[float]:
    """Check that children import shortint.cli from SRC, then time
    SETUP_SAMPLES fresh interpreters importing it."""
    cli = SRC / "shortint" / "cli.py"
    if not cli.is_file():
        raise SetupError(f"no shortint source at {cli}")
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cwd = Path(tmp)
        code, out, err, _, _ = spawn(["-c", "import shortint.cli; print(shortint.cli.__file__)"], cwd)
        if code != 0 or Path(out.decode().strip()).resolve() != cli.resolve():
            raise SetupError(f"cannot import shortint.cli from {SRC}: {err.decode()[-300:]}")
        return [spawn(["-c", "import shortint.cli"], cwd)[3] for _ in range(SETUP_SAMPLES)]


def read_files(cwd: Path, cmd: Command) -> dict[str, bytes]:
    return {f: (cwd / f).read_bytes() for f in cmd.files if (cwd / f).is_file()}


def run_rep(workload: Workload, seed: int, work: float) -> Rep:
    commands = workload.commands(seed)
    outputs, wall, cpu, rss = [], 0.0, 0.0, 0.0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cwd = Path(tmp)
        for cmd in commands:
            code, stdout, stderr, seconds, usage = spawn(["-m", "shortint.cli", *cmd.argv], cwd)
            outputs.append(Output(code, stdout, stderr, read_files(cwd, cmd)))
            wall += seconds
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024)  # ru_maxrss is in KiB on Linux
    return Rep(wall, cpu, rss, work / wall, verify(workload, seed, outputs))


def measure(workload: Workload, seed: int, seconds: float) -> list[Rep]:
    """Repeat the workload while one more repetition, at the mean pace so
    far, still ends within `seconds`."""
    work = workload.work(seed)
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, seed, work))
        elapsed = time.perf_counter() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def traced_run(workload: Workload, seed: int) -> tuple[dict[str, float], float, list[str]]:
    """Run the workload's commands in this process under the tracer; return
    the layer metrics, the summed main() wall time and the problems found."""
    sys.path.insert(0, str(SRC))
    import shortint.cli

    tracer = Tracer()
    commands = workload.commands(seed)
    outputs, wall = [], 0.0
    home = os.getcwd()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, installed(tracer, shortint):
        os.chdir(tmp)
        try:
            for cmd in commands:
                try:
                    code, stdout, stderr, seconds = tracer.run_cli(shortint.cli.main, list(cmd.argv))
                except Exception:  # a crash the child would report as exit 1
                    code, stdout, stderr, seconds = 1, b"", traceback.format_exc().encode(), 0.0
                outputs.append(Output(code, stdout, stderr, read_files(Path(tmp), cmd)))
                wall += seconds
        finally:
            os.chdir(home)
    tracer.write(OUT / f"trace-{workload.name}.json")
    return layer_metrics(tracer), wall, verify(workload, seed, outputs)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    load_before = os.getloadavg()
    try:
        OUT.mkdir(exist_ok=True)
        setup = setup_samples()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    reps = measure(workload, args.seed, args.seconds)
    wall = statistics.median(r.wall_s for r in reps)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        "work_per_s": statistics.median(r.work_per_s for r in reps),
    }
    problems = [p for r in reps for p in r.problems]
    failed = sum(1 for r in reps if r.problems)
    attempted = len(reps)
    info = {}
    if args.trace:
        values, traced_wall, traced_problems = traced_run(workload, args.seed)
        n_children = len(workload.commands(args.seed))
        # the children also paid interpreter start-up and import, setup_s each
        values["trace.overhead_s"] = traced_wall + n_children * statistics.median(setup) - wall
        info["traced_main_s"] = traced_wall
        problems += traced_problems
        failed += bool(traced_problems)
        attempted += 1
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]

    info |= {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "commands": [c.key for c in workload.commands(args.seed)],
        "work_unit": workload.work_unit,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "setup_samples_s": setup, "reps": [asdict(r) for r in reps],
        "problems": problems[:20],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())

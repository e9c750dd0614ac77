"""Golden CLI outputs: small commands whose bytes are pinned by digest.

Each case is a CLI command line, the files it reads and the files it may
write.  run_case runs it in a scratch directory, in-process through
shortint.cli.main (or as a `python -m shortint.cli` child), and returns the
exit code and the sha256 of stdout, stderr and each named file (None for a
file the command did not write).  tests/test_golden.py checks every case
against tests/golden/manifest.json.

An intended output change rewrites the manifest with

    PYTHONPATH=src python tests/golden_cli.py

which prints each digest that changed, and each case added or removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

# shortint.cli first: it pins numpy's OpenBLAS to one thread before numpy
# loads, so density forks its workers from a single-threaded process
from shortint.cli import main
from shortint.primes import MAX_LIMIT

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    writes: tuple[str, ...] = ()  # files the command may write
    inputs: dict[str, str] = field(default_factory=dict)  # files it reads
    child: bool = False  # run as a `python -m shortint.cli` child


def _density_cases() -> list[Case]:
    base = ("density", "--lambda", "1", "--x", "3000", "--m-max", "4")
    filters = {
        "mod4r1": ("--mod", "4", "--res", "1"),
        "disc5s-1": ("--disc", "5", "--class", "-1"),
        "disc-4s1": ("--disc", "-4", "--class", "1"),
        "disc1s-1": ("--disc", "1", "--class", "-1"),  # keeps no prime
        "mod1r0": ("--mod", "1", "--res", "0"),
    }
    shapes = {
        "csv": ("--compare-poisson",),
        "json": ("--compare-poisson", "--json"),
        "growth": ("--growth",),
        "growth-json": ("--growth", "--json"),
    }
    return [
        Case(f"density-{tag}-{shape}", (*base, *flags, *extra))
        for tag, flags in filters.items()
        for shape, extra in shapes.items()
    ]


CASES = [
    *_density_cases(),
    Case("density-lambda0.05-csv",
         ("density", "--lambda", "0.05", "--x", "5000", "--m-max", "3",
          "--compare-poisson")),
    Case("density-lambda0.05-json-file",
         ("density", "--lambda", "0.05", "--x", "5000", "--m-max", "3",
          "--compare-poisson", "--json", "--out", "d.json"), writes=("d.json",)),
    Case("density-disc5s-1-child",
         ("density", "--lambda", "1", "--x", "1000", "--m-max", "3",
          "--disc", "5", "--class", "-1"), child=True),
    Case("slide-lambda30-count-jumps",
         ("slide", "--lambda", "30", "--x-lo", "3", "--x-hi", "40", "--m", "0",
          "--out", "t.csv", "--falsifications", "f.jsonl"),
         writes=("t.csv", "f.jsonl")),
    Case("slide-require-spacing",
         ("slide", "--lambda", "1", "--x-lo", "100000", "--x-hi", "120000", "--m", "1",
          "--require-spacing", "--max-clusters", "20")),
    Case("slide-max-clusters-0",
         ("slide", "--lambda", "1", "--x-lo", "10000", "--x-hi", "12000", "--m", "1",
          "--max-clusters", "0", "--out", "t.csv"), writes=("t.csv",)),
    Case("slide-1e12",
         ("slide", "--lambda", "1", "--x-lo", "1000000000000",
          "--x-hi", "1000000002000", "--m", "1", "--max-clusters", "30",
          "--out", "t.csv", "--falsifications", "f.jsonl"),
         writes=("t.csv", "f.jsonl")),
    # several blocks each: blocks of 4096, 135 and 769 bases, cut at 2**22;
    # and a block ending at base 3269007 whose last traces cross the step of
    # L to 15 at 3269018, past the next block's first base
    Case("slide-blocks-cut-at-span",
         ("slide", "--lambda", "1", "--x-lo", "4190000", "--x-hi", "4200000",
          "--m", "1", "--max-clusters", "5000",
          "--out", "t.csv", "--falsifications", "f.jsonl"),
         writes=("t.csv", "f.jsonl")),
    Case("slide-blocks-cross-a-step",
         ("slide", "--lambda", "1", "--x-lo", "3264824", "--x-hi", "3290000",
          "--m", "1", "--max-clusters", "5000",
          "--out", "t.csv", "--falsifications", "f.jsonl"),
         writes=("t.csv", "f.jsonl")),
    Case("bounds-m0-x-q",
         ("bounds", "--m", "0", "--lambda", "1e-9", "--x", "1e30", "--q", "3")),
    Case("bounds-m0", ("bounds", "--m", "0")),
    Case("bounds-m1-lambda", ("bounds", "--m", "1", "--lambda", "1e-9")),
    Case("sieve", ("sieve", "--limit", "100000")),
    Case("tuples-greedy", ("tuples", "greedy", "--window", "20", "--k", "3")),
    Case("tuples-greedy-spacing",
         ("tuples", "greedy", "--window", "200", "--k", "4", "--spacing", "30")),
    Case("tuples-greedy-count",
         ("tuples", "greedy", "--window", "200", "--k", "4", "--spacing", "30",
          "--count", "--out", "c.csv"), writes=("c.csv",)),
    Case("tuples-check-admissible", ("tuples", "check", "--offsets", "0,2,6")),
    Case("tuples-check-inadmissible", ("tuples", "check", "--offsets", "0,2,4")),
    Case("tuples-check-unordered", ("tuples", "check", "--offsets", "0,6,2")),
    Case("tuples-series", ("tuples", "series", "--offsets", "0,2,6", "--cutoff", "10000")),
    Case("tuples-series-inadmissible",
         ("tuples", "series", "--offsets", "0,2,4", "--cutoff", "1000")),
    Case("refuse-lambda-nan",
         ("density", "--lambda", "nan", "--x", "100", "--m-max", "2", "--out", "d.csv"),
         writes=("d.csv",)),
    Case("refuse-lambda-1e308",
         ("slide", "--lambda", "1e308", "--x-lo", "10", "--x-hi", "100", "--m", "1",
          "--out", "t.csv"), writes=("t.csv",)),
    Case("refuse-limit-past-max", ("sieve", "--limit", str(MAX_LIMIT + 1))),
    Case("refuse-mod4-res2",
         ("density", "--lambda", "1", "--x", "100", "--m-max", "2",
          "--mod", "4", "--res", "2")),
    Case("refuse-disc9",
         ("density", "--lambda", "1", "--x", "100", "--m-max", "2",
          "--disc", "9", "--class", "1")),
    Case("refuse-disc-past-cap",
         ("density", "--lambda", "1", "--x", "100", "--m-max", "2",
          "--disc", "10000000033", "--class", "1")),
    Case("refuse-mod-without-res",
         ("density", "--lambda", "1", "--x", "100", "--m-max", "2", "--mod", "4")),
    Case("refuse-usage", ("density", "--lambda", "1", "--x", "100")),
    Case("refuse-scale-infinity",
         ("bounds", "--m", "0", "--constants", "c.json"),
         inputs={"c.json": '{"scale": Infinity}'}),
    Case("refuse-decay-infinity",
         ("bounds", "--m", "0", "--constants", "c.json"),
         inputs={"c.json": '{"decay": Infinity}'}),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_child(argv: tuple[str, ...], cwd: Path) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "shortint.cli", *argv],
        cwd=cwd, env=env, capture_output=True,
    )
    return done.returncode, done.stdout, done.stderr


def _run_main(argv: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_case(case: Case, workdir: Path) -> dict:
    """Run case with workdir as its working directory, and return its exit
    code and digests."""
    for name, text in case.inputs.items():
        (workdir / name).write_text(text)
    if case.child:
        code, out, err = _run_child(case.argv, workdir)
    else:
        before = Path.cwd()
        os.chdir(workdir)
        try:
            code, out, err = _run_main(case.argv)
        finally:
            os.chdir(before)
    files = {
        name: _sha((workdir / name).read_bytes()) if (workdir / name).is_file() else None
        for name in case.writes
    }
    return {"exit": code, "stdout": _sha(out), "stderr": _sha(err), "files": files}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def _rewrite() -> None:
    old = load_manifest() if MANIFEST.is_file() else {}
    new = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            new[case.name] = run_case(case, Path(tmp))
    for name in sorted(old.keys() - new.keys()):
        print(f"removed {name}")
    for name, entry in new.items():
        if name not in old:
            print(f"added {name}: {json.dumps(entry)}")
            continue
        for key, value in entry.items():
            if old[name].get(key) != value:
                print(f"changed {name} {key}: {json.dumps(old[name].get(key))} "
                      f"-> {json.dumps(value)}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n")


if __name__ == "__main__":
    _rewrite()

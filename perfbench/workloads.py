"""The benchmark's four CLI workloads: their inputs per seed and their checks.

Each workload is a short list of `python -m shortint.cli` commands run one
after another in a scratch directory.  Seed 0 gives exactly the inputs named
in the workload table; other seeds shift the slide range and the tuples
window by seed-derived offsets.  Commands whose argv equals a seed-0 argv are
checked against a pinned output digest; every command is also checked
against reference values and output invariants that hold for every seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# pi(10^9), the published prime count (OEIS A006880); not taken from tests/.
PI_1E9 = 50847534
# Window counts c(n) = #primes in [n, n + log n] for n <= 1e8, m = 0..6, with
# no n above m = 6.  Frozen from an independent scan of this configuration.
EXPECTED_1E8 = {0: 30553656, 1: 42122762, 2: 21614311, 3: 5124556,
                4: 560270, 5: 24220, 6: 225}
# The first-fit spaced 30-tuple of `tuples greedy --window 1e6 --k 30
# --spacing 60`; the series command keeps it fixed for every seed.
SERIES_TUPLE = (
    "4,74,140,202,268,332,394,470,532,598,662,724,794,860,932,994,1060,1130,"
    "1198,1262,1330,1394,1460,1522,1592,1654,1718,1780,1850,1912"
)

# sha256 over stdout, stderr and the written files of each seed-0 command.
SEED0_DIGESTS = {
    "sieve --limit 1000000000":
        "3350211c36b3d7238ae180af771bcf8ad1550f0b9f3822972373e1ef5f2cac2c",
    "density --lambda 1 --x 100000000 --m-max 6 --compare-poisson":
        "653ed0fef1005884d55be13cb8d236f11ee07c8f1362b20f0fb56ce18745c798",
    "slide --lambda 1 --x-lo 9000000 --x-hi 10000000 --m 1 --max-clusters 60000 "
    "--out traces.csv --falsifications falsifications.jsonl":
        "cf0bcbec8eee298cdc86865510ca5a3cd7ffb9fb4aed29d135dd4bf2ca4a8736",
    "tuples greedy --window 1000000 --k 30 --spacing 60 --count":
        "c386afea710b0d3e4e65328fa76a918f2a751f43788731ba11214c75100e3839",
    f"tuples series --offsets {SERIES_TUPLE} --cutoff 10000000":
        "eaef24d9df88f19e9346c42a650f210a264c58dfd4c12cc153e9c8b4145b5d9b",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `files` are the outputs it writes in its cwd."""

    argv: tuple[str, ...]
    files: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Output:
    """What one command left behind: exit code, streams and written files."""

    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (self.stdout, self.stderr, *(self.files[k] for k in sorted(self.files))):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
        return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    """A fixed experiment: `commands(seed)` builds the argv lists, `check`
    returns the problems found in their outputs (empty when correct), and
    `work(seed)` gives the units of work one repetition completes.  Why each
    workload exists is recorded in BENCHMARK.json."""

    name: str
    work_unit: str
    commands: Callable[[int], list[Command]]
    check: Callable[[int, list[Output]], list[str]]
    work: Callable[[int], float]


def _offset(seed: int, salt: str, span: int) -> int:
    """A seed-derived shift in [0, span); 0 at seed 0."""
    return 0 if seed == 0 else random.Random(f"{salt}:{seed}").randrange(span)


def verify(workload: Workload, seed: int, outputs: list[Output]) -> list[str]:
    """Problems found in one repetition's outputs; empty when all is correct.

    Exit codes come first; with all of them 0, both the pinned digests and the
    workload's own reference and invariant checks run."""
    commands = workload.commands(seed)
    problems = [f"{cmd.key[:60]} exited {out.code}: "
                f"{out.stderr.decode(errors='replace').strip()[-200:]}"
                for cmd, out in zip(commands, outputs) if out.code != 0]
    if problems:
        return problems
    for cmd, out in zip(commands, outputs):
        pinned = SEED0_DIGESTS.get(cmd.key)
        if pinned is not None and out.digest() != pinned:
            problems.append(f"{cmd.key[:60]}: output digest {out.digest()} != pinned {pinned}")
    try:
        problems += workload.check(seed, outputs)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


# -- sieve-1e9 -----------------------------------------------------------------

SIEVE_LIMIT = 10**9


def _sieve_commands(seed: int) -> list[Command]:
    return [Command(("sieve", "--limit", str(SIEVE_LIMIT)))]


def _sieve_check(seed: int, outputs: list[Output]) -> list[str]:
    got = outputs[0].stdout.decode().strip()
    return [] if got == str(PI_1E9) else [f"pi(1e9) printed {got!r}, expected {PI_1E9}"]


# -- density-1e8 ---------------------------------------------------------------

DENSITY_X = 10**8


def _density_commands(seed: int) -> list[Command]:
    return [Command(("density", "--lambda", "1", "--x", str(DENSITY_X),
                     "--m-max", "6", "--compare-poisson"))]


def _density_check(seed: int, outputs: list[Output]) -> list[str]:
    rows = [line.split(",") for line in outputs[0].stdout.decode().splitlines()[1:]]
    counts = {row[0]: int(row[1]) for row in rows}
    problems = []
    if sum(counts.values()) != DENSITY_X:
        problems.append(f"density partition sums to {sum(counts.values())}, not x={DENSITY_X}")
    expected = {str(m): c for m, c in EXPECTED_1E8.items()} | {"overflow": 0}
    if counts != expected:
        problems.append(f"density counts {counts} differ from the frozen 1e8 counts")
    return problems


# -- slide-1e7 -----------------------------------------------------------------

SLIDE_CLUSTERS = 60000


def _slide_range(seed: int) -> tuple[int, int]:
    shift = _offset(seed, "slide", 10**6)
    return 9 * 10**6 + shift, 10**7 + shift


def _slide_commands(seed: int) -> list[Command]:
    lo, hi = _slide_range(seed)
    return [Command(
        ("slide", "--lambda", "1", "--x-lo", str(lo), "--x-hi", str(hi), "--m", "1",
         "--max-clusters", str(SLIDE_CLUSTERS),
         "--out", "traces.csv", "--falsifications", "falsifications.jsonl"),
        files=("traces.csv", "falsifications.jsonl"),
    )]


def _slide_check(seed: int, outputs: list[Output]) -> list[str]:
    out = outputs[0]
    problems = []
    stats = dict(f.split("=") for f in out.stderr.decode().split())
    if stats.get("traces") != str(SLIDE_CLUSTERS) or stats.get("falsifications") != "0":
        problems.append(f"slide summary {stats}, expected traces={SLIDE_CLUSTERS} falsifications=0")
    if out.files["falsifications.jsonl"]:
        problems.append("slide wrote falsification records")
    text = out.files["traces.csv"].decode()
    body = text[text.index("\n") + 1:]
    rows = np.array(body.replace("\n", ",").split(",")[:-1], dtype=np.int64).reshape(-1, 3)
    j, n_j = rows[:, 0], rows[:, 1]
    starts = np.flatnonzero(j == 0)
    bases = n_j[starts]
    lengths = np.diff(np.append(starts, len(rows)))
    lo, hi = _slide_range(seed)
    # floor(lam*log N0) + 1 rows per cluster, at lam = 1
    want = np.array([math.floor(math.log(int(b))) + 1 for b in bases])
    if len(starts) != SLIDE_CLUSTERS or starts[0] != 0:
        problems.append(f"trace CSV holds {len(starts)} traces, expected {SLIDE_CLUSTERS}")
    elif not np.array_equal(lengths, want):
        problems.append("a trace does not have floor(lam*log N0)+1 rows")
    elif not (np.all(np.diff(bases) > 0) and lo <= bases[0] and bases[-1] <= hi):
        problems.append("cluster bases are not increasing inside [x_lo, x_hi]")
    elif not np.array_equal(n_j, np.repeat(bases, lengths) + j):
        problems.append("trace rows have N_j != N0 + j")
    return problems


# -- tuples-1e6 ----------------------------------------------------------------

TUPLES_K = 30


def _tuples_window(seed: int) -> int:
    return 10**6 + _offset(seed, "tuples", 10**4)


def _tuples_commands(seed: int) -> list[Command]:
    return [
        Command(("tuples", "greedy", "--window", str(_tuples_window(seed)),
                 "--k", str(TUPLES_K), "--spacing", "60", "--count")),
        Command(("tuples", "series", "--offsets", SERIES_TUPLE, "--cutoff", str(10**7))),
    ]


def _tuples_check(seed: int, outputs: list[Output]) -> list[str]:
    problems = []
    header, row = outputs[0].stdout.decode().split()
    exact, bound = row.split(",")
    if header != "exact,bound" or not int(exact) >= float(bound) > 0:
        problems.append(f"selection count {exact} is not at least the bound {bound} > 0")
    series = float(outputs[1].stdout)
    if not (math.isfinite(series) and series > 0):
        problems.append(f"singular series {series} of an admissible tuple is not positive")
    return problems


def greedy_survivors(window: int, k: int) -> int:
    """Survivors of the greedy residue sieve on {0..window} by primes <= k,
    computed here independently of shortint.tuples."""
    elements = np.arange(window + 1, dtype=np.int64)
    for p in (q for q in range(2, k + 1) if all(q % d for d in range(2, math.isqrt(q) + 1))):
        r = int(np.argmin(np.bincount(elements % p, minlength=p)))
        elements = elements[elements % p != r]
    return len(elements)


def _tuples_work(seed: int) -> float:
    """DP cells of the selection count: k x survivors."""
    return float(TUPLES_K * greedy_survivors(_tuples_window(seed), TUPLES_K))


WORKLOADS = {w.name: w for w in (
    Workload(
        "sieve-1e9",
        "numbers sieved",
        _sieve_commands, _sieve_check, lambda seed: float(SIEVE_LIMIT),
    ),
    Workload(
        "density-1e8",
        "n scanned",
        _density_commands, _density_check, lambda seed: float(DENSITY_X),
    ),
    Workload(
        "slide-1e7",
        "traces",
        _slide_commands, _slide_check, lambda seed: float(SLIDE_CLUSTERS),
    ),
    Workload(
        "tuples-1e6",
        "DP cells",
        _tuples_commands, _tuples_check, _tuples_work,
    ),
)}

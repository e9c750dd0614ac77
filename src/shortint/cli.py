"""Command-line front end: reproducible experiments with CSV/JSON artifacts.

Exit codes: 0 success, 1 precondition failure or falsification, 2 usage.
All floats are printed with 12 significant digits so identical configurations
produce byte-identical outputs.
"""

from __future__ import annotations

import os

# The package makes no BLAS call, and a density scan forks its workers from
# this process, which must then be single-threaded; numpy's OpenBLAS would
# otherwise start one idle, spinning thread per CPU at import.  Set before
# numpy loads, and only here: a user's own setting wins, and importing the
# library changes neither the environment nor numpy's threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import itertools
import sys
from typing import TextIO

from .errors import ShortIntervalError
from .primes import ALL, PrimeFilter, prime_count
# unused here; kept because the benchmark's tracer patches cli.build_table.
# These imports of primes are what load numpy at `import shortint.cli`; each
# command imports the further modules it runs.
from .primes import build_table  # noqa: F401


def _open_output(path: str, std: TextIO | None = None):
    """A text stream for path: std (default sys.stdout, left open) for "-",
    else the file, truncated."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout if std is None else std)
    return open(path, "w")


def _write_output(text: str, path: str) -> None:
    with _open_output(path) as out:
        out.write(text)


def _json_text(obj) -> str:
    import json  # loaded only by the commands that write JSON

    return json.dumps(_round12(obj), indent=2) + "\n"


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _filter_from_args(args) -> PrimeFilter:
    if args.mod is not None and args.disc is not None:
        raise ValueError("choose either --mod/--res or --disc/--class, not both")
    if args.mod is not None:
        if args.res is None:
            raise ValueError("--mod requires --res")
        return PrimeFilter.residue_class(args.res, args.mod)
    if args.disc is not None:
        if args.cls is None:
            raise ValueError("--disc requires --class +1 or -1")
        return PrimeFilter.kronecker(args.disc, args.cls)
    return ALL


def _params_from_args(args):
    from . import bounds as bounds_mod

    if args.constants:
        import json

        with open(args.constants) as fh:
            return bounds_mod.params_from_dict(json.load(fh))
    return bounds_mod.DEFAULT_PARAMS


def _cmd_sieve(args) -> int:
    print(prime_count(args.limit))
    return 0


def _cmd_density(args) -> int:
    from . import density as density_mod

    filt = _filter_from_args(args)
    if args.growth:
        results = density_mod.growth_check(args.lam, args.m_max, args.x, filt)
        if args.json:
            payload = [
                {
                    "m": r.m,
                    "x": r.x,
                    "count_x": r.count_at_x,
                    "count_2x": r.count_at_2x,
                    "ratio": r.ratio,
                }
                for r in results
            ]
            text = _json_text(payload)
        else:
            text = density_mod.growth_csv(results)
        _write_output(text, args.out)
        return 0
    report = density_mod.measure_density(args.lam, args.x, args.m_max, filt)
    if args.json:
        payload = density_mod.density_json(report, args.compare_poisson)
        text = _json_text(payload)
    else:
        text = density_mod.density_csv(report, args.compare_poisson)
    _write_output(text, args.out)
    return 0


def _cmd_tuples_greedy(args) -> int:
    from . import tuples as tuples_mod

    sieved = tuples_mod.greedy_sieve(args.window, args.k)
    if args.count:
        if args.spacing is None:
            raise ValueError("--count requires --spacing")
        exact, bound = tuples_mod.count_spaced_selections(
            sieved, args.k, args.spacing
        )
        _write_output(f"exact,bound\n{exact},{bound:.12g}\n", args.out)
        return 0
    if args.spacing is not None:
        picked = tuples_mod.select_spaced(
            sieved, args.k, args.spacing, args.strategy, args.seed
        )
        line = tuples_mod.format_offsets(picked.offsets) if picked else "none"
        _write_output(line + "\n", args.out)
        return 0
    _write_output(tuples_mod.format_offsets(sieved.elements.tolist()) + "\n", args.out)
    return 0


def _cmd_tuples_check(args) -> int:
    from . import tuples as tuples_mod

    offsets = tuples_mod.parse_offsets(args.offsets)
    witness = tuples_mod.first_covered_prime(offsets)
    if witness is None:
        print("admissible")
        return 0
    print(f"inadmissible (p={witness} covered)")
    return 1


def _cmd_tuples_series(args) -> int:
    from . import tuples as tuples_mod

    offsets = tuples_mod.parse_offsets(args.offsets)
    value = tuples_mod.singular_series(offsets, args.cutoff)
    print(f"{value:.12g}")
    return 0


def _cmd_slide(args) -> int:
    import operator

    import numpy as np

    from . import clusters as clusters_mod

    params = _params_from_args(args)
    if args.max_clusters < 0:
        raise ValueError(f"--max-clusters must be >= 0, got {args.max_clusters}")
    stream = itertools.islice(
        clusters_mod.find_clusters(
            args.lam,
            args.m,
            args.x_lo,
            args.x_hi,
            require_spacing=args.require_spacing,
            params=params,
        ),
        args.max_clusters,
    )
    n_traces = n_drop = n_fals = n_runs = longest = 0

    def slid_blocks():
        # the bases come in increasing order; a block is cut where they cross
        # a multiple of SLIDE_SPAN
        base = operator.itemgetter(0)

        def next_block():
            block = itertools.islice(stream, clusters_mod.SLIDE_BLOCK)
            return np.fromiter(map(base, block), np.int64)

        while len(bases := next_block()):
            cuts = np.flatnonzero(np.diff(bases // clusters_mod.SLIDE_SPAN)) + 1
            for part in np.split(bases, cuts):
                yield clusters_mod.slide(args.lam, part, args.m)

    # find_clusters checked its arguments when called; the first block is slid
    # before any output file is opened, and each block is written when done
    blocks = slid_blocks()
    first = list(itertools.islice(blocks, 1))
    with _open_output(args.out) as out, _open_output(
        args.falsifications, sys.stderr
    ) as records:
        out.write(clusters_mod.TRACE_HEADER)
        for slides in itertools.chain(first, blocks):
            out.writelines(clusters_mod.trace_rows(slides))
            records.write(clusters_mod.falsifications_jsonl(slides))
            _, lengths = clusters_mod.m_runs(slides, args.m)
            n_traces += len(slides)
            n_drop += int((slides.j_drop >= 0).sum())
            n_fals += len(slides.falsifications)
            n_runs += len(lengths)
            longest = max(longest, int(lengths.max(initial=0)))
    stats = (
        f"traces={n_traces} with_drop={n_drop} "
        f"m_runs={n_runs} longest_run={longest} "
        f"falsifications={n_fals}"
    )
    print(stats, file=sys.stderr)
    return 1 if n_fals else 0


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    params = _params_from_args(args)
    report = bounds_mod.bounds_report(
        args.m, lam=args.lam, x=args.x, q=args.q, params=params
    )
    _write_output(_json_text(report), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortint",
        description="Prime counts in short intervals: sieve, tuples, densities, "
        "window slides, and bound formulas.",
    )
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("sieve", help="count the primes up to --limit, segment by segment")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("density", help="window-count densities or growth ratios")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--mod", type=int, default=None, help="progression modulus")
    p.add_argument("--res", type=int, default=None, help="progression residue")
    p.add_argument("--disc", type=int, default=None, help="fundamental discriminant")
    p.add_argument(
        "--class", dest="cls", type=int, choices=(1, -1), default=None,
        help="quadratic splitting class (+1 or -1)",
    )
    p.add_argument("--compare-poisson", action="store_true")
    p.add_argument("--growth", action="store_true", help="emit x vs 2x count ratios")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("tuples", help="greedy sieve, admissibility, singular series")
    tsub = p.add_subparsers(dest="tuples_command")

    g = tsub.add_parser("greedy", help="greedy-sieve a window; optionally select")
    g.add_argument("--window", type=float, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--spacing", type=int, default=None)
    g.add_argument("--count", action="store_true", help="count spaced selections")
    g.add_argument("--strategy", choices=("first-fit", "random"), default="first-fit")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", default="-")
    g.set_defaults(func=_cmd_tuples_greedy)

    c = tsub.add_parser("check", help="test offsets for admissibility")
    c.add_argument("--offsets", required=True, help='comma list "h1,h2,..."')
    c.set_defaults(func=_cmd_tuples_check)

    s = tsub.add_parser("series", help="singular series of an admissible tuple")
    s.add_argument("--offsets", required=True)
    s.add_argument("--cutoff", type=int, required=True)
    s.set_defaults(func=_cmd_tuples_series)

    p = sub.add_parser("slide", help="scan clusters and slide windows across them")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x-lo", type=int, required=True)
    p.add_argument("--x-hi", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--require-spacing", action="store_true")
    p.add_argument("--max-clusters", type=int, default=1000)
    p.add_argument("--constants", default=None, help="JSON file of bound constants")
    p.add_argument("--out", default="-", help="trace CSV destination")
    p.add_argument(
        "--falsifications", default="-",
        help="falsification JSONL destination (default: stderr)",
    )
    p.set_defaults(func=_cmd_slide)

    p = sub.add_parser("bounds", help="derived constants and bound values as JSON")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--constants", default=None, help="JSON file of bound constants")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ShortIntervalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    """Run main and end the process with its exit code.

    When main returns, every output file is closed and every forked worker
    reaped, so once the standard streams are flushed the process ends with
    os._exit: the interpreter's teardown, mostly a last garbage collection
    over the objects the imports made, would take 15-35 ms and change
    nothing.  When a flush fails (a closed pipe), or a profiler, tracer or
    sys.monitoring tool (cProfile from Python 3.12 on) is attached, it ends
    by SystemExit instead, so that they see the usual exit.
    """
    code = main()
    if not _observed():
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:  # a closed pipe or stream, or none: the usual exit reports it
            pass
        else:
            os._exit(code)
    raise SystemExit(code)


def _observed() -> bool:
    """Whether a profiler, tracer or sys.monitoring tool watches the process."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 on
    return (
        sys.getprofile() is not None
        or sys.gettrace() is not None
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
    )


if __name__ == "__main__":
    main_entry()

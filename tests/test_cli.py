import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from shortint import cli, clusters, density, primes
from shortint.cli import main
from shortint.errors import MemoryBudgetError, ParameterRangeError
from shortint.tuples import greedy_sieve


def test_sieve_prints_count(capsys):
    assert main(["sieve", "--limit", "10000"]) == 0
    assert capsys.readouterr().out.strip() == "1229"


def test_tuples_check_exit_codes(capsys):
    assert main(["tuples", "check", "--offsets", "0,2,4"]) == 1
    assert capsys.readouterr().out.strip() == "inadmissible (p=3 covered)"
    assert main(["tuples", "check", "--offsets", "0,2,6"]) == 0
    assert capsys.readouterr().out.strip() == "admissible"


def test_tuples_series_value(capsys):
    assert main(["tuples", "series", "--offsets", "0,2", "--cutoff", "1000000"]) == 0
    value = float(capsys.readouterr().out)
    assert abs(value - 1.32032) < 1e-3


def test_tuples_greedy_variants(capsys):
    assert main(["tuples", "greedy", "--window", "20", "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0,2,6,8,12,14,18,20"

    assert main(
        ["tuples", "greedy", "--window", "20", "--k", "2", "--spacing", "10"]
    ) == 0
    assert capsys.readouterr().out.strip() == "0,12"

    assert main(
        ["tuples", "greedy", "--window", "20", "--k", "2", "--spacing", "10", "--count"]
    ) == 0
    assert capsys.readouterr().out.splitlines() == ["exact,bound", "15,0"]

    assert main(
        ["tuples", "greedy", "--window", "10", "--k", "2", "--spacing", "50"]
    ) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_density_csv_expected_rows(capsys):
    assert main(
        ["density", "--lambda", "1", "--x", "10", "--m-max", "3", "--compare-poisson"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,count,density,poisson,ratio"
    assert lines[1].split(",")[:3] == ["0", "2", "0.2"]


def test_density_outputs_are_reproducible(tmp_path, monkeypatch):
    args = [
        "density", "--lambda", "0.5", "--x", "2000", "--m-max", "4",
        "--mod", "4", "--res", "1", "--compare-poisson",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(a)]) == 0
    monkeypatch.setattr(density, "SCAN_CHUNK", 300)
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_density_json_and_growth(tmp_path, capsys):
    assert main(
        ["density", "--lambda", "1", "--x", "50", "--m-max", "2", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x"] == 50 and "densities" in payload

    assert main(
        ["density", "--lambda", "1", "--x", "2000", "--m-max", "2", "--growth"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,count_x,count_2x,ratio"
    assert len(lines) == 4


def test_density_filter_flag_validation(capsys):
    assert main(["density", "--lambda", "1", "--x", "10", "--m-max", "1", "--mod", "4"]) == 1
    assert "--res" in capsys.readouterr().err
    assert (
        main(
            ["density", "--lambda", "1", "--x", "10", "--m-max", "1",
             "--mod", "4", "--res", "1", "--disc", "5", "--class", "1"]
        )
        == 1
    )


def test_density_kronecker_filter(capsys):
    assert main(
        ["density", "--lambda", "2", "--x", "500", "--m-max", "3",
         "--disc", "5", "--class", "-1"]
    ) == 0
    assert capsys.readouterr().out.startswith("m,count")


def test_slide_writes_traces_and_stats(tmp_path, capsys):
    out = tmp_path / "traces.csv"
    fals = tmp_path / "records.jsonl"
    code = main(
        ["slide", "--lambda", "1", "--x-lo", "10000", "--x-hi", "12000",
         "--m", "1", "--max-clusters", "20",
         "--out", str(out), "--falsifications", str(fals)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j,N_j,count"
    assert fals.read_text() == ""
    err = capsys.readouterr().err
    assert "traces=20" in err and "falsifications=0" in err


def test_slide_nonzero_exit_on_falsification(tmp_path, capsys):
    # pathological scan (window growth > 1 per step) must fail loudly
    code = main(
        ["slide", "--lambda", "30", "--x-lo", "3", "--x-hi", "3", "--m", "0",
         "--out", str(tmp_path / "t.csv")]
    )
    assert code == 1
    assert "count-jump" in capsys.readouterr().err


def test_slide_with_no_clusters_writes_the_header_only(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(
        ["slide", "--lambda", "1", "--x-lo", "10000", "--x-hi", "12000",
         "--m", "1", "--max-clusters", "0", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == "j,N_j,count\n"
    assert capsys.readouterr().err == (
        "traces=0 with_drop=0 m_runs=0 longest_run=0 falsifications=0\n"
    )


def test_slide_stdout_matches_the_out_file(tmp_path, capsys):
    argv = ["slide", "--lambda", "1", "--x-lo", "10000", "--x-hi", "12000",
            "--m", "1", "--max-clusters", "50"]
    out = tmp_path / "t.csv"
    assert main([*argv, "--out", str(out)]) == 0
    to_file = capsys.readouterr()
    assert main([*argv, "--out", "-"]) == 0
    to_stdout = capsys.readouterr()
    assert to_file.out == ""
    assert to_stdout.out == out.read_text()
    assert to_stdout.err == to_file.err


@pytest.mark.parametrize(
    "argv",
    (
        ["--lambda", "1", "--x-lo", "10000", "--x-hi", "12000", "--m", "1",
         "--max-clusters", "20"],
        ["--lambda", "30", "--x-lo", "3", "--x-hi", "40", "--m", "0"],
    ),
)
def test_slide_blocks_do_not_change_output(tmp_path, capsys, monkeypatch, argv):
    # blocks of 3 clusters, or of the bases in one aligned range of 8
    # integers, put block boundaries between overlapping traces and between
    # the count-jump records
    slide, spans = clusters.slide, []

    def recorded(lam, bases, m, **kwargs):
        spans.append(max(bases) // clusters.SLIDE_SPAN - min(bases) // clusters.SLIDE_SPAN)
        return slide(lam, bases, m, **kwargs)

    monkeypatch.setattr(clusters, "slide", recorded)
    outputs = []
    for block, span in ((clusters.SLIDE_BLOCK, clusters.SLIDE_SPAN), (3, 2**22), (4096, 8)):
        monkeypatch.setattr(clusters, "SLIDE_BLOCK", block)
        monkeypatch.setattr(clusters, "SLIDE_SPAN", span)
        out, fals = tmp_path / f"t{block}_{span}.csv", tmp_path / f"f{block}_{span}.jsonl"
        code = main(["slide", *argv, "--out", str(out), "--falsifications", str(fals)])
        outputs.append((code, out.read_text(), fals.read_text(), capsys.readouterr()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][1].count("\n") > 40
    assert len(spans) > 4 and set(spans) == {0}


@pytest.mark.parametrize("refuse", (False, True), ids=("near-its-bases", "refused"))
def test_slide_setup_limits_leave_the_output_alone(tmp_path, capsys, monkeypatch, refuse):
    # lambda 5000 needs 103,617 breakpoints up to x_hi = 1e9, more than a
    # set-up may settle, but the run's one cluster is at 10, so its set-up
    # covers bases up to 20 only; when that set-up is refused, the block sets
    # up its own, for its one base.  Either way the run writes what slide()
    # alone gives.
    alone = clusters.slide(5000.0, [10], 1)
    tops, make = [], clusters.slide_setup

    def setup(lam, lo, top):
        tops.append(top)
        if refuse and top == 20:
            raise ParameterRangeError("refused")
        return make(lam, lo, top)

    monkeypatch.setattr(clusters, "slide_setup", setup)
    out, fals = tmp_path / "t.csv", tmp_path / "f.jsonl"
    argv = ["slide", "--lambda", "5000", "--x-lo", "10", "--x-hi", "1000000000",
            "--m", "1", "--max-clusters", "1", "--out", str(out),
            "--falsifications", str(fals)]
    assert main(argv) == 1  # the count jumps of so wide a window
    err = capsys.readouterr().err
    assert "error" not in err and err.startswith("traces=1 ")
    assert out.read_text() == clusters.trace_csv(alone)
    assert fals.read_text() == clusters.falsifications_jsonl(alone)
    assert len(alone.counts) > 10000 and alone.falsifications
    assert tops == ([20, 10] if refuse else [20])


def test_slide_with_constants_file(tmp_path, capsys):
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({"scale": 2.0}))
    code = main(
        ["slide", "--lambda", "1", "--x-lo", "100000", "--x-hi", "110000",
         "--m", "0", "--require-spacing", "--max-clusters", "10",
         "--constants", str(consts), "--out", str(tmp_path / "t.csv")]
    )
    assert code == 0


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(name):
        raise AssertionError(f"{name} in the output is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_bounds_json(capsys):
    assert main(["bounds", "--m", "0"]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["k"] == 50
    assert payload["lambda_cap"] == pytest.approx(1.0454834985607873e-08, rel=1e-11)

    assert main(["bounds", "--m", "0", "--lambda", "1e-9", "--x", "1e30", "--q", "3"]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert "primes" in payload["bounds"]
    assert "range_check" in payload


def test_bounds_respects_constants_file(tmp_path, capsys):
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({"scale": 2.0}))
    assert main(["bounds", "--m", "0", "--constants", str(consts)]) == 0
    assert strict_json(capsys.readouterr().out)["k"] == 2


@pytest.mark.parametrize(
    "argv, error",
    (
        *(
            (["--lambda", lam, *x], error)
            for lam, error in (
                ("nan", "lambda must be finite and positive, got nan"),
                ("inf", "lambda must be finite and positive, got inf"),
                ("-1", "lambda must be positive, got -1.0"),
                ("0", "lambda must be positive, got 0.0"),
            )
            for x in ([], ["--x", "1e6"])
        ),
        *(
            ([*lam, "--x", x], error)
            for x, error in (
                ("nan", "x must be finite and > 1, got nan"),
                ("inf", "x must be finite and > 1, got inf"),
                ("1", "x must exceed 1, got 1.0"),
            )
            for lam in ([], ["--lambda", "1e-9"])
        ),
    ),
)
def test_bounds_refuses_bad_lambda_and_x(capsys, argv, error):
    # NaN and Infinity once went out as invalid JSON, and a bad lambda
    # without --x only as an error entry per bound variant, with exit 0
    assert main(["bounds", "--m", "0", *argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "text, error",
    (
        ('{"scale": Infinity}', "scale must be finite, got inf"),
        ('{"decay": Infinity}', "decay must be finite, got inf"),
        ('{"growth": NaN}', "growth must be finite, got nan"),
    ),
)
def test_non_finite_constants_exit_1_with_one_line(tmp_path, capsys, text, error):
    # json.load reads these non-standard names; one ended in an OverflowError
    # traceback, one printed "decay": Infinity, one failed converting NaN
    consts = tmp_path / "c.json"
    consts.write_text(text)
    out = tmp_path / "t.csv"
    for argv in (
        ["bounds", "--m", "0"],
        ["slide", "--lambda", "1", "--x-lo", "10", "--x-hi", "100", "--m", "0",
         "--out", str(out)],
    ):
        assert main([*argv, "--constants", str(consts)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"
        assert not out.exists()


def test_bounds_tuple_size_past_floats_exits_1_with_one_line(tmp_path, capsys):
    # ceil(1e300 * e^49) once ended in an OverflowError traceback
    consts = tmp_path / "c.json"
    consts.write_text('{"scale": 1e300}')
    assert main(["bounds", "--m", "1", "--constants", str(consts)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: tuple size overflows the float range at m=1 (49*m/growth = 49.0, "
        "at most 700; scale = 1e+300); lower m or scale, or raise growth\n"
    )


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--lambda", "1"])  # missing required flags
    assert exc.value.code == 2
    assert main([]) == 2


class _Stream:
    """A standard stream that records its flushes in events."""

    def __init__(self, name, events, fails=False):
        self.name, self.events, self.fails = name, events, fails

    def flush(self):
        self.events.append(("flush", self.name))
        if self.fails:
            raise BrokenPipeError("closed pipe")


class _Exited(Exception):
    pass


def _main_entry(monkeypatch, fails=False):
    """The events of cli.main_entry with main returning 3 and os._exit
    recorded, ending in ("SystemExit", code) when it raised that."""
    events = []

    def exit_now(code):
        events.append(("_exit", code))
        raise _Exited

    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(cli.os, "_exit", exit_now)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events, fails))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    try:
        cli.main_entry()
    except SystemExit as done:
        events.append(("SystemExit", done.code))
    except _Exited:
        pass
    return events


def test_main_entry_flushes_then_ends_without_teardown(monkeypatch):
    # as in a run that no profiler, tracer or coverage tool watches
    monkeypatch.setattr(cli, "_observed", lambda: False)
    assert _main_entry(monkeypatch) == [
        ("flush", "stdout"), ("flush", "stderr"), ("_exit", 3)
    ]


def test_main_entry_exits_as_usual_when_a_flush_fails(monkeypatch):
    monkeypatch.setattr(cli, "_observed", lambda: False)
    assert _main_entry(monkeypatch, fails=True) == [
        ("flush", "stdout"), ("SystemExit", 3)
    ]


def test_main_entry_exits_as_usual_under_a_profiler(monkeypatch):
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        events = _main_entry(monkeypatch)
    finally:
        sys.setprofile(previous)
    assert events == [("SystemExit", 3)]


@pytest.mark.skipif(not hasattr(sys, "monitoring"), reason="sys.monitoring is 3.12 on")
def test_a_monitoring_tool_counts_as_observed():
    # cProfile attaches this way from 3.12 on, with no profile function
    sys.monitoring.use_tool_id(4, "test")
    try:
        assert cli._observed()
    finally:
        sys.monitoring.free_tool_id(4)


def test_tuples_greedy_huge_window_fails_with_budget_error(capsys):
    assert main(["tuples", "greedy", "--window", "1e12", "--k", "3"]) == 1
    assert "budget" in capsys.readouterr().err


def test_precondition_errors_exit_1(capsys, tmp_path):
    assert main(["density", "--lambda", "-2", "--x", "10", "--m-max", "1"]) == 1
    assert "lambda" in capsys.readouterr().err
    assert main(["sieve", "--limit", "1"]) == 1
    capsys.readouterr()
    assert main(["sieve", "--limit", str(primes.MAX_LIMIT + 1)]) == 1
    assert capsys.readouterr().err.startswith("error: sieve limit 9,223,372,030,780,774,812 ")
    assert main(["density", "--lambda", "1", "--x", "0", "--m-max", "1"]) == 1
    assert "error: x must be >= 1" in capsys.readouterr().err
    slide = ["slide", "--lambda", "1", "--x-lo", "1", "--m", "1"]
    assert main([*slide, "--x-hi", "0"]) == 1
    assert "need 1 <= x_lo <= x_hi" in capsys.readouterr().err
    assert main([*slide, "--x-hi", "100", "--max-clusters", "-1"]) == 1
    assert "--max-clusters must be >= 0" in capsys.readouterr().err
    out = tmp_path / "t.csv"
    assert main(["slide", "--lambda", "1", "--x-lo", "10", "--x-hi", "100",
                 "--m", "-1", "--out", str(out)]) == 1
    assert "m must be non-negative" in capsys.readouterr().err
    assert not out.exists()
    assert main(["slide", "--lambda", "1", "--x-lo", "100", "--x-hi", "200",
                 "--m", "-1", "--max-clusters", "0", "--out", str(out)]) == 1
    assert "m must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "override, budget, error",
    (
        (["--lambda", "-1"], None, "lambda must be positive, got -1.0"),
        (["--lambda", "nan"], None, "lambda must be finite and positive, got nan"),
        (["--x-lo", "200"], None, "need 1 <= x_lo <= x_hi, got 200, 100"),
        (["--m", "-1"], None, "m must be non-negative, got -1"),
        (["--lambda", "1000"], 10**5, "a cluster window of 23025 integers at "),
    ),
)
def test_slide_of_no_clusters_checks_its_arguments(
    monkeypatch, capsys, tmp_path, override, budget, error
):
    # with --max-clusters 0 no cluster is asked for: find_clusters checks
    # when called, and the CLI opens no output file
    if budget is not None:
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET", budget)
    out = tmp_path / "t.csv"
    argv = ["slide", "--lambda", "1", "--x-lo", "10", "--x-hi", "100", "--m", "1",
            "--max-clusters", "0", *override, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_m_checks_run_before_the_sieve(monkeypatch, capsys):
    def no_sieve(limit):
        raise AssertionError(f"the sieve to {limit} ran before the argument checks")

    monkeypatch.setattr(primes, "_segments", no_sieve)
    assert main(["density", "--lambda", "1", "--x", "100000000", "--m-max", "-1"]) == 1
    assert "error: m_max must be >= 0" in capsys.readouterr().err
    assert main(["density", "--lambda", "1", "--x", "4000000000", "--m-max", "-1",
                 "--growth"]) == 1
    assert "error: m_max must be >= 0" in capsys.readouterr().err
    assert main(["slide", "--lambda", "1", "--x-lo", "100", "--x-hi", "200",
                 "--m", "-1", "--max-clusters", "0"]) == 1
    assert "m must be non-negative" in capsys.readouterr().err


def test_slide_refuses_a_cluster_window_beyond_the_memory_budget(
    monkeypatch, capsys, tmp_path
):
    # the window's primes are read at once: 5*1000*log(100) = 23025 integers
    # need about 0.7 MB, so this budget refuses them before any sieving
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET", 10**5)
    out = tmp_path / "t.csv"
    argv = ["slide", "--lambda", "1000", "--x-lo", "10", "--x-hi", "100", "--m", "1"]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a cluster window of 23025 integers at lambda=1000.0 ")
    assert err.endswith(" bytes for its primes; budget is 100,000\n")
    assert not out.exists()


def test_density_has_no_memory_budget(monkeypatch, capsys):
    # the scan keeps no prime table: a budget that refuses the table to x
    # still lets it run, since the only primes it holds at once are a
    # segment's and the base primes up to sqrt(x), about 1 kB here
    argv = ["density", "--lambda", "1", "--x", "100000", "--m-max", "4"]
    assert main(argv) == 0
    unpatched = capsys.readouterr()
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET", 10**4)
    with pytest.raises(MemoryBudgetError):
        primes.build_table(100000)
    assert main(argv) == 0
    assert capsys.readouterr() == unpatched


@pytest.mark.parametrize(
    "argv",
    (
        ["density", "--lambda", "inf", "--x", "10", "--m-max", "1"],
        ["density", "--lambda", "nan", "--x", "10", "--m-max", "1"],
        ["density", "--lambda", "nan", "--x", "10", "--m-max", "1", "--growth"],
        ["slide", "--lambda", "nan", "--x-lo", "10", "--x-hi", "100", "--m", "1"],
        ["slide", "--lambda", "inf", "--x-lo", "10", "--x-hi", "100", "--m", "1"],
    ),
)
def test_non_finite_lambda_exits_1_with_one_line(capsys, argv):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: lambda must be finite and positive, got ")
    assert out.err.count("\n") == 1 and "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv",
    (
        ["density", "--lambda", "1e308", "--x", "10", "--m-max", "1"],
        ["slide", "--lambda", "1e308", "--x-lo", "10", "--x-hi", "100", "--m", "1"],
    ),
)
def test_huge_lambda_exits_1_with_one_line(capsys, argv):
    # finite, but the table limit x + lam*log x is not
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: the table limit for x=")
    assert "overflows the float range" in out.err
    assert out.err.count("\n") == 1 and "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv",
    (
        ["density", "--lambda", "1000000", "--x", "100", "--m-max", "1"],
        ["slide", "--lambda", "1000000", "--x-lo", "10", "--x-hi", "100", "--m", "1",
         "--max-clusters", "10"],
    ),
)
def test_lambda_with_too_many_edge_breakpoints_exits_1_at_once(argv, tmp_path):
    # about 1.6e7 breakpoints: their loop never returned; a child with a
    # timeout keeps a regression from hanging the suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, "-m", "shortint.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert not out.exists()
    assert done.stderr.startswith("error: lambda=1000000.0 needs ")
    assert " window-edge breakpoints up to " in done.stderr
    assert done.stderr.endswith("; at most 100,000 are supported\n")
    assert done.stderr.count("\n") == 1


def test_tuples_count_beyond_170_factorial(capsys):
    # k! leaves the float range at k = 171; the bound must not
    argv = ["tuples", "greedy", "--window", "2000", "--k", "171", "--spacing", "0",
            "--count"]
    assert main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "exact,bound"
    exact, bound = row.split(",")
    n = len(greedy_sieve(2000, 171))
    assert int(exact) == math.comb(n, 171)
    assert float(bound) == pytest.approx(float(Fraction(n**171, math.factorial(171))),
                                         rel=1e-11)
    argv = ["tuples", "greedy", "--window", "100000", "--k", "200", "--spacing", "1",
            "--count"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",inf")
    n = len(greedy_sieve(100000, 200))
    true_bound = Fraction(math.prod(n - 2 * i for i in range(200)), math.factorial(200))
    assert true_bound > sys.float_info.max

import json

import pytest

from shortint import cli, clusters, density
from shortint.cli import main


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
    # blocks of 3 clusters put block boundaries inside the covering runs and
    # between the count-jump records
    outputs = []
    for block in (clusters.SLIDE_BLOCK, 3):
        monkeypatch.setattr(clusters, "SLIDE_BLOCK", block)
        out, fals = tmp_path / f"t{block}.csv", tmp_path / f"f{block}.jsonl"
        code = main(["slide", *argv, "--out", str(out), "--falsifications", str(fals)])
        outputs.append((code, out.read_text(), fals.read_text(), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count("\n") > 40


def test_slide_with_constants_file(tmp_path, capsys):
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({"scale": 2.0}))
    code = main(
        ["slide", "--lambda", "1", "--x-lo", "100000", "--x-hi", "110000",
         "--m", "0", "--require-spacing", "--max-clusters", "10",
         "--constants", str(consts), "--out", str(tmp_path / "t.csv")]
    )
    assert code == 0


def test_bounds_json(capsys):
    assert main(["bounds", "--m", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 50
    assert payload["lambda_cap"] == pytest.approx(1.0454834985607873e-08, rel=1e-11)

    assert main(["bounds", "--m", "0", "--lambda", "1e-9", "--x", "1e30", "--q", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "primes" in payload["bounds"]
    assert "range_check" in payload


def test_bounds_respects_constants_file(tmp_path, capsys):
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({"scale": 2.0}))
    assert main(["bounds", "--m", "0", "--constants", str(consts)]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--lambda", "1"])  # missing required flags
    assert exc.value.code == 2
    assert main([]) == 2


def test_tuples_greedy_huge_window_fails_with_budget_error(capsys):
    assert main(["tuples", "greedy", "--window", "1e12", "--k", "3"]) == 1
    assert "budget" in capsys.readouterr().err


def test_precondition_errors_exit_1(capsys, tmp_path):
    assert main(["density", "--lambda", "-2", "--x", "10", "--m-max", "1"]) == 1
    assert "lambda" in capsys.readouterr().err
    assert main(["sieve", "--limit", "1"]) == 1
    capsys.readouterr()
    assert main(["density", "--lambda", "1", "--x", "0", "--m-max", "1"]) == 1
    assert "--x must be >= 1" in capsys.readouterr().err
    slide = ["slide", "--lambda", "1", "--x-lo", "1", "--m", "1"]
    assert main([*slide, "--x-hi", "0"]) == 1
    assert "--x-hi" in capsys.readouterr().err
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


def test_m_checks_run_before_the_sieve(monkeypatch, capsys):
    def no_sieve(limit):
        raise AssertionError(f"build_table({limit}) ran before the argument checks")

    monkeypatch.setattr(cli, "build_table", no_sieve)
    assert main(["density", "--lambda", "1", "--x", "100000000", "--m-max", "-1"]) == 1
    assert "--m-max must be >= 0" in capsys.readouterr().err
    assert main(["density", "--lambda", "1", "--x", "4000000000", "--m-max", "-1",
                 "--growth"]) == 1
    assert "--m-max must be >= 0" in capsys.readouterr().err
    assert main(["slide", "--lambda", "1", "--x-lo", "100", "--x-hi", "200",
                 "--m", "-1", "--max-clusters", "0"]) == 1
    assert "m must be non-negative" in capsys.readouterr().err


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
    assert out.err.startswith("error: --lambda must be finite and positive, got ")
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

"""Command-line interface: dispatch, file formats, exit codes, replay."""

import csv
import json

import numpy as np
import pytest

from spatreg.cli import MAX_POINTS, main, parse_point_grid


def run(*argv):
    return main([str(a) for a in argv])


def argv_from_echo(echo, overrides=None):
    """Rebuild a command line from a config echo (replay helper)."""
    echo = dict(echo)
    if overrides:
        echo.update(overrides)
    argv = [echo.pop("command")]
    rename = {"infile": "in"}
    for key, value in echo.items():
        if value is None:
            continue
        flag = "--" + rename.get(key, key).replace("_", "-")
        if isinstance(value, list):
            for item in value:
                argv.extend([flag, str(item)])
        else:
            argv.extend([flag, str(value)])
    return argv


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    assert run("simulate", "--n", 200, "--seed", 7, "--out", path) == 0
    return path


class TestParsePointGrid:
    def test_inclusive_grid(self):
        np.testing.assert_allclose(
            parse_point_grid("-0.5:0.1:0.5"), np.linspace(-0.5, 0.5, 11), atol=1e-12
        )

    def test_endpoint_snapped(self):
        pts = parse_point_grid("0:0.1:0.30000000001")
        assert pts.size == 4
        assert pts[-1] == pytest.approx(0.3)

    def test_single_value(self):
        np.testing.assert_array_equal(parse_point_grid("0.25"), [0.25])

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            parse_point_grid("0:1")
        with pytest.raises(ValueError):
            parse_point_grid("0:-0.1:1")
        with pytest.raises(ValueError):
            parse_point_grid("1:0.1:0")

    def test_max_points_boundary(self):
        assert parse_point_grid(f"0:1:{MAX_POINTS - 1}").size == MAX_POINTS
        with pytest.raises(ValueError, match="more than"):
            parse_point_grid(f"0:1:{MAX_POINTS}")


class TestSimulate:
    def test_writes_rows_and_sidecar(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run("simulate", "--n", 750, "--seed", 7, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "v", "x", "y"]
        assert len(rows) == 751
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert meta["config"]["n"] == 750
        assert meta["dei_metrics"]["max_nearest_distance"] > 0

    def test_replay_is_bit_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        assert run("simulate", "--n", 120, "--seed", 3, "--out", first) == 0
        echo = json.loads((tmp_path / "a.csv.meta.json").read_text())["config"]
        second = tmp_path / "b.csv"
        assert main(argv_from_echo(echo, {"out": str(second)})) == 0
        assert first.read_bytes() == second.read_bytes()


class TestEstimate:
    def test_eleven_point_curve(self, sample_csv, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            run(
                "estimate", "--in", sample_csv, "--target", "mean",
                "--bandwidth", 0.5, "--points", "-0.5:0.1:0.5", "--out", out,
            )
            == 0
        )
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert rows[0]["target"] == "mean"
        assert (tmp_path / "curve.csv.config.json").exists()

    @pytest.mark.parametrize("target", ["density", "jackknife", "variance"])
    def test_other_targets(self, sample_csv, tmp_path, target):
        out = tmp_path / f"{target}.csv"
        assert run("estimate", "--in", sample_csv, "--target", target, "--out", out) == 0

    def test_degenerate_points_written_as_nan(self, sample_csv, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            run(
                "estimate", "--in", sample_csv, "--target", "mean",
                "--points", "40:1:42", "--out", out,
            )
            == 0
        )
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["value"] == "nan" for row in rows)

    def test_json_format(self, sample_csv, tmp_path):
        out = tmp_path / "curve.json"
        assert (
            run(
                "estimate", "--in", sample_csv, "--target", "density",
                "--format", "json", "--out", out,
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 11

    def test_replay_is_bit_identical(self, sample_csv, tmp_path):
        first = tmp_path / "c1.csv"
        assert run("estimate", "--in", sample_csv, "--target", "variance", "--out", first) == 0
        echo = json.loads((tmp_path / "c1.csv.config.json").read_text())["config"]
        second = tmp_path / "c2.csv"
        assert main(argv_from_echo(echo, {"out": str(second)})) == 0
        assert first.read_bytes() == second.read_bytes()


class TestBand:
    def test_band_columns(self, sample_csv, tmp_path):
        out = tmp_path / "band.csv"
        assert (
            run(
                "band", "--in", sample_csv, "--target", "variance",
                "--tau", 0.05, "--out", out,
            )
            == 0
        )
        header = out.read_text().splitlines()[0]
        assert header == "x,center,lo,hi,target,tau,q_tau,bandwidth"

    def test_degenerate_band_exits_4_and_names_point(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "band.csv"
        code = run(
            "band", "--in", sample_csv, "--target", "mean",
            "--points", "40:1:42", "--out", out,
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "DegenerateDensityError" in err
        assert "40" in err

    def test_variance_band_empty_interval_exits_4(self, sample_csv, tmp_path, capsys):
        code = run(
            "band", "--in", sample_csv, "--target", "variance",
            "--points", "40:1:42", "--out", tmp_path / "band.csv",
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_shared_rate_flag(self, sample_csv, tmp_path):
        out = tmp_path / "band.csv"
        assert (
            run(
                "band", "--in", sample_csv, "--target", "mean",
                "--variance-bandwidth", 0.4, "--rate-bandwidth", "shared",
                "--out", out,
            )
            == 0
        )
        sidecar = json.loads((tmp_path / "band.csv.config.json").read_text())
        assert sidecar["rate_bandwidth"] == 0.4


class TestSelectBandwidth:
    def test_trace_json(self, sample_csv, tmp_path):
        out = tmp_path / "sel.json"
        assert run("select-bandwidth", "--in", sample_csv, "--out", out) == 0
        payload = json.loads(out.read_text())
        for stage in ("mean", "variance"):
            assert len(payload[stage]["adjacent_distances"]) == 19
            assert 2 <= payload[stage]["chosen_index"] <= 20
            assert payload[stage]["chosen_bandwidth"] > 0


class TestMcCommands:
    def test_mc_clt(self, tmp_path):
        outdir = tmp_path / "clt"
        assert (
            run(
                "mc-clt", "--replications", 3, "--n", 120,
                "--seed", 1, "--outdir", outdir,
            )
            == 0
        )
        assert (outdir / "scores.csv").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["replications_used"] == 3
        assert json.loads((outdir / "config.json").read_text())["config"]["n"] == 120

    def test_mc_coverage(self, tmp_path):
        outdir = tmp_path / "cov"
        assert (
            run(
                "mc-coverage", "--replications", 3, "--n", 120,
                "--tau", 0.05, "--tau", 0.2, "--outdir", outdir,
            )
            == 0
        )
        with open(outdir / "coverage.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4

    def test_loss_curves(self, tmp_path):
        outdir = tmp_path / "loss"
        assert (
            run(
                "loss-curves", "--replications", 2, "--n", 120,
                "--grid-size", 4, "--outdir", outdir,
            )
            == 0
        )
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["loss_bandwidths"]) == 4


    @pytest.mark.parametrize(
        "command, table, extra",
        [
            ("mc-clt", "scores", []),
            ("mc-coverage", "coverage", ["--tau", 0.05, "--tau", 0.2]),
            ("loss-curves", "losses", ["--grid-size", 4]),
        ],
    )
    def test_json_format(self, tmp_path, command, table, extra):
        outdir = tmp_path / "out"
        assert (
            run(command, "--replications", 2, "--n", 120, "--format", "json",
                *extra, "--outdir", outdir)
            == 0
        )
        assert not (outdir / f"{table}.csv").exists()
        rows = json.loads((outdir / f"{table}.json").read_text())["rows"]
        csv_dir = tmp_path / "csv"
        assert run(command, "--replications", 2, "--n", 120, *extra, "--outdir", csv_dir) == 0
        with open(csv_dir / f"{table}.csv") as fh:
            csv_rows = list(csv.DictReader(fh))
        # Same table either way: CSV cells are the JSON values as text, with
        # null written as an empty cell.
        assert len(rows) > 0
        as_text = [{k: "" if v is None else str(v) for k, v in row.items()} for row in rows]
        assert as_text == csv_rows
        if table == "losses":
            assert rows[0]["adjacent_distance"] is None

    def test_all_degenerate_clt_writes_header_only(self, tmp_path):
        outdir = tmp_path / "clt"
        assert (
            run("mc-clt", "--replications", 2, "--n", 120, "--points", "40:1:42",
                "--outdir", outdir)
            == 0
        )
        assert (outdir / "scores.csv").read_text() == "replication,design_point,target,score\n"
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["replications_used"] == 0
        assert summary["degeneracies"] == 2
        assert summary["score_stats"]["mean"][0]["mean"] is None


class TestExitCodes:
    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = run("estimate", "--in", tmp_path / "nope.csv", "--target", "mean",
                   "--out", tmp_path / "x.csv")
        assert code == 3

    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("u,v,x,y\n1,2,3,4\n5,6,oops,8\n")
        code = run("estimate", "--in", bad, "--target", "mean", "--out", tmp_path / "x.csv")
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_nonfinite_cell_is_data_error(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"u,v,x,y\n1,2,3,4\n5,6,{cell},8\n")
        code = run("estimate", "--in", bad, "--target", "mean", "--out", tmp_path / "x.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 3" in err

    def test_directory_input_is_data_error(self, tmp_path, capsys):
        code = run("estimate", "--in", tmp_path, "--target", "mean", "--out", tmp_path / "x.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "IsADirectoryError" in err

    def test_undecodable_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"u,v,x,y\n1,2,3,4\n\xff\xfe,6,7,8\n")
        code = run("estimate", "--in", bad, "--target", "mean", "--out", tmp_path / "x.csv")
        assert code == 3
        assert capsys.readouterr().err.count("\n") == 1

    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('u,v,x,y\n1,2,3,4\n5,6,"' + "1" * 200_000 + '",8\n')
        code = run("estimate", "--in", bad, "--target", "mean", "--out", tmp_path / "x.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 3" in err

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        code = run("mc-clt", "--replications", 2, "--n", 120, "--workers", workers,
                   "--outdir", tmp_path / "clt")
        assert code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "clt").exists()

    @pytest.mark.parametrize(
        "points", ["nan", "inf", "-inf", "0:0.1:inf", "0:nan:1", "-inf:0.1:0", "nan:1:2"]
    )
    def test_nonfinite_points_are_usage_error(self, sample_csv, tmp_path, capsys, points):
        code = run("estimate", "--in", sample_csv, "--target", "mean",
                   "--points", points, "--out", tmp_path / "x.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "finite" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("points", ["0:1e-12:1", "-1e308:1e-308:1e308", "0:1:1000000"])
    def test_oversized_grid_is_usage_error(self, sample_csv, tmp_path, capsys, points):
        code = run("band", "--in", sample_csv, "--target", "mean",
                   "--points", points, "--out", tmp_path / "x.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "more than 1000000 points" in err

    def test_unknown_kernel_is_usage_error(self, sample_csv, tmp_path):
        code = run("estimate", "--in", sample_csv, "--target", "mean",
                   "--kernel", "gaussian", "--out", tmp_path / "x.csv")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 2

    def test_missing_required_flag(self, capsys):
        assert run("simulate") == 2

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0


class TestRoundTrip:
    def test_simulate_estimate_band_defaults(self, tmp_path):
        data = tmp_path / "data.csv"
        assert run("simulate", "--seed", 0, "--n", 750, "--out", data) == 0
        assert (
            run("estimate", "--in", data, "--target", "jackknife",
                "--out", tmp_path / "mu.csv") == 0
        )
        for target in ("density", "mean", "variance"):
            assert (
                run("band", "--in", data, "--target", target,
                    "--out", tmp_path / f"{target}.csv") == 0
            )

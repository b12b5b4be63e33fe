import importlib
import json
import shlex
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from attraos import cli
from attraos import forecaster as fc
from attraos.cli import build_parser, main, read_csv, write_csv
from attraos.embedding import (EmbeddingParams, delay_embed, fnn_profile, mi_profile,
                              select_embedding)


def strict_json(text):
    """Parse ``text`` as standard JSON, which has no NaN or infinities."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def lorenz_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "l63.csv"
    code = main(
        [
            "simulate", "--system", "lorenz63", "--steps", "6000", "--dt", "0.01",
            "--transient", "1000", "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestSimulate:
    def test_row_count_contract(self, tmp_path, capsys):
        out = tmp_path / "l96.csv"
        code, stdout, _ = run(
            capsys,
            "simulate", "--system", "lorenz96", "--dim", "6", "--f", "8",
            "--steps", "500", "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["rows"] == 501
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 502  # header + rows
        assert lines[0] == "t," + ",".join(f"v{i}" for i in range(6))

    def test_observation_channels(self, tmp_path, capsys):
        out = tmp_path / "l96obs.csv"
        code, stdout, _ = run(
            capsys,
            "simulate", "--system", "lorenz96", "--dim", "8", "--steps", "200",
            "--obs-dim", "3", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["channels"] == 3

    def test_invalid_dim_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--system", "lorenz96", "--dim", "3", "--steps", "10",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err.strip()

    @pytest.mark.parametrize("obs_dim", ["0", "-2"])
    def test_obs_dim_below_one_is_usage_error(self, tmp_path, capsys, obs_dim):
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys,
            "simulate", "--system", "lorenz96", "--dim", "8", "--steps", "10",
            "--obs-dim", obs_dim, "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and "--obs-dim" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--steps", "0"), ("--dt", "0"), ("--dt", "-0.01"),
                                            ("--dt", "nan"), ("--transient", "-1")])
    def test_bad_integration_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        # a repeated flag takes its last value
        code, stdout, err = run(
            capsys,
            "simulate", "--system", "lorenz63", "--steps", "10", flag, value, "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,argv", [
        ("--x0", ["--system", "lorenz63", "--x0", "abc"]),
        ("--x0", ["--system", "lorenz63", "--x0", "1,2"]),
        ("--x0", ["--system", "lorenz96", "--dim", "8", "--x0", "1,2,3"]),
        ("--x0", ["--system", "lorenz63", "--x0", "nan,1,1"]),
        ("--x0", ["--system", "lorenz63", "--x0", "1,inf,1"]),
        ("--obs-dim", ["--system", "lorenz96", "--dim", "8", "--obs-dim", "9"]),
        ("--obs-dim", ["--system", "lorenz63", "--obs-dim", "4"]),
    ], ids=["x0-text", "x0-short", "x0-l96-short", "x0-nan", "x0-inf", "obs-dim-l96",
            "obs-dim-l63"])
    def test_bad_state_flag_is_usage_error(self, tmp_path, capsys, flag, argv):
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "simulate", "--steps", "10", *argv, "--out", str(out))
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and flag in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_seed_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "simulate", "--system", "lorenz96", "--dim", "8", "--steps", "100",
                "--obs-dim", "2", "--seed", "9", "--out", str(path),
            )
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_csv_full_precision_roundtrip(self, lorenz_csv):
        data = read_csv(lorenz_csv)
        # values survive text round trip bit-exactly (17 significant digits)
        rendered = format(data[17, 0], ".17g")
        assert float(rendered) == data[17, 0]


def per_cell_csv(data, header, times=None) -> bytes:
    """CSV text formatted one cell at a time, the reference for write_csv."""
    lines = [",".join(header)]
    for i, row in enumerate(np.atleast_2d(data)):
        cells = [format(float(times[i]), ".17g")] if times is not None else []
        cells.extend(format(float(v), ".17g") for v in row)
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("with_times", [False, True], ids=["values", "with-t"])
def test_write_csv_bytes_match_per_cell_formatting(tmp_path, with_times):
    rng = np.random.default_rng(8)
    data = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
    data[0] = [-0.0, 1e-300, 1e300]
    data[1] = [0.1, np.inf, -np.inf]
    data[2] = [np.nan, 5e-324, -1.7976931348623157e308]
    times = 0.01 * np.arange(40) if with_times else None
    header = (["t"] if with_times else []) + ["a", "b", "c"]
    path = tmp_path / "out.csv"
    write_csv(path, data, header, times=times)
    assert path.read_bytes() == per_cell_csv(data, header, times)


def test_read_csv_ignores_a_byte_order_mark(tmp_path):
    # spreadsheet programs start a UTF-8 file with one
    path = tmp_path / "bom.csv"
    path.write_text("\ufefft,v0\n0,1.5\n0.01,2.5\n0.02,3.5\n", encoding="utf-8")
    assert np.array_equal(read_csv(path), [[1.5], [2.5], [3.5]])


@pytest.mark.parametrize("header", ["t,v0", "v0"], ids=["with-t", "values"])
@pytest.mark.parametrize("command", [
    ["eval", "--truth", "empty.csv", "--pred"],
    ["fit", "--window", "96", "--horizon", "16", "--out", "model.json", "--input"],
], ids=["eval", "fit"])
def test_csv_without_rows_exits_3_naming_it(tmp_path, monkeypatch, capsys, header, command):
    monkeypatch.chdir(tmp_path)
    Path("empty.csv").write_text(header + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        # loadtxt's warning about the empty body would reach stderr
        warnings.simplefilter("error")
        code, out, err = run(capsys, *command, "empty.csv")
    assert code == 3 and out == ""
    assert err == "error: no data rows in empty.csv\n"
    assert not Path("model.json").exists()


@pytest.fixture(scope="module")
def unusable_csvs(tmp_path_factory, overflowing, sine_with_nan):
    """CSVs the embedding and Lyapunov commands must reject with exit 3:
    one NaN cell, and finite values whose spread overflows the float range."""
    paths = {}
    for name, series in (("nan", sine_with_nan), ("overflow", overflowing)):
        paths[name] = tmp_path_factory.mktemp("data") / f"{name}.csv"
        write_csv(paths[name], series[:, None], ["t", "v0"], times=0.01 * np.arange(series.size))
    return paths


@pytest.mark.parametrize("command", [
    ["embed", "--out-traj", "unused.csv"],
    ["lyapunov", "--m", "3", "--tau", "4", "--horizon", "40"],
], ids=["embed", "lyapunov"])
@pytest.mark.parametrize("kind,message", [("nan", "contains NaN or inf"),
                                          ("overflow", "overflows the float range")],
                         ids=["nan", "overflow"])
def test_unusable_series_exits_3_naming_the_fault(unusable_csvs, tmp_path, monkeypatch,
                                                  capsys, command, kind, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command, "--input", str(unusable_csvs[kind]))
    assert code == 3 and out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


class TestEmbed:
    def test_embed_writes_trajectory_and_meta(self, lorenz_csv, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        meta = tmp_path / "meta.json"
        code, stdout, _ = run(
            capsys,
            "embed", "--input", str(lorenz_csv), "--max-tau", "40", "--max-m", "6",
            "--out-traj", str(traj), "--out-meta", str(meta),
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["m"] >= 1 and doc["tau"] >= 1
        assert "mi_curve" in doc and "fnn_fraction_curve" in doc
        assert doc["curve_channel"] == 0
        saved = json.loads(meta.read_text())
        assert saved["m"] == doc["m"]
        pts = read_csv(traj)
        assert pts.shape[1] == 3 * doc["m"]

    def test_failing_curves_leave_no_trajectory_file(self, tmp_path, capsys):
        # the series' spread overflows, so the MI curve fails after the
        # manual embedding has been read; nothing is written
        x = np.sin(0.05 * np.arange(1500))
        x[100], x[900] = 1.7e308, -1.7e308
        series = tmp_path / "x.csv"
        write_csv(series, x[:, None], ["x"])
        traj, meta = tmp_path / "traj.csv", tmp_path / "meta.json"
        code, out, err = run(capsys, "embed", "--input", str(series), "--m", "2", "--tau", "1",
                             "--out-traj", str(traj), "--out-meta", str(meta))
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not traj.exists() and not meta.exists()

    def test_one_column_selects_as_the_library_does(self, lorenz_csv, tmp_path, capsys):
        x = read_csv(lorenz_csv)[:, 0]
        one = tmp_path / "x.csv"
        write_csv(one, x[:, None], ["x"])
        code, stdout, _ = run(
            capsys,
            "embed", "--input", str(one), "--max-tau", "40", "--max-m", "6",
            "--out-traj", str(tmp_path / "t.csv"),
        )
        assert code == 0
        doc = json.loads(stdout)
        assert EmbeddingParams(doc["m"], doc["tau"]) == select_embedding(x, max_tau=40, max_m=6)
        write_csv(one, np.full((500, 1), 2.5), ["x"])
        code, _, err = run(capsys, "embed", "--input", str(one),
                           "--out-traj", str(tmp_path / "t.csv"))
        assert code == 3
        assert "every channel is constant" in err

    def test_curves_come_from_the_first_varying_channel(self, lorenz_csv, tmp_path, capsys):
        x = read_csv(lorenz_csv)[:, 0]
        path = tmp_path / "cx.csv"
        write_csv(path, np.column_stack([np.full_like(x, 2.5), x]), ["c", "x"])
        code, stdout, _ = run(
            capsys,
            "embed", "--input", str(path), "--max-tau", "40", "--max-m", "6",
            "--out-traj", str(tmp_path / "t.csv"),
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["curve_channel"] == 1
        assert doc["mi_curve"] == mi_profile(x, 40).tolist()
        assert doc["fnn_fraction_curve"] == fnn_profile(x, doc["tau"], 6).tolist()
        # with every channel constant the curves have no channel to describe
        write_csv(path, np.full((500, 2), 2.5), ["a", "b"])
        code, out, err = run(capsys, "embed", "--input", str(path), "--m", "2", "--tau", "1",
                             "--out-traj", str(tmp_path / "t.csv"))
        assert code == 3 and out == ""
        assert "series is constant" in err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "embed", "--input", str(tmp_path / "nope.csv"),
            "--out-traj", str(tmp_path / "t.csv"),
        )
        assert code == 3
        assert err.strip()

    def test_lone_m_flag_is_usage_error(self, lorenz_csv, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "embed", "--input", str(lorenz_csv), "--m", "3",
            "--out-traj", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert "together" in err

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("m,tau", [(1, 1), (1, 5), (3, 4), (6, 16)])
    def test_trajectory_bytes_are_write_csv_of_the_points(self, lorenz_csv, tmp_path, capsys,
                                                           channels, m, tau):
        # each sample is formatted once and placed by the delay index; the
        # file must be what write_csv writes for the embedded points
        data = read_csv(lorenz_csv)[:1500, :channels].copy()
        data[[3, 40, 700], 0] = [-0.0, 5e-324, 1.7e308]
        data[[4, 900], -1] = [-1e-310, 2.2250738585072014e-308]
        path = tmp_path / "series.csv"
        write_csv(path, data, [f"v{c}" for c in range(channels)])
        traj = tmp_path / "traj.csv"
        code, _, err = run(capsys, "embed", "--input", str(path), "--m", str(m),
                           "--tau", str(tau), "--out-traj", str(traj))
        assert code == 0, err
        params = EmbeddingParams(m, tau)
        expect = tmp_path / "expect.csv"
        write_csv(expect, np.concatenate(delay_embed(data.T, params), axis=1),
                  [f"c{c}_d{d}" for c in range(channels) for d in range(m)])
        assert traj.read_bytes() == expect.read_bytes()


class TestLyapunov:
    def test_reports_exponents(self, lorenz_csv, capsys):
        code, stdout, _ = run(
            capsys,
            "lyapunov", "--input", str(lorenz_csv), "--m", "3", "--tau", "16",
            "--horizon", "150", "--dt", "0.01",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["mle_per_channel"]) == 3
        assert doc["mean_mle"] == pytest.approx(np.mean(doc["mle_per_channel"]))
        assert "mean_mle_per_time_unit" in doc
        assert len(doc["divergence_curve"]) == 151

    @pytest.mark.parametrize("flags,expected", [((), [1, 20]),
                                                (("--fit-start", "5", "--fit-end", "30"), [5, 30])])
    def test_reports_the_fit_range(self, lorenz_csv, capsys, flags, expected):
        code, stdout, _ = run(
            capsys,
            "lyapunov", "--input", str(lorenz_csv), "--m", "3", "--tau", "16",
            "--horizon", "40", *flags,
        )
        assert code == 0
        assert json.loads(stdout)["fit_range"] == expected

    @pytest.mark.parametrize("theiler", ["-1", "-3"])
    def test_negative_theiler_is_usage_error(self, lorenz_csv, capsys, theiler):
        code, out, err = run(
            capsys,
            "lyapunov", "--input", str(lorenz_csv), "--m", "3", "--tau", "16",
            "--theiler", theiler,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--theiler" in err

    @pytest.mark.parametrize("dt", ["0", "-0.01"])
    def test_non_positive_dt_is_usage_error(self, lorenz_csv, capsys, dt):
        code, out, err = run(
            capsys,
            "lyapunov", "--input", str(lorenz_csv), "--m", "3", "--tau", "16",
            "--horizon", "40", "--dt", dt,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--dt" in err

    @pytest.fixture
    def meeting_csv(self, tmp_path):
        # noise, then a constant tail: every pair that reaches the tail meets
        path = tmp_path / "meet.csv"
        series = np.r_[np.random.default_rng(0).standard_normal(300), np.zeros(2000)]
        write_csv(path, series[:, None], ["v0"])
        return path

    def test_steps_without_pairs_are_null(self, meeting_csv, capsys):
        code, stdout, _ = run(
            capsys,
            "lyapunov", "--input", str(meeting_csv), "--m", "3", "--tau", "2", "--horizon", "400",
        )
        assert code == 0
        doc = strict_json(stdout)
        curve = doc["divergence_curve"]
        assert curve[300:] == [None] * 101 and None not in curve[:300]
        assert np.isfinite(doc["mean_mle"])

    @pytest.mark.parametrize("flag", ["--fit-start", "--fit-end"])
    def test_lone_fit_range_flag_is_usage_error(self, lorenz_csv, capsys, flag):
        code, out, err = run(
            capsys,
            "lyapunov", "--input", str(lorenz_csv), "--m", "3", "--tau", "16", flag, "60",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "together" in err

    def test_horizon_without_default_fit_range_exits_3(self, lorenz_csv, capsys):
        code, out, err = run(
            capsys,
            "lyapunov", "--input", str(lorenz_csv), "--m", "3", "--tau", "16", "--horizon", "2",
        )
        assert code == 3 and out == ""
        assert err.startswith("error:") and "horizon 2" in err
        assert "Traceback" not in err

    def test_fit_range_without_pairs_exits_3(self, meeting_csv, capsys):
        code, out, err = run(
            capsys,
            "lyapunov", "--input", str(meeting_csv), "--m", "3", "--tau", "2", "--horizon", "400",
            "--fit-start", "250", "--fit-end", "350",
        )
        assert code == 3 and out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestFitPredictEval:
    def test_full_cycle(self, lorenz_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, stdout, _ = run(
            capsys,
            "fit", "--input", str(lorenz_csv), "--window", "96", "--horizon", "8",
            "--m", "3", "--tau", "12", "--patch-len", "6", "--poly-order", "4",
            "--levels", "2", "--out", str(model_path),
        )
        assert code == 0
        assert json.loads(stdout)["channels"] == 3

        pred_path = tmp_path / "pred.csv"
        code, stdout, _ = run(
            capsys,
            "predict", "--model", str(model_path), "--input", str(lorenz_csv),
            "--out", str(pred_path),
        )
        assert code == 0
        assert json.loads(stdout)["horizon"] == 8

        # eval of a file against itself is exactly zero
        code, stdout, _ = run(
            capsys, "eval", "--pred", str(pred_path), "--truth", str(pred_path)
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["mse"] == 0.0 and doc["mae"] == 0.0

    def test_fit_reports_the_padding_layout(self, lorenz_csv, tmp_path, capsys):
        # 44 embedded points make 11 patches, padded to 12 for 2 levels
        code, stdout, _ = run(
            capsys,
            "fit", "--input", str(lorenz_csv), "--window", "48", "--horizon", "4",
            "--m", "2", "--tau", "4", "--patch-len", "4", "--levels", "2",
            "--out", str(tmp_path / "model.json"),
        )
        assert code == 0
        doc = json.loads(stdout)
        assert (doc["n_patches"], doc["padded"], doc["scale_lens"]) == (11, 12, [6, 3, 3])

    def test_cli_predict_bit_identical_to_in_process(self, lorenz_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run(
            capsys,
            "fit", "--input", str(lorenz_csv), "--window", "96", "--horizon", "8",
            "--m", "3", "--tau", "12", "--patch-len", "6", "--poly-order", "4",
            "--out", str(model_path),
        )
        pred_path = tmp_path / "pred.csv"
        run(
            capsys,
            "predict", "--model", str(model_path), "--input", str(lorenz_csv),
            "--out", str(pred_path),
        )
        data = read_csv(lorenz_csv)
        model = fc.load_model(model_path)
        in_process = fc.predict(model, data).predictions
        from_cli = read_csv(pred_path)
        assert np.array_equal(in_process, from_cli)

    def test_fit_flags_default_to_the_config(self, lorenz_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, _, _ = run(
            capsys,
            "fit", "--input", str(lorenz_csv), "--window", "96", "--horizon", "8",
            "--out", str(model_path),
        )
        assert code == 0
        model = fc.load_model(model_path)
        assert model.config == replace(fc.ForecasterConfig(96, 8), embedding=model.embedding)

    def test_negative_ridge_lambda_exits_like_horizon_0(self, lorenz_csv, tmp_path, capsys):
        codes = []
        for flags in (["--horizon", "0"], ["--horizon", "8", "--ridge-lambda", "-1"]):
            code, out, err = run(
                capsys,
                "fit", "--input", str(lorenz_csv), "--window", "96", *flags,
                "--out", str(tmp_path / "model.json"),
            )
            assert out == "" and err.startswith("error:")
            assert "Traceback" not in err
            codes.append(code)
        assert codes[0] == codes[1] != 0
        assert not (tmp_path / "model.json").exists()

    def test_non_finite_theta_exits_3_naming_it(self, lorenz_csv, tmp_path, capsys):
        code, out, err = run(
            capsys,
            "fit", "--input", str(lorenz_csv), "--window", "96", "--horizon", "8",
            "--theta", "inf", "--out", str(tmp_path / "model.json"),
        )
        assert code == 3 and out == ""
        assert err.startswith("error:") and "theta" in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("document", ["malformed", "version-3", "version-4", "version-5",
                                          "no-channels"])
    def test_malformed_model_exits_3_without_traceback(self, lorenz_csv, tmp_path, capsys,
                                                       document):
        model_path = tmp_path / "model.json"
        data = Path(__file__).parent / "data"
        if document == "malformed":
            model_path.write_text('{"v": 6}')
        elif document.startswith("version-"):
            # a model document of a retired version must be refit
            doc = json.loads((data / "v6_frequency_legt_full.json").read_text(encoding="utf-8"))
            model_path.write_text(json.dumps({**doc, "v": int(document[-1])}))
        else:
            # a model that serves nothing is refused when it loads, before
            # any context is read
            doc = json.loads((data / "v6_hopfield_legt_full.json").read_text(encoding="utf-8"))
            model_path.write_text(json.dumps({**doc, "readouts": ""}))
        code, _, err = run(
            capsys,
            "predict", "--model", str(model_path), "--input", str(lorenz_csv),
            "--out", str(tmp_path / "pred.csv"),
        )
        assert code == 3
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "pred.csv").exists()
        if document.startswith("version-"):
            assert len(err.splitlines()) == 1 and "refit" in err
        if document == "no-channels":
            assert len(err.splitlines()) == 1 and "no channels" in err and "context" not in err

    @pytest.mark.parametrize("bad_side", ["pred", "truth"])
    def test_eval_non_finite_values_exit_3_without_traceback(self, tmp_path, capsys, bad_side):
        paths = {side: tmp_path / f"{side}.csv" for side in ("pred", "truth")}
        for side, path in paths.items():
            values = np.array([[1.0], [np.nan if side == bad_side else 2.0]])
            write_csv(path, values, ["v0"])
        code, out, err = run(
            capsys, "eval", "--pred", str(paths["pred"]), "--truth", str(paths["truth"])
        )
        assert code == 3 and out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_eval_overflowing_errors_print_one_error_line(self, tmp_path, capsys):
        # errors of 2e200 overflow when squared; numpy's overflow warning
        # would reach stderr ahead of the error line
        paths = {side: tmp_path / f"{side}.csv" for side in ("pred", "truth")}
        write_csv(paths["pred"], np.full((4, 1), 1e200), ["v0"])
        write_csv(paths["truth"], np.full((4, 1), -1e200), ["v0"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "eval", "--pred", str(paths["pred"]), "--truth", str(paths["truth"])
            )
        assert code == 3 and out == ""
        assert err == "error: prediction errors overflow the float range\n"

    def test_eval_missing_file_exits_3(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "eval", "--pred", str(tmp_path / "a.csv"), "--truth", str(tmp_path / "b.csv")
        )
        assert code == 3


class TestBenchScan:
    def test_reports_deviation(self, capsys):
        code, stdout, _ = run(capsys, "bench-scan", "--l-list", "64,100", "--n", "4")
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["bench"]) == 2
        for row in doc["bench"]:
            assert row["max_deviation"] <= 1e-10

    def test_rejects_n_zero(self, capsys):
        code, _, err = run(capsys, "bench-scan", "--l-list", "8", "--n", "0")
        assert code == 2
        assert err.strip()

    @pytest.mark.parametrize("l_list", ["0", "-3", "8,0"])
    def test_rejects_lengths_below_one(self, capsys, l_list):
        code, out, err = run(capsys, "bench-scan", "--l-list", l_list)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--system", "nonsense", "--steps", "1", "--out", "x.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "lorenz63", "--steps", "300000000", "--out", "big.csv"],
    ["embed", "--input", "x.csv", "--out-traj", "traj.csv"],
    ["lyapunov", "--input", "x.csv", "--m", "3", "--tau", "4"],
    ["fit", "--input", "x.csv", "--window", "96", "--horizon", "16", "--out", "model.json"],
    ["predict", "--model", "model.json", "--input", "x.csv", "--out", "pred.csv"],
    ["eval", "--pred", "pred.csv", "--truth", "truth.csv"],
    ["bench-scan"],
], ids=lambda argv: argv[0])
def test_allocation_failure_exits_3_with_one_error_line(monkeypatch, capsys, argv):
    # the command raises numpy's refusal itself, so nothing is allocated
    def refuse(args):
        raise MemoryError("Unable to allocate 6.71 GiB for an array with shape "
                          "(300000001, 3) and data type float64")

    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"), refuse)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == ("error: out of memory: Unable to allocate 6.71 GiB for an array with shape "
                   "(300000001, 3) and data type float64\n")


def test_console_script_is_the_cli_main():
    # the installed ``attraos`` command; the tests import the package from src
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["attraos"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_readme_cli_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("attraos ")]
    assert len(commands) == 7
    for argv in commands:
        build_parser().parse_args(argv)

"""End-to-end tests for the command-line interface."""

import warnings

import numpy as np
import pytest

from critprob.cli import main
from critprob.engine import EstimatorSpec, classify_field
from critprob.fields import ModelSpec, UncertainField
from critprob.field_io import load_ensemble, load_probability_field
from critprob.synth import ackley_ensemble, gaussian_mixture_ensemble


def read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    header, _, payload = data.partition(b"\n")
    magic, w, h, maxval = header.split()
    assert magic == b"P5" and maxval == b"255"
    w, h = int(w), int(h)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return pixels


class TestSynth:
    def test_ackley_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ucvf", tmp_path / "b.ucvf"
        assert main(["synth", "ackley", "--width", "12", "--height", "9",
                     "--members", "6", "--out", str(a)]) == 0
        assert main(["synth", "ackley", "--width", "12", "--height", "9",
                     "--members", "6", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        stack = load_ensemble(str(a))
        assert (stack.height, stack.width, stack.members) == (9, 12, 6)

    def test_ackley_matches_library(self, tmp_path):
        out = tmp_path / "field.ucvf"
        main(["synth", "ackley", "--width", "10", "--height", "10",
              "--members", "4", "--noise-amp", "0.1", "--seed", "7", "--out", str(out)])
        stack = load_ensemble(str(out))
        direct = ackley_ensemble(10, 10, members=4, noise_amp=0.1, seed=7)
        assert np.array_equal(stack.values, direct.values)

    def test_mixture_split(self, tmp_path, capsys):
        out = tmp_path / "mix.ucvf"
        assert main(["synth", "mixture", "--width", "48", "--height", "48",
                     "--members", "10", "--outlier-members", "3", "--out", str(out)]) == 0
        stack = load_ensemble(str(out))
        assert stack.members == 10
        assert "true peaks" in capsys.readouterr().out

    def test_mixture_rejects_more_outliers_than_members(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "mixture", "--members", "2", "--outlier-members", "5",
                  "--out", str(tmp_path / "x.ucvf")])
        assert exc.value.code == 2

    def test_mixture_nonsquare_with_outliers_fails_cleanly(self, tmp_path, capsys):
        code = main(["synth", "mixture", "--width", "48", "--height", "24",
                     "--members", "10", "--outlier-members", "2",
                     "--out", str(tmp_path / "x.ucvf")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("kind", ["ackley", "mixture"])
    @pytest.mark.parametrize("size", [["--width", "0"], ["--height", "0"],
                                      ["--width", "0", "--height", "0"], ["--width", "-3"]])
    def test_non_positive_size_exits_two(self, tmp_path, kind, size):
        out = tmp_path / "x.ucvf"
        with pytest.raises(SystemExit) as exc:
            main(["synth", kind, *size, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_absent_size_takes_default(self, tmp_path):
        out = tmp_path / "x.ucvf"
        assert main(["synth", "ackley", "--height", "5", "--members", "2", "--out", str(out)]) == 0
        stack = load_ensemble(str(out))
        assert (stack.height, stack.width) == (5, 64)


class TestCompute:
    def test_round_trip_matches_library(self, tmp_path, capsys):
        src = tmp_path / "ens.ucvf"
        main(["synth", "ackley", "--width", "12", "--height", "10",
              "--members", "8", "--out", str(src)])
        out = tmp_path / "prob.csv"
        heat = tmp_path / "prob.pgm"
        code = main(["compute", str(src), "--model", "uniform", "--estimator", "closed",
                     "--workers", "1", "--out", str(out),
                     "--heatmap", str(heat), "--channel", "min"])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith("config:") or "config:" in captured

        stack = load_ensemble(str(src))
        field = UncertainField.from_ensemble(stack, ModelSpec("uniform"))
        direct = classify_field(field, EstimatorSpec("closed_form"), workers=1)
        loaded = load_probability_field(str(out), format="csv")
        assert np.array_equal(loaded.p_min, direct.p_min)
        assert np.array_equal(loaded.p_max, direct.p_max)
        assert np.array_equal(loaded.p_saddle, direct.p_saddle)
        assert np.array_equal(loaded.valid, direct.valid)

        pixels = read_pgm(heat)
        assert pixels.shape == (10, 12)
        assert pixels[1:-1, 1:-1].max() > 0

    def test_ucvf_output(self, tmp_path):
        src = tmp_path / "ens.ucvf"
        main(["synth", "ackley", "--width", "8", "--height", "8",
              "--members", "5", "--out", str(src)])
        out = tmp_path / "prob.ucvf"
        assert main(["compute", str(src), "--workers", "1", "--out", str(out)]) == 0
        loaded = load_probability_field(str(out))
        assert loaded.p_min.shape == (8, 8)

    def test_normalize_is_probability_neutral(self, tmp_path, capsys):
        src = tmp_path / "ens.ucvf"
        main(["synth", "ackley", "--width", "10", "--height", "8",
              "--members", "6", "--out", str(src)])
        plain, scaled = tmp_path / "plain.csv", tmp_path / "scaled.csv"
        main(["compute", str(src), "--workers", "1", "--out", str(plain)])
        main(["compute", str(src), "--workers", "1", "--normalize", "on", "--out", str(scaled)])
        assert "normalized values with" in capsys.readouterr().out
        a = load_probability_field(str(plain), format="csv")
        b = load_probability_field(str(scaled), format="csv")
        for chan in ("p_min", "p_max", "p_saddle"):
            np.testing.assert_allclose(getattr(a, chan), getattr(b, chan), atol=1e-9)

    def test_monte_carlo_estimator(self, tmp_path):
        src = tmp_path / "ens.ucvf"
        main(["synth", "ackley", "--width", "8", "--height", "8",
              "--members", "5", "--out", str(src)])
        out = tmp_path / "prob.csv"
        code = main(["compute", str(src), "--model", "gaussian-mc", "--estimator", "mc",
                     "--samples", "500", "--workers", "1", "--out", str(out)])
        assert code == 0
        loaded = load_probability_field(str(out), format="csv")
        assert loaded.valid[1:-1, 1:-1].all()

    def test_gaussian_closed_combination_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "ens.ucvf"
        main(["synth", "ackley", "--width", "8", "--height", "8",
              "--members", "5", "--out", str(src)])
        code = main(["compute", str(src), "--model", "gaussian-mc", "--estimator", "closed"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_input_returns_one(self, tmp_path, capsys):
        code = main(["compute", str(tmp_path / "absent.ucvf")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_bins_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compute", str(tmp_path / "x.ucvf"), "--bins", "0"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "x.ucvf", "--no-such-flag"])
        assert exc.value.code == 2

    def test_unknown_estimator_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "x.ucvf", "--estimator", "quantum"])
        assert exc.value.code == 2


class TestFromScalar:
    def test_round_trip(self, tmp_path):
        from critprob import field_io

        rng = np.random.default_rng(5)
        values = rng.normal(size=(9, 11))
        src = tmp_path / "scalar.ucvf"
        field_io.save_scalar_field(values, str(src))
        out = tmp_path / "prob.csv"
        code = main(["from-scalar", str(src), "--eb", "0.4",
                     "--workers", "1", "--out", str(out)])
        assert code == 0
        loaded = load_probability_field(str(out), format="csv")
        direct = classify_field(
            UncertainField.from_scalar(field_io.load_scalar_field(str(src)), 0.4),
            EstimatorSpec("closed_form"),
            workers=1,
        )
        assert np.array_equal(loaded.p_min, direct.p_min)
        assert np.array_equal(loaded.p_saddle, direct.p_saddle)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_finite_probability_writes_nothing(self, tmp_path, monkeypatch, capsys, workers):
        from critprob import engine, field_io

        kernel = engine._closed_chunk

        def nan_min(groups, channels):
            out = kernel(groups, channels)
            out["min"][0] = np.nan
            return out

        monkeypatch.setattr(engine, "_closed_chunk", nan_min)
        src = tmp_path / "scalar.ucvf"
        field_io.save_scalar_field(np.random.default_rng(5).normal(size=(9, 11)), str(src))
        out = tmp_path / "p"
        code = main(["from-scalar", str(src), "--eb", "0.4",
                     "--workers", workers, "--out", str(out)])
        assert code == 1
        assert "not finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [src]

    def test_overflowing_band_exits_one(self, tmp_path, capsys):
        from critprob import field_io

        src = tmp_path / "scalar.ucvf"
        field_io.save_scalar_field(np.random.default_rng(5).normal(size=(9, 11)), str(src))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["from-scalar", str(src), "--eb", "inf",
                         "--workers", "1", "--out", str(tmp_path / "p")])
        assert code == 1
        assert "99 fitted supports overflow float64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [src]

    def test_eb_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["from-scalar", str(tmp_path / "s.ucvf")])
        assert exc.value.code == 2

    def test_negative_eb_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["from-scalar", str(tmp_path / "s.ucvf"), "--eb", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
    def test_bad_gamma_exits_two_before_writing(self, tmp_path, gamma):
        from critprob import field_io

        ens, scalar = tmp_path / "ens.ucvf", tmp_path / "scalar.ucvf"
        field_io.save_ensemble(ackley_ensemble(8, 8, members=3, seed=1), str(ens))
        field_io.save_scalar_field(np.random.default_rng(5).normal(size=(9, 11)), str(scalar))
        commands = (["compute", str(ens)], ["from-scalar", str(scalar), "--eb", "0.1"])
        for command in commands:
            with pytest.raises(SystemExit) as exc:
                main([*command, "--workers", "1", "--gamma", gamma,
                      "--out", str(tmp_path / "p.csv"), "--heatmap", str(tmp_path / "p.pgm")])
            assert exc.value.code == 2
        assert sorted(tmp_path.iterdir()) == [ens, scalar]


class TestValidate:
    def test_small_run_passes(self, capsys):
        code = main(["validate", "--cases", "3", "--samples", "5000", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 cases" in out and "within 4 SE" in out

    def test_gaussian_model_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--model", "gaussian-mc"])
        assert exc.value.code == 2

    def test_zero_cases_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--cases", "0"])
        assert exc.value.code == 2

    def test_zero_bins_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--model", "histogram", "--bins", "0", "--cases", "1"])
        assert exc.value.code == 2
        assert "--bins" in capsys.readouterr().err


class TestMixturePipeline:
    def test_histogram_heatmap_is_brightest_at_true_peaks(self, tmp_path):
        # outlier members displace p_max mass only weakly under a histogram fit
        src = tmp_path / "mix.ucvf"
        main(["synth", "mixture", "--width", "64", "--height", "64", "--out", str(src)])
        heat = tmp_path / "pmax.pgm"
        code = main(["compute", str(src), "--model", "histogram", "--bins", "5",
                     "--workers", "1", "--heatmap", str(heat), "--channel", "max"])
        assert code == 0
        _, true_peaks, _ = gaussian_mixture_ensemble(64, 64, seed=0)
        pixels = read_pgm(heat)
        flat_order = np.argsort(pixels, axis=None)
        top_two = {divmod(int(i), pixels.shape[1]) for i in flat_order[-2:]}
        assert top_two == set(true_peaks)


class TestBench:
    def test_report_run_with_csv_outputs(self, tmp_path, capsys):
        prefix = tmp_path / "report"
        code = main(["bench", "--samples", "200", "--workers", "1", "--out", str(prefix)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rmse=" in out
        assert "speedup" in out
        assert "robustness" in out
        conv = (tmp_path / "report.convergence.csv").read_text()
        assert conv.startswith("samples,rmse,max_abs_error,wall_time\n")
        timing = (tmp_path / "report.timing.csv").read_text()
        assert timing.startswith("estimator,seconds,speedup\n")

    def test_bad_samples_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--samples", "0"])
        assert exc.value.code == 2

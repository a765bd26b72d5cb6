import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import unifit.cli as cli
from unifit import AuditReport, CrossTable, CellStats, bundled_dataset_path
from unifit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["fit", "--help"], ["bench", "--help"], ["audit", "--help"]],
    )
    def test_help_exits_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "default" in out or "usage" in out

    def test_fit_help_documents_flags(self, capsys):
        _, out, _ = run(capsys, "fit", "--help")
        for flag in ("--input", "--model", "--out", "--plot", "--starts", "--seed", "--padding"):
            assert flag in out
        assert "0.02" in out  # padding default shown

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "fit", "--bogus")
        assert code == 1
        assert "error" in err


class TestListModels:
    def test_lists_all_families(self, capsys):
        code, out, _ = run(capsys, "list-models")
        assert code == 0
        for name in ("richards", "skewnormal", "gengamma", "maxent", "beta"):
            assert name in out
        assert "derivative of the Richards" in out


class TestFitCommand:
    def test_single_model(self, capsys, tmp_path):
        out_path = tmp_path / "fit.json"
        code, out, _ = run(
            capsys,
            "fit",
            "--model", "maxent",
            "--input", str(bundled_dataset_path("st_matthew")),
            "--out", str(out_path),
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("maxent")
        assert "rms=" in lines[0] and "rms_original=" in lines[0]
        doc = json.loads(out_path.read_text())
        assert doc["model"] == "maxent"

    def test_all_models(self, capsys, tmp_path):
        out_path = tmp_path / "fits.json"
        code, out, _ = run(
            capsys,
            "fit",
            "--model", "all",
            "--input", str(bundled_dataset_path("universe25")),
            "--out", str(out_path),
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 5
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [
            "fits_beta.json",
            "fits_gengamma.json",
            "fits_maxent.json",
            "fits_richards.json",
            "fits_skewnormal.json",
        ]

    def test_all_models_names_files_by_family_when_one_fit_survives(
        self, capsys, tmp_path, monkeypatch
    ):
        # --model all writes {stem}_{family} even if only one fit succeeds
        real_fit = cli.fit

        def fit_maxent_only(series, kind, config):
            if kind.value != "maxent":
                raise cli.FitFailureError("synthetic failure", kind, ())
            return real_fit(series, kind, config)

        monkeypatch.setattr(cli, "fit", fit_maxent_only)
        out_path = tmp_path / "fits.json"
        code, _, _ = run(
            capsys,
            "fit",
            "--model", "all",
            "--input", str(bundled_dataset_path("universe25")),
            "--out", str(out_path),
        )
        assert code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["fits_maxent.json"]

    def test_missing_input_exits_one(self, capsys):
        code, _, err = run(capsys, "fit", "--model", "maxent", "--input", "missing.csv")
        assert code == 1
        assert "missing.csv" in err

    def test_directory_input_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "--model", "maxent", "--input", str(tmp_path))
        assert code == 1
        assert err.splitlines() == [f"unifit fit: cannot read {tmp_path}: Is a directory"]

    def test_unparseable_input_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\nbroken\n")
        code, _, err = run(capsys, "fit", "--model", "maxent", "--input", str(bad))
        assert code == 1
        assert "bad.csv" in err

    def test_non_finite_time_span_exits_one(self, capsys, tmp_path):
        # the span overflows float64, so every normalized time would be NaN
        path = tmp_path / "span.csv"
        path.write_text("1e308,1\n-1e308,2\n0,3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fit", "--model", "all", "--seed", "1", "--input", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "span.csv" in err and "overflows" in err

    def test_plot_overflowing_in_original_units_exits_one(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("1,1\n2,1e308\n3,1e308\n4,1\n")
        plot = tmp_path / "x.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "fit", "--model", "maxent", "--input", str(path), "--plot", str(plot))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "cannot plot maxent" in err
        assert not plot.exists()

    def test_plot_byte_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (p1, p2):
            code, _, _ = run(
                capsys,
                "fit",
                "--model", "maxent",
                "--input", str(bundled_dataset_path("st_matthew")),
                "--plot", str(target),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_writes_only_named_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "out.json"
        plot_path = tmp_path / "plot.svg"
        code, _, _ = run(
            capsys,
            "fit",
            "--model", "beta",
            "--input", str(bundled_dataset_path("st_matthew")),
            "--out", str(out_path),
            "--plot", str(plot_path),
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "plot.svg"]


class TestBenchCommand:
    def test_writes_table(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, stdout, _ = run(
            capsys, "bench", "--trials", "1", "--seed", "1", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 26
        assert stdout.splitlines()[0].startswith("Methods")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (p1, p2):
            code, _, _ = run(
                capsys, "bench", "--trials", "2", "--seed", "1", "--out", str(target)
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_workers_do_not_change_output(self, capsys, tmp_path):
        outputs = []
        for workers in ("1", "2"):
            target = tmp_path / f"w{workers}.csv"
            code, stdout, _ = run(
                capsys, "bench", "--trials", "2", "--seed", "1", "--workers", workers,
                "--out", str(target),
            )
            assert code == 0
            outputs.append((target.read_bytes(), stdout))
        assert outputs[0] == outputs[1]

    def test_workers_below_one_exit_one(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, err = run(capsys, "bench", "--workers", "0", "--out", str(out))
        assert code == 1
        assert err.splitlines() == ["unifit bench: --workers must be >= 1, got 0"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--noise", "nan"], ["--noise", "inf"], ["--noise", "1.0"], ["--grid", "100001"], ["--grid", str(2**70)]],
        ids=["noise-nan", "noise-inf", "noise-lifts-past-1.5", "grid-above-bound", "grid-too-large"],
    )
    def test_unrunnable_settings_exit_one(self, capsys, tmp_path, flags):
        out = tmp_path / "t.csv"
        code, _, err = run(capsys, "bench", "--trials", "1", "--seed", "1", *flags, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("unifit bench: ")
        assert not out.exists()

    def test_degraded_exits_three(self, capsys, tmp_path, monkeypatch):
        cell = CellStats(0.5, 0.1, 4)
        degraded = CrossTable(
            cells=tuple(tuple(cell for _ in range(5)) for _ in range(5)), degraded=True
        )
        monkeypatch.setattr(cli, "cross_compare", lambda config, workers: degraded)
        code, _, err = run(capsys, "bench", "--trials", "4", "--out", str(tmp_path / "t.csv"))
        assert code == 3
        assert "degraded" in err

    def test_bad_flags_exit_one(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bench", "--trials", "0", "--out", str(tmp_path / "t.csv"))
        assert code == 1
        # out-of-range values of the other commands: one line, no traceback
        for argv in (
            ["fit", "--input", str(bundled_dataset_path("st_matthew")), "--starts", "0"],
            ["audit", "--model", "maxent", "--a", "1", "--b", "1", "--perturbations", "-1"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert len(err.splitlines()) == 1


class TestAuditCommand:
    def test_symmetric_maxent(self, capsys):
        code, out, _ = run(capsys, "audit", "--model", "maxent", "--a", "1", "--b", "1")
        assert code == 0
        assert "mode: 0.5" in out
        assert "failures=0" in out

    def test_beta_uniform_entropy_printed(self, capsys):
        code, out, _ = run(capsys, "audit", "--model", "beta", "--a", "1", "--b", "1")
        assert code == 0
        h_line = next(ln for ln in out.splitlines() if ln.startswith("H:"))
        assert abs(float(h_line.split()[1])) < 1e-6
        assert "failures=0" in out  # the bounds a = b = 1 are audited too

    def test_out_of_bounds_exits_one(self, capsys):
        code, _, err = run(capsys, "audit", "--model", "maxent", "--a", "-1", "--b", "2")
        assert code == 1
        assert "a > 0" in err

    def test_failures_exit_four(self, capsys, monkeypatch):
        fake = AuditReport(0.0, 1.0, 1.0, 1.0, 10, 3, 0)
        monkeypatch.setattr(cli, "perturbation_audit", lambda *a, **k: fake)
        code, _, _ = run(capsys, "audit", "--model", "maxent", "--a", "2", "--b", "3")
        assert code == 4

    @pytest.mark.parametrize("model,a,b", [("beta", "1e308", "3"), ("maxent", "1e-300", "1e300")])
    def test_unnormalizable_shape_exits_one(self, capsys, model, a, b):
        # the quadrature mass of these shapes is 0: one line, no nan
        # report and no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "audit", "--model", model, "--a", a, "--b", b)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "quadrature mass" in err

    @pytest.mark.parametrize("model,a,b", [("maxent", "1e8", "1e8"), ("beta", "1e6", "1e6")])
    def test_unauditable_shape_exits_one(self, capsys, model, a, b):
        # the constraints of these spikes are numerically dependent: one
        # line, where a vacuous or spurious audit report used to be
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "audit", "--model", model, "--a", a, "--b", b)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "numerically dependent" in err

    def test_fewer_perturbations(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "--model", "beta", "--a", "2.5", "--b", "4",
            "--perturbations", "25", "--seed", "3",
        )
        assert code == 0
        assert "trials=25" in out


# flag values that are garbage, negative, huge or non-finite
_ODD = st.sampled_from(["", "abc", "-1", "0", "1e309", "-1e308", "nan", "inf", "-inf", "0x10"])
_ODD_FLOATS = st.one_of(_ODD, st.floats(allow_nan=True, allow_infinity=True).map(repr))
_ODD_INTS = st.one_of(_ODD, st.integers(-(2**70), -1).map(str), st.just(str(2**70)))
_SEEDS = st.integers(0, 2**70).map(str)


def _flags(**values):
    """Optional flags, each (valid values, odd values): a flag is left out,
    given without a value, given an odd value, or, most of the time, given
    a valid one, so that many examples get past parsing."""

    def one(name, valid, odd):
        return st.integers(0, 9).flatmap(
            lambda pick: st.just([])
            if pick == 0
            else st.just([name])
            if pick == 1
            else (odd if pick < 4 else valid).map(lambda v: [name, v])
        )

    parts = [one(f"--{name}", valid, odd) for name, (valid, odd) in values.items()]
    return st.tuples(*parts).map(lambda chunks: [a for chunk in chunks for a in chunk])


@st.composite
def _argv(draw, files):
    command = draw(st.sampled_from(["fit", "audit", "list-models", "bench", "bogus"]))
    paths = st.sampled_from([files[k] for k in ("missing", "garbage", "directory", "no_dir")])
    outputs = st.sampled_from([files["no_dir"], files["directory"]])
    if command == "fit":
        rest = draw(_flags(
            input=(st.just(files["data"]), paths),
            model=(st.sampled_from(["all", "maxent", "richards"]), st.sampled_from(["nope", ""])),
            # a valid start count stays small: huge ones are slow, not wrong
            starts=(st.integers(1, 64).map(str), st.one_of(_ODD, st.integers(-(2**70), 0).map(str))),
            seed=(_SEEDS, _ODD_INTS),
            padding=(st.floats(0.0, 0.49).map(repr), _ODD_FLOATS),
            out=(st.just(files["out"]), outputs),
            plot=(st.just(files["plot"]), outputs),
        ))
    elif command == "audit":
        rest = draw(_flags(
            model=(st.sampled_from(["maxent", "beta"]), st.sampled_from(["gengamma", ""])),
            a=(st.floats(1e-3, 50.0).map(repr), _ODD_FLOATS),
            b=(st.floats(1e-3, 50.0).map(repr), _ODD_FLOATS),
            # each perturbation is a quadrature: keep valid counts small
            perturbations=(st.integers(0, 20).map(str), st.one_of(_ODD, st.integers(-(2**70), -1).map(str))),
            seed=(_SEEDS, _ODD_INTS),
        ))
    elif command == "bench":
        # one trial per cell (25 fits) on small valid grids; grids above
        # the 100,000-point bound are rejected before any fit
        rest = ["--trials", "1"] + draw(_flags(
            grid=(
                st.integers(8, 64).map(str),
                st.one_of(_ODD_INTS, st.integers(-3, 7).map(str), st.integers(100_001, 2**70).map(str)),
            ),
            noise=(st.floats(0.0, 0.2).map(repr), _ODD_FLOATS),
            seed=(_SEEDS, _ODD_INTS),
            out=(st.just(files["table"]), outputs),
            workers=(st.just("1"), st.sampled_from(["0", "-2", "x", ""])),
        ))
    else:
        rest = draw(st.lists(st.sampled_from(["--help", "-h", "x", "--seed", "1"]), max_size=2))
    return [command] + rest


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    garbage = root / "garbage.csv"
    garbage.write_bytes(b"time,value\n1,x\n\xff\xfe\n")
    return {
        "data": str(bundled_dataset_path("st_matthew")),
        "garbage": str(garbage),
        "missing": str(root / "missing.csv"),
        "directory": str(root),
        "out": str(root / "fit.json"),
        "plot": str(root / "plot.svg"),
        "table": str(root / "table.csv"),
        "no_dir": str(root / "no" / "such" / "dir" / "file"),
    }


class TestContract:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_main_returns_a_documented_exit_code(self, contract_files, data):
        argv = data.draw(_argv(contract_files), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in {0, 1, 2, 3, 4}, (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if argv[0] == "audit" and code == 0:
            assert "nan" not in out.getvalue(), (argv, out.getvalue())

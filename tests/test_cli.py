import json
import warnings

import pytest

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

    def test_missing_input_exits_one(self, capsys):
        code, _, err = run(capsys, "fit", "--model", "maxent", "--input", "missing.csv")
        assert code == 1
        assert "missing.csv" in err

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

    def test_degraded_exits_three(self, capsys, tmp_path, monkeypatch):
        cell = CellStats(0.5, 0.1, 4)
        degraded = CrossTable(
            cells=tuple(tuple(cell for _ in range(5)) for _ in range(5)), degraded=True
        )
        monkeypatch.setattr(cli, "cross_compare", lambda config: degraded)
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
        assert "skipped" in out  # boundary exponents are unaudited

    def test_out_of_bounds_exits_one(self, capsys):
        code, _, err = run(capsys, "audit", "--model", "maxent", "--a", "-1", "--b", "2")
        assert code == 1
        assert "a > 0" in err

    def test_failures_exit_four(self, capsys, monkeypatch):
        fake = AuditReport(0.0, 1.0, 1.0, 1.0, 10, 3, 0)
        monkeypatch.setattr(cli, "perturbation_audit", lambda *a, **k: fake)
        code, _, _ = run(capsys, "audit", "--model", "maxent", "--a", "2", "--b", "3")
        assert code == 4

    def test_fewer_perturbations(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "--model", "beta", "--a", "2.5", "--b", "4",
            "--perturbations", "25", "--seed", "3",
        )
        assert code == 0
        assert "trials=25" in out

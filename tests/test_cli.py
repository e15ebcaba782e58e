import json

import numpy as np
import pytest

from entgeo import DensityMatrix, closest_pt_state, make_named, sample_hs_random, state_from_json, state_to_json
from entgeo import cli
from entgeo.cli import main
from entgeo.projection import pt_negativity, pt_robustness


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProject:
    def test_w_state_report(self, capsys):
        code, out, _ = run(capsys, "project", "--state", "w")
        assert code == 0
        assert "0.5443310539518" in out
        assert "-0.4714045208" in out
        assert "rho_s PSD:            yes" in out

    def test_max_mixed(self, capsys):
        code, out, _ = run(capsys, "project", "--state", "max-mixed4")
        assert code == 0
        assert "distance (exact):     0.0000000000000000" in out
        assert "negativity:           0.0000000000000000" in out

    def test_bell_rho_s_diagonal(self, capsys):
        code, out, _ = run(capsys, "project", "--state", "bell-psi-plus")
        assert code == 0
        assert "+0.166667" in out and "+0.333333" in out

    def test_unknown_state_exits_2(self, capsys):
        code, _, err = run(capsys, "project", "--state", "nonsense")
        assert code == 2
        assert "unknown named state" in err

    def test_json_report_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "project", "--state", "bell-psi-plus", "--json", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["distance_exact"] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert report["negativity"] == pytest.approx(1.0)
        assert report["robustness"] == pytest.approx(2 / 3, abs=1e-12)
        # rho_s block parses through the state schema
        rho_s = state_from_json(json.dumps(report["rho_s"]))
        assert rho_s.matrix[1, 1] == pytest.approx(1 / 3, abs=1e-10)

    def test_state_from_json_file(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        path.write_text(state_to_json(make_named("bell_psi_plus")))
        code, out, _ = run(capsys, "project", "--state", str(path))
        assert code == 0
        assert "negativity:           1.0000000000000000" in out

    def test_non_finite_state_exits_2(self, tmp_path, capsys):
        doc = json.loads(state_to_json(make_named("max_mixed4")))
        doc["matrix"][0][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "project", "--state", str(path))
        assert code == 2
        assert "state has non-finite entries" in err

    @pytest.mark.parametrize("subsystem", ["A", "B"])
    @pytest.mark.parametrize("state", ["w", "bell", "hs-3x3"])
    def test_report_reads_one_pt_spectrum(self, tmp_path, capsys, state, subsystem):
        if state == "hs-3x3":
            path = tmp_path / "hs.json"
            path.write_text(state_to_json(sample_hs_random(9, 0, dims=(3, 3))))
            state = str(path)
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "project", "--state", state, "--subsystem", subsystem, "--json", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        d = report["pt_spectrum"]
        assert d[0] == report["d_min"]
        assert report["negativity"] == pt_negativity(d, tuple(report["dims"]))
        assert report["robustness"] == pt_robustness(d)

    @pytest.mark.parametrize("state", ["w", "hs-3x3"])
    def test_report_rho_s_is_the_state_schema(self, tmp_path, capsys, state):
        rho = make_named("w_state")
        if state == "hs-3x3":
            rho = sample_hs_random(9, 0, dims=(3, 3))
            state = str(tmp_path / "hs.json")
            (tmp_path / "hs.json").write_text(state_to_json(rho))
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "project", "--state", state, "--json", str(out_path))
        assert code == 0
        rho_s = closest_pt_state(rho).closest_pt_state
        want = json.loads(state_to_json(DensityMatrix(rho_s, rho.dims)))
        assert json.loads(out_path.read_text())["rho_s"] == want

    def test_ppt_negativity_is_positive_zero(self, tmp_path, capsys):
        # dims 2x4 take the sum convention: a PPT state has no negative PT
        # eigenvalue, and the empty sum is +0
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "project", "--state", "max_mixed(8)", "--json", str(out_path))
        assert code == 0
        assert "negativity:           0.0000000000000000" in out
        assert '"negativity": 0.0,' in out_path.read_text()

    def test_report_makes_two_eigensolves(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def counted(*args, _name=name, _solver=solver, **kwargs):
                calls.append(_name)
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        # a named state skips validate_state: only rho^PT and rho_s are decomposed
        code, _, _ = run(capsys, "project", "--state", "w", "--json", str(tmp_path / "w.json"))
        assert code == 0
        assert calls == ["eigh", "eigh"]


class TestStats:
    def test_single_sample(self, capsys):
        code, out, _ = run(capsys, "stats", "--samples", "1", "--seed", "3")
        assert code == 0
        frac = float(out.split("NPT fraction:")[1].split()[0])
        assert frac in (0.0, 1.0)

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "stats", "--samples", "200", "--seed", "5")
        _, out2, _ = run(capsys, "stats", "--samples", "200", "--seed", "5")
        assert out1 == out2

    def test_small_run_fields(self, capsys):
        code, out, _ = run(capsys, "stats", "--samples", "300", "--seed", "1", "--dims", "2x2")
        assert code == 0
        assert "positive rho_s fraction:" in out
        assert "mean negativity" in out
        assert "rank-2 fraction" in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_exit_2(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--samples", samples])
        assert exc.value.code == 2
        assert "--samples: must be a positive integer" in capsys.readouterr().err

    def test_block_size_does_not_change_output(self, capsys, monkeypatch):
        argv = ["stats", "--samples", "300", "--seed", "4", "--dims", "2x3"]
        _, out1, _ = run(capsys, *argv)
        monkeypatch.setattr(cli, "_STATS_BLOCK", 7)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_two_qubit_npt_fraction_matches_hs_measure(self, capsys):
        # 1 - 8/33 (Milz & Strunz 2015) at 10^5 samples, se 0.00136
        code, out, _ = run(capsys, "stats", "--samples", "100000", "--seed", "1")
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("HS reference 1-8/33:      0.7576  (se 0.0014, z ")
        z = float(last.split("z ")[1].rstrip(")"))
        assert abs(z) < 4


class TestScan:
    def test_minimal_csv(self, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        code, _, _ = run(
            capsys, "scan", "--plane", "ff1", "--resolution", "2", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "a,b,min_eig,min_eig_pt,negativity,is_state,is_ppt"
        assert len(lines) == 5
        for line in lines[1:]:
            assert len(line.split(",")) == 7

    def test_contours_written(self, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        code, _, _ = run(
            capsys,
            "scan",
            "--plane",
            "ff3",
            "--resolution",
            "101",
            "--out",
            str(out_path),
            "--contours",
            "0.2,0.5",
        )
        assert code == 0
        doc = json.loads((tmp_path / "g.contours.json").read_text())
        fields = [(e["field"], e["level"]) for e in doc]
        assert ("state_boundary", 0.0) in fields
        assert ("ppt_boundary", 0.0) in fields
        assert ("negativity", 0.2) in fields and ("negativity", 0.5) in fields

    def test_byte_identical_reruns(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "scan", "--plane", "random:9", "--resolution", "41", "--out", str(p1))
        run(capsys, "scan", "--plane", "random:9", "--resolution", "41", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_plane_pair(self, tmp_path, capsys):
        pa = tmp_path / "rho1.json"
        pb = tmp_path / "rho2.json"
        pa.write_text(state_to_json(make_named("bell_psi_plus")))
        pb.write_text(state_to_json(make_named("ff2_rho2")))
        out_path = tmp_path / "g.csv"
        code, _, _ = run(
            capsys, "scan", "--plane", f"{pa},{pb}", "--resolution", "11", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.exists()

    def test_bad_plane_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "scan", "--plane", "ff9", "--out", str(tmp_path / "g.csv")
        )
        assert code == 2
        assert "unknown plane" in err

    @pytest.mark.parametrize("bounds", ["0.9:-0.9", "0.5:0.5", "nan:0.5", "-0.5:inf"])
    def test_bad_range_exits_2(self, tmp_path, capsys, bounds):
        out_path = tmp_path / "g.csv"
        code, _, err = run(capsys, "scan", "--plane", "ff3", "--resolution", "41", f"--range={bounds}", "--out", str(out_path))
        assert code == 2
        assert "lo < hi" in err
        assert not out_path.exists()

    def test_unwritable_out_exits_3(self, capsys):
        code, _, err = run(
            capsys, "scan", "--plane", "ff1", "--resolution", "2", "--out", "/nonexistent/g.csv"
        )
        assert code == 3

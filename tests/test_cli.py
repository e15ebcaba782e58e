import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from entgeo import (
    DensityMatrix,
    build_plane,
    closest_pt_states,
    eig_hermitian,
    make_named,
    partial_transpose,
    state_from_json,
)
from entgeo import cli, linalg, states
from entgeo.cli import main
from entgeo.projection import pt_negativity, pt_robustness
from entgeo.states import state_to_dict

import reference_projection as ref

def write_state(path, rho):
    """Write a state file in the interchange schema."""
    path.write_text(json.dumps(state_to_dict(rho)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def hexes(values):
    """Every float of a nested list or array as float.hex, so -0.0 and 0.0 differ."""
    return [float(x).hex() for x in np.ravel(np.asarray(values, dtype=float))]


def readme_report_keys():
    """The `project --json` keys in the order of the README's table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("`project --json PATH` writes")[1].split("\n\n")[1]
    return [key for row in re.findall(r"^\| (`.*?) \|", table, flags=re.M) for key in re.findall(r"`(\w+)`", row)]


def unreachable(*args, **kwargs):
    raise AssertionError("the command went past its argument checks")


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

    @pytest.mark.parametrize("n", [0, 1025])
    def test_max_mixed_size_out_of_range_exits_2(self, capsys, n):
        code, out, err = run(capsys, "project", "--state", f"max_mixed({n})")
        assert code == 2
        assert out == ""
        assert err == f"error: max_mixed(n) needs 1 <= n <= 1024, got {n}\n"

    def test_unreadable_state_file(self, tmp_path, capsys):
        (tmp_path / "dir.json").mkdir()
        with pytest.raises(ValueError, match="cannot read state file .*dir.json"):
            cli._resolve_state(str(tmp_path / "dir.json"))
        code, _, err = run(capsys, "project", "--state", str(tmp_path / "missing.json"))
        assert code == 2
        assert err.startswith("error: cannot read state file ")

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
        write_state(path, make_named("bell_psi_plus"))
        code, out, _ = run(capsys, "project", "--state", str(path))
        assert code == 0
        assert "negativity:           1.0000000000000000" in out

    @pytest.mark.parametrize("tag, dims", [("w", "2x4"), ("bell", "2x2")])
    def test_tag_wins_over_same_named_file(self, tmp_path, capsys, monkeypatch, tag, dims):
        monkeypatch.chdir(tmp_path)
        write_state(tmp_path / tag, ref.sample_hs_random(9, 0, dims=(3, 3)))
        code, out, _ = run(capsys, "project", "--state", tag)
        assert code == 0
        assert f"dims {dims}" in out

    @pytest.mark.parametrize("name", ["w.json", "mystate"])
    def test_other_paths_load_as_files(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        write_state(tmp_path / name, ref.sample_hs_random(9, 0, dims=(3, 3)))
        code, out, _ = run(capsys, "project", "--state", name)
        assert code == 0
        assert "dims 3x3" in out

    def test_non_finite_state_exits_2(self, tmp_path, capsys):
        doc = state_to_dict(make_named("max_mixed4"))
        doc["matrix"][0][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "project", "--state", str(path))
        assert code == 2
        assert "state has non-finite entries" in err

    def test_huge_entry_exits_2_without_a_warning(self, tmp_path, capsys):
        # its asymmetry norm overflowed; the suite turns a RuntimeWarning into an error
        doc = state_to_dict(make_named("max_mixed4"))
        doc["matrix"] = [[[0.0, 0.0]] * 4 for _ in range(4)]
        doc["matrix"][0][0] = [0.0, 1.34078079e154]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "project", "--state", str(path))
        assert code == 2
        assert err == "error: not a state, |Re| or |Im| of an entry is 1.341e+154 > 1\n"

    def test_overflowing_dims_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"dims": [1e400, 2], "matrix": [[[1.0, 0.0]]]}')
        code, _, err = run(capsys, "project", "--state", str(path))
        assert code == 2
        assert err == "error: malformed state document: dims must be two positive integers, got [inf, 2]\n"

    @pytest.mark.parametrize("subsystem", ["A", "B"])
    @pytest.mark.parametrize("state", ["w", "bell", "hs-3x3"])
    def test_report_reads_one_pt_spectrum(self, tmp_path, capsys, state, subsystem):
        if state == "hs-3x3":
            rho = ref.sample_hs_random(9, 0, dims=(3, 3))
            state = str(tmp_path / "hs.json")
            write_state(tmp_path / "hs.json", rho)
        else:
            rho = make_named({"w": "w_state", "bell": "bell_psi_plus"}[state])
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "project", "--state", state, "--json", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        d = report["pt_spectrum"]
        # the PT spectrum over either factor: rho^{T_A} = (rho^T)^{T_B} is the transpose of rho^{T_B}
        m = rho.matrix if subsystem == "B" else rho.matrix.T
        assert np.allclose(d, eig_hermitian(partial_transpose(m, rho.dims))[0], rtol=0, atol=1e-14)
        assert report["subsystem"] == "B"
        assert d[0] == report["d_min"]
        assert report["negativity"] == pt_negativity(d)
        assert report["robustness"] == pt_robustness(d)

    @pytest.mark.parametrize("state", ["w", "hs-3x3"])
    def test_report_rho_s_is_the_state_schema(self, tmp_path, capsys, state):
        rho = make_named("w_state")
        if state == "hs-3x3":
            rho = ref.sample_hs_random(9, 0, dims=(3, 3))
            state = str(tmp_path / "hs.json")
            write_state(tmp_path / "hs.json", rho)
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "project", "--state", state, "--json", str(out_path))
        assert code == 0
        rho_s = closest_pt_states(rho.matrix[None], rho.dims).rho_s[0]
        want = state_to_dict(DensityMatrix(rho_s, rho.dims))
        assert json.loads(out_path.read_text())["rho_s"] == want

    # HS samples at n = 6 and 9 are not exactly Hermitian (at 4, 8 and 16 they are), so a lost
    # symmetrization shows first in hs-2x3 and hs-3x3
    @pytest.mark.parametrize("state", ["w", "bell", "hs-2x2", "hs-2x3", "hs-3x3", "hs-2x4", "hs-3x4"])
    def test_report_fields_are_the_reference_bitwise(self, tmp_path, capsys, state):
        if state.startswith("hs-"):
            da, db = map(int, state[3:].split("x"))
            path = tmp_path / "hs.json"
            write_state(path, ref.sample_hs_random(da * db, 0, dims=(da, db)))
            rho, state = state_from_json(path.read_text()), str(path)
        else:
            rho = make_named({"w": "w_state", "bell": "bell_psi_plus"}[state])
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "project", "--state", state, "--json", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        want = ref.closest_pt_state(rho)
        assert report["e_squared"] == want.e_squared.tolist()
        assert report["lambda"] == want.lam
        assert report["kept_indices"] == list(want.kept_indices)
        assert report["distance_exact"] == want.distance_exact
        if ref.drops_only_negatives(report["pt_spectrum"], report["kept_indices"]):
            assert report["distance_closed_form"] == want.distance_closed_form
        else:
            assert abs(report["distance_closed_form"] - want.distance_exact) <= 1e-14
        assert report["d_min"] == want.d_min
        assert report["rho_s_is_positive"] == want.rho_s_is_positive

    @pytest.mark.parametrize("state", ["w", "bell", "hs-4x4"])
    def test_report_is_json_dumps_of_the_projection(self, tmp_path, capsys, state):
        if state == "hs-4x4":
            path = tmp_path / "hs.json"
            write_state(path, ref.sample_hs_random(16, 0, dims=(4, 4)))
            rho, state = state_from_json(path.read_text()), str(path)
        else:
            rho = make_named({"w": "w_state", "bell": "bell_psi_plus"}[state])
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "project", "--state", state, "--json", str(out_path))
        assert code == 0
        text = out_path.read_text()
        report = json.loads(text)
        assert text == json.dumps(report)
        assert list(report) == readme_report_keys()
        res = closest_pt_states(rho.matrix[None], rho.dims)
        rho_s = res.rho_s[0]
        assert hexes(report["rho_s"]["matrix"]) == hexes(np.stack([rho_s.real, rho_s.imag], axis=-1))
        assert hexes(report["pt_spectrum"]) == hexes(res.d[0])
        assert hexes([report["distance_exact"]]) == hexes([np.linalg.norm(rho.matrix - rho_s)])

    @staticmethod
    def count_solves(monkeypatch):
        shapes = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def counted(a, _name=name, _solver=solver):
                shapes.append((_name, a.shape))
                return _solver(a)

            monkeypatch.setattr(np.linalg, name, counted)
        return shapes

    def test_report_decomposes_rho_pt_and_rho_s_once_each(self, capsys, monkeypatch):
        # a named state skips validate_state, so these are the projection's own solves:
        # eigenvectors of rho^PT, the least eigenvalue alone of rho_s
        shapes = self.count_solves(monkeypatch)
        code, _, _ = run(capsys, "project", "--state", "w")
        assert code == 0
        assert shapes == [("eigh", (1, 8, 8)), ("eigvalsh", (1, 8, 8))]

    def test_report_makes_two_eigensolves(self, tmp_path, capsys, monkeypatch):
        # writing the JSON report adds no solve to the two of the projection
        shapes = self.count_solves(monkeypatch)
        code, _, _ = run(capsys, "project", "--state", "w", "--json", str(tmp_path / "w.json"))
        assert code == 0
        assert shapes == [("eigh", (1, 8, 8)), ("eigvalsh", (1, 8, 8))]

    def test_ppt_negativity_is_positive_zero(self, tmp_path, capsys):
        # a PPT state of dims 2x4 reads +0, as every PPT state does
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "project", "--state", "max_mixed(8)", "--json", str(out_path))
        assert code == 0
        assert "negativity:           0.0000000000000000" in out
        assert '"negativity": 0.0,' in out_path.read_text()


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--samples", "abc"], "--samples: must be a positive integer, got 'abc'"),
            (["--dims", "2by2"], "--dims: dims must look like 2x2"),
            (["--dims", "25x41"], "--dims: dims need dA, dB >= 1 and dA*dB <= 1024, got '25x41'"),
            (["--dims", "0x2"], "--dims: dims need dA, dB >= 1 and dA*dB <= 1024, got '0x2'"),
            # a count this large would keep the sampler busy for ever
            (["--samples", "18446744073709551616"], "--samples: must be at most 10000000, got '18446744073709551616'"),
            (["--samples", "10000001"], "--samples: must be at most 10000000, got '10000001'"),
        ],
    )
    def test_bad_argument_exits_2_before_sampling(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli.states, "sample_hs_random_stack", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(["stats", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_samples_cap_is_inclusive(self):
        assert cli._sample_count("10000000") == cli.MAX_SAMPLES

    def test_dims_cap_is_inclusive(self):
        assert cli._parse_dims("32x32") == (32, 32)
        assert cli._parse_dims("1x1024") == (1, 1024)

    @pytest.mark.parametrize(
        "dims, samples, sizes", [("2x2", 1025, [512, 512, 1]), ("3x4", 120, [56, 56, 8]), ("4x4", 70, [32, 32, 6])]
    )
    def test_blocks_bound_matrix_elements(self, capsys, monkeypatch, dims, samples, sizes):
        # STACK_ELEMENTS // n^2 states per block
        seen = []
        sample = cli.states.sample_hs_random_stack

        def recorded(rng, n, count):
            seen.append(count)
            return sample(rng, n, count)

        monkeypatch.setattr(cli.states, "sample_hs_random_stack", recorded)
        code, _, _ = run(capsys, "stats", "--samples", str(samples), "--dims", dims)
        assert code == 0
        assert seen == sizes

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "stats", "--samples", "10", "--seed=-1")
        assert code == 2
        assert out == ""
        assert err == "error: seeds must be non-negative, got -1\n"

    def test_block_size_does_not_change_output(self, capsys, monkeypatch):
        argv = ["stats", "--samples", "300", "--seed", "4", "--dims", "2x3"]
        _, out1, _ = run(capsys, *argv)
        monkeypatch.setattr(linalg, "STACK_ELEMENTS", 7 * 16)
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
    @pytest.mark.parametrize("seed", [0, 1, 2, 11, 2**70])
    def test_random_plane_anchors_are_one_state_per_seed(self, seed):
        # the anchors are the first state of default_rng(seed) and of default_rng(seed + 1)
        got = cli.resolve_plane(f"random:{seed}")
        want = build_plane(ref.sample_hs_random(4, seed), ref.sample_hs_random(4, seed + 1))
        assert got.dims == want.dims == (2, 2)
        assert np.array_equal(got.a1, want.a1)
        assert np.array_equal(got.a2, want.a2)

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

    def test_contour_out_is_where_the_contours_go(self, tmp_path, capsys):
        out_path, contour_path = tmp_path / "g.csv", tmp_path / "elsewhere" / "c.json"
        contour_path.parent.mkdir()
        argv = ["scan", "--plane", "ff3", "--resolution", "21", "--out", str(out_path), "--contours", "0.1"]
        code, out, _ = run(capsys, *argv, "--contour-out", str(contour_path))
        assert code == 0
        assert out.splitlines()[-1] == f"wrote contours to {contour_path}"
        assert not (tmp_path / "g.contours.json").exists()
        # the same bytes the default path gets
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert contour_path.read_bytes() == (tmp_path / "g.contours.json").read_bytes()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "scan", "--plane", "random:9", "--resolution", "41", "--out", str(p1))
        run(capsys, "scan", "--plane", "random:9", "--resolution", "41", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_plane_pair(self, tmp_path, capsys):
        pa = tmp_path / "rho1.json"
        pb = tmp_path / "rho2.json"
        write_state(pa, make_named("bell_psi_plus"))
        write_state(pb, make_named("ff2_rho2"))
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

    @pytest.mark.parametrize("plane", ["random(5)", "random(5", "random:5)", "random:", "random:-5"])
    def test_only_the_colon_random_syntax(self, tmp_path, capsys, plane):
        code, _, err = run(capsys, "scan", "--plane", plane, "--out", str(tmp_path / "g.csv"))
        assert code == 2
        assert err.startswith(f"error: unknown plane {plane!r}")

    def test_tags_as_plane_halves(self, tmp_path, capsys):
        pa = tmp_path / "rho1.json"
        write_state(pa, make_named("bell_psi_plus"))
        written = []
        for plane in ["ff2", "bell,ff2_rho2", f"{pa},ff2-rho2"]:
            out_path = tmp_path / "g.csv"
            code, _, _ = run(capsys, "scan", "--plane", plane, "--resolution", "11", "--out", str(out_path))
            assert code == 0
            written.append(out_path.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize(
        "half, message",
        [
            ("missing.json", "cannot read state file 'missing.json'"),
            ("dir.json", "cannot read state file 'dir.json'"),
            ("bad.json", "malformed state document"),
            ("s41.json", "anchors must share the bipartition"),
        ],
    )
    def test_bad_plane_half_exits_2(self, tmp_path, capsys, monkeypatch, half, message, first):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir.json").mkdir()
        (tmp_path / "bad.json").write_text('{"dims": [2, 2], "matrix": 5}')
        # bell's size, another bipartition
        write_state(tmp_path / "s41.json", DensityMatrix(ref.sample_hs_random(4, 3).matrix, (4, 1)))
        plane = f"{half},bell" if first else f"bell,{half}"
        code, _, err = run(capsys, "scan", "--plane", plane, "--resolution", "5", "--out", "g.csv")
        assert code == 2
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "g.csv").exists()

    def test_resolution_over_cap_exits_2_before_scanning(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.geometry, "_rays", unreachable)
        out_path = tmp_path / "g.csv"
        code, _, err = run(capsys, "scan", "--plane", "ff1", "--resolution", "1602", "--out", str(out_path))
        assert code == 2
        assert err == "error: need 2 to 1601 steps per axis, got 1602x1602\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("bounds", ["0.9:-0.9", "0.5:0.5", "nan:0.5", "-0.5:inf", "-1e308:1e308", "-1e284:1e284"])
    def test_bad_range_exits_2(self, tmp_path, capsys, bounds):
        out_path = tmp_path / "g.csv"
        code, _, err = run(capsys, "scan", "--plane", "ff3", "--resolution", "41", f"--range={bounds}", "--out", str(out_path))
        assert code == 2
        assert "lo < hi" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("bounds", ["a:b", "0.5", "1:2:3"])
    def test_malformed_range_is_a_usage_error(self, tmp_path, capsys, bounds):
        out_path = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--plane", "ff3", "--resolution", "5", f"--range={bounds}", "--out", str(out_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --range: must be two numbers lo:hi, got {bounds!r}" in err
        assert "_parse" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("levels", ["nan,inf", "0.1,-inf", "nan", "0.1,x"])
    def test_non_finite_contour_levels_exit_2(self, tmp_path, capsys, levels):
        out_path = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--plane", "ff3", "--resolution", "5", "--out", str(out_path), "--contours", levels])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"contour levels must be finite, got {levels!r}" in err
        assert "_parse" not in err
        assert not out_path.exists()

    def test_plane_list_is_the_named_planes(self, tmp_path, capsys):
        # the named planes are the ffN with a partner state ffN_rho2; the help,
        # the unknown-plane error and the README list each of them
        planes = [tag.removesuffix("_rho2") for tag in states.NAMED_STATE_TAGS if tag.endswith("_rho2")]
        for plane in planes:
            assert cli.resolve_plane(plane).dims == (2, 2)
        with pytest.raises(SystemExit):
            main(["scan", "--help"])
        assert f" {'|'.join(planes)}, random:<seed>," in " ".join(capsys.readouterr().out.split())
        code, _, err = run(capsys, "scan", "--plane", "ff9", "--out", str(tmp_path / "g.csv"))
        assert code == 2
        assert f"; use {'|'.join(planes)}, random:<seed>," in err
        readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
        listed = re.findall(r"\((ff\d+(?:, ff\d+)*)\)", readme)
        assert listed and set(listed) == {", ".join(planes)}

    def test_unwritable_out_exits_3(self, capsys):
        code, _, err = run(
            capsys, "scan", "--plane", "ff1", "--resolution", "2", "--out", "/nonexistent/g.csv"
        )
        assert code == 3


# argv pieces for `entgeo project`; no '/', so every path stays in the test's directory
argv_tokens = st.one_of(
    st.sampled_from(
        ["--state", "--subsystem", "--json", "--st", "--j", "-h", "--", "A", "B", "C", "w", "bell", "qd",
         "max_mixed(4)", "max-mixed8", "max_mixed(0)", "nonsense", "state.json", "bad.json", "dir.json",
         "report.json", "missing.json"]
    ),
    st.text(alphabet=st.characters(exclude_characters="/"), max_size=10),
)

# argv pieces for `entgeo stats` and `entgeo scan`: valid sizes are small, so
# every run is quick; free text has no digits, so it never reads as a size
free_text = st.text(alphabet=st.characters(exclude_categories=("Cs", "Nd"), exclude_characters="/"), max_size=10)
stats_tokens = st.one_of(
    st.sampled_from(
        ["--samples", "--seed", "--dims", "--sa", "--d", "-h", "--", "1", "3", "20", "0", "-3", "abc", "1e3",
         "2x2", "2x3", "3x3", "1x1", "0x2", "2by2", "25x41", "32x33", "99999999999x99999999999", "--seed=-1",
         "18446744073709551616"]
    ),
    free_text,
)
scan_tokens = st.one_of(
    st.sampled_from(
        ["--plane", "--resolution", "--range", "--out", "--contours", "--contour-out", "-h", "--", "ff1", "ff3",
         "ff9", "random:3", "random(5)", "random:", "bell,ff2_rho2", "w,bell", "state.json,bell", "bad.json,bell",
         "dir.json,w", "missing.json,bell", ",", "2", "3", "5", "1", "0", "-1", "1602", "99999999999", "abc",
         "--range=-0.5:0.5", "0.1:0.2", "0.5:0.5", "nan:1", "1:2:3", "g.csv", "dir.json", "nodir/g.csv",
         "c.json", "0.1,0.2", "0.1,abc", "nan"]
    ),
    free_text,
)


# per-cell imaginary parts on both sides of the 5e-7 display threshold, and signed zeros
IM_EDGES = [5e-7, np.nextafter(5e-7, 0), np.nextafter(5e-7, 1), -0.0, 0.0]
matrix_parts = st.floats() | st.sampled_from(IM_EDGES + [-x for x in IM_EDGES])


@st.composite
def printed_matrices(draw):
    n = draw(st.integers(1, 6))
    m = np.empty((n, n), dtype=np.complex128)
    m.real = np.array(draw(st.lists(matrix_parts, min_size=n * n, max_size=n * n))).reshape(n, n)
    m.imag = np.array(draw(st.lists(matrix_parts, min_size=n * n, max_size=n * n))).reshape(n, n)
    return m


def edge_matrix():
    m = np.empty((len(IM_EDGES), 2 * len(IM_EDGES)), dtype=np.complex128)
    m.real = -0.0
    m.imag = np.outer(IM_EDGES, [1.0] * len(IM_EDGES) + [-1.0] * len(IM_EDGES))
    return m


class TestMain:
    @given(printed_matrices())
    @example(edge_matrix())
    @settings(max_examples=200, deadline=None)
    def test_matrix_printer_is_the_per_cell_oracle(self, m):
        assert cli._format_matrix(m) == ref.format_matrix(m)

    @pytest.mark.parametrize(
        "command, checked", [("stats", []), ("project-named", [(1, 8, 8)]), ("project-json", [(6, 6), (1, 6, 6)])]
    )
    def test_checks_each_matrix_once_where_it_enters(self, tmp_path, capsys, monkeypatch, command, checked):
        # a JSON state is checked by validate_state and its PT by closest_pt_states; a named
        # state is the program's own, so only its PT is checked; states that stats samples and
        # every rho_s go to LAPACK unchecked
        write_state(tmp_path / "hs.json", ref.sample_hs_random(6, 0, dims=(2, 3)))
        argv = {
            "stats": ["stats", "--samples", "10000", "--seed", "1"],
            "project-named": ["project", "--state", "w", "--json", str(tmp_path / "r.json")],
            "project-json": ["project", "--state", str(tmp_path / "hs.json"), "--json", str(tmp_path / "r.json")],
        }[command]
        calls = []
        asymmetry = linalg.asymmetry
        # counted under every name that holds it
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "entgeo" and getattr(module, "asymmetry", None) is asymmetry:
                monkeypatch.setattr(module, "asymmetry", lambda a: calls.append(np.shape(a)) or asymmetry(a))
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert calls == checked

    def test_interleaved_calls_write_what_first_calls_write(self, tmp_path, capsys):
        outputs = [tmp_path / "report.json", tmp_path / "grid.csv", tmp_path / "grid.contours.json"]
        calls = {
            "project": ["project", "--state", "bell", "--json", str(outputs[0])],
            "stats": ["stats", "--samples", "40", "--seed", "5", "--dims", "2x3"],
            "scan": ["scan", "--plane", "ff3", "--resolution", "9", "--out", str(outputs[1]), "--contours", "0.2"],
            "usage error": ["project", "--subsystem", "C"],
        }

        def call(name):
            try:
                code = main(calls[name])
            except SystemExit as exc:
                code = exc.code
            written = []
            for path in outputs:
                written.append(path.read_bytes() if path.exists() else None)
                path.unlink(missing_ok=True)
            return code, capsys.readouterr(), written

        cli.build_parser.cache_clear()
        first = {name: call(name) for name in calls}
        assert first["usage error"][0] == 2
        for name in ["usage error", "scan", "project", "usage error", "stats", "project", "scan", "stats"]:
            assert call(name) == first[name], name

    def test_main_runs_the_current_cmd_project(self, capsys, monkeypatch):
        # the parser exists before the patch, so a handler bound into it would be the old one
        assert main(["project", "--state", "bell"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_project", lambda args: seen.append(args.state) or 0)
        assert main(["project", "--state", "w"]) == 0
        assert seen == ["w"]

    @given(st.lists(stats_tokens, max_size=6))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_stats_argv_exits_0_2_or_3(self, capsys, tokens):
        try:
            code = main(["stats", "--samples", "20", *tokens])
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 2, 3)

    @given(st.lists(scan_tokens, max_size=6))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_scan_argv_exits_0_2_or_3(self, tmp_path, monkeypatch, capsys, tokens):
        monkeypatch.chdir(tmp_path)
        write_state(tmp_path / "state.json", make_named("ff2_rho2"))
        (tmp_path / "bad.json").write_text('{"dims": [1e400, 2], "matrix": [[[1.0, 0.0]]]}')
        (tmp_path / "dir.json").mkdir(exist_ok=True)
        try:
            code = main(["scan", "--plane", "ff1", "--resolution", "3", "--out", "g.csv", *tokens])
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 2, 3)

    @given(st.lists(argv_tokens, max_size=7))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(["\ud800", "--state", "A"])  # argparse writes the unknown token to stderr
    def test_project_argv_exits_0_2_or_3(self, tmp_path, monkeypatch, capsys, tokens):
        # a process's own stderr writes a lone surrogate from argv as a backslash
        # escape; the captured one would raise on it
        sys.stderr.reconfigure(errors="backslashreplace")
        monkeypatch.chdir(tmp_path)
        write_state(tmp_path / "state.json", ref.sample_hs_random(6, 1, dims=(2, 3)))
        (tmp_path / "bad.json").write_text('{"dims": [1e400, 2], "matrix": [[[1.0, 0.0]]]}')
        (tmp_path / "dir.json").mkdir(exist_ok=True)
        try:
            code = main(["project", *tokens])
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 2, 3)

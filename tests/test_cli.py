import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hermite_needlets
from hermite_needlets import build_frame
from hermite_needlets.cli import main

from conftest import tile_box


def run(args):
    return main(args)


def count_formatted(monkeypatch):
    """Record the length of every column ``cli._fmt_column`` formats."""
    import hermite_needlets.cli as cli

    sizes, real = [], cli._fmt_column

    def counting(values):
        out = real(values)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(cli, "_fmt_column", counting)
    return sizes


class TestRule:
    def test_d2_formats_each_axis_value_once(self, tmp_path, monkeypatch):
        # the node columns repeat one 1-d node per axis index; only the
        # weights are formatted per row
        sizes = count_formatted(monkeypatch)
        out = tmp_path / "rule.csv"
        assert run(["rule", "--n", "9", "--d", "2", "--out", str(out)]) == 0
        assert sum(sizes) == 9 + 9**2

    def test_d2_rows_across_chunks(self, tmp_path, monkeypatch):
        # the rows of each chunk are formed on their own; each must still be
        # the product rule's node and weight, formatted as before
        import hermite_needlets.cli as cli
        from hermite_needlets.quadrature import product_cubature

        monkeypatch.setattr(cli, "_CSV_CHUNK", 7)
        out = tmp_path / "rule.csv"
        assert run(["rule", "--n", "9", "--d", "2", "--out", str(out)]) == 0
        rule = product_cubature(9, 2)
        nodes, weights = rule.nodes, rule.weights
        lines = out.read_text().splitlines()
        assert lines[0] == "index,node_1,node_2,weight"
        assert len(lines) == 9**2 + 1
        for i, line in enumerate(lines[1:]):
            cells = [str(i)] + [cli._fmt(c) for c in nodes[i]] + [cli._fmt(weights[i])]
            assert line == ",".join(cells)

    def test_two_point_rule(self, tmp_path):
        out = tmp_path / "rule.csv"
        assert run(["rule", "--n", "2", "--d", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,node,gauss_weight,christoffel_weight"
        assert len(lines) == 3
        node = float(lines[2].split(",")[1])
        assert node == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_invalid_order_exits_2(self):
        assert run(["rule", "--n", "0", "--d", "1"]) == 2

    def test_d2_product_weights(self, tmp_path):
        out = tmp_path / "rule2.csv"
        assert run(["rule", "--n", "2", "--d", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,node_1,node_2,weight"
        assert len(lines) == 5
        w = float(lines[1].split(",")[3])
        want = ((math.sqrt(math.pi) / 2.0) * math.exp(0.5)) ** 2
        assert w == pytest.approx(want, rel=1e-13)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["rule", "--n", "7", "--d", "1", "--out", str(a)])
        run(["rule", "--n", "7", "--d", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFrame:
    def test_manifest_and_levels(self, tmp_path):
        assert (
            run(
                [
                    "frame",
                    "--j-max",
                    "2",
                    "--delta",
                    "0.025",
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        manifest = json.loads((tmp_path / "frame_manifest.json").read_text())
        assert [lev["half_nodes"] for lev in manifest["levels"]] == [5, 11, 36]
        level0 = (tmp_path / "frame_level_0.csv").read_text().splitlines()
        assert level0[0] == "index,xi_1,weight,tile_lo_1,tile_hi_1"
        assert len(level0) == 11

    def test_delta_out_of_range_exits_2(self, tmp_path):
        assert run(["frame", "--delta", "0.05", "--output-dir", str(tmp_path)]) == 2

    def test_budget_exits_3(self, tmp_path):
        code = run(
            ["frame", "--dimension", "2", "--j-max", "6", "--output-dir", str(tmp_path)]
        )
        assert code == 3

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "dimension": 1,
                    "delta": 0.025,
                    "j_max": 1,
                    "cutoff": "quadratic",
                    "grid_radius": None,
                    "points_per_unit": None,
                    "node_budget": 10**7,
                    "output_dir": str(tmp_path),
                }
            )
        )
        assert run(["frame", "--config", str(cfg), "--j-max", "2"]) == 0
        manifest = json.loads((tmp_path / "frame_manifest.json").read_text())
        assert manifest["j_max"] == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jmax": 3}))
        assert run(["frame", "--config", str(cfg)]) == 2

    def test_effective_config_roundtrips(self, tmp_path):
        assert run(["frame", "--j-max", "1", "--output-dir", str(tmp_path)]) == 0
        saved = json.loads((tmp_path / "run_config.json").read_text())
        assert set(saved) == {
            "dimension",
            "delta",
            "j_max",
            "cutoff",
            "grid_radius",
            "points_per_unit",
            "node_budget",
            "output_dir",
        }
        assert saved["j_max"] == 1

    def test_cutoff_table(self, tmp_path):
        code = run(
            [
                "frame",
                "--j-max",
                "1",
                "--cutoff-table",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "cutoff_a.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        vs = [float(l.split(",")[1]) for l in lines[1:]]
        # peak value 1 at t = 1, zero outside [1/4, 4]
        assert max(vs) == pytest.approx(1.0, abs=1e-12)
        assert vs[0] == 0.0 and vs[-1] == 0.0
        assert (tmp_path / "cutoff_b.csv").exists()

    def test_d2_formats_each_axis_value_once(self, tmp_path, monkeypatch):
        # per level: the 1-d nodes, the 1-d tile bounds and one weight a row
        sizes = count_formatted(monkeypatch)
        assert run(["frame", "--dimension", "2", "--j-max", "1",
                    "--output-dir", str(tmp_path)]) == 0
        levels = build_frame(d=2, j_max=1).levels
        assert sum(sizes) == sum(2 * lev.base.n + 1 + lev.node_count for lev in levels)

    def test_level_rows_across_chunks(self, tmp_path, monkeypatch):
        # rows are formatted in chunks; each must still be the node's own
        # coordinates, weight and tile_box, formatted as before
        import hermite_needlets.cli as cli
        from hermite_needlets import needlet_frame as nf

        monkeypatch.setattr(cli, "_CSV_CHUNK", 7)
        assert run(["frame", "--dimension", "2", "--j-max", "0",
                    "--output-dir", str(tmp_path)]) == 0
        level = nf.build_frame(d=2, j_max=0).levels[0]
        lines = (tmp_path / "frame_level_0.csv").read_text().splitlines()
        assert len(lines) == level.node_count + 1
        for i, line in enumerate(lines[1:]):
            lo, hi = tile_box(level, i)
            cells = [str(i)] + [cli._fmt(c) for c in level.nodes[i]]
            cells.append(cli._fmt(level.weights[i]))
            for axis in range(2):
                cells += [cli._fmt(lo[axis]), cli._fmt(hi[axis])]
            assert line == ",".join(cells)


HERMITE_SPEC = 'hermite:{"dim":1,"coeffs":[[[0],0.5],[[3],-1.25],[[9],2.0]]}'


class TestDecomposeReconstruct:
    def test_d2_rows_format_each_axis_value_once(self, tmp_path, monkeypatch):
        # each row's coordinates are its level's nodes on each axis; the
        # 1-d nodes are formatted once a level, the values once a row
        import hermite_needlets.cli as cli

        monkeypatch.setattr(cli, "_CSV_CHUNK", 7)
        sizes = count_formatted(monkeypatch)
        out = tmp_path / "c.csv"
        argv = ["decompose", "--function", "bump:1.0,0.5", "--dimension", "2",
                "--j-max", "1", "--out", str(out)]
        assert run(argv) == 0
        levels = build_frame(d=2, j_max=1).levels
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for row in rows:
            xi = levels[int(row[0])].nodes_at(int(row[1]))
            assert row[2:4] == [cli._fmt(c) for c in xi]
        present = {int(row[0]) for row in rows}
        assert present == {0, 1}
        assert sum(sizes) == len(rows) + sum(levels[j].base.n for j in present)

    def test_ground_state_only_level_zero(self, tmp_path):
        out = tmp_path / "c.csv"
        assert (
            run(
                [
                    "decompose",
                    "--function",
                    'hermite:{"dim":1,"coeffs":[[[0],1.0]]}',
                    "--j-max",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        levels = {line.split(",")[0] for line in lines[1:]}
        assert levels == {"0"}

    def test_round_trip(self, tmp_path):
        coeffs = tmp_path / "c.csv"
        recon = tmp_path / "r.json"
        assert (
            run(
                [
                    "decompose",
                    "--function",
                    HERMITE_SPEC,
                    "--j-max",
                    "3",
                    "--out",
                    str(coeffs),
                ]
            )
            == 0
        )
        assert (
            run(
                [
                    "reconstruct",
                    "--coeffs",
                    str(coeffs),
                    "--j-max",
                    "3",
                    "--out",
                    str(recon),
                ]
            )
            == 0
        )
        data = json.loads(recon.read_text())
        got = {tuple(a): c for a, c in data["coeffs"]}
        want = {(0,): 0.5, (3,): -1.25, (9,): 2.0}
        for key, val in want.items():
            assert got.pop(key) == pytest.approx(val, abs=1e-10)
        assert all(abs(v) < 1e-10 for v in got.values())

    def test_malformed_spec_exits_2(self):
        assert run(["decompose", "--function", "hermite:{bad", "--j-max", "1"]) == 2
        assert run(["decompose", "--function", "wave:3", "--j-max", "1"]) == 2

    def test_d2_round_trip(self, tmp_path):
        spec2 = 'hermite:{"dim":2,"coeffs":[[[0,0],1.0],[[1,2],-0.75]]}'
        coeffs = tmp_path / "c2.csv"
        recon = tmp_path / "r2.json"
        assert (
            run(
                [
                    "decompose",
                    "--function",
                    spec2,
                    "--dimension",
                    "2",
                    "--j-max",
                    "2",
                    "--out",
                    str(coeffs),
                ]
            )
            == 0
        )
        header = coeffs.read_text().splitlines()[0]
        assert header == "level,node_index,xi_1,xi_2,s_value"
        assert (
            run(
                [
                    "reconstruct",
                    "--coeffs",
                    str(coeffs),
                    "--dimension",
                    "2",
                    "--j-max",
                    "2",
                    "--out",
                    str(recon),
                ]
            )
            == 0
        )
        data = json.loads(recon.read_text())
        got = {tuple(a): c for a, c in data["coeffs"]}
        assert got.pop((0, 0)) == pytest.approx(1.0, abs=1e-10)
        assert got.pop((1, 2)) == pytest.approx(-0.75, abs=1e-10)
        assert all(abs(v) < 1e-10 for v in got.values())

    def test_bump_roundtrip_within_band(self, tmp_path):
        coeffs = tmp_path / "cb.csv"
        code = run(
            [
                "decompose",
                "--function",
                "bump:3.0,0.5",
                "--degree",
                "60",
                "--j-max",
                "3",
                "--out",
                str(coeffs),
            ]
        )
        assert code == 0
        assert len(coeffs.read_text().splitlines()) > 1

    def test_reconstruct_allocates_each_level_once(self, tmp_path, monkeypatch):
        import hermite_needlets.cli as cli

        frame = build_frame(d=1, j_max=2)
        coeffs = tmp_path / "c.csv"
        rows = [
            f"{level.j},{i},{0.01 * (i + 1)}"
            for level in frame.levels
            for i in range(level.node_count)
        ]
        coeffs.write_text("\n".join(["level,node_index,s_value", *rows]) + "\n")

        class CountingNumpy:
            zeros_calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def zeros(self, *args, **kwargs):
                self.zeros_calls += 1
                return np.zeros(*args, **kwargs)

        counting = CountingNumpy()
        monkeypatch.setattr(cli, "np", counting)
        argv = ["reconstruct", "--coeffs", str(coeffs), "--j-max", "2"]
        assert run(argv + ["--out", str(tmp_path / "r.json")]) == 0
        assert counting.zeros_calls <= len(frame.levels)


    def _reconstruct(self, tmp_path, rows):
        coeffs, out = tmp_path / "c.csv", tmp_path / "r.json"
        coeffs.write_text("\n".join(["level,node_index,xi_1,s_value", *rows]) + "\n")
        code = run(["reconstruct", "--coeffs", str(coeffs), "--j-max", "2", "--out", str(out)])
        return code, out

    def test_reconstruct_level_not_an_integer(self, tmp_path, capsys):
        code, out = self._reconstruct(tmp_path, ["1,3,0.0,1.0", "1.5,2,0.0,0.5"])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ") and err.count("\n") == 1
        assert "'1.5,2,0.0,0.5'" in err

    def test_reconstruct_skips_blank_lines(self, tmp_path):
        rows = ["1,3,0.0,1.0", "2,0,0.0,0.5"]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code, plain = self._reconstruct(tmp_path / "a", rows)
        assert code == 0
        code, spaced = self._reconstruct(tmp_path / "b", ["", rows[0], "", "  ", rows[1], ""])
        assert code == 0
        assert spaced.read_bytes() == plain.read_bytes()

    def test_reconstruct_header_only(self, tmp_path, recwarn):
        code, out = self._reconstruct(tmp_path, [])
        assert code == 0
        assert json.loads(out.read_text()) == {"dim": 1, "degree": 0, "coeffs": []}
        assert not recwarn.list


class TestNorms:
    def test_ground_state_f_norm(self, capsys):
        code = run(
            [
                "norms",
                "--function",
                'hermite:{"dim":1,"coeffs":[[[0],1.0]]}',
                "--alpha",
                "0",
                "--p",
                "2",
                "--q",
                "2",
                "--kind",
                "F",
                "--j-max",
                "2",
            ]
        )
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        fields = line.split(",")
        assert fields[4] == "F"
        assert float(fields[5]) == pytest.approx(1.0, abs=1e-6)

    def test_csv_written(self, tmp_path):
        out = tmp_path / "norms.csv"
        code = run(
            [
                "norms",
                "--function",
                'hermite:{"dim":1,"coeffs":[[[2],1.0]]}',
                "--alpha",
                "0.5",
                "--p",
                "2",
                "--q",
                "1",
                "--kind",
                "b",
                "--j-max",
                "2",
                "--out",
                str(out),
                "--id",
                "probe",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "function_id,alpha,p,q,norm_kind,value"
        assert lines[1].startswith("probe,0.5,2,1,b,")

    @pytest.mark.parametrize("coeffs", ["[[[0],0.0]]", "[]"])
    def test_zero_function_a_norm(self, capsys, coeffs):
        # every tail of the zero function is zero, and so is its A norm
        argv = ["norms", "--j-max", "2", "--function", f'hermite:{{"coeffs":{coeffs}}}',
                "--alpha", "0.5", "--p", "3", "--q", "2", "--kind", "A"]
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 and out.rstrip("\n").endswith(",A,0")
        assert err == ""


class TestDecayAndShift:
    def test_decay_summary(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        code = run(
            ["decay", "--level", "2", "--k", "6", "--j-max", "2", "--out", str(out)]
        )
        assert code == 0
        msg = capsys.readouterr().out
        assert "inner_max=" in msg and "tail_max=" in msg
        lines = out.read_text().splitlines()
        assert lines[0] == "offset,kernel,weighted"

    def test_decay_d2_defaults_to_central_node(self, tmp_path, capsys):
        # row-major index n**2 // 2 is the edge node (n/2, 0), where the
        # level kernel is negligible; the central node is (n/2, n/2)
        out = tmp_path / "decay.csv"
        argv = ["decay", "--dimension", "2", "--j-max", "2", "--level", "2"]
        assert run(argv + ["--out", str(out)]) == 0
        msg = capsys.readouterr().out
        n = build_frame(d=2, j_max=2).levels[2].shape[0]
        assert f" node={(n // 2) * n + n // 2} " in msg
        assert float(msg.split("inner_max=")[1].split()[0]) > 1.0

    def test_unresolved_bump_exits_2(self, tmp_path, capsys):
        # no node of the order-528 rule falls inside a bump of width 0.001,
        # so its projection is zero; that is not the zero function
        out = tmp_path / "shift.csv"
        argv = ["shift-study", "--shifts", "0,0.3", "--width", "0.001",
                "--j-max", "1", "--degree", "256", "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "width 0.001" in err and err.count("\n") == 1
        assert not out.exists()

    def test_shift_study_csv(self, tmp_path):
        out = tmp_path / "shift.csv"
        code = run(
            [
                "shift-study",
                "--shifts",
                "0,1.5,3",
                "--width",
                "2.0",
                "--j-max",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "y,l2,bH,fH"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        bh = [r[2] for r in rows]
        assert bh == sorted(bh)
        assert len(rows) == 3


class TestVerify:
    def test_frame_suite_passes(self, capsys):
        assert run(["verify", "--suite", "frame"]) == 0
        out = capsys.readouterr().out
        assert "PASS frame/level-sizes" in out
        assert "FAIL" not in out

    def test_quadrature_suite_passes(self, capsys):
        assert run(["verify", "--suite", "quadrature"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_config_flags_rejected(self, capsys):
        # verify builds its own frames, so it takes no config flags
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "cutoffs", "--j-max", "7", "--node-budget", "1",
                 "--config", "/nonexistent.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBadInputExits2:
    """Malformed outside input ends in exit 2 with a one-line message."""

    def _assert_one_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"j_max": "3"}))
        assert run(["frame", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        self._assert_one_line(capsys)

    def test_config_bool_is_not_an_integer(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"j_max": True}))
        assert run(["frame", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2

    def test_config_integer_for_float_and_null_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_radius": 5, "points_per_unit": None}))
        out = tmp_path / "r.csv"
        assert run(["rule", "--n", "2", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize("level", ["3", "-1"])
    def test_decay_level_outside_frame(self, tmp_path, capsys, level):
        out = tmp_path / "decay.csv"
        code = run(["decay", "--level", level, "--j-max", "2", "--out", str(out)])
        assert code == 2
        self._assert_one_line(capsys)

    def test_decay_level_checked_before_frame_build(self, tmp_path, capsys):
        # a budget too small for any frame would exit 3 if the frame came first
        argv = ["decay", "--level", "3", "--j-max", "2", "--node-budget", "1"]
        assert run(argv + ["--out", str(tmp_path / "decay.csv")]) == 2
        self._assert_one_line(capsys)

    @pytest.mark.parametrize("node", ["100000", "-1"])
    def test_decay_node_outside_level(self, tmp_path, capsys, node):
        argv = ["decay", "--j-max", "2", "--level", "2", "--node", node]
        assert run(argv + ["--out", str(tmp_path / "decay.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"parameter error: node index {node} outside level 2\n"

    @pytest.mark.parametrize("cutoff", [{"kind": "dual", "beta": 3}, {}])
    def test_config_cutoff_object_rejected(self, tmp_path, capsys, cutoff):
        # the cutoff is a name, "quadratic" or "dual", as on the command line
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff": cutoff}))
        assert run(["frame", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        self._assert_one_line(capsys)

    @pytest.mark.parametrize("row", ["1,999,0.0,1.0", "1,-1,0.0,1.0", "1,x,0.0,1.0"])
    def test_reconstruct_bad_coefficient_row(self, tmp_path, capsys, row):
        coeffs = tmp_path / "c.csv"
        coeffs.write_text(f"level,node_index,xi_1,s_value\n{row}\n")
        out = tmp_path / "r.json"
        argv = ["reconstruct", "--coeffs", str(coeffs), "--j-max", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        self._assert_one_line(capsys)

    @pytest.mark.parametrize(
        "spec",
        [
            'hermite:{"dim":1,"coeffs":[[[0],NaN],[[3],1.0]]}',
            'hermite:{"dim":1,"coeffs":[[[2],Infinity]]}',
            "bump:1.0,nan",
        ],
    )
    def test_decompose_non_finite_function(self, tmp_path, capsys, spec):
        argv = ["decompose", "--function", spec, "--j-max", "2"]
        assert run(argv + ["--out", str(tmp_path / "c.csv")]) == 2
        self._assert_one_line(capsys)

    @pytest.mark.parametrize("radius", ["nan", "inf", "0.1"])
    def test_norms_grid_without_finite_cells(self, capsys, radius):
        argv = ["norms", "--function", "bump:1.0", "--degree", "8", "--j-max", "2",
                "--alpha", "0.5", "--p", "3", "--q", "2", "--kind", "E"]
        assert run(argv + ["--grid-radius", radius, "--points-per-unit", "1"]) == 2
        self._assert_one_line(capsys)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_reconstruct_non_finite_s_value(self, tmp_path, capsys, value):
        coeffs = tmp_path / "c.csv"
        coeffs.write_text(f"level,node_index,xi_1,s_value\n1,0,0.0,{value}\n")
        out = tmp_path / "r.json"
        argv = ["reconstruct", "--coeffs", str(coeffs), "--j-max", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        self._assert_one_line(capsys)
        assert not out.exists()

    def test_reconstruct_duplicate_row(self, tmp_path, capsys):
        # a repeated (level, node_index) pair would keep only its last value
        coeffs = tmp_path / "c.csv"
        rows = ["1,3,0.0,1.0", "2,0,0.0,0.5", "1,3,0.0,2.0"]
        coeffs.write_text("\n".join(["level,node_index,xi_1,s_value", *rows]) + "\n")
        out = tmp_path / "r.json"
        argv = ["reconstruct", "--coeffs", str(coeffs), "--j-max", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ") and err.count("\n") == 1
        assert "'1,3,0.0,2.0'" in err and "level 1 node 3" in err
        assert not out.exists()


def test_cli_import_does_not_load_scipy():
    # scipy costs every CLI process about 0.4 s and 28 MB at start-up
    src = os.path.dirname(os.path.dirname(hermite_needlets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, hermite_needlets.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _assert_one_line_exit_2(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.count("\n") == 1, err


NORMS_B = ["norms", "--function", 'hermite:{"coeffs":[[[0],1.0]]}', "--j-max", "1",
           "--kind", "B"]


class TestFileAndNumberErrorsExit2:
    """Missing files, a malformed config and bad numbers end in exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct", "--coeffs", "{tmp}/missing.csv", "--j-max", "1"],
            ["frame", "--config", "{tmp}/missing.json"],
            ["rule", "--n", "5", "--out", "{tmp}/missing/r.csv"],
            ["frame", "--j-max", "0", "--output-dir", "{tmp}/bad.json/out"],
            ["frame", "--config", "{tmp}/bad.json", "--output-dir", "{tmp}"],
            ["frame", "--config", "{tmp}/list.json", "--output-dir", "{tmp}"],
            ["reconstruct", "--coeffs", "{tmp}/binary.csv", "--j-max", "1"],
            ["norms", "--function", "hermite:[]", "--alpha", "0", "--p", "2", "--q", "2",
             "--kind", "F", "--j-max", "1"],
            NORMS_B + ["--alpha", "0", "--p", "abc", "--q", "2"],
            ["shift-study", "--shifts", "0,x"],
            ["shift-study", "--shifts", "0", "--width", "0"],
            # non-finite numbers
            NORMS_B + ["--alpha", "nan", "--p", "2", "--q", "2"],
            NORMS_B + ["--alpha", "inf", "--p", "2", "--q", "2"],
            NORMS_B + ["--alpha", "0", "--p", "nan", "--q", "2"],
            NORMS_B + ["--alpha", "0", "--p", "2", "--q=-inf"],
            ["shift-study", "--shifts", "nan"],
            ["shift-study", "--shifts", "0,inf"],
            ["shift-study", "--shifts", "0", "--width", "nan"],
            ["shift-study", "--shifts", "0", "--width", "inf"],
            ["shift-study", "--shifts", "0", "--alpha", "nan"],
            # a bump no node of the order-48 rule reaches
            ["decompose", "--function", "bump:0.001"],
            ["norms", "--function", "bump:0.001", "--alpha", "0.5", "--p", "2", "--q", "2",
             "--kind", "F"],
            # a bump only one node of the order-24 rule reaches, 0.2244
            ["norms", "--j-max", "2", "--function", "bump:0.2,0.31", "--degree", "4",
             "--alpha", "0.5", "--p", "2", "--q", "2", "--kind", "B"],
            # a hermite spec of another dimension, before its 2**64-entry array
            ["decompose", "--function", "hermite:" + json.dumps(
                {"dim": 64, "coeffs": [[[1] + [0] * 63, 1.0]]})],
        ],
        ids=" ".join,
    )
    def test_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)  # where a command would write by default
        (tmp_path / "bad.json").write_text("{bad")
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        _assert_one_line_exit_2(run(argv), capsys)

    def test_inf_accepted_for_p_and_q(self, capsys):
        argv = NORMS_B[:-1] + ["b", "--alpha", "0.5", "--p", "inf", "--q", "Infinity"]
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("f0,0.5,inf,Infinity,b,")


HUGE = 'hermite:{"coeffs":[[[1],1e200]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["norms", "--j-max", "2", "--function", "bump:1.0", "--alpha", "2000", "--p", "2",
         "--q", "2", "--kind", "b"],
        ["norms", "--j-max", "2", "--function", "bump:1.0", "--alpha", "2000", "--p", "2",
         "--q", "2", "--kind", "A"],
        ["norms", "--j-max", "2", "--function", "bump:1.0", "--alpha", "0.5", "--p", "1e-300",
         "--q", "2", "--kind", "b"],
        ["norms", "--j-max", "2", "--function", "bump:1.0", "--alpha", "0.5", "--p", "2",
         "--q", "1e-300", "--kind", "B"],
        *(["norms", "--j-max", "2", "--function", HUGE, "--alpha", "0", "--p", "3", "--q", "2",
           "--kind", kind] for kind in "FfB"),
        ["shift-study", "--shifts", "0", "--width", "1", "--alpha", "2000"],
    ],
    ids=" ".join,
)
def test_norm_past_the_double_range_exits_1(tmp_path, monkeypatch, capsys, argv):
    # a norm outside the double range is an error, not a traceback, nan or inf
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag", [["--grid-radius", "1e300"], ["--points-per-unit", "1000000000000"]]
)
def test_huge_grid_exits_3_before_allocating(capsys, flag):
    argv = ["norms", "--j-max", "2", "--function", "bump:1.0", "--alpha", "0.5", "--p", "3",
            "--q", "2", *flag, "--kind"]
    assert run(argv + ["F"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error: ") and err.count("\n") == 1, err
    assert run(argv + ["b"]) == 0  # the sequence norm reads no grid


@pytest.mark.parametrize(
    "argv",
    [
        ["rule", "--n", "5", "--j-max", "3"],
        ["frame", "--out-dir", "."],
        ["frame", "--grid-radius", "30"],
        ["norms", "--function", "bump:1", "--alpha", "0", "--p", "2", "--q", "2",
         "--kind", "F", "--output-dir", "."],
        ["shift-study", "--shifts", "0", "--dimension", "1"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_unread_config_flags_rejected(capsys, argv):
    # each command registers only the config flags whose fields it reads
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["frame", "--j-max", "1", "--out", "f.csv"],
        ["norms", "--function", "bump:1", "--alpha", "0", "--p", "2", "--q", "2",
         "--kind", "b", "--j-max", "1", "--id", "x", "--approx", "1"],
    ],
    ids=["frame --out", "norms --approx"],
)
def test_abbreviated_flags_rejected(tmp_path, monkeypatch, capsys, argv):
    # a prefix of a flag is not that flag: --out is not --output-dir
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["F", "B", "f", "b", "E", "A"])
def test_norms_kind_matches_library(capsys, kind):
    # the bump's degree 4 = 4^(j_max - 1) keeps it inside the frame's band
    from hermite_needlets import function_spaces as fs
    from hermite_needlets import needlet_frame as nf

    argv = ["norms", "--j-max", "2", "--function", "bump:1.0,0.3", "--degree", "4",
            "--alpha", "0.5", "--p", "3", "--q", "2", "--kind", kind, "--approx-n", "2"]
    assert run(argv) == 0
    got = float(capsys.readouterr().out.strip().split(",")[-1])
    frame = build_frame(d=1, j_max=2)
    grid, params = fs.default_grid(frame), fs.SpaceParams(0.5, 3.0, 2.0)
    f = fs.project_bumps(1.0, [[0.3]], 1, 4)[0].expansion
    want = {
        "F": lambda: fs.f_continuous_norm(f, params, frame, grid),
        "B": lambda: fs.b_continuous_norm(f, params, frame, grid),
        "f": lambda: fs.f_sequence_norm(nf.analyze(f, frame), params, frame, grid),
        "b": lambda: fs.b_sequence_norm(nf.analyze(f, frame), params, frame),
        "E": lambda: fs.best_approx_error(f, 2, 3.0, grid),
        "A": lambda: fs.approximation_norm(f, 0.5, 2.0, 3.0, grid),
    }[kind]()
    assert got == want


class TestShiftStudyGrid:
    """At p or q other than 2 the study evaluates on the configured grid."""

    ARGV = ["shift-study", "--shifts", "0,1.5", "--width", "3", "--p", "3", "--q", "2",
            "--j-max", "2"]

    def _rows(self, path):
        return [list(map(float, line.split(","))) for line in
                path.read_text().splitlines()[1:]]

    def _expected(self, grid_for):
        from hermite_needlets import function_spaces as fs
        from hermite_needlets import needlet_frame as nf

        frame = nf.build_frame(d=1, j_max=2)
        params = fs.SpaceParams(1.0, 3.0, 2.0)
        rows = fs.shift_study(3.0, [0.0, 1.5], params, frame, grid=grid_for(frame))
        return [[r.y, r.l2, r.b_norm, r.f_norm] for r in rows]

    def test_default_grid(self, tmp_path):
        from hermite_needlets.function_spaces import default_grid

        out = tmp_path / "shift.csv"
        assert run(self.ARGV + ["--out", str(out)]) == 0
        got, want = self._rows(out), self._expected(default_grid)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_grid_flags_used(self, tmp_path):
        from hermite_needlets.function_spaces import GridSpec, default_grid

        def wider(frame):
            return GridSpec(default_grid(frame).radius + 2.0, 20)

        out = tmp_path / "shift.csv"
        radius = wider(build_frame(d=1, j_max=2)).radius
        argv = self.ARGV + ["--grid-radius", repr(radius), "--points-per-unit", "20"]
        assert run(argv + ["--out", str(out)]) == 0
        got, want = self._rows(out), self._expected(wider)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert not np.allclose(got, self._expected(default_grid), rtol=1e-12, atol=0.0)

    def test_coarse_grid_exits_2(self, tmp_path, capsys):
        argv = self.ARGV + ["--grid-radius", "5", "--points-per-unit", "4"]
        _assert_one_line_exit_2(run(argv + ["--out", str(tmp_path / "s.csv")]), capsys)


@pytest.mark.parametrize("j_max", [0, 3])
def test_default_bump_degree_round_trip(tmp_path, j_max):
    # the default degree is the largest that analyze -> synthesize returns
    from hermite_needlets import function_spaces as fs
    from hermite_needlets import hermite_core as hc

    coeffs, recon = tmp_path / "c.csv", tmp_path / "r.json"
    common = ["--j-max", str(j_max)]
    assert run(["decompose", "--function", "bump:1.0,0.3", "--out", str(coeffs)]
               + common) == 0
    assert run(["reconstruct", "--coeffs", str(coeffs), "--out", str(recon)] + common) == 0
    degree = 4 ** (j_max - 1) if j_max else 0
    want = hc.project_function(fs.smooth_bump(1.0, np.array([0.3])), degree,
                               2 * degree + 16).expansion.coeffs
    got = {tuple(a): c for a, c in json.loads(recon.read_text())["coeffs"]}
    scale = max(abs(c) for c in want.values())
    assert max(abs(got.get(a, 0.0) - want.get(a, 0.0)) for a in {*got, *want}) <= 1e-12 * scale

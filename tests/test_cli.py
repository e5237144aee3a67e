"""End-to-end command-line behaviour, including exit codes.

0 means success, 1 means the scenario or its run is at fault, 2 means the
input could not even be read or decoded.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import gridconsensus.simulation as sim
from gridconsensus import FlowControlResult, default_config_path
from gridconsensus.cli import main
from gridconsensus.export import SUMMARY_FILENAME, TIMESERIES_FILENAME


def write_config(tmp_path, name="scenario.json", **overrides):
    doc = {
        "mode": "without",
        "horizon": 3,
        "seed": 4,
        "nodes": [
            {"id": 1, "gen": [0, 10], "net": [-5, 15]},
            {"id": 2, "gen": [5, 25], "net": [0, 30]},
        ],
        "edges": [[1, 2]],
        "desired": {"kind": "seeded"},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_demand_config(tmp_path, values):
    """The config above in the with-coordination mode, with an explicit
    demand profile in place of the desired one; its realizable interval is
    [5, 35]."""
    path = write_config(tmp_path, mode="with", demand={"kind": "explicit", "values": values})
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["desired"]  # demand replaces the desired profile in this mode
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestValidate:
    def test_shipped_configs_pass(self, capsys):
        for mode in ("with", "without"):
            code = main(["validate", "--config", str(default_config_path(mode))])
            out = capsys.readouterr().out
            assert code == 0
            assert "all checks passed" in out
            assert "6 nodes" in out

    def test_semantic_failure_is_exit_1(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            nodes=[
                {"id": 1, "gen": [10, 0], "net": [-5, 15]},
                {"id": 2, "gen": [5, 25], "net": [0, 30]},
            ],
        )
        code = main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "node 1" in err

    def test_infinite_eps_is_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, eps=float("inf"))
        code = main(["validate", "--config", str(path)])
        assert code == 1
        assert "eps: must be a positive finite number, got inf" in capsys.readouterr().err

    def test_non_integer_endpoint_is_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, edges=[[1, 1.5]])
        code = main(["validate", "--config", str(path)])
        assert code == 1
        assert "edges: edge [1, 1.5]: endpoint 1.5 is not an integer" in capsys.readouterr().err

    def test_unreadable_file_is_exit_2(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_json_syntax_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code = main(["validate", "--config", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unrealizable_explicit_demand_is_exit_1(self, tmp_path, capsys):
        path = write_demand_config(tmp_path, [10.0, 20.0, 99.0])
        code = main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "step 3" in err

    def test_explicit_demand_reports_its_worst_margins(self, tmp_path, capsys):
        path = write_demand_config(tmp_path, [10.0, 20.0, 31.0])
        code = main(["validate", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert ("demand:     explicit, 3 steps, worst margins: 5 above the floor, "
                "4 below the ceiling\n") in out


class TestCoordinate:
    def test_reference_demand_splits(self, capsys):
        code = main([
            "coordinate", "--config", str(default_config_path("with")),
            "--demand", "150",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "150.000000000000" in out  # closed-form column sums exactly
        assert out.count("\n") == 9  # banner + header + 6 nodes + sum line

    def test_unrealizable_demand_fails(self, capsys):
        code = main([
            "coordinate", "--config", str(default_config_path("with")),
            "--demand", "400",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err

    def test_csv_output(self, tmp_path, capsys):
        out_csv = tmp_path / "split.csv"
        code = main([
            "coordinate", "--config", str(default_config_path("with")),
            "--demand", "150", "--out", str(out_csv),
        ])
        capsys.readouterr()
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "node,closed_form,distributed,abs_difference"
        assert len(lines) == 7
        closed = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(sum(closed) - 150.0) < 1e-9
        # The same %.17g text as timeseries.csv; the distributed column and
        # the gaps also pin the 26 coordination rounds of this split.
        assert out_csv.read_bytes() == (
            b"node,closed_form,distributed,abs_difference\n"
            b"1,20.612244897959187,20.612244898311644,3.524576186464401e-10\n"
            b"2,35.91836734693878,35.918367345882388,1.0563923069639714e-09\n"
            b"3,25.306122448979593,25.306122448666159,3.1343461159849539e-10\n"
            b"4,19.285714285714285,19.285714285404957,3.0932767458580201e-10\n"
            b"5,26.938775510204081,26.938775510997175,7.9309359080070863e-10\n"
            b"6,21.938775510204081,21.938775510910105,7.0602368396066595e-10\n"
        )


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "all 3 steps passed" in out
        csv_text = (out_dir / TIMESERIES_FILENAME).read_text(encoding="utf-8")
        lines = csv_text.splitlines()
        assert lines[0].startswith("k,node,p_D")
        assert len(lines) == 1 + 3 * (2 + 1)  # header + K * (n + total)
        assert (out_dir / SUMMARY_FILENAME).exists()

    def test_total_rows_add_up(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out_dir)])
        capsys.readouterr()
        rows = (out_dir / TIMESERIES_FILENAME).read_text(encoding="utf-8").splitlines()[1:]
        cells = [r.split(",") for r in rows]
        for k in (1, 2, 3):
            step = [c for c in cells if c[0] == str(k)]
            total = step[-1]
            assert total[1] == "total"
            for col in range(3, 9):
                parts = sum(float(c[col]) for c in step[:-1])
                assert abs(parts - float(total[col])) < 1e-9

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", "--config", str(config), "--out", str(a)])
        main(["run", "--config", str(config), "--out", str(b)])
        main(["run", "--config", str(config), "--out", str(c), "--seed", "99"])
        capsys.readouterr()
        bytes_a = (a / TIMESERIES_FILENAME).read_bytes()
        assert bytes_a == (b / TIMESERIES_FILENAME).read_bytes()
        assert bytes_a != (c / TIMESERIES_FILENAME).read_bytes()

    def test_mode_override_synthesizes_source(self, tmp_path, capsys):
        config = write_config(tmp_path)  # a without-coordination scenario
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(config), "--out", str(out_dir), "--mode", "with",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "with-coordination" in out
        assert "all 3 steps passed" in out

    def test_mode_override_replaces_the_demand_source(self, tmp_path, capsys):
        path = write_config(
            tmp_path, mode="with",
            demand={"kind": "explicit", "values": [10.0, 20.0, 25.0]},
        )
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["desired"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(path), "--out", str(out_dir), "--mode", "without",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "without-coordination" in out
        assert "all 3 steps passed" in out
        # the explicit demand is dropped; the totals come from seeded rows
        totals = [row.split(",")[2] for row in
                  (out_dir / TIMESERIES_FILENAME).read_text(encoding="utf-8").splitlines()
                  if ",total," in row]
        assert totals != ["10", "20", "25"]

    def test_negative_seed_is_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main([
            "run", "--config", str(config), "--out", str(tmp_path / "out"), "--seed", "-1",
        ])
        assert code == 1
        assert "seed: must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_audit_failure_aborts_with_exit_1(self, tmp_path, capsys, monkeypatch):
        def no_flows(state, topology, weights, caps, criteria):
            return FlowControlResult(flows=np.zeros(len(topology.edges)), iters=1)

        monkeypatch.setattr(sim, "flow_control", no_flows)
        config = write_config(tmp_path)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "audit failed" in err
        assert not (tmp_path / "out" / TIMESERIES_FILENAME).exists()

    def test_audit_failure_can_be_recorded(self, tmp_path, capsys, monkeypatch):
        def no_flows(state, topology, weights, caps, criteria):
            return FlowControlResult(flows=np.zeros(len(topology.edges)), iters=1)

        monkeypatch.setattr(sim, "flow_control", no_flows)
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(config), "--out", str(out_dir),
            "--continue-on-audit-failure",
        ])
        out = capsys.readouterr().out
        assert code == 1  # completed, but the record is flagged
        assert "FAILED at steps" in out
        csv_lines = (out_dir / TIMESERIES_FILENAME).read_text(encoding="utf-8").splitlines()
        assert len(csv_lines) == 1 + 3 * 3  # the full horizon was still exported

    def test_unwritable_output_is_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("file, not a directory", encoding="utf-8")
        code = main([
            "run", "--config", str(config), "--out", str(blocker / "sub"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMisc:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

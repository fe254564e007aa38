"""Command line behavior: reports, exit codes, determinism."""
import json

import numpy as np
import pytest

from levyminmax.cli import build_parser, main


def run(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_decompose_laplace_report(tmp_path):
    code, rep = run(["decompose", "--operator", "laplace", "--level", "4"],
                    tmp_path)
    assert code == 0
    assert rep["A"] == [[1.0]]
    assert rep["B"] == [0.0]
    assert rep["C"] == 0.0
    assert rep["gcp"] is True
    assert rep["delta_floor"] == 0.125
    assert rep["atom_count"] == 2
    assert sorted(a["mass"] for a in rep["mu"]) == [256.0, 256.0]
    assert rep["reconstruction"] < 1e-12


def test_decompose_jump_and_frac(tmp_path):
    code, rep = run(["decompose", "--operator", "jump", "--level", "4"],
                    tmp_path)
    assert code == 0 and rep["gcp"] is True and rep["reconstruction"] < 1e-10
    code, rep = run(["decompose", "--operator", "frac", "--level", "5",
                     "--beta", "1.0"], tmp_path)
    assert code == 0
    assert rep["gcp"] is True
    assert rep["C"] < 0.0  # tail mass shows up as a negative zero-order term
    assert rep["atom_count"] == 128


def test_decompose_reads_row_from_config(tmp_path):
    cfg = tmp_path / "row.json"
    cfg.write_text(json.dumps({
        "base_point": [0.0],
        "offsets": [[0.0], [0.0625], [-0.0625]],
        "weights": [-512.0, 256.0, 256.0],
    }))
    code, rep = run(["decompose", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert rep["operator"] == "config"
    assert rep["A"] == [[1.0]]
    # the config path builds no grid, so a level past the node budget is fine
    code, high = run(["decompose", "--config", str(cfg), "--level", "7"],
                     tmp_path, "high.json")
    assert code == 0
    assert high["A"] == [[1.0]] and high["level"] == 7


def test_minmax_command_passes(tmp_path):
    code, rep = run(["minmax", "--level", "4", "--seed", "7"], tmp_path)
    assert code == 0
    assert rep["omega"] <= 1e-8
    assert rep["gaps"] == sorted(rep["gaps"], reverse=True)
    assert rep["rho_hat"] > 0.0


def test_converge_trace_first_order(tmp_path):
    code, rep = run(["converge", "--operator", "trace", "--level", "6"],
                    tmp_path)
    assert code == 0
    assert rep["exact"] is False
    assert rep["order"] == pytest.approx(1.0, abs=0.15)
    assert rep["levels"] == [3, 4, 5, 6]


def test_converge_identity_is_exact(tmp_path):
    code, rep = run(["converge", "--operator", "identity", "--level", "5"],
                    tmp_path)
    assert code == 0
    assert rep["exact"] is True
    assert rep["order"] is None
    assert max(rep["errors"]) == 0.0


def test_dtn_command_within_tolerance(tmp_path):
    code, rep = run(["dtn", "--level", "8"], tmp_path)
    assert code == 0
    assert max(rep["mode_errors"].values()) < 0.02
    assert rep["row_sum_deviation"] < 1e-12
    assert rep["kernel_min"] >= 0.0


def test_reports_are_deterministic(tmp_path):
    _, a = run(["decompose", "--operator", "jump", "--level", "4"], tmp_path,
               "a.json")
    _, b = run(["decompose", "--operator", "jump", "--level", "4"], tmp_path,
               "b.json")
    raw_a = (tmp_path / "a.json").read_text().replace(a["generated_at"], "T")
    raw_b = (tmp_path / "b.json").read_text().replace(b["generated_at"], "T")
    assert raw_a == raw_b


def test_exit_one_when_tolerance_fails(tmp_path):
    code, rep = run(["minmax", "--level", "4", "--tol", "1e-30"], tmp_path)
    assert code == 1
    code, rep = run(["dtn", "--level", "5"], tmp_path)  # too coarse for 2%
    assert code == 1
    assert max(rep["mode_errors"].values()) > 0.02


def test_exit_two_on_bad_inputs(tmp_path, capsys):
    assert main(["decompose", "--operator", "nosuch"]) == 2
    assert main(["decompose", "--config", str(tmp_path / "missing.json")]) == 2
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["decompose", "--config", str(listed)]) == 2
    assert main(["converge", "--level", "4"]) == 2
    capsys.readouterr()


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_summary_line_printed(tmp_path, capsys):
    main(["dtn", "--level", "8", "--out", str(tmp_path / "r.json")])
    out = capsys.readouterr().out
    assert "PASS" in out and "dtn nx=256" in out


def test_stdout_json_when_no_out_file(capsys):
    code = main(["decompose", "--operator", "laplace", "--level", "3"])
    assert code == 0
    out = capsys.readouterr().out
    body = out[:out.rindex("decompose")]
    rep = json.loads(body)
    assert rep["A"] == [[1.0]]

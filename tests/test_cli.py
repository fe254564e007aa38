"""Command line behavior: reports, exit codes, determinism."""
import hashlib
import json
import re

import numpy as np
import pytest

from levyminmax import approx, clarke
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
    assert rep["dim"] == 1 and rep["level"] is None
    # the report's dimension is the row's, not --dim's default
    plane = tmp_path / "row2.json"
    plane.write_text(json.dumps({
        "base_point": [0.0, 0.0],
        "offsets": [[0.0, 0.0], [0.0625, 0.0], [-0.0625, 0.0],
                    [0.0, 0.0625], [0.0, -0.0625]],
        "weights": [-1024.0, 256.0, 256.0, 256.0, 256.0],
    }))
    code, flat = run(["decompose", "--config", str(plane)], tmp_path,
                     "plane.json")
    assert code == 0
    assert flat["dim"] == 2 and flat["level"] is None
    assert flat["A"] == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("flag, value", [
    ("--level", "7"), ("--operator", "frac"), ("--dim", "1"), ("--beta", "0.5")])
def test_decompose_config_refuses_a_grid_flag(tmp_path, capsys, flag, value):
    # the config row builds no grid, so a grid flag would be dropped unread;
    # it is refused by name instead, even at its default value
    cfg = tmp_path / "row.json"
    cfg.write_text(json.dumps({"base_point": [0.0], "offsets": [[0.0]],
                               "weights": [-1.0]}))
    out = tmp_path / "report.json"
    assert main(["decompose", "--config", str(cfg), flag, value,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"takes no {flag}:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed, checks", [(0, 1), (3, 2)])
def test_decompose_checks_the_row_once_per_seed(tmp_path, monkeypatch, seed,
                                                checks):
    # the seed-0 check is both "residual" and, at --seed 0, "reconstruction"
    from levyminmax.courrege import reconstruct_residual
    calls = []

    def counted(row, dec, **kwargs):
        calls.append(kwargs.get("seed", 0))
        return reconstruct_residual(row, dec, **kwargs)
    monkeypatch.setattr("levyminmax.cli.reconstruct_residual", counted)
    monkeypatch.setattr("levyminmax.courrege.reconstruct_residual", counted)
    code, rep = run(["decompose", "--operator", "jump", "--level", "4",
                     "--seed", str(seed)], tmp_path)
    assert code == 0 and len(calls) == checks
    assert sorted(set(calls)) == sorted({0, seed})
    assert (rep["residual"] == rep["reconstruction"]) == (seed == 0)


def test_minmax_command_passes(tmp_path):
    code, rep = run(["minmax", "--level", "4", "--seed", "7"], tmp_path)
    assert code == 0
    assert rep["omega"] <= 1e-12
    # nonincreasing up to rounding: the last gaps sit at rounding level
    assert np.all(np.diff(rep["gaps"]) <= 1e-12)
    assert rep["rho_hat"] > 0.0


@pytest.mark.parametrize("level", [6, 7])
def test_minmax_fine_levels_pass_at_rounding_level(tmp_path, level):
    # exact active rows: finite-difference rounding (about h^-2 eps / step)
    # no longer leaves a gap above the default tolerance
    code, rep = run(["minmax", "--level", str(level), "--seed", "3"], tmp_path)
    assert code == 0
    assert rep["omega"] <= 1e-11


@pytest.mark.parametrize("level,seed", [(4, 27), (10, 7), (12, 7)])
def test_minmax_once_failing_cases_pass(tmp_path, level, seed):
    # level 4 seed 27 failed with gap 0.2498 and level 10 seed 7 with gap
    # 22.9 at six probes; at level 12, the largest accepted, slopes from a
    # stencil applied to u - v left rounding gaps of about 1.5e-8
    code, rep = run(["minmax", "--level", str(level), "--seed", str(seed)],
                    tmp_path)
    assert code == 0 and rep["kink_rows"] == []


@pytest.mark.parametrize("level", [4, 5, 6, 7, 8])
def test_minmax_every_seed_passes_or_names_its_kink_rows(tmp_path, level):
    for seed in range(40):
        code, rep = run(["minmax", "--level", str(level), "--seed", str(seed)],
                        tmp_path)
        assert code == 0 or rep["kink_rows"], (level, seed, rep["omega"])
        assert rep["omega"] == rep["gaps"][-1] and len(rep["gaps"]) >= 6


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


def test_dtn_default_level_passes(tmp_path):
    # dtn sets its own default level, as converge does; the shared default 4
    # is too coarse for the 2% mode tolerance
    assert main(["dtn", "--out", str(tmp_path / "r.json")]) == 0


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


@pytest.mark.parametrize("edit, named", [
    (lambda cfg: cfg["weights"].__setitem__(1, float("nan")), "row weights"),
    (lambda cfg: cfg["offsets"][2].__setitem__(0, float("inf")), "row offsets"),
    (lambda cfg: cfg.pop("base_point"), "lacks base_point"),
    (lambda cfg: (cfg.pop("offsets"), cfg.pop("weights")),
     "lacks offsets, weights"),
    (lambda cfg: cfg.__setitem__("base_point", "x"),
     "row config field base_point must be numeric"),
    (lambda cfg: cfg["offsets"].__setitem__(1, [0.25, 0.5]),
     "row config field offsets must be numeric"),
], ids=["nan weight", "inf offset", "no base_point", "no offsets or weights",
        "text base_point", "ragged offsets"])
def test_bad_config_exits_two_naming_the_field(tmp_path, capsys, edit, named):
    cfg = {"base_point": [0.0], "offsets": [[0.0], [0.25], [-0.25]],
           "weights": [-32.0, 16.0, 16.0]}
    edit(cfg)
    path = tmp_path / "row.json"
    path.write_text(json.dumps(cfg))
    assert main(["decompose", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("[1, 2]", "must hold a JSON object"),
    ('{"modes": [0]}', "modes"),
    ('{"modes": []}', "modes"),
    ('{"width": "a"}', "width"),
    ('{"width": NaN}', "width"),
    ('{"height": null}', "height"),
    ('{"nx": [1]}', "nx"),
    ('{"ny": 2.5}', "ny"),
    ('{"nx": 8, "ny": 40, "modes": [12]}',
     "config field modes: mode 12 is above nx/2 for nx = 8"),
    ('{"modes": [1, 17]}', "config field modes: mode 17 is above nx/2"),
], ids=["list", "zero mode", "no modes", "text width", "nan width",
        "null height", "list nx", "fractional ny", "aliased mode",
        "mode above nyquist"])
def test_bad_dtn_config_exits_two_naming_the_field(tmp_path, capsys, text, named):
    path = tmp_path / "dtn.json"
    path.write_text(text)
    assert main(["dtn", "--level", "5", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("level", [-3, 0, 1])
def test_dtn_below_the_smallest_default_strip_names_the_level(tmp_path, capsys,
                                                             level):
    code = main(["dtn", "--level", str(level),
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"dtn --level {level}:" in err and "--level 2 or above" in err


def test_dtn_low_level_runs_when_the_config_sets_the_strip(tmp_path):
    path = tmp_path / "dtn.json"
    path.write_text('{"nx": 8, "ny": 40}')
    code, rep = run(["dtn", "--level", "0", "--config", str(path),
                     "--tol", "10"], tmp_path)
    assert code == 0 and (rep["nx"], rep["ny"]) == (8, 40)


def test_dtn_high_level_runs_when_the_config_sets_the_strip(tmp_path, capsys):
    # the level forms no default strip once the config sets nx and ny
    path = tmp_path / "dtn.json"
    path.write_text('{"nx": 8, "ny": 40}')
    code, rep = run(["dtn", "--level", "14", "--config", str(path),
                     "--tol", "10"], tmp_path)
    assert code == 0 and (rep["nx"], rep["ny"]) == (8, 40)
    # with ny unset the default ny = 2**13 is still refused before forming it
    path.write_text('{"nx": 8}')
    code = main(["dtn", "--level", "14", "--config", str(path),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2 and "strip node budget" in capsys.readouterr().err


def test_dtn_default_modes_above_nyquist_exit_two(tmp_path, capsys):
    # --level 2 gives nx = 4, which aliases the default mode 4 to mode 0
    code = main(["dtn", "--level", "2", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "default modes [1, 2, 4]: mode 4 is above nx/2 for nx = 4" in (
        capsys.readouterr().err)


def test_dtn_nyquist_mode_is_held(tmp_path):
    path = tmp_path / "dtn.json"
    path.write_text('{"nx": 8, "ny": 40, "modes": [4]}')
    code, rep = run(["dtn", "--config", str(path), "--tol", "10"], tmp_path)
    assert code == 0 and list(rep["mode_errors"]) == ["4"]


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


def _contract_cases():
    """(subcommand, extra arguments): every bad input on every subcommand."""
    bad = [("level -1", ["--level", "-1"]), ("level 25", ["--level", "25"]),
           ("level 1000", ["--level", "1000"]),
           ("level 1000000", ["--level", "1000000"]),
           ("dim 0", ["--dim", "0"]), ("dim 4", ["--dim", "4"]),
           ("operator", ["--operator", "nosuch"]),
           ("frac beta 0", ["--operator", "frac", "--beta", "0"]),
           ("frac beta 2.5", ["--operator", "frac", "--beta", "2.5"]),
           ("frac beta nan", ["--operator", "frac", "--beta", "nan"]),
           ("missing config", ["--config", "{dir}/missing.json"]),
           ("non-JSON config", ["--config", "{dir}/text.json"]),
           ("list config", ["--config", "{dir}/list.json"]),
           ("unwritable out", ["--out", "{dir}/no/such/dir/report.json"])]
    # the jump source is built for --dim; level 5 is the smallest study
    jump = pytest.param("converge", ["--operator", "jump", "--dim", "2",
                                     "--level", "5"], id="converge jump dim 2")
    return [pytest.param(cmd, args, id=f"{cmd} {name}")
            for cmd in ("decompose", "minmax", "converge", "dtn")
            for name, args in bad] + [jump]


@pytest.mark.parametrize("cmd, args", _contract_cases())
def test_exit_code_contract(tmp_path, capsys, cmd, args):
    # exit 0 or 1 when the input is valid, else exit 2 with a message; never
    # an exception (huge levels must fail before allocating)
    (tmp_path / "text.json").write_text("not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    argv = [cmd] + [a.format(dir=tmp_path) for a in args]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "report.json")]
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["decompose", "minmax", "converge", "dtn"])
@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-inf"), ("--tol", "x"),
    ("--tol", "-1"), ("--seed", "-1"), ("--seed", "1.5")])
def test_bad_tol_or_seed_exits_two_naming_the_flag(tmp_path, capsys, cmd,
                                                   flag, value):
    # refused by the parser before any work: a nan or negative tolerance
    # would fail every check (exit 1; converge, whose tolerance is a minimum
    # order, would pass every run), and a negative seed would stop in
    # numpy's generator with a message that names no flag
    with pytest.raises(SystemExit) as stop:
        main([cmd, f"{flag}={value}", "--out", str(tmp_path / "report.json")])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    if flag == "--seed" and cmd in ("converge", "dtn"):
        # neither reads a seed, so neither has the flag
        assert "unrecognized arguments: --seed" in err
    else:
        assert f"argument {flag}: expected" in err
    assert "Traceback" not in err


REFUSED_FLAGS = {"minmax": ("--dim", "--beta", "--operator", "--config"),
                 "converge": ("--beta", "--seed", "--config"),
                 "dtn": ("--dim", "--beta", "--operator", "--seed")}


@pytest.mark.parametrize("cmd, flag", [
    (cmd, flag) for cmd, flags in REFUSED_FLAGS.items() for flag in flags])
def test_a_flag_the_subcommand_does_not_read_exits_two(tmp_path, capsys, cmd,
                                                       flag):
    # refused, not dropped: `minmax --dim 3` must not run the 1-d problem
    with pytest.raises(SystemExit) as stop:
        main([cmd, flag, "3", "--out", str(tmp_path / "report.json")])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("level", [13, 25])
def test_converge_refuses_an_oversized_level_before_any_surrogate(
        tmp_path, capsys, monkeypatch, level):
    built = []
    monkeypatch.setattr(approx, "build_surrogate",
                        lambda *a, **k: built.append(a) or None)
    code = main(["converge", "--level", str(level),
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("level", [14, 25, 1000000])
def test_dtn_beyond_the_budget_level_names_the_strip_budget(tmp_path, capsys,
                                                            level):
    code = main(["dtn", "--level", str(level),
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert "strip node budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv, top", [
    (["decompose", "--dim", "2", "--level", "5"], 4),
    (["converge", "--dim", "3", "--level", "8"], 6),
    (["minmax", "--level", "19"], 12)], ids=["decompose", "converge", "minmax"])
def test_oversized_level_names_the_flag_and_the_largest_level(
        tmp_path, capsys, monkeypatch, argv, top):
    # refused before any operator is built; no subcommand has a box flag
    for name in ("_named_operator", "_named_source", "levy_stencil"):
        monkeypatch.setattr(f"levyminmax.cli.{name}", None)
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert f"{argv[0]} --level {argv[-1]}:" in err
    assert f"above --level {top}" in err and "box_radius" not in err


@pytest.mark.parametrize("operator, argv, digest", [
    ("frac", ["--dim", "2", "--level", "4", "--beta", "1.1"],
     "89a293232dc1bcad9c74cbcf4b5883344e5005b44354452636debeb9aa522b33"),
    ("frac", ["--dim", "3", "--level", "2", "--beta", "0.7"],
     "92de51b617545a1a0cfee1679fbf1dfb13cadcd5fa45769df0421e6eecd57a07"),
    ("jump", ["--dim", "1", "--level", "4"],
     "70dca3241fbd388e88baeb53add6003af6fc8c6ecd3bfa64295e3f8880262fb7"),
    ("jump", ["--dim", "2", "--level", "4"],
     "d6a422e8a96c36301784be1e7834aead9e0fa05e3a9115c89301ccc2ab6cbe90"),
    ("jump", ["--dim", "3", "--level", "2"],
     "bf07431bce92df0814713d71e17b7e962d6e4c35a2c298713919faeb09bb724f"),
    ("laplace", ["--dim", "1", "--level", "4"],
     "8a62f7db0bf1420898c62feeb84e2107dd84d66b258d40d477d40a19fc0026b2"),
    ("laplace", ["--dim", "2", "--level", "4"],
     "81aa4fcb5ef2c573813a207bd5e1d3e583eccfed8339518d28336abba9c96baf"),
    ("laplace", ["--dim", "3", "--level", "2"],
     "1626e06a0b84dbd1ce20600f8008242fe5dbe9eb36abd9f7b882edcaaddf1602"),
    ("advect", ["--dim", "1", "--level", "4"],
     "970cb4d23d5ff282a3ad7e63cc33c31af62771362f806c0b57cad5745b3a5fde"),
    ("advect", ["--dim", "2", "--level", "4"],
     "e70fa994ffbcdd3d9f5ace0c9dfb9670545d1f0f09f647ebc8fb746be3f482f3"),
    ("advect", ["--dim", "3", "--level", "2"],
     "4f994f2622098a6fcf78c13ca2256a50f7cfe186f0f2276ab85a2710c28d5d6f"),
], ids=["frac 2-d level 4", "frac 3-d level 2", "jump 1-d level 4",
        "jump 2-d level 4", "jump 3-d level 2", "laplace 1-d level 4",
        "laplace 2-d level 4", "laplace 3-d level 2", "advect 1-d level 4",
        "advect 2-d level 4", "advect 3-d level 2"])
def test_frac_report_bytes_are_recorded(tmp_path, operator, argv, digest):
    # the sha256 of the whole report, timestamp blanked: the frac digests as
    # recorded before the decomposition path took its atoms as arrays, the
    # others before the cutoffs and the cube partition shared one ramp
    out = tmp_path / "report.json"
    assert main(["decompose", "--operator", operator, "--seed", "0"] + argv
                + ["--out", str(out)]) == 0
    text = re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""',
                  out.read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_report_bytes_off_the_seed_zero_grid_path_are_recorded(tmp_path):
    # sha256 digests, timestamp blanked, recorded before the decomposition
    # stopped storing its own residual: a second-seed check, and a config
    # row with no off-centre atom (the schedule's empty-row case)
    centre = tmp_path / "centre.json"
    centre.write_text(json.dumps({"base_point": [0.0, 0.0],
                                  "offsets": [[0.0, 0.0]], "weights": [-0.5]}))
    cases = [
        (["--operator", "frac", "--dim", "1", "--level", "6", "--beta", "0.6",
          "--seed", "3"],
         "c6450b2d62c8418ca29ab17a830697f5c65a0194ce7cc1910ce52bf408125661"),
        (["--config", str(centre)],
         "f0742c0aca1f812b1931b0dbf7085665f648b630a5a9021029f1a54edfbc25cb"),
    ]
    out = tmp_path / "report.json"
    for argv, digest in cases:
        assert main(["decompose"] + argv + ["--out", str(out)]) == 0
        text = re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""',
                      out.read_text())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["minmax", "--level", "4", "--seed", "7"],
    ["minmax", "--level", "4", "--seed", "27"],
    ["decompose", "--operator", "jump", "--level", "4", "--dim", "2"],
    ["converge", "--operator", "trace", "--level", "5"],
    ["converge", "--operator", "jump", "--dim", "2", "--level", "5"],
    ["dtn", "--level", "8"],
], ids=["minmax", "minmax failing seed", "decompose", "converge trace",
        "converge jump", "dtn"])
def test_no_subcommand_measures_a_jacobian(tmp_path, monkeypatch, argv):
    # every Jacobian a subcommand takes is exact: with the column loop
    # made to raise, each exit code is the one of a plain run
    out = ["--out", str(tmp_path / "report.json")]
    want = main(argv + out)

    def measured(*args):
        raise AssertionError("measured a Jacobian")
    monkeypatch.setattr(clarke, "_matrix", measured)
    assert main(argv + out) == want

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twodarcy.analysis
import twodarcy.cli
import twodarcy.manufactured
from twodarcy.cli import main

from oracles import CASE_VARIANTS, read_vtk


BETA_RULE = "beta must be positive and finite"


@pytest.mark.parametrize("options, message", [
    pytest.param(["--example", "7"], "--example", id="example-7"),
    pytest.param(["--example", "1.0"], "--example", id="example-1.0"),
    pytest.param(["--example", "1", "--max-level", "12"], "--max-level", id="max-level-12"),
    pytest.param(["--example", "1", "--max-level", "2.0"], "--max-level", id="max-level-2.0"),
    pytest.param(["--example", "1", "--max-level", "128"], "--max-level", id="max-level-128"),
    pytest.param(["--example", "1", "--interface-mode", "bogus"], "--interface-mode",
                 id="interface-mode-bogus"),
    pytest.param(["--example", "1", "--interface-mode", "constant_projection"],
                 "example1 supports interface modes", id="example1-constant_projection"),
    pytest.param(["--example", "4", "--interface-mode", "paper_literal"],
                 "example4 supports interface modes", id="example4-paper_literal"),
    pytest.param(["--example", "1", "--beta", "-1"], BETA_RULE, id="beta-minus1"),
    pytest.param(["--example", "1", "--beta", "0"], BETA_RULE, id="beta-0"),
    pytest.param(["--example", "1", "--beta", "nan"], BETA_RULE, id="beta-nan"),
    pytest.param(["--example", "1", "--beta", "inf"], BETA_RULE, id="beta-inf"),
    pytest.param(["--example", "1", "--csv", "/nonexistent/x.csv"], "--csv", id="csv-no-directory"),
    pytest.param(["--example", "1", "--csv", str(Path(__file__).parent)], "--csv",
                 id="csv-names-a-directory"),
    pytest.param(["--example", "1", "--fields", __file__], "--fields", id="fields-names-a-file"),
    pytest.param(["--example", "1", "--fields", f"{__file__}/sub"], "--fields",
                 id="fields-under-a-file"),
    pytest.param(["--example", "1", "--max-level", "1", "--csv", ""], "--csv", id="csv-empty"),
    pytest.param(["--example", "1", "--max-level", "1", "--fields", ""], "--fields",
                 id="fields-empty"),
])
def test_rejected_options_exit_2_before_any_work(options, message, tmp_path,
                                                 monkeypatch, capsys):
    def no_mesh(*args):
        raise AssertionError("a mesh was built for rejected options")

    monkeypatch.setattr(twodarcy.analysis, "build_cartesian_mesh", no_mesh)
    monkeypatch.setattr(twodarcy.cli, "build_cartesian_mesh", no_mesh)
    csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["--csv", str(csv)] + options)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "twodarcy: error:" in captured.err and message in captured.err
    assert not csv.exists()


def test_module_entry_point_runs_main():
    src = str(Path(twodarcy.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "twodarcy.cli", "--example", "7"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "--example" in done.stderr


def test_run_writes_csv_and_fields(tmp_path, capsys):
    kept = {}

    def keep_level_4(level, m, layout, sol):
        if level == 4:
            kept.update(p1=sol.p1, u1=twodarcy.analysis.u1_cell_values(sol, m),
                        p2=sol.p2, u2=sol.u2)

    twodarcy.analysis.convergence_study(twodarcy.manufactured.example1(), [1, 2, 4],
                                        on_level=keep_level_4)
    csv = tmp_path / "out.csv"
    fields = tmp_path / "fields"
    code = main([
        "--example", "1", "--max-level", "4",
        "--csv", str(csv), "--fields", str(fields),
    ])
    assert code == 0
    assert csv.exists()
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 4  # header + levels 1, 2, 4
    dumps = {}
    for level in (1, 2, 4):
        for region in (1, 2):
            keywords, dumps[region, level] = read_vtk(fields / f"region{region}_{level}.vtk")
            assert keywords[:3] == [b"# vtk DataFile Version 3.0",
                                    f"region {region} fields, level {level}".encode(), b"BINARY"]
    decoded = {"p1": dumps[1, 4]["CELL_DATA", "p1"], "u1": dumps[1, 4]["CELL_DATA", "u1"],
               "p2": dumps[2, 4]["POINT_DATA", "p2"], "u2": dumps[2, 4]["CELL_DATA", "u2"]}
    for name, values in kept.items():
        expected = np.asarray(values, dtype=float)
        if expected.ndim == 2:
            expected = np.column_stack([expected, np.zeros(len(expected))])
        assert decoded[name].tobytes() == expected.astype(">f8").tobytes(), name
    out = capsys.readouterr().out
    assert "h_inv" in out


def test_run_byte_identical_csv(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["--example", "2", "--max-level", "4", "--csv", str(path)]) == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_diagnostics_output(capsys):
    code = main(["--example", "1", "--max-level", "1", "--diagnostics"])
    assert code == 0
    out = capsys.readouterr().out
    assert "diagnostics level 1" in out
    line = [l for l in out.splitlines() if l.startswith("diagnostics")][0]
    values = [float(part.split("=")[1]) for part in line.split() if "=" in part]
    assert len(values) == 3
    assert all(v > 0 for v in values)


def test_constant_projection_prints_relative_table(capsys):
    code = main([
        "--example", "4", "--interface-mode", "constant_projection",
        "--max-level", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "relative errors (percent):" in out


def test_field_dumps_deterministic(tmp_path):
    dirs = []
    for name in ("f1", "f2"):
        fields = tmp_path / name
        assert main(["--example", "1", "--max-level", "2", "--fields", str(fields)]) == 0
        dirs.append(fields)
    for fname in ("region1_2.vtk", "region2_2.vtk"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


def test_solver_failure_exit_status(monkeypatch, capsys):
    import twodarcy.analysis as analysis
    from twodarcy.solver import SolverError

    def boom(system):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(analysis, "solve", boom)
    code = main(["--example", "1", "--max-level", "2"])
    assert code == 1
    assert "level" in capsys.readouterr().err


def test_solver_failure_names_failing_level(monkeypatch, capsys):
    import twodarcy.analysis as analysis
    from twodarcy.solver import SolverError

    real_solve = analysis.solve

    def fail_at_level_4(system):
        if system.mesh.level_inv == 4:
            raise SolverError("synthetic failure")
        return real_solve(system)

    monkeypatch.setattr(analysis, "solve", fail_at_level_4)
    assert main(["--example", "1", "--max-level", "8"]) == 1
    assert "solver failure at level 4: synthetic failure" in capsys.readouterr().err


# References written by `twodarcy --example N --interface-mode MODE --max-level 8
# --csv ...` (the .csv files) and its stdout (the .stdout files), and the
# `--diagnostics` stdout of example 2 paper_literal up to level 4; a change to
# them is a change of published results.
GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("example, mode", CASE_VARIANTS)
def test_csv_matches_committed_reference(example, mode, tmp_path):
    path = tmp_path / "out.csv"
    assert main(["--example", str(example), "--interface-mode", mode,
                 "--max-level", "8", "--csv", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / f"example{example}_{mode}_8.csv").read_bytes()


@pytest.mark.parametrize("example, mode", CASE_VARIANTS)
def test_stdout_matches_committed_reference(example, mode, capsys):
    assert main(["--example", str(example), "--interface-mode", mode, "--max-level", "8"]) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert out == (GOLDEN / f"example{example}_{mode}_8.stdout").read_bytes()


def test_diagnostics_match_committed_reference(capsys):
    assert main(["--example", "2", "--interface-mode", "paper_literal", "--max-level", "4",
                 "--diagnostics"]) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert out == (GOLDEN / "example2_paper_literal_4_diagnostics.stdout").read_bytes()


def test_binding_csv_cell_matches_committed_reference(tmp_path):
    # The level-32 p1 rate of this variant, 7.42368e-08, is a difference of two
    # nearly equal logs: its last digit reflects the last ~1e-13 of the solve.
    path = tmp_path / "out.csv"
    assert main(["--example", "4", "--interface-mode", "constant_projection",
                 "--max-level", "32", "--csv", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "example4_constant_projection_32.csv").read_bytes()


def test_paper_literal_modes_run(tmp_path):
    for example in ("2", "3"):
        path = tmp_path / f"lit{example}.csv"
        code = main(["--example", example, "--interface-mode", "paper_literal",
                     "--max-level", "2", "--csv", str(path)])
        assert code == 0
        assert path.exists()


def test_beta_override(tmp_path):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(["--example", "3", "--max-level", "2", "--csv", str(path_a)]) == 0
    assert main(["--example", "3", "--max-level", "2", "--beta", "4.0",
                 "--csv", str(path_b)]) == 0
    assert path_a.read_bytes() != path_b.read_bytes()

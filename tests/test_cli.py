import csv
import io
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from starsdp import cli, ipm
from starsdp.cli import main
from starsdp.problems import parse_problem_file
from starsdp.relaxation import build_relaxation
from starsdp.sdpmodel import export_sdpa_file, import_sdpa_file, to_equality_form
from support import c3_rep, invariant_instance, write_group_file

ROOT = Path(__file__).resolve().parent.parent
CHSH = str(ROOT / "problems" / "chsh.csdp")
LASSERRE = str(ROOT / "problems" / "lasserre_x4.csdp")
PHASED = str(ROOT / "problems" / "phased_involution.csdp")

# runs with an output file, each with its exit code: two that succeed and
# two whose first level cannot represent x^4
OUTPUT_RUNS = [
    (["solve", CHSH, "--level", "1", "--export"], 0),
    (["jnc", CHSH, "--pair", "F0,1", "--directions", "1", "--out"], 0),
    (["solve", LASSERRE, "--level", "1-2", "--export"], 2),
    (["jnc", LASSERRE, "--pair", "F0,1", "--level", "1", "--out"], 2),
]
OUTPUT_RUN_IDS = ["solve", "jnc", "solve-failed", "jnc-failed"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_chsh_level_one_table(self, capsys):
        code, out, err = run(capsys, "solve", CHSH, "--level", "1")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].split()[:4] == ["level", "basis", "vars", "bound"]
        row = lines[1].split()
        assert row[0] == "1" and row[1] == "5" and row[2] == "11"
        assert abs(float(row[3]) - 2.0 * math.sqrt(2.0)) < 1e-6
        assert "OPTIMAL" in row

    def test_level_range_two_rows(self, capsys):
        code, out, _ = run(capsys, "solve", CHSH, "--level", "1-2")
        assert code == 0
        rows = [l.split() for l in out.splitlines()[1:] if l.strip()]
        assert [r[0] for r in rows] == ["1", "2"]
        for r in rows:
            assert abs(float(r[3]) - 2.0 * math.sqrt(2.0)) < 1e-6

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "solve", LASSERRE, "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"file", "name", "sense", "levels"}
        assert doc["sense"] == "minimize"
        (row,) = doc["levels"]
        assert set(row) == {"level", "basis_size", "moment_variables",
                            "bound", "gap", "status", "reason", "iterations",
                            "schur_dim", "symmetry", "lmi_blocks", "lmi_real", "solver_stacks",
                            "timings", "build_timings", "wall_time"}
        assert abs(row["bound"] + 0.25) < 1e-5
        assert row["status"] == "OPTIMAL" and row["reason"] == ""
        assert row["iterations"] >= 1
        # the Schur matrix has one row per parameter the term-sparsity split
        # keeps but the unit: the moments of x^2 and x^4, on the even words
        # {1, x^2} and the odd {x} of the main block and two 1x1 localizing
        # components
        relax = build_relaxation(parse_problem_file(LASSERRE))
        assert row["schur_dim"] == len(relax._keep) - 1 == 2
        # x -> -x fixes the problem but moves none of those even moments
        assert row["symmetry"] == {"order": 2, "rows": 2}
        assert row["lmi_blocks"] == [2, 1, 1, 1]
        assert row["lmi_real"] == [True] * 4
        assert row["solver_stacks"] == [[2, 1, 1, 1]]      # merged
        assert set(row["timings"]) == {"schur", "newton", "step"}
        assert all(0.0 <= t <= row["wall_time"] for t in row["timings"].values())
        assert set(row["build_timings"]) == {"hierarchy", "relax"}
        assert all(0.0 <= t <= row["wall_time"] for t in row["build_timings"].values())

    def test_solver_stacks(self, capsys):
        # level 2's 9 and 4 blocks are solved as one block-diagonal stack;
        # at level 4 the zeros off 25 and 16 would cost more than a stack each
        code, out, _ = run(capsys, "solve", CHSH, "--level", "2-4", "--json")
        assert code == 0
        rows = {row["level"]: row for row in json.loads(out)["levels"]}
        assert rows[2]["lmi_blocks"] == [9, 4] and rows[2]["solver_stacks"] == [[9, 4]]
        assert rows[4]["lmi_blocks"] == [25, 16] and rows[4]["solver_stacks"] == [[25], [16]]
        for row in rows.values():
            assert sorted(sum(row["solver_stacks"], [])) == sorted(row["lmi_blocks"])

    @pytest.mark.parametrize("path, level, order, rows, schur_dim", [
        (CHSH, 2, 16, 18, 4),
        (str(ROOT / "problems" / "i3322.csdp"), 1, 1, 21, 21),
    ], ids=["chsh-L2", "i3322-L1"])
    def test_symmetry(self, capsys, path, level, order, rows, schur_dim):
        # CHSH's signed permutations of A0, A1, B0, B1 that fix its objective
        # leave 4 of the 18 rows; I3322's projectors admit no sign, and no
        # permutation of them fixes its objective
        code, out, _ = run(capsys, "solve", path, "--level", str(level), "--json")
        assert code == 0
        (row,) = json.loads(out)["levels"]
        assert row["symmetry"] == {"order": order, "rows": rows}
        assert row["schur_dim"] == schur_dim

    def test_lmi_real(self, capsys, tmp_path):
        # the ladder's conjugating symmetry makes both blocks real at level
        # 3, on 28 rows of 126 (order 12); the phased involution has none
        # and stays Hermitian
        p = tmp_path / "ladder.csdp"
        p.write_text("[generators]\nx selfadjoint\ny selfadjoint\nz selfadjoint\n"
                     "[relations]\nx^2 = 1\ny^2 = 1\nz^2 = 1\n[objective]\n"
                     "maximize i*x*y - i*y*x + i*y*z - i*z*y + i*z*x - i*x*z\n")
        code, out, _ = run(capsys, "solve", str(p), "--level", "3", "--json")
        assert code == 0
        (row,) = json.loads(out)["levels"]
        assert row["symmetry"] == {"order": 12, "rows": 126} and row["schur_dim"] == 28
        assert row["lmi_blocks"] == [7, 15] and row["lmi_real"] == [True, True]
        assert abs(row["bound"] - 3.0 * math.sqrt(3.0)) <= 1e-6
        code, out, _ = run(capsys, "solve", PHASED, "--level", "1-2", "--json")
        assert code == 0
        assert [row["lmi_real"] for row in json.loads(out)["levels"]] == [[False], [False]]

    def test_infeasible_level_reports_its_reason(self, capsys, tmp_path):
        # |x| <= 1 for an involution, so x >= 2 leaves no moment matrix
        p = tmp_path / "infeasible.csdp"
        p.write_text("[generators]\nx selfadjoint\n\n[relations]\nx^2 = 1\n\n"
                     "[objective]\nminimize x\n\n[constraints]\nx >= 2\n")
        code, out, err = run(capsys, "solve", str(p), "--level", "1", "--json")
        assert code == 3
        (row,) = json.loads(out)["levels"]
        assert row["status"] == "INFEASIBLE"
        assert row["reason"]
        assert row["bound"] is None
        assert "level 1: INFEASIBLE: primal ray" in err

    def test_level_zero_not_representable(self, capsys):
        code, out, err = run(capsys, "solve", CHSH, "--level", "0")
        assert code == 2
        assert "raise the level" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "no_such_file.csdp")
        assert code == 1
        assert err

    def test_syntax_error_file(self, capsys, tmp_path):
        p = tmp_path / "bad.csdp"
        p.write_text("[generators]\nx selfadjoint\n[objective]\nminimize x +\n")
        code, _, err = run(capsys, "solve", str(p))
        assert code == 1
        assert "line" in err

    @pytest.mark.parametrize("relations, lhs", [
        ("[relations]\nx^2 = 1\nx^2 = x\n", "x*x"),
        ("[relations]\nx' = 2*x\n", "x'"),
        ("y selfadjoint\n[relations]\ny*x = -1*x*y\n[commute]\n{x} with {y}\n", "y*x"),
    ])
    def test_left_side_rewritten_two_ways(self, capsys, tmp_path, relations, lhs):
        text = "[generators]\nx selfadjoint\n" + relations + "[objective]\nminimize x\n"
        # in each case the disagreeing rule is the last relation
        line = max(no for no, s in enumerate(text.splitlines(), start=1) if " = " in s)
        p = tmp_path / "redefined.csdp"
        p.write_text(text)
        code, out, err = run(capsys, "solve", str(p))
        assert code == 1 and not out
        assert f"line {line}, col 1: left side {lhs} " in err

    def test_export_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "lasserre.dat-s"
        code, _, _ = run(capsys, "solve", LASSERRE, "--export", str(out_path))
        assert code == 0
        model = import_sdpa_file(str(out_path))
        sol = ipm.solve(model)
        assert sol.status == ipm.Status.OPTIMAL
        assert abs(sol.primal_value + 0.25) < 1e-5

    def test_tol_flag_tightens(self, capsys):
        code, out, _ = run(capsys, "solve", LASSERRE, "--json",
                           "--tol", "1e-10")
        assert code == 0
        row = json.loads(out)["levels"][0]
        assert row["gap"] <= 1e-9

    def test_complex_problem(self, capsys):
        code, out, _ = run(capsys, "solve", PHASED, "--json")
        assert code == 0
        row = json.loads(out)["levels"][0]
        assert abs(row["bound"] + math.sqrt(2.0)) < 1e-6


def parse_jnc(out):
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "angle", "dir_x", "dir_y", "support", "x", "y"]
    supports = [r for r in rows[1:] if r[0] == "support"]
    vertices = [r for r in rows[1:] if r[0] == "vertex"]
    return supports, vertices


class TestJnc:
    def test_chsh_objective_against_unit(self, capsys):
        code, out, _ = run(capsys, "jnc", CHSH, "--pair", "F0,1",
                           "--directions", "8")
        assert code == 0
        supports, vertices = parse_jnc(out)
        assert len(supports) == 8
        east = supports[0]
        assert abs(float(east[4]) - 2.0 * math.sqrt(2.0)) < 1e-6
        north = supports[2]
        assert abs(float(north[4]) - 1.0) < 1e-7
        # polygon contains the segment [-2*sqrt(2), 2*sqrt(2)] x {1}
        xs = [float(v[5]) for v in vertices]
        ys = [float(v[6]) for v in vertices]
        assert max(xs) > 2.0 * math.sqrt(2.0) - 1e-5
        assert min(xs) < -2.0 * math.sqrt(2.0) + 1e-5
        assert all(abs(y - 1.0) < 1e-5 for y in ys)

    def test_single_direction(self, capsys):
        code, out, _ = run(capsys, "jnc", CHSH, "--pair", "F0,1",
                           "--directions", "1")
        assert code == 0
        supports, vertices = parse_jnc(out)
        assert len(supports) == 1 and not vertices
        assert abs(float(supports[0][4]) - 2.0 * math.sqrt(2.0)) < 1e-6

    def test_degenerate_unit_pair(self, capsys):
        code, out, _ = run(capsys, "jnc", CHSH, "--pair", "1,1",
                           "--directions", "4")
        assert code == 0
        supports, vertices = parse_jnc(out)
        for s in supports:
            assert abs(float(s[5]) - 1.0) < 1e-7
            assert abs(float(s[6]) - 1.0) < 1e-7
        for v in vertices:
            assert abs(float(v[5]) - 1.0) < 1e-6
            assert abs(float(v[6]) - 1.0) < 1e-6

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "jnc", CHSH, "--pair", "F9,1")
        assert code == 1
        assert "F9" in err and "F0" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "polygon.csv"
        code, out, _ = run(capsys, "jnc", CHSH, "--pair", "F0,1",
                           "--directions", "4", "--out", str(path))
        assert code == 0 and not out
        supports, _ = parse_jnc(path.read_text())
        assert len(supports) == 4


class TestExitCodes:
    @pytest.mark.parametrize("command", ["solve", "jnc", "reduce"])
    def test_unwritable_output_path(self, capsys, c3_inputs, tmp_path, command):
        sdpa, grp, _ = c3_inputs
        missing = str(tmp_path / "no_such_dir" / "out")
        argv = {"solve": ["solve", CHSH, "--level", "1", "--export", missing],
                "jnc": ["jnc", CHSH, "--pair", "F0,1", "--directions", "1", "--out", missing],
                "reduce": ["reduce", sdpa, grp, "--out", missing]}[command]
        code, _, err = run(capsys, *argv)
        assert code == 1
        (line,) = err.splitlines()
        assert line.startswith("starsdp: ") and missing in line
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["solve", CHSH, "--level", "1-2", "--export"],
        ["jnc", CHSH, "--pair", "F0,1", "--out"],
    ], ids=["solve", "jnc"])
    def test_unwritable_output_path_fails_before_solving(self, capsys, monkeypatch,
                                                         tmp_path, argv):
        calls = []
        solve = ipm.solve
        monkeypatch.setattr(ipm, "solve", lambda *a, **k: calls.append(a) or solve(*a, **k))
        missing = str(tmp_path / "no_such_dir" / "out")
        code, out, err = run(capsys, *argv, missing)
        assert code == 1 and missing in err
        assert calls == [] and not out

    @pytest.mark.parametrize("argv", [
        ["solve", LASSERRE, "--level", "1-2", "--export"],
        ["jnc", LASSERRE, "--pair", "F0,1", "--level", "1", "--out"],
    ], ids=["solve", "jnc"])
    def test_failed_run_leaves_no_output_file(self, capsys, tmp_path, argv):
        # level 1 cannot represent x^4: the run stops at its first solve,
        # after the output file was opened and before anything was written
        path = tmp_path / "out"
        code, _, err = run(capsys, *argv, str(path))
        assert code == 2 and "x^4" in err
        assert not path.exists()

    def test_jnc_solver_failure_leaves_no_output_file(self, capsys, monkeypatch, tmp_path):
        # a direction that ends without a certificate stops the run through
        # its exit code, not through an exception
        monkeypatch.setattr(cli, "jnc_support",
                            lambda *a, **k: SimpleNamespace(status=ipm.Status.NUMERICAL))
        path = tmp_path / "out"
        code, _, err = run(capsys, "jnc", CHSH, "--pair", "F0,1", "--out", str(path))
        assert code == 3 and "NUMERICAL" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv, expected", OUTPUT_RUNS, ids=OUTPUT_RUN_IDS)
    def test_output_to_a_device_is_never_removed(self, capsys, monkeypatch, argv, expected):
        removed = []
        monkeypatch.setattr(cli.os, "remove", removed.append)
        code, _, _ = run(capsys, *argv, os.devnull)
        assert code == expected and removed == []

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("argv, expected", OUTPUT_RUNS, ids=OUTPUT_RUN_IDS)
    def test_output_to_a_pipe(self, capsys, argv, expected):
        # a pipe cannot seek: the run's own exit code stands, and what a
        # successful run writes arrives
        r, w = os.pipe()
        with os.fdopen(r, "rb") as reader:
            try:
                code, _, _ = run(capsys, *argv, f"/dev/fd/{w}")
            finally:
                os.close(w)
            data = reader.read()
        assert code == expected
        assert bool(data) == (expected == 0)

    @pytest.mark.parametrize("argv, message", [
        (["solve", CHSH, "--tol", "-1"], "--tol must be a positive finite number, got -1.0"),
        (["solve", CHSH, "--tol", "0"], "--tol must be a positive finite number, got 0.0"),
        (["solve", CHSH, "--tol", "nan"], "--tol must be a positive finite number, got nan"),
        (["solve", CHSH, "--tol", "inf"], "--tol must be a positive finite number, got inf"),
        (["solve", CHSH, "--level", "a"], "bad level specification 'a'"),
        (["solve", CHSH, "--level", "2-"], "bad level specification '2-'"),
        (["jnc", CHSH, "--pair", "F0"], "--pair wants two comma-separated names, got 'F0'"),
        (["jnc", CHSH, "--pair", "F0,1", "--directions", "0"],
         "--directions must be at least 1"),
    ], ids=["tol-negative", "tol-zero", "tol-nan", "tol-inf", "level-word",
            "level-open-range", "pair-one-name", "no-directions"])
    def test_bad_option_value(self, capsys, monkeypatch, argv, message):
        calls = []
        monkeypatch.setattr(ipm, "solve", lambda *a, **k: calls.append(a))
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and calls == []
        assert err.splitlines() == [f"starsdp: {message}"]

    @pytest.mark.parametrize("argv, prefix", [
        (["solve", CHSH, "--level", "0"], "starsdp: level 0: "),
        (["jnc", CHSH, "--pair", "F0,1", "--level", "0"], "starsdp: direction 0: "),
    ], ids=["solve", "jnc"])
    def test_not_representable_keeps_its_prefix(self, capsys, argv, prefix):
        code, out, err = run(capsys, *argv)
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith(prefix) and "raise the level" in line


@pytest.fixture(scope="module")
def c3_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c3")
    rep = c3_rep()
    model = invariant_instance(rep, 2, np.random.default_rng(0))
    sdpa = tmp / "c3.dat-s"
    grp = tmp / "c3.grp"
    export_sdpa_file(model, str(sdpa))
    write_group_file(str(grp), rep)
    return str(sdpa), str(grp), model


class TestReduce:
    def test_reduce_and_verify(self, capsys, c3_inputs, tmp_path):
        sdpa, grp, model = c3_inputs
        out_path = tmp_path / "red.dat-s"
        code, out, _ = run(capsys, "reduce", sdpa, grp,
                           "--out", str(out_path), "--verify")
        assert code == 0
        assert "m = 12" in out
        # the complex irreducibles of C3 share one Hermitian 2x2 block
        assert "reduced blocks 2 real, 2 Hermitian; 3 constraints" in out
        assert "difference" in out
        diff = float([l for l in out.splitlines() if "difference" in l][0].split()[-1])
        assert diff < 1e-6
        reduced = import_sdpa_file(str(out_path))
        sol = ipm.solve(reduced)
        full = ipm.solve(to_equality_form(model))
        assert abs(sol.primal_value - full.primal_value) < 1e-6

    def test_default_output_path(self, capsys, c3_inputs, tmp_path):
        sdpa, grp, _ = c3_inputs
        code, out, _ = run(capsys, "reduce", sdpa, grp)
        assert code == 0
        assert (Path(sdpa + ".reduced.dat-s")).exists()

    def test_trivial_group_prints_full_dimension(self, capsys, tmp_path):
        model = invariant_instance(
            c3_rep(), 1, np.random.default_rng(1))
        sdpa = tmp_path / "m.dat-s"
        export_sdpa_file(model, str(sdpa))
        grp = tmp_path / "trivial.grp"
        grp.write_text("dim 6\nelement\n" + "\n".join(
            " ".join("1" if i == j else "0" for j in range(6))
            for i in range(6)) + "\n")
        code, out, _ = run(capsys, "reduce", str(sdpa), str(grp),
                           "--out", str(tmp_path / "o.dat-s"))
        assert code == 0
        assert "m = 36" in out

    def test_non_invariant_exit_code(self, capsys, c3_inputs, tmp_path):
        _, grp, _ = c3_inputs
        from starsdp.sdpmodel import Block, LinearConstraint, SDPModel
        C = np.zeros((6, 6))
        C[0, 0] = 1.0
        bad = SDPModel([Block(6)], [C],
                       [LinearConstraint([np.eye(6)], "==", 1.0)])
        sdpa = tmp_path / "bad.dat-s"
        export_sdpa_file(bad, str(sdpa))
        code, _, err = run(capsys, "reduce", str(sdpa), grp,
                           "--out", str(tmp_path / "o.dat-s"))
        assert code == 4
        assert "residual" in err

    def test_bad_group_file(self, capsys, c3_inputs, tmp_path):
        sdpa, _, _ = c3_inputs
        grp = tmp_path / "bad.grp"
        grp.write_text("dim 6\nelement\n1 2 3\n")
        code, _, err = run(capsys, "reduce", sdpa, str(grp),
                           "--out", str(tmp_path / "o.dat-s"))
        assert code == 1
        assert err

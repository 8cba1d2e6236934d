"""Command line interface: commands, exit codes, determinism, figures."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logvor
from logvor import sym_to_json
from logvor.cli import _GRID_RANGE, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PATH_MODEL = {"kind": "graph", "m": 4, "edges": [[1, 2], [2, 3], [3, 4]]}


def path_problem(path_sigma, **extra):
    doc = {"model": PATH_MODEL, "sample": sym_to_json(path_sigma)}
    doc.update(extra)
    return doc


class TestMle:
    def test_graph_mle_is_fixed_point(self, tmp_path, capsys, path_sigma):
        file = write_problem(tmp_path, path_problem(path_sigma))
        code, out, _ = run_cli(capsys, ["mle", file])
        assert code == 0
        report = json.loads(out)
        assert len(report["points"]) == 1
        point = report["points"][0]
        np.testing.assert_allclose(point["sigma"]["upper"],
                                   sym_to_json(path_sigma)["upper"],
                                   rtol=1e-10, atol=1e-10)
        assert point["residual"] < 1e-8
        assert point["source"] == "unique"
        assert report["note"] == \
            "ML degree one: the critical point is the unique MLE"

    def test_chordal_graphs_skip_newton(self, tmp_path, capsys, path_sigma,
                                        monkeypatch):
        """The path is chordal: its MLE comes from the clique formula.
        The 4-cycle is not, and still runs Newton's method."""
        import logvor.mle
        newton = logvor.mle.mle_concentration
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return newton(*args, **kwargs)

        monkeypatch.setattr(logvor.mle, "mle_concentration", counted)
        file = write_problem(tmp_path, path_problem(path_sigma))
        code, out, _ = run_cli(capsys, ["mle", file])
        assert code == 0 and json.loads(out)["points"][0]["residual"] < 1e-8
        assert calls == []
        cycle = {"kind": "graph", "m": 4,
                 "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}
        file = write_problem(tmp_path, {"model": cycle,
                                        "sample": sym_to_json(path_sigma)})
        code, _, _ = run_cli(capsys, ["mle", file])
        assert code == 0 and len(calls) == 1

    def test_all_flag_lists_every_point(self, tmp_path, capsys, elliptope_s1):
        doc = {"model": {"kind": "correlation", "m": 3},
               "sample": sym_to_json(elliptope_s1),
               "options": {"starts": 256}}
        file = write_problem(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["mle", "--all", file])
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) == 3
        logliks = [p["loglik"] for p in points]
        assert logliks == sorted(logliks, reverse=True)
        assert "note" not in json.loads(out)

    def test_critical_points_equals_mle_all(self, tmp_path, capsys,
                                            elliptope_s1):
        doc = {"model": {"kind": "correlation", "m": 3},
               "sample": sym_to_json(elliptope_s1),
               "options": {"starts": 256}}
        file = write_problem(tmp_path, doc)
        _, out_all, _ = run_cli(capsys, ["mle", "--all", file])
        code, out_cp, _ = run_cli(capsys, ["critical-points", file])
        assert code == 0
        assert json.loads(out_cp)["points"] == json.loads(out_all)["points"]


class TestMembership:
    def test_in_cell_exits_zero(self, tmp_path, capsys, path_sigma):
        doc = path_problem(path_sigma, sigma=sym_to_json(path_sigma))
        file = write_problem(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["membership", file])
        assert code == 0
        assert json.loads(out)["status"] == "InCell"

    def test_rejection_exits_one(self, tmp_path, capsys, elliptope_sigma,
                                 elliptope_s1):
        doc = {"model": {"kind": "correlation", "m": 3},
               "sigma": sym_to_json(elliptope_sigma),
               "sample": sym_to_json(elliptope_s1)}
        file = write_problem(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["membership", file])
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "InSpectrahedronNotCell"
        assert report["best_effort"] is True
        assert report["witness"]["loglik"] == pytest.approx(-1.24750351572,
                                                            abs=1e-9)


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["mle", "/nonexistent/problem.json"])
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["mle", str(path)])
        assert code == 2

    def test_unknown_model_kind(self, tmp_path, capsys):
        file = write_problem(tmp_path, {"model": {"kind": "mystery"},
                                        "sample": {"dim": 1, "upper": ["1"]}})
        code, _, err = run_cli(capsys, ["mle", file])
        assert code == 2

    def test_missing_field(self, tmp_path, capsys, path_sigma):
        file = write_problem(tmp_path, {"model": PATH_MODEL})
        code, _, _ = run_cli(capsys, ["mle", file])
        assert code == 2

    def test_wrong_entry_count(self, tmp_path, capsys):
        file = write_problem(tmp_path, {
            "model": PATH_MODEL,
            "sample": {"dim": 4, "upper": ["1", "2", "3"]}})
        code, _, _ = run_cli(capsys, ["mle", file])
        assert code == 2

    @pytest.mark.parametrize("options", [
        {"starts": 0}, {"starts": -5}, {"max_iter": 0}, {"tol": -1.0},
        {"tol": float("nan")},
    ])
    def test_out_of_range_options_exit_two(self, tmp_path, capsys,
                                           elliptope_s1, options):
        doc = {"model": {"kind": "correlation", "m": 3},
               "sample": sym_to_json(elliptope_s1), "options": options}
        file = write_problem(tmp_path, doc)
        code, out, err = run_cli(capsys, ["critical-points", file])
        assert code == 2
        assert out == ""
        field = next(iter(options))
        assert err.startswith("error: ") and field in err
        assert "array" not in err and "Traceback" not in err

    def test_solver_failure_exits_three(self, tmp_path, capsys, path_sigma):
        # a non-PD sigma makes the sampler fail outside the input layer
        bad = np.diag([1.0, 1.0, 1.0, -1.0])
        file = write_problem(tmp_path, {"model": PATH_MODEL,
                                        "sigma": sym_to_json(bad)})
        code, _, err = run_cli(capsys, ["sample", file, "--count", "1"])
        assert code == 3
        assert "solver error:" in err

    def test_internal_no_convergence_exits_three(self, tmp_path, capsys,
                                                 path_sigma, monkeypatch):
        from logvor.errors import NoConvergence

        def boom(*args, **kwargs):
            raise NoConvergence("no start converged")

        monkeypatch.setattr("logvor.cli.critical_points", boom)
        file = write_problem(tmp_path, path_problem(path_sigma))
        code, _, err = run_cli(capsys, ["mle", file])
        assert code == 3
        assert "solver error:" in err


class TestSeedPriority:
    def sample_doc(self, path_sigma, **extra):
        doc = {"model": PATH_MODEL, "sigma": sym_to_json(path_sigma)}
        doc.update(extra)
        return doc

    def seed_of(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)["seed"]

    def test_flag_beats_options(self, tmp_path, capsys, path_sigma,
                                monkeypatch):
        monkeypatch.setenv("LOGVOR_SEED", "3")
        file = write_problem(tmp_path, self.sample_doc(
            path_sigma, options={"seed": 5}))
        assert self.seed_of(capsys, ["sample", file, "--seed", "7",
                                     "--count", "1"]) == 7

    def test_options_beat_environment(self, tmp_path, capsys, path_sigma,
                                      monkeypatch):
        monkeypatch.setenv("LOGVOR_SEED", "3")
        file = write_problem(tmp_path, self.sample_doc(
            path_sigma, options={"seed": 5}))
        assert self.seed_of(capsys, ["sample", file, "--count", "1"]) == 5

    def test_environment_beats_default(self, tmp_path, capsys, path_sigma,
                                       monkeypatch):
        monkeypatch.setenv("LOGVOR_SEED", "3")
        file = write_problem(tmp_path, self.sample_doc(path_sigma))
        assert self.seed_of(capsys, ["sample", file, "--count", "1"]) == 3

    def test_default_seed_is_zero(self, tmp_path, capsys, path_sigma,
                                  monkeypatch):
        monkeypatch.delenv("LOGVOR_SEED", raising=False)
        file = write_problem(tmp_path, self.sample_doc(path_sigma))
        assert self.seed_of(capsys, ["sample", file, "--count", "1"]) == 0


class TestSample:
    def test_deterministic_output(self, tmp_path, capsys, path_sigma):
        file = write_problem(tmp_path, {"model": PATH_MODEL,
                                        "sigma": sym_to_json(path_sigma)})
        argv = ["sample", file, "--count", "3", "--seed", "11"]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        report = json.loads(first)
        assert len(report["samples"]) == 3
        assert all(s["dim"] == 4 for s in report["samples"])


class TestDecompose:
    def test_path_decomposition(self, tmp_path, capsys):
        file = write_problem(tmp_path, {"model": PATH_MODEL})
        code, out, _ = run_cli(capsys, ["decompose", file])
        assert code == 0
        assert json.loads(out) == {
            "decomposition": {"U": [1, 2], "T": [2], "W": [2, 3, 4]}}

    def test_complete_graph_has_none(self, tmp_path, capsys):
        model = {"kind": "graph", "m": 3,
                 "edges": [[1, 2], [1, 3], [2, 3]]}
        file = write_problem(tmp_path, {"model": model})
        code, out, _ = run_cli(capsys, ["decompose", file])
        assert code == 0
        assert json.loads(out) == {"decomposition": None}

    def test_non_graph_model_rejected(self, tmp_path, capsys):
        file = write_problem(tmp_path, {"model": {"kind": "ci-union"}})
        code, _, _ = run_cli(capsys, ["decompose", file])
        assert code == 2


class TestByteStability:
    def test_mle_output_is_stable(self, tmp_path, capsys, elliptope_s1):
        doc = {"model": {"kind": "correlation", "m": 3},
               "sample": sym_to_json(elliptope_s1),
               "options": {"starts": 256, "seed": 0}}
        file = write_problem(tmp_path, doc)
        _, first, _ = run_cli(capsys, ["mle", "--all", file])
        _, second, _ = run_cli(capsys, ["mle", "--all", file])
        assert first == second

    def test_figure_file_is_stable(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(capsys, ["figure", "bivariate",
                                          "--out", str(out), "--grid", "41"])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestFigure:
    def read_rows(self, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        return header, rows

    def test_bivariate_grid(self, tmp_path, capsys):
        out = tmp_path / "bivariate.csv"
        code, _, _ = run_cli(capsys, ["figure", "bivariate",
                                      "--out", str(out), "--grid", "41"])
        assert code == 0
        header, rows = self.read_rows(out)
        assert header == ["b", "k", "in_spectrahedron", "in_cell"]
        assert len(rows) == 41 * 41
        for b, k, spec, cell in rows:
            assert (spec, cell) != ("0", "1")       # cell inside spectrahedron
            if cell == "1":
                assert float(b) >= 0.0
            if spec == "1" and float(b) < 0.0:
                assert cell == "0"

    def test_ci_union_t_strip(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, ["figure", "ci-union-t",
                                      "--out", str(out), "--grid", "41"])
        assert code == 0
        header, rows = self.read_rows(out)
        assert header == ["x1", "x2", "in_spectrahedron", "in_cell"]
        bound = 1.0 / math.sqrt(3.0)
        for x1, x2, spec, cell in rows:
            assert (spec, cell) != ("0", "1")
            if spec == "1":
                assert (cell == "1") == (abs(float(x1)) <= bound + 1e-12)

    def test_three_dimensional_scene_is_sliced(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, _, _ = run_cli(capsys, ["figure", "path-spectrahedron",
                                      "--out", str(out), "--grid", "11",
                                      "--z", "0.25"])
        assert code == 0
        header, rows = self.read_rows(out)
        assert header == ["x", "y", "z", "in_spectrahedron", "in_cell"]
        assert len(rows) == 121
        assert {row[2] for row in rows} == {"0.25"}
        # degree-one family: the cell fills the spectrahedron slice
        assert all(row[3] == row[4] for row in rows)

    def test_unknown_figure_name(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["figure", "no-such-figure",
                                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("grid", [-1, 0, 1, _GRID_RANGE[1] + 1])
    def test_grid_out_of_range_exits_two(self, tmp_path, capsys, grid):
        out = tmp_path / "g.csv"
        code, _, err = run_cli(capsys, ["figure", "bivariate", "--out",
                                        str(out), "--grid", str(grid)])
        assert code == 2
        assert err == (f"error: --grid must be between {_GRID_RANGE[0]} "
                       f"and {_GRID_RANGE[1]}, got {grid}\n")
        assert list(tmp_path.iterdir()) == []

    def test_no_temp_files_left_behind(self, tmp_path, capsys):
        out = tmp_path / "clean.csv"
        run_cli(capsys, ["figure", "bivariate", "--out", str(out),
                         "--grid", "11"])
        leftovers = [p for p in tmp_path.iterdir() if p.name != "clean.csv"]
        assert leftovers == []


def console_script_command(name):
    """The command a console-script wrapper for ``name`` runs.

    The entry point is read from ``[project.scripts]`` in the repository's
    ``pyproject.toml`` and called the way the generated wrapper calls it,
    so no install step is needed.
    """
    try:
        import tomllib
    except ModuleNotFoundError:          # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"][name]
    module, function = spec.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {function}; "
            f"sys.exit({function}())"]


def source_tree_env():
    """The environment with the imported ``logvor`` package first on
    ``PYTHONPATH``, so a child process runs the code under test."""
    package_root = str(Path(logvor.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_networkx_unloaded(tmp_path, path_sigma):
    """networkx is imported only by the functions that need it; importing
    the package and running the graph commands does not load it."""
    file = write_problem(tmp_path, path_problem(path_sigma))
    code = ("import sys; from logvor.cli import main; "
            f"assert main(['decompose', {file!r}]) == 0; "
            f"assert main(['mle', {file!r}]) == 0; "
            "print('networkx' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=source_tree_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "False"


class TestConsoleScript:
    def test_version_and_smoke(self, tmp_path, path_sigma):
        command = console_script_command("logvor")
        env = source_tree_env()
        version = subprocess.run(command + ["--version"], capture_output=True,
                                 text=True, env=env)
        assert version.returncode == 0, version.stderr
        assert version.stdout.strip() == logvor.__version__

        file = write_problem(tmp_path, path_problem(path_sigma))
        result = subprocess.run(command + ["mle", file], capture_output=True,
                                text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["points"][0]["residual"] < 1e-8

    @pytest.mark.skipif(shutil.which("logvor") is None,
                        reason="logvor console script not installed")
    def test_installed_script_version(self):
        version = subprocess.run([shutil.which("logvor"), "--version"],
                                 capture_output=True, text=True)
        assert version.returncode == 0, version.stderr
        assert version.stdout.strip() == logvor.__version__

"""Command line interface: commands, exit codes, determinism, figures."""

import argparse
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
from logvor import errors, sym_to_json
from logvor.cli import _GRID_RANGE, main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """``json.loads`` that rejects NaN and Infinity, which JSON lacks."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


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
        The 4-cycle is not, and still runs Newton's method (its core,
        on the sample validated once)."""
        import logvor.mle
        newton = logvor.mle._concentration_point
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return newton(*args, **kwargs)

        monkeypatch.setattr(logvor.mle, "_concentration_point", counted)
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

    def test_grid_fit_builds_no_dense_basis(self, tmp_path, capsys,
                                            monkeypatch):
        """A non-chordal graph is fitted in edge coordinates: neither the
        fit nor the residual of CLI ``mle`` builds the basis stack."""
        grid = logvor.Graph(9, ((1, 2), (2, 3), (4, 5), (5, 6), (7, 8),
                                (8, 9), (1, 4), (4, 7), (2, 5), (5, 8),
                                (3, 6), (6, 9)))
        S = np.eye(9) + 0.1 * np.ones((9, 9))
        model = logvor.GraphModel(grid)
        assert logvor.critical_points(model, S)[0].source == "unique"
        assert "_stack" not in vars(model)

        def refuse(*args):
            raise AssertionError("dense concentration basis built")

        monkeypatch.setattr(logvor.models, "concentration_basis", refuse)
        file = write_problem(tmp_path, {"model": model.to_json(),
                                        "sample": sym_to_json(S)})
        code, out, _ = run_cli(capsys, ["mle", file])
        assert code == 0 and json.loads(out)["points"][0]["residual"] < 1e-8

    @pytest.mark.parametrize("model", [
        {"kind": "graph", "m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
        PATH_MODEL,
        {"kind": "dag", "m": 3, "arcs": [[1, 2], [2, 3]]},
    ], ids=["four-cycle", "path", "dag"])
    def test_subnormal_sample_is_fitted(self, tmp_path, capsys, model):
        """S = 1e-310 I is its own MLE; the report is valid JSON (no NaN)
        with a finite log-likelihood, and numpy warns of nothing."""
        m = model["m"]
        sample = sym_to_json(1e-310 * np.eye(m))
        file = write_problem(tmp_path, {"model": model, "sample": sample})
        code, out, err = run_cli(capsys, ["mle", file])
        assert (code, err) == (0, "")
        point = strict_json(out)["points"][0]
        assert point["sigma"] == sample
        assert point["loglik"] == pytest.approx(
            -m * (math.log(1e-310) + 1.0), rel=1e-12)

    @pytest.mark.parametrize("model", [
        {"kind": "graph", "m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
        PATH_MODEL,
        {"kind": "dag", "m": 4, "arcs": [[1, 2], [2, 4], [3, 4]]},
    ], ids=["four-cycle", "path", "dag"])
    def test_huge_sample_is_fitted(self, tmp_path, capsys, model,
                                   path_sigma):
        """MLE(t S) = t MLE(S) at t = 1e160, beyond the square root of
        the largest double, and numpy warns of nothing."""
        t = 1e160
        points = []
        for scale in (1.0, t):
            sample = sym_to_json(scale * path_sigma)
            file = write_problem(tmp_path, {"model": model, "sample": sample})
            code, out, err = run_cli(capsys, ["mle", file])
            assert (code, err) == (0, "")
            points.append(json.loads(out)["points"][0])
        plain, huge = points
        np.testing.assert_allclose(np.array(huge["sigma"]["upper"]) / t,
                                   plain["sigma"]["upper"], rtol=1e-12)
        assert huge["loglik"] == pytest.approx(
            plain["loglik"] - 4 * math.log(t), rel=1e-12)

    @pytest.mark.parametrize("problem, scale, exit_code", [
        ("ci-union", 1e300, 0), ("correlation", 1.7e308, 3),
        ("dag", 1e-320, 0), ("concentration", 1e-320, 0),
    ])
    def test_golden_sample_near_the_float_limits(self, tmp_path, capsys,
                                                 problem, scale, exit_code):
        """The golden sample scaled to the edge of the doubles: numpy
        prints nothing, and a solver failure is reported as one."""
        doc = json.loads((GOLDEN / f"{problem}.json").read_text())
        sample = logvor.sym_from_json(doc["sample"])
        doc["sample"] = sym_to_json(sample * scale)
        doc["options"] = {"starts": 64}
        code, out, err = run_cli(capsys, ["critical-points",
                                          write_problem(tmp_path, doc)])
        assert code == exit_code
        if code == 0:
            assert err == ""
            logliks = [p["loglik"] for p in json.loads(out)["points"]]
            assert logliks == sorted(logliks, reverse=True)
        else:
            assert err == "solver error: multistart found no critical point\n"

    @pytest.mark.parametrize("k", [6, 12, 50, 150, 300])
    def test_large_correlation_sample_has_a_critical_point(self, tmp_path,
                                                           capsys, k):
        """The multistart converges relative to the largest entry of S,
        where the rounding of K S K sits: S1 x 10^k has a point."""
        doc = json.loads((GOLDEN / "correlation.json").read_text())
        sample = logvor.sym_from_json(doc["sample"])
        doc["sample"] = sym_to_json(sample * 10.0 ** k)
        code, out, err = run_cli(capsys, ["critical-points",
                                          write_problem(tmp_path, doc)])
        assert (code, err) == (0, "")
        points = strict_json(out)["points"]
        assert len(points) >= 1
        for p in points:
            assert np.diag(logvor.sym_from_json(p["sigma"])).tolist() \
                == [1.0] * 3

    def test_non_finite_residual_is_null(self, tmp_path, capsys):
        """The dag golden sample times 1e-320 has a residual past the
        largest double: the report says null, and stays strict JSON."""
        doc = json.loads((GOLDEN / "dag.json").read_text())
        doc["sample"] = sym_to_json(logvor.sym_from_json(doc["sample"])
                                    * 1e-320)
        file = write_problem(tmp_path, doc)
        code, out, err = run_cli(capsys, ["mle", file])
        assert (code, err) == (0, "")
        point = strict_json(out)["points"][0]
        assert point["residual"] is None and '"residual": null' in out

    def test_residual_scales_with_the_sample(self, tmp_path, capsys):
        """The path golden sample times 2^300: the printed residual is
        the scale-1 residual of the golden output times 2^-300."""
        golden = GOLDEN / "graph-path.critical-points.out"
        residual = json.loads(golden.read_text())["points"][0]["residual"]
        assert 0.0 < residual < 1e-15
        doc = json.loads((GOLDEN / "graph-path.json").read_text())
        doc["sample"] = sym_to_json(
            np.ldexp(logvor.sym_from_json(doc["sample"]), 300))
        code, out, err = run_cli(capsys, ["mle", write_problem(tmp_path, doc)])
        assert (code, err) == (0, "")
        assert strict_json(out)["points"][0]["residual"] == pytest.approx(
            math.ldexp(residual, -300), rel=1e-14)

    def test_all_flag_is_gone(self, tmp_path, capsys, path_sigma):
        file = write_problem(tmp_path, path_problem(path_sigma))
        with pytest.raises(SystemExit) as exc:
            main(["mle", "--all", file])
        assert exc.value.code == 2
        assert "--all" in capsys.readouterr().err

    def test_critical_points_lists_every_point(self, tmp_path, capsys,
                                               elliptope_s1):
        doc = {"model": {"kind": "correlation", "m": 3},
               "sample": sym_to_json(elliptope_s1),
               "options": {"starts": 256}}
        file = write_problem(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["critical-points", file])
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) == 3
        logliks = [p["loglik"] for p in points]
        assert logliks == sorted(logliks, reverse=True)
        assert "note" not in json.loads(out)

    def test_mle_prints_the_best_critical_point(self, tmp_path, capsys,
                                                elliptope_s1):
        doc = {"model": {"kind": "correlation", "m": 3},
               "sample": sym_to_json(elliptope_s1),
               "options": {"starts": 256}}
        file = write_problem(tmp_path, doc)
        _, out_mle, _ = run_cli(capsys, ["mle", file])
        code, out_cp, _ = run_cli(capsys, ["critical-points", file])
        assert code == 0
        points = json.loads(out_cp)["points"]
        assert len(points) == 3
        assert json.loads(out_mle)["points"] == points[:1]


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


    def test_sample_with_huge_entries_is_not_pd(self, tmp_path, capsys):
        """An off-diagonal entry far above the diagonal is rejected as
        NotPD before the PD test's elimination could overflow."""
        doc = {"model": {"kind": "bivariate-correlation"},
               "sigma": sym_to_json(np.array([[1.0, 0.5], [0.5, 1.0]])),
               "sample": sym_to_json(np.array([[1.0, 1e200],
                                               [1e200, 1.0]]))}
        code, out, err = run_cli(capsys, ["membership",
                                          write_problem(tmp_path, doc)])
        assert code == 1
        assert err == ""
        assert json.loads(out)["status"] == "NotPD"


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

    @pytest.mark.parametrize("sample", [
        {"dim": 1, "upper": ["1e400"]}, {"dim": 1, "upper": [10 ** 400]},
        {"dim": 1, "upper": 5}, {"dim": 1, "upper": None},
        {"dim": True, "upper": ["1"]},
    ], ids=["string-too-large", "integer-too-large", "upper-number",
            "upper-null", "dim-true"])
    def test_malformed_matrix_exits_two(self, tmp_path, capsys, sample):
        file = write_problem(tmp_path, {"model": PATH_MODEL,
                                        "sample": sample})
        code, out, err = run_cli(capsys, ["mle", file])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_overflowing_score_exits_one(self, tmp_path, capsys):
        """A sample whose score overflows at a nearly singular union
        point is off the slice: exit 1, with no warning on stderr."""
        file = write_problem(tmp_path, {
            "model": {"kind": "ci-union"},
            "sigma": {"dim": 3, "upper": ["1", "0", "0",
                                          "1", "0.99999999999", "1"]},
            "sample": {"dim": 3, "upper": ["1e300", "0", "0",
                                           "1e300", "0", "1e300"]}})
        code, out, err = run_cli(capsys, ["membership", file])
        assert code == 1
        assert err == ""
        assert json.loads(out)["status"] == "NotInSpectrahedron"

    @staticmethod
    def options_doc(sample, options):
        """A correlation problem with the identity as sigma, for the
        commands that read options."""
        return {"model": {"kind": "correlation", "m": 3},
                "sigma": sym_to_json(np.eye(3)),
                "sample": sym_to_json(sample), "options": options}

    # tol and max_iter are module constants, not options: those documents
    # are rejected as unknown options, and the error still names the field
    @pytest.mark.parametrize("options", [
        {"starts": 0}, {"starts": -5}, {"max_iter": 0}, {"tol": -1.0},
        {"tol": float("nan")}, {"seed": -1}, {"tol": 10 ** 400},
    ])
    def test_out_of_range_options_exit_two(self, tmp_path, capsys,
                                           elliptope_s1, options):
        file = write_problem(tmp_path, self.options_doc(elliptope_s1,
                                                        options))
        field = next(iter(options))
        for argv in (["critical-points", file],
                     ["sample", file, "--count", "1"]):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and field in err
            assert "array" not in err and "Traceback" not in err

    @pytest.mark.parametrize("options", [
        {"starts": 1.7}, {"starts": True}, {"starts": "abc"},
        {"starts": None}, {"starts": 512.0}, {"seed": 1.5},
        {"seed": "3"}, {"max_iter": 2.9}, {"tol": "1e-3"},
        {"tol": False}, {"strats": 5},
    ])
    def test_malformed_options_exit_two(self, tmp_path, capsys,
                                        elliptope_s1, options):
        """Options of the wrong JSON type, and unknown options, are
        rejected rather than converted or ignored."""
        file = write_problem(tmp_path, self.options_doc(elliptope_s1,
                                                        options))
        field = next(iter(options))
        for argv in (["critical-points", file],
                     ["sample", file, "--count", "1"]):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and field in err
            for text in ("int(", "float(", "literal", "Traceback", "array"):
                assert text not in err

    def test_unallocatable_solve_exits_three(self, tmp_path, capsys,
                                             elliptope_s1):
        """10^17 starts of a 3 x 3 stack (6.25 EiB) fit in no address
        space: a solver failure, exit 3 with one ``solver error:`` line
        and no traceback.  The request fails before any memory is
        taken."""
        file = write_problem(tmp_path, self.options_doc(
            elliptope_s1, {"starts": 10 ** 17}))
        code, out, err = run_cli(capsys, ["critical-points", file])
        assert (code, out) == (3, "")
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("model, dim, sample, message", [
        ({"kind": "correlation", "m": 3}, 2, None, "dimension"),
        # a non-PD sample of the wrong dimension is malformed, not NotPD
        (PATH_MODEL, 4, -np.eye(3), "dimension"),
        ({"kind": "equicorrelation", "m": 1}, 1, None, "m >= 2"),
        ({"kind": "correlation", "m": "3"}, 3, None, '"m"'),
        ({"kind": "dag", "m": 2, "arcs": [[2, 1]]}, 2, None, "labelling"),
        ({"kind": "equicorrelation"}, 3, None, '"m"'),
        ({"kind": "concentration", "basis": 5}, 2, None, '"basis"'),
    ], ids=["sigma-dimension", "sample-dimension", "equicorrelation-m-1",
            "m-string", "dag-arc-against-labels", "m-missing",
            "basis-not-a-list"])
    def test_malformed_input_exits_two(self, tmp_path, capsys, model, dim,
                                       sample, message):
        """Sigma is the identity of dimension ``dim``; the sample is
        ``sample``, or that identity too."""
        sigma = sym_to_json(np.eye(dim))
        file = write_problem(tmp_path, {
            "model": model, "sigma": sigma,
            "sample": sigma if sample is None else sym_to_json(sample)})
        code, out, err = run_cli(capsys, ["membership", file])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_sigma_off_the_model_exits_two(self, tmp_path, capsys):
        """Sigma is not in the graph model with the one edge 1-2."""
        sigma = sym_to_json(np.array([[2.0, 0.5, 0.3], [0.5, 2.0, 0.5],
                                      [0.3, 0.5, 2.0]]))
        doc = {"model": {"kind": "graph", "m": 3, "edges": [[1, 2]]},
               "sigma": sigma, "sample": sigma}
        file = write_problem(tmp_path, doc)
        for argv in (["membership", file], ["sample", file, "--count", "1"]):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert "not a point of the model" in err

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


def error_classes(cls=errors.LogvorError):
    """``cls`` and every class derived from it."""
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


#: The classes that mean malformed input: the CLI exits 2 on them.
INPUT_ERRORS = {"InputError", "ShapeMismatch", "DimensionMismatch",
                "IndexOutOfRange", "InvalidModel", "OutOfRange",
                "UnknownFigure", "NotOnSlice", "PreconditionFailed",
                "NotTopological"}


@pytest.mark.parametrize("cls", sorted(set(error_classes()),
                                       key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch,
                                           cls):
    """An :class:`InputError` exits 2 with ``error:``; every other
    :class:`LogvorError`, NotPD among them, exits 3 with ``solver error:``."""
    def fail(graph):
        raise cls("boom")

    monkeypatch.setattr("logvor.cli.find_reducible_decomposition", fail)
    file = write_problem(tmp_path, {"model": PATH_MODEL})
    code, out, err = run_cli(capsys, ["decompose", file])
    assert out == ""
    if cls.__name__ in INPUT_ERRORS:
        assert issubclass(cls, errors.InputError)
        assert (code, err) == (2, "error: boom\n")
    else:
        assert (code, err) == (3, "solver error: boom\n")


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    """The parser is built once, at import: two calls of ``main`` build
    no ``ArgumentParser``."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    file = write_problem(tmp_path, {"model": PATH_MODEL})
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["decompose", file])
        assert code == 0 and json.loads(out)["decomposition"]["T"] == [2]
    assert built == []


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
        """``options.seed`` is in force; the environment is not read."""
        monkeypatch.setenv("LOGVOR_SEED", "3")
        file = write_problem(tmp_path, self.sample_doc(
            path_sigma, options={"seed": 5}))
        assert self.seed_of(capsys, ["sample", file, "--count", "1"]) == 5

    def test_environment_is_not_read(self, tmp_path, capsys, path_sigma,
                                     monkeypatch):
        """The seed comes from ``--seed`` or ``options.seed``, else it is
        0; a ``LOGVOR_SEED`` variable is ignored."""
        monkeypatch.setenv("LOGVOR_SEED", "3")
        file = write_problem(tmp_path, self.sample_doc(path_sigma))
        assert self.seed_of(capsys, ["sample", file, "--count", "1"]) == 0

    def test_default_seed_is_zero(self, tmp_path, capsys, path_sigma,
                                  monkeypatch):
        monkeypatch.delenv("LOGVOR_SEED", raising=False)
        file = write_problem(tmp_path, self.sample_doc(path_sigma))
        assert self.seed_of(capsys, ["sample", file, "--count", "1"]) == 0

    @pytest.mark.parametrize("command", [["critical-points"],
                                         ["sample", "--count", "1"]])
    @pytest.mark.parametrize("flag, options, env, source", [
        ("-1", None, None, "--seed"),
        (None, {"seed": -1}, "3", "options.seed"),
    ])
    def test_invalid_seed_exits_two(self, tmp_path, capsys, path_sigma,
                                    monkeypatch, command, flag, options,
                                    env, source):
        if env is None:
            monkeypatch.delenv("LOGVOR_SEED", raising=False)
        else:
            monkeypatch.setenv("LOGVOR_SEED", env)
        doc = self.sample_doc(path_sigma, sample=sym_to_json(path_sigma))
        if options is not None:
            doc["options"] = options
        argv = [command[0], write_problem(tmp_path, doc)] + command[1:]
        if flag is not None:
            argv += ["--seed", flag]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {source} must be a non-negative")
        assert "literal" not in err and "expected" not in err


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

    @pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "0", "-1"])
    def test_radius_outside_zero_to_inf_exits_two(self, tmp_path, capsys,
                                                  radius):
        file = str(GOLDEN / "graph-cycle.json")
        code, out, err = run_cli(capsys, ["sample", file,
                                          f"--radius={radius}"])
        assert (code, out) == (2, "")
        assert err == "error: radius must be positive and finite\n"

    @pytest.mark.parametrize("radius", ["1e308", "1.7976931348623157e308"])
    def test_overflowing_radius_exits_three(self, tmp_path, capsys, radius):
        """Every proposal overflows and is rejected, with no numpy text."""
        file = str(GOLDEN / "graph-cycle.json")
        code, out, err = run_cli(capsys, ["sample", file, "--count", "2",
                                          "--radius", radius])
        assert (code, out) == (3, "")
        assert err.startswith(
            "solver error: none of 200 proposals was positive definite, "
            f"at radius {float(radius):.6g} first")


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
        _, first, _ = run_cli(capsys, ["critical-points", file])
        _, second, _ = run_cli(capsys, ["critical-points", file])
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

    @pytest.mark.parametrize("name", ["bivariate", "dag-slice"])
    @pytest.mark.parametrize("z", ["nan", "inf", "-inf", "1e308"])
    def test_z_out_of_range_exits_two(self, tmp_path, capsys, name, z):
        code, _, err = run_cli(capsys, ["figure", name, "--out",
                                        str(tmp_path / "z.csv"), f"--z={z}"])
        assert code == 2
        assert err.startswith("error: --z must be finite")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["ci-union-t", "ci-union-s", "bivariate"])
    def test_cells_follow_the_scalar_rules(self, tmp_path, capsys, name):
        """On every grid point in_cell is the verdict of ci_union_cell or
        bivariate_cell and in_spectrahedron that of in_spectrahedron at
        the scene's model point, so the scene matrices lie on its
        log-normal slice."""
        out = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, ["figure", name, "--out", str(out),
                                      "--grid", "41"])
        assert code == 0
        _, rows = self.read_rows(out)
        assert len(rows) == 41 * 41
        for u, v, spec, cell in rows:
            u, v = float(u), float(v)
            if name == "bivariate":      # b = u, k = v at correlation c
                c = 0.5
                model, Sigma = logvor.BivariateCorrelation(), \
                    np.array([[1.0, c], [c, 1.0]])
                a = (u * c * c - c ** 3 + u + c) / (2.0 * c)
                S = np.array([[v, u], [u, 2.0 * a - v]])
            elif name == "ci-union-t":
                model, Sigma = logvor.CiUnion(), np.array(
                    [[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]])
                S = np.array([[1.0, u, v], [u, 2.0, 1.0], [v, 1.0, 3.0]])
            else:
                model, Sigma = logvor.CiUnion(), np.array(
                    [[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
                S = np.array([[2.0, 1.0, u], [1.0, 3.0, v], [u, v, 4.0]])
            assert (spec == "1") == logvor.in_spectrahedron(model, Sigma, S)
            if name == "bivariate":
                expect = spec == "1" and logvor.bivariate_cell(0.5, S)
            else:
                expect = logvor.ci_union_cell(Sigma, S)
            assert (cell == "1") == expect

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
    """numpy is the only runtime dependency: with networkx blocked from
    import, the package, the clique functions and every command run."""
    problem = path_problem(path_sigma, sigma=sym_to_json(path_sigma))
    file = write_problem(tmp_path, problem)
    csv_out = str(tmp_path / "fig.csv")
    commands = [["decompose", file], ["mle", file], ["critical-points", file],
                ["membership", file], ["sample", file, "--count", "2"],
                ["figure", "bivariate", "--out", csv_out, "--grid", "5"]]
    code = ("import sys; sys.modules['networkx'] = None; "
            "from logvor import Graph, find_reducible_decomposition, "
            "maximal_cliques; from logvor.cli import main; "
            "G = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 3))); "
            "assert maximal_cliques(G) == [(1, 2, 3), (3, 4)]; "
            "assert find_reducible_decomposition(G).T == (3,); "
            f"assert all(main(c) == 0 for c in {commands!r}); "
            "print('ok')")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=source_tree_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "ok"


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

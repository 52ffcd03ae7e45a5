"""Verification claims and the command-line surface."""

import json
import os
from collections import defaultdict
import subprocess
import sys

import pytest

from tetcomplex import cli
from tetcomplex.cli import main
from tetcomplex.verify import (
    GROUPS,
    check_bubbles,
    check_commuting,
    check_dimension_fingerprint,
    check_dimension_formulas,
    check_dof_mapping,
    check_global_exactness,
    check_local_exactness,
    check_poincare,
    check_poly_inclusion,
    check_stokes,
    check_unisolvence,
    VerificationReport,
    verify_all,
)


class TestClaims:
    def test_dimension_fingerprint(self):
        (res,) = check_dimension_fingerprint()
        assert res.status and res.measured == [4, 18, 16, 1]

    def test_poincare(self):
        results = check_poincare(count=30, max_degree=3)
        assert all(r.status for r in results)

    def test_bubbles(self):
        assert all(r.status for r in check_bubbles())

    def test_local_exactness(self):
        assert all(r.status for r in check_local_exactness(((1, 1), (2, 2))))

    def test_global_exactness(self):
        assert all(r.status for r in check_global_exactness(((1, 1),), (1,)))

    def test_commuting(self):
        (res,) = check_commuting(fields=3)
        assert res.status, res.measured

    def test_dof_mapping(self):
        (res,) = check_dof_mapping()
        assert res.status, res.measured

    def test_poly_inclusion(self):
        assert all(r.status for r in check_poly_inclusion(((1, 1), (2, 1))))

    def test_unisolvence_small(self):
        results = check_unisolvence(((1, 1),), cells=2)
        assert all(r.status for r in results)

    def test_stokes_claims(self):
        results = check_stokes(levels=(2,))
        by_name = {r.claim: r for r in results}
        assert by_name["stokes-divergence-free"].status
        assert by_name["stokes-inf-sup-stability"].status

    def test_dimension_formulas(self):
        assert all(r.status for r in check_dimension_formulas(levels=(1, 2)))

    def test_configs_narrow_every_exactness_claim(self):
        report = verify_all(["exactness"], ((2, 1),), levels=(1,))
        claims = {r.claim: r for r in report.results}
        assert {"global-exactness-free", "global-exactness-bc"} <= claims.keys()
        assert all(
            (r.config["r"], r.config["k"]) == (2, 1) for r in report.results if r.config
        )
        assert [(d["r"], d["k"]) for d in claims["dimension-formulas"].measured] == [(2, 1)]
        assert report.ok

    def test_report_serialization(self, tmp_path):
        report = VerificationReport(check_dimension_fingerprint())
        text = report.to_json(tmp_path / "report.json")
        data = json.loads(text)
        assert data["overall"] == "pass"
        assert data["claims"][0]["claim"] == "dims-lowest-order"
        assert "PASS" in report.table()


class TestCli:
    def test_mesh_info(self, capsys):
        code = main(["mesh", "info", "--N", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["vertices"] == 8 and data["euler_ok"]
        assert data["classes"] == 6 and data["build_s"] >= 0.0

    def test_mesh_info_export(self, capsys, tmp_path):
        out = tmp_path / "mesh.txt"
        assert main(["mesh", "info", "--N", "1", "--out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()

    def test_mesh_invalid(self, capsys):
        assert main(["mesh", "info", "--N", "0"]) == 3
        capsys.readouterr()

    def test_element_info(self, capsys):
        assert main(["element", "info", "--r", "1", "--k", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dimensions"] == {
            "lagrange": 4, "gradcurl": 18, "velocity": 16, "pressure": 1
        }

    def test_element_invalid_family(self, capsys):
        assert main(["element", "info", "--r", "4", "--k", "1"]) == 3
        capsys.readouterr()

    def test_solve_quadcurl_csv(self, capsys, tmp_path):
        out = tmp_path / "solve.csv"
        code = main(["solve", "quadcurl", "--N", "1", "--r", "1", "--k", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("N,dofs,l2")
        capsys.readouterr()

    def test_solve_stokes(self, capsys):
        code = main(["solve", "stokes", "--N", "2", "--k", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["div_norm"] < 1e-9

    def test_solve_passes_a_given_tol(self, capsys, monkeypatch, tmp_path):
        from tetcomplex import problems

        seen = []

        def record(problem):
            seen.append((type(problem).__name__, problem.tol))
            row = defaultdict(int)  # every printed column reads 0
            return (None, row) if isinstance(problem, problems.QuadCurlProblem) else (None, None, row)

        monkeypatch.setattr(problems, "solve_stokes", record)
        monkeypatch.setattr(problems, "solve_quadcurl", record)
        for name in ("stokes", "quadcurl"):
            argv = ["solve", name, "--N", "2", "--k", "1"]
            assert main(argv + ["--tol", "1e-2"]) == 0
            assert main(argv) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol=1e-3\n")
        assert main(["--config", str(cfg), "solve", "stokes", "--N", "2", "--k", "1"]) == 0
        # without --tol each problem keeps its own default
        assert seen == [
            ("StokesProblem", 1e-2), ("StokesProblem", 1e-12),
            ("QuadCurlProblem", 1e-2), ("QuadCurlProblem", 1e-10),
            ("StokesProblem", 1e-3),
        ]
        capsys.readouterr()

    def test_convergence_csv_deterministic(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main([
                "convergence", "--problem", "quadcurl", "--levels", "1,2",
                "--r", "1", "--k", "1", "--out", str(out),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_convergence_bad_levels(self, capsys):
        assert main(["convergence", "--levels", "0,2", "--r", "1", "--k", "1"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("problem", ["interpolation", "quadcurl"])
    def test_convergence_repeated_level(self, capsys, problem):
        # a repeated level has no rate: refused, with nothing on stdout
        argv = ["convergence", "--problem", problem, "--levels", "1,1", "--r", "1", "--k", "1"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "levels repeat: 1" in err

    def test_solver_flag_rejected(self, capsys):
        # SPD systems have one direct path; there is no solver to choose
        assert main(["solve", "quadcurl", "--N", "1", "--k", "1", "--solver", "cg"]) == 3
        argv = ["convergence", "--levels", "1", "--r", "1", "--k", "1", "--solver", "cg"]
        assert main(argv) == 3
        capsys.readouterr()

    def test_config_file_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N=1\n")
        code = main(["--config", str(cfg), "mesh", "info", "--N", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["N"] == 2  # explicit flag wins over the config file

    def test_explicit_flag_equal_to_default_wins(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol=1e-3\nquad_degree=6\n")
        seen = {}
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.update(vars(args)) or 0)
        argv = ["--config", str(cfg), "solve", "quadcurl", "--N", "1", "--k", "1"]
        assert main(argv + ["--tol", "1e-10"]) == 0
        assert seen["tol"] == 1e-10 and seen["quad_degree"] == 6
        assert main(argv) == 0
        assert seen["tol"] == 1e-3

    def test_unknown_config_keys_are_rejected(self, capsys, tmp_path, monkeypatch):
        # misspelt keys must not fall back to the defaults in silence
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tool=1e-3\nquad_degre=99\n")
        monkeypatch.setattr(cli, "cmd_solve", lambda args: pytest.fail("solved with unknown config keys"))
        assert main(["--config", str(cfg), "solve", "quadcurl", "--N", "1", "--k", "1"]) == 3
        assert "unknown config keys: quad_degre, tool" in capsys.readouterr().err

    def test_config_keys_of_another_subcommand_are_accepted(self, tmp_path, monkeypatch):
        # the defaults map is shared: ``levels`` belongs to convergence, ``out`` to several
        cfg = tmp_path / "run.cfg"
        cfg.write_text("levels=2,4\ntol=1e-3\n")
        seen = {}
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.update(vars(args)) or 0)
        assert main(["--config", str(cfg), "solve", "quadcurl", "--N", "1", "--k", "1"]) == 0
        assert seen["tol"] == 1e-3

    @pytest.mark.parametrize("flag,missing", [("--r", "--k"), ("--k", "--r")])
    def test_verify_needs_both_r_and_k(self, capsys, monkeypatch, flag, missing):
        from tetcomplex import verify

        monkeypatch.setattr(verify, "verify_all", lambda *a, **kw: pytest.fail("verified every configuration"))
        assert main(["verify", "exactness", flag, "2"]) == 3
        assert f"{missing} is missing" in capsys.readouterr().err

    def test_threads_override_inherited_environment(self, capsys, monkeypatch):
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:
            monkeypatch.setenv(name, "7")
        assert main(["--threads", "2", "mesh", "info", "--N", "1"]) == 0
        assert [os.environ[name] for name in names] == ["2", "2", "2"]
        capsys.readouterr()

    @pytest.mark.parametrize("group", ("all", *GROUPS))
    def test_every_group_parses(self, group, capsys, monkeypatch):
        from tetcomplex import verify

        seen = []

        def recorded(groups, configs, levels=None):
            seen.append((groups, configs))
            return VerificationReport([])

        monkeypatch.setattr(verify, "verify_all", recorded)
        assert main(["verify", group, "--r", "1", "--k", "1"]) == 0
        assert seen == [(None if group == "all" else [group], ((1, 1),))]
        capsys.readouterr()

    def test_verify_dims_end_to_end(self, capsys):
        assert main(["verify", "dims"]) == 0
        out = capsys.readouterr().out
        assert "PASS  dims-lowest-order" in out and out.rstrip().endswith("OVERALL PASS")

    def test_unknown_group_raises(self, capsys):
        # an empty report would print OVERALL PASS
        with pytest.raises(ValueError, match="unknown claim groups: nope"):
            verify_all(["dims", "nope"])
        assert main(["verify", "nope"]) == 3
        capsys.readouterr()

    def test_verify_single_group(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "bubbles", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["overall"] == "pass"
        capsys.readouterr()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tetcomplex", "mesh", "info", "--N", "1"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["cells"] == 6

import csv
import hashlib
import json

import pytest

import degenpop.cli as cli
from degenpop.control import ControlError, _Gramian

TINY = {
    "model": {
        "T": 1.0, "A": 2.0, "a_bar": 0.5, "delta": 1.25,
        "k": {"form": "power", "alpha0": 0.5, "alpha1": 0.5},
        "beta": {"form": "window", "height": 3.0, "lo": 0.5, "ramp": 0.25},
        "mu": {"form": "constant", "value": 0.2},
        "omega": [0.3, 0.7],
    },
    "grid": {"Nt": 8, "Na": 16, "Nx": 10},
    "hum": {"epsilon": 1e-4},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def tiny_variant(tmp_path, changes: dict):
    """TINY with each dotted key of ``changes`` set, written to a file."""
    cfg = json.loads(json.dumps(TINY))
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        node = cfg
        for name in parents:
            node = node[name]
        node[key] = value
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParsing:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["transmogrify"])

    def test_config_and_preset_exclusive(self, tiny_config):
        # argparse only flags the conflict when --preset carries a
        # non-default value
        with pytest.raises(SystemExit):
            cli.main(["validate", "--config", str(tiny_config),
                      "--preset", "tirathaba_28C"])

    def test_out_required_for_simulate(self, tiny_config):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--config", str(tiny_config)])

    def test_parser_built_once_gives_what_fresh_ones_give(self, tmp_path,
                                                         capsys):
        # an op that fails parsing (exit 2) after argparse has read a
        # non-default --preset, then a valid op on the default preset: the
        # one parser of the process answers both as two fresh parsers do
        def session(name, fresh):
            argvs = (["simulate", "--preset", "tirathaba_28C", "--seed", "-1",
                      "--out", str(tmp_path / name / "failed")],
                     ["simulate", "--out", str(tmp_path / name / "sim")])
            outcomes = []
            for argv in argvs:
                if fresh:
                    cli._build_parser.cache_clear()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                outcomes.append((code, captured.out, captured.err))
            files = {p.relative_to(tmp_path / name): p.read_bytes()
                     for p in (tmp_path / name).rglob("*") if p.is_file()}
            return outcomes, files

        shared = session("shared", fresh=False)
        assert cli._build_parser() is cli._build_parser()
        fresh = session("fresh", fresh=True)
        assert shared == fresh
        (failed, _, err), (passed, _, _) = shared[0]
        assert failed == 2 and "argument --seed" in err and passed == 0
        assert sorted(map(str, shared[1])) == ["sim/energy.csv",
                                               "sim/final_state.csv"]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["validate", "--config",
                         str(tmp_path / "absent.json")]) == 2

    def test_bad_config(self, tmp_path):
        cfg = json.loads(json.dumps(TINY))
        del cfg["model"]["delta"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["validate", "--config", str(path)]) == 2

    def test_invalid_sweep(self, tiny_config, tmp_path, capsys):
        for sweep in ("1.0,abc", "-2.0", "nan", "1.0,inf"):
            assert cli.main(["carleman-audit", "--config", str(tiny_config),
                             "--out", str(tmp_path / "o"),
                             "--s-sweep", sweep]) == 2
            assert "--s-sweep" in capsys.readouterr().err

    def test_sweep_whose_cube_overflows(self, tiny_config, tmp_path, capsys):
        # 1e103 is finite, but the Carleman left side weighs by s^3
        assert cli.main(["carleman-audit", "--config", str(tiny_config),
                         "--out", str(tmp_path / "o"),
                         "--s-sweep", "1.0,1e103"]) == 2
        err = capsys.readouterr().err
        assert "--s-sweep value 1e+103" in err

    @pytest.mark.parametrize("command", ["hardy-audit", "carleman-audit",
                                         "caccioppoli-audit", "observability"])
    def test_count_must_be_positive(self, tiny_config, tmp_path, capsys,
                                    command):
        for count in ("0", "-1", "two"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--config", str(tiny_config),
                          "--out", str(tmp_path / "o"), "--count", count])
            assert exc.value.code == 2
            assert (f"argument --count: must be a positive integer, "
                    f"got {count!r}") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_epsilon_maps_to_2(self, tiny_config, tmp_path, capsys):
        for eps in ("nan", "inf"):
            assert cli.main(["hum", "--config", str(tiny_config),
                             "--out", str(tmp_path / "o"),
                             "--epsilon", eps]) == 2
            assert "epsilon must be finite" in capsys.readouterr().err

    def test_negative_seed_maps_to_2(self, tiny_config, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--config", str(tiny_config),
                      "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        cfg = json.loads(json.dumps(TINY))
        cfg["seed"] = -3
        path = tmp_path / "negative_seed.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert 'key "seed"' in capsys.readouterr().err

    def test_numerical_failure_maps_to_3(self, tiny_config, tmp_path,
                                         monkeypatch):
        def boom(spec, config):
            raise ControlError("synthetic breakdown")
        monkeypatch.setattr(cli, "hum_control", boom)
        assert cli.main(["hum", "--config", str(tiny_config),
                         "--out", str(tmp_path / "o")]) == 3

    def test_runtime_error_maps_to_3(self, tiny_config, tmp_path, monkeypatch,
                                     capsys):
        def boom(spec):
            raise RuntimeError("tridiagonal solve failed")
        monkeypatch.setattr(cli, "solve_forward", boom)
        assert cli.main(["simulate", "--config", str(tiny_config),
                         "--out", str(tmp_path / "o")]) == 3
        assert "tridiagonal solve failed" in capsys.readouterr().err

    def test_unwritable_out_maps_to_2(self, tiny_config, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["simulate", "--config", str(tiny_config),
                         "--out", str(blocker / "sub")]) == 2

    def test_failing_hypotheses_print_report_and_exit_2(self, tmp_path,
                                                        capsys):
        cfg = json.loads(json.dumps(TINY))
        # fertility active from age 0 violates the support hypothesis
        cfg["model"]["beta"] = {"form": "constant", "value": 3.0}
        path = tmp_path / "fertile_newborns.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "v"
        assert cli.main(["validate", "--config", str(path),
                         "--out", str(out)]) == 2
        printed = capsys.readouterr().out
        assert "[FAIL] fertility support" in printed
        assert "[ok]" in printed
        assert (out / "hypotheses.txt").read_text() == printed

    def test_single_x_cell_maps_to_2(self, tmp_path, capsys):
        # one x cell leaves no interior node to solve for
        path = tiny_variant(tmp_path, {"grid.Nx": 1})
        for command in ("simulate", "adjoint", "hum", "observability", "run"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 2
            assert 'key "grid": need Nt, Na >= 1 and Nx >= 2' \
                in capsys.readouterr().err

    def test_march_overflow_maps_to_3(self, tmp_path, capsys):
        # every input is finite, so an overflowing march is a numerical
        # failure, not a configuration error
        path = tiny_variant(tmp_path, {"model.beta.height": 1e200})
        assert cli.main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        for command, march in (("simulate", "forward"),
                               ("adjoint", "adjoint"), ("hum", "forward"),
                               ("run", "forward")):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 3
            err = capsys.readouterr().err
            assert f"numerical failure: {march} march: overflow" in err
            assert "at time level" in err

    def test_gramian_block_that_does_not_factor_maps_to_3(self, tmp_path,
                                                          capsys):
        # epsilon far below the round-off of the Gramian's cohort blocks
        path = tiny_variant(tmp_path, {"hum.epsilon": 1e-300, "grid.Nx": 24})
        for command in ("hum", "run", "glue"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: Gramian block of the "
                                  "cohort of age ")
            assert "epsilon = 1e-300" in err
            assert "Traceback" not in err

    def test_failed_run_removes_what_it_wrote(self, tmp_path):
        # the control stage fails after the hypotheses, the free solve and
        # the audits have run, before any file is written; a file the run
        # did not write stays
        path = tiny_variant(tmp_path, {"hum.epsilon": 1e-300, "grid.Nx": 24})
        out = tmp_path / "bundle"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_failed_rerun_keeps_the_earlier_bundle(self, tmp_path,
                                                   tiny_config):
        # a rerun that fails in the control stage leaves the first run's
        # bundle as it was, every file its manifest lists with its hash
        out = tmp_path / "bundle"
        assert cli.main(["run", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        path = tiny_variant(tmp_path, {"hum.epsilon": 1e-300, "grid.Nx": 24})
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        listed = json.loads(before["manifest.json"])["artifacts"]
        assert sorted(listed) == sorted(set(before) - {"manifest.json"})
        for name, digest in listed.items():
            assert hashlib.sha256(before[name]).hexdigest() == digest

    @pytest.mark.parametrize("key,value", [("cg_tol", 1e-8),
                                           ("cg_max_iter", 300)])
    def test_cg_keys_map_to_2(self, tmp_path, capsys, key, value):
        path = tiny_variant(tmp_path, {f"hum.{key}": value})
        for command in ("validate", "hum", "run"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 2
            assert f'unknown key "hum.{key}"' in capsys.readouterr().err

    def test_negative_tabulated_k_maps_to_2(self, tmp_path, capsys):
        # the audits read log(k): a negative sample gave nonsense, exit 0
        path = tiny_variant(tmp_path, {"model.k": {
            "form": "table", "x": [0, 0.5, 1], "k": [-1e-9, 0.5, 1]}})
        for command in ("validate", "hardy-audit", "carleman-audit", "run"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 2
            assert 'key "model.k": tabulated k_values must be non-negative' \
                in capsys.readouterr().err

    def test_cg_short_of_the_tolerance_maps_to_3(self, tmp_path, capsys,
                                                 monkeypatch):
        # unpreconditioned, CG needs far more than its step cap on the preset
        monkeypatch.setattr(_Gramian, "preconditioner",
                            lambda self, epsilon: lambda r: r)
        assert cli.main(["hum", "--preset", "default_degenerate",
                         "--out", str(tmp_path / "hum")]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: CG did not converge in 20 steps at "
            "epsilon = 1e-06: relative residual ")

    def test_window_without_grid_nodes_maps_to_2(self, tmp_path, capsys):
        # on Nx = 10 the nodes nearest [0.31, 0.32] are 0.3 and 0.4
        path = tiny_variant(tmp_path, {"model.omega": [0.31, 0.32]})
        for command in ("hum", "run"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 2
            assert 'key "model.omega"' in capsys.readouterr().err

    def test_repeated_audit_maps_to_2(self, tmp_path, capsys):
        path = tiny_variant(tmp_path,
                            {"audits": ["observability", "observability"]})
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 2
        assert 'key "audits[1]"' in capsys.readouterr().err

    def test_hardy_audit_with_nothing_to_audit_maps_to_2(self, tmp_path,
                                                          capsys):
        # k = x: its one degenerate end has theta = 1, where no Hardy case
        # applies; validate and run used to pass it and write no report
        changes = {"model.k": {"form": "power", "alpha0": 1.0}}
        path = tiny_variant(tmp_path, {**changes, "audits": ["hardy"]})
        for command in ("validate", "run", "hardy-audit"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 2
            assert 'key "audits[0]": the hardy audit has nothing to audit' \
                in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        path = tiny_variant(tmp_path, changes)
        assert cli.main(["hardy-audit", "--config", str(path),
                         "--out", str(tmp_path / "unlisted")]) == 2
        assert "hardy audit: nothing to audit" in capsys.readouterr().err

    def test_hardy_audit_with_divergent_left_side_maps_to_2(self, tmp_path,
                                                            capsys):
        # np.gradient gives k' = +-2 at the ends, so theta = 1.8 is
        # certified at both and the audit at x = 1 is HP2, whose left side
        # k/(x - 1)^2 a piecewise-linear table makes infinite; validate
        # used to pass it, and run and hardy-audit exit 2 on it
        path = tiny_variant(tmp_path, {
            "model.k": {"form": "table", "x": [0, 0.5, 1], "k": [0, 0.5, 0]},
            "audits": ["hardy"]})
        for command in ("validate", "run", "hardy-audit"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 2
            assert capsys.readouterr().err == (
                'error: key "audits[0]": the hardy audit cannot run: HP2 '
                'left side diverges at x = 1: a tabulated k is piecewise '
                'linear, so k/(x - 1)^2 is not integrable there\n')
        assert not (tmp_path / "run").exists()

    def test_out_of_memory_maps_to_2(self, tiny_config, tmp_path, capsys,
                                     monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.3 TiB for an array")

        monkeypatch.setattr(cli, "solve_forward", exhausted)
        assert cli.main(["simulate", "--config", str(tiny_config),
                         "--out", str(tmp_path / "o")]) == 2
        assert "error: Unable to allocate" in capsys.readouterr().err

    def test_window_of_one_node_named_by_the_audits(self, tmp_path, capsys):
        # on Nx = 10 only the node 0.4 lies in [0.31, 0.49]
        path = tiny_variant(tmp_path, {"model.omega": [0.31, 0.49],
                                       "audits": ["caccioppoli"]})
        for command in ("validate", "caccioppoli-audit", "run"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert "window omega = [0.31, 0.49]" in err
            assert "needs two x nodes" in err

    def test_refused_window_names_its_audit_key(self, tmp_path, capsys):
        # on Nx = 8 only the node 0.5 lies in omega' = [0.4, 0.6], the
        # middle half of omega; the message names the listed audit's key
        path = tiny_variant(tmp_path, {
            "grid": {"Nt": 4, "Na": 8, "Nx": 8},
            "audits": ["observability", "caccioppoli"]})
        for command in ("validate", "caccioppoli-audit", "run"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 2
            assert capsys.readouterr().err.startswith(
                'error: key "audits[1]": the caccioppoli audit cannot run: '
                "window omega' = [0.4, 0.6] needs two x nodes")

    def test_local_carleman_window_of_one_node(self, tmp_path, capsys):
        # the omega-local Carleman estimate is audited for one-sided k only
        changes = {"model.omega": [0.31, 0.49], "audits": ["carleman"]}
        path = tiny_variant(tmp_path, changes)
        assert cli.main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        path = tiny_variant(tmp_path, {**changes, "model.k.alpha1": 0.0})
        for command in ("validate", "carleman-audit", "run"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert "window omega = [0.31, 0.49]" in err
            assert "needs two x nodes" in err

    def test_non_finite_config_maps_to_2(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["model"]["mu"]["value"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(cfg))  # writes a bare NaN token
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert '"model.mu.value"' in capsys.readouterr().err


class TestCommands:
    def test_validate_prints_report(self, tiny_config, capsys):
        assert cli.main(["validate", "--config", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out

    def test_validate_writes_report(self, tiny_config, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["validate", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        assert (out / "hypotheses.txt").exists()

    def test_simulate(self, tiny_config, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        assert (out / "energy.csv").exists()
        assert (out / "final_state.csv").exists()

    def test_adjoint(self, tiny_config, tmp_path):
        out = tmp_path / "adj"
        assert cli.main(["adjoint", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        assert (out / "adjoint_energy.csv").exists()
        assert (out / "adjoint_initial_state.csv").exists()

    def test_hardy_audit(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "hardy"
        assert cli.main(["hardy-audit", "--config", str(tiny_config),
                         "--out", str(out), "--count", "6"]) == 0
        assert "empirical constant" in capsys.readouterr().out
        assert list(out.glob("hardy*.csv"))

    def test_carleman_audit(self, tiny_config, tmp_path):
        out = tmp_path / "carleman"
        assert cli.main(["carleman-audit", "--config", str(tiny_config),
                         "--out", str(out), "--count", "2",
                         "--s-sweep", "0.05,0.2"]) == 0
        assert list(out.glob("carleman*.csv"))
        assert list(out.glob("carleman*.json"))

    def test_caccioppoli_audit(self, tiny_config, tmp_path):
        out = tmp_path / "cacc"
        assert cli.main(["caccioppoli-audit", "--config", str(tiny_config),
                         "--out", str(out), "--count", "2",
                         "--s-sweep", "1.0"]) == 0
        assert list(out.glob("caccioppoli*.csv"))

    def test_observability(self, tiny_config, tmp_path):
        out = tmp_path / "obs"
        assert cli.main(["observability", "--config", str(tiny_config),
                         "--out", str(out), "--count", "3"]) == 0
        assert (out / "observability.csv").exists()

    def test_hum(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "hum"
        assert cli.main(["hum", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        assert "CG iterations" in capsys.readouterr().out
        assert (out / "control_cg.csv").exists()
        assert (out / "control_summary.json").exists()

    def test_hum_epsilon_override(self, tiny_config, tmp_path):
        out = tmp_path / "hum_eps"
        assert cli.main(["hum", "--config", str(tiny_config),
                         "--out", str(out), "--epsilon", "1e-3"]) == 0
        payload = json.loads((out / "control_summary.json").read_text())
        assert payload["epsilon"] == 1e-3

    def test_glue(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "glue"
        code = cli.main(["glue", "--config", str(tiny_config),
                         "--out", str(out),
                         "--alpha-bar", "0.2", "--beta-bar", "0.8"])
        assert code == 0
        assert "glued control" in capsys.readouterr().out
        assert (out / "glue_summary.json").exists()
        assert (out / "glue_final.csv").exists()

    def test_glue_default_cut_points_follow_omega(self, tmp_path):
        # fixed defaults of 0.15 and 0.85 would fall inside this omega
        path = tiny_variant(tmp_path, {"model.omega": [0.1, 0.8],
                                       "grid.Nx": 20})
        out = tmp_path / "glue"
        assert cli.main(["glue", "--config", str(path),
                         "--out", str(out)]) == 0
        payload = json.loads((out / "glue_summary.json").read_text())
        assert payload["alpha_bar"] == pytest.approx(0.05)
        assert payload["beta_bar"] == pytest.approx(0.9)

    def test_glue_warns_only_for_a_given_cut_point(self, tiny_config,
                                                   tmp_path, recwarn):
        # lo/2 = 0.15 and (1+hi)/2 = 0.85 are not nodes at Nx = 48 or 10
        out = str(tmp_path / "glue")
        assert cli.main(["glue", "--preset", "default_degenerate",
                         "--out", out]) == 0
        assert [w for w in recwarn if w.category is UserWarning] == []
        assert cli.main(["glue", "--config", str(tiny_config), "--out", out,
                         "--alpha-bar", "0.15"]) == 0
        assert [str(w.message) for w in recwarn] == [
            "alpha_bar = 0.15 snapped to the grid node 0.1"]

    def test_snap_warning_prints_the_given_cut_point(self, tiny_config,
                                                     tmp_path, recwarn):
        # rounded by :g, 0.9999999 would read as 1, itself a rejected cut
        assert cli.main(["glue", "--config", str(tiny_config),
                         "--out", str(tmp_path / "glue"),
                         "--beta-bar", "0.9999999"]) == 0
        assert [str(w.message) for w in recwarn] == [
            "beta_bar = 0.9999999 snapped to the grid node 0.9"]

    def test_snap_warning_prints_the_given_a_bar(self, tmp_path, recwarn):
        # rounded by :g, 0.5000001 would read as the multiple of dt 0.5
        path = tiny_variant(tmp_path, {"model.a_bar": 0.5000001})
        assert cli.main(["observability", "--config", str(path),
                         "--out", str(tmp_path / "obs"), "--count", "2"]) == 0
        assert [str(w.message) for w in recwarn] == [
            "a_bar = 0.5000001 is not a multiple of dt; snapping to 0.5"]

    def test_hypothesis_report_prints_the_given_a_bar(self, tmp_path,
                                                      capsys):
        # rounded by :g, 1.0000001 would read as T = 1, an admissible onset
        path = tiny_variant(tmp_path, {"model.a_bar": 1.0000001})
        assert cli.main(["validate", "--config", str(path)]) == 2
        printed = capsys.readouterr().out
        assert "[FAIL] fertility onset: a_bar = 1.0000001 (need 0 < a_bar " \
            "<= T)" in printed
        assert "beta vanishes for a <= a_bar = 1.0000001" in printed

    def test_run_reports_the_duality_gap(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["run", "--preset", "default_degenerate",
                         "--out", str(out)]) == 0
        payload = json.loads((out / "control_summary.json").read_text())
        assert abs(payload["duality_gap"]) \
            <= 1e-12 * max(1.0, payload["j_star"])

    def test_overflowing_switch_bound_is_null(self, tmp_path):
        # exp(A * max(beta)^2 * T / 2) = exp(160000) overflows a float
        path = tiny_variant(tmp_path, {"model.beta.height": 400.0})
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == 0
        payload = json.loads((out / "control_summary.json").read_text())
        assert payload["switch_bound"] is None
        assert payload["switch_norm"] > 0.0
        assert cli.main(["glue", "--config", str(path),
                         "--out", str(tmp_path / "glue"),
                         "--alpha-bar", "0.2", "--beta-bar", "0.8"]) == 0

    def test_r0(self, capsys):
        assert cli.main(["r0", "--preset", "tirathaba_20C"]) == 0
        out = capsys.readouterr().out
        assert "R0 =" in out
        assert "reference value 4.13" in out

    def test_r0_writes_json(self, tiny_config, tmp_path):
        out = tmp_path / "r0"
        assert cli.main(["r0", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        payload = json.loads((out / "r0.json").read_text())
        assert payload["growth"] in ("growing", "decaying", "steady")

    def test_run_pipeline(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        assert "artifacts" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "tiny"
        for name in manifest["artifacts"]:
            assert (out / name).exists()

    def test_every_csv_cell_of_run_is_a_number(self, tmp_path):
        # a side written as "np.float64(5.8e-32)" would not parse; the
        # one cell left empty is the ratio of an excluded 0/0 row
        out = tmp_path / "run"
        assert cli.main(["run", "--preset", "default_degenerate",
                         "--out", str(out)]) == 0
        paths = sorted(out.glob("*.csv"))
        assert {p.name for p in paths} >= {"audit_carleman.csv",
                                           "audit_observability.csv"}
        for path in paths:
            with path.open(newline="") as handle:
                header, *rows = csv.reader(handle)
            assert rows, path.name
            for row in rows:
                cells = dict(zip(header, row, strict=True))
                if cells.get("ratio") == "":
                    assert float(cells.pop("lhs")) == 0.0
                    assert float(cells.pop("rhs")) == 0.0
                    del cells["ratio"]
                for cell in cells.values():
                    float(cell)

    def test_seed_override_changes_data(self, tiny_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["simulate", "--config", str(tiny_config),
                         "--out", str(out_a), "--seed", "1"]) == 0
        assert cli.main(["simulate", "--config", str(tiny_config),
                         "--out", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "final_state.csv").read_bytes() != \
            (out_b / "final_state.csv").read_bytes()


class TestAuditParity:
    """The audit subcommands at their defaults and ``run`` share one
    implementation, so they write the same reports byte for byte."""

    @pytest.mark.parametrize("alpha0,alpha1", [(0.5, 0.5), (0.5, 0.0),
                                               (0.0, 0.5)])
    def test_cli_and_run_write_identical_reports(self, tmp_path, alpha0,
                                                 alpha1):
        cfg = json.loads(json.dumps(TINY))
        cfg["model"]["k"] = {"form": "power", "alpha0": alpha0,
                             "alpha1": alpha1}
        cfg["audits"] = ["hardy", "carleman", "caccioppoli", "observability"]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(cfg))
        commands = ("hardy-audit", "carleman-audit", "caccioppoli-audit",
                    "observability")
        for command in (*commands, "run"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 0

        # (subcommand, CLI stem) -> run stem
        carleman = "carleman_deg1" if alpha0 == 0.0 else "carleman_deg0"
        pairs = {("carleman-audit", carleman): "audit_carleman",
                 ("caccioppoli-audit", "caccioppoli"): "audit_caccioppoli",
                 ("observability", "observability"): "audit_observability"}
        if (alpha0 == 0.0) != (alpha1 == 0.0):
            pairs[("carleman-audit", "carleman_local")] = \
                "audit_carleman_local"
        for stem, alpha in (("hardy_at_one", alpha1),
                            ("hardy_at_zero", alpha0)):
            if alpha:
                pairs[("hardy-audit", stem)] = f"audit_{stem}"
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert {n for n in manifest["artifacts"] if n.startswith("audit_")} \
            == {stem + ext for stem in pairs.values() for ext in (".csv", ".json")}
        assert {(c, p.name) for c in commands for p in (tmp_path / c).iterdir()} \
            == {(c, stem + ext) for c, stem in pairs for ext in (".csv", ".json")}
        for (command, stem), run_stem in pairs.items():
            for ext in (".csv", ".json"):
                assert (tmp_path / command / (stem + ext)).read_bytes() == \
                    (tmp_path / "run" / (run_stem + ext)).read_bytes()

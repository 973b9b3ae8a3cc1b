import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from degenpop import solver
from degenpop.coeffs import VitalRates
from degenpop.scenarios import (AUDIT_NAMES, AUDITS, ConfigError, Scenario,
                                classify_growth, load_scenario,
                                net_reproduction_rate, preset, preset_names,
                                rate_profile, run_scenario,
                                scenario_from_config)

BASE_CONFIG = {
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


def config(**overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        cfg[key] = value
    return cfg


def age_rates(beta_age, mu_age, a_bar=0.5):
    return VitalRates(
        beta=lambda a, x: np.asarray(beta_age(a), dtype=float)
        * np.ones_like(np.asarray(x, dtype=float)),
        mu=lambda t, a, x: np.asarray(mu_age(a), dtype=float)
        * np.ones_like(np.asarray(x, dtype=float)),
        a_bar=a_bar)


class TestNetReproductionRate:
    def test_zero_fertility(self):
        rates = age_rates(lambda a: 0.0 * np.asarray(a),
                          lambda a: 0.3 + 0.0 * np.asarray(a))
        assert net_reproduction_rate(rates, 2.0) == 0.0

    def test_step_fertility_no_mortality_exact(self):
        # beta = b on (a_bar, A) with the half-value convention at the
        # jump node: trapezoid integrates the step exactly, R0 = b(A - a_bar)
        b, a_bar = 3.0, 0.5
        beta_age = lambda a: np.where(
            np.asarray(a) > a_bar, b,
            np.where(np.asarray(a) < a_bar, 0.0, 0.5 * b))
        rates = age_rates(beta_age, lambda a: 0.0 * np.asarray(a))
        assert net_reproduction_rate(rates, 2.0) == pytest.approx(
            b * (2.0 - a_bar), rel=1e-13)

    def test_against_quadrature_oracle(self):
        beta_age = rate_profile({"form": "gaussian-bump", "height": 2.0,
                                 "center": 1.2, "width": 0.3}, "beta")
        mu_age = rate_profile({"form": "table",
                               "points": [[0.0, 0.2], [2.0, 0.4]]}, "mu")
        rates = age_rates(beta_age, mu_age)
        # mu(a) = 0.2 + 0.1 a, so the survival factor is closed-form
        oracle, err = quad(
            lambda a: float(beta_age(a))
            * np.exp(-(0.2 * a + 0.05 * a * a)), 0.0, 2.0)
        assert err < 1e-8
        assert net_reproduction_rate(rates, 2.0) == pytest.approx(
            oracle, rel=1e-5)

    def test_spatial_fertility_rejected(self):
        rates = VitalRates(beta=lambda a, x: 1.0 + np.asarray(x),
                           mu=lambda t, a, x: 0.2 + 0.0 * np.asarray(x),
                           a_bar=0.5)
        with pytest.raises(ValueError, match="varies in space"):
            net_reproduction_rate(rates, 2.0)

    def test_time_varying_mortality_rejected(self):
        rates = VitalRates(beta=lambda a, x: 1.0 + 0.0 * np.asarray(x),
                           mu=lambda t, a, x: 0.2 + 0.1 * t
                           + 0.0 * np.asarray(x),
                           a_bar=0.5)
        with pytest.raises(ValueError, match="varies in space or time"):
            net_reproduction_rate(rates, 2.0)

    @given(st.floats(0.1, 5.0), st.floats(0.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_fertility(self, height, bump):
        base = rate_profile({"form": "window", "height": height,
                             "lo": 0.5, "ramp": 0.25}, "beta")
        mu_age = lambda a: 0.3 + 0.0 * np.asarray(a)
        r_low = net_reproduction_rate(age_rates(base, mu_age), 2.0)
        lifted = lambda a: np.asarray(base(a)) + bump
        r_high = net_reproduction_rate(age_rates(lifted, mu_age), 2.0)
        assert r_high >= r_low


class TestClassifyGrowth:
    @pytest.mark.parametrize("r0,label", [
        (1.2, "growing"), (0.8, "decaying"), (1.0, "steady"),
        (1.0 + 1e-12, "steady"), (1.0 - 1e-12, "steady"),
    ])
    def test_labels(self, r0, label):
        assert classify_growth(r0) == label


class TestRateProfiles:
    def test_constant(self):
        fn = rate_profile({"form": "constant", "value": 0.7})
        np.testing.assert_array_equal(fn(np.array([0.0, 1.0, 2.0])), 0.7)

    def test_window_plateaus(self):
        fn = rate_profile({"form": "window", "height": 4.0, "lo": 0.5,
                           "ramp": 0.25})
        assert np.all(fn(np.linspace(0.0, 0.5, 20)) == 0.0)
        assert np.all(fn(np.linspace(0.75, 2.0, 20)) == 4.0)
        assert 0.0 < fn(0.6) < 4.0

    def test_window_with_upper_edge(self):
        fn = rate_profile({"form": "window", "height": 4.0, "lo": 0.5,
                           "ramp": 0.25, "hi": 1.5})
        assert fn(1.0) == 4.0
        assert fn(1.5) == 0.0
        assert np.all(fn(np.linspace(1.5, 2.0, 10)) == 0.0)

    def test_gaussian_bump(self):
        fn = rate_profile({"form": "gaussian-bump", "height": 2.0,
                           "center": 1.0, "width": 0.3})
        assert fn(1.0) == 2.0
        assert fn(1.3) == pytest.approx(2.0 * np.exp(-1.0))

    def test_table_interpolates(self):
        fn = rate_profile({"form": "table",
                           "points": [[0.0, 0.2], [2.0, 0.4]]})
        assert fn(1.0) == pytest.approx(0.3)

    def test_errors_name_the_key(self):
        with pytest.raises(ConfigError, match='"beta.value"'):
            rate_profile({"form": "constant"}, "beta")
        with pytest.raises(ConfigError, match='"mu.ramp" must be positive'):
            rate_profile({"form": "window", "height": 1.0, "lo": 0.5,
                          "ramp": 0.0}, "mu")
        with pytest.raises(ConfigError, match='"rate.form" must be one of'):
            rate_profile({"form": "triangle"})
        with pytest.raises(ConfigError, match="increasing ages"):
            rate_profile({"form": "table", "points": [[1.0, 0.2],
                                                      [0.5, 0.4]]})
        with pytest.raises(ConfigError, match='must be a mapping'):
            rate_profile("constant")


class TestPresets:
    def test_names(self):
        names = preset_names()
        assert "default_degenerate" in names
        assert len(names) == 4

    @pytest.mark.parametrize("name", preset_names())
    def test_presets_construct_and_validate(self, name):
        scenario = preset(name)
        assert scenario.name == name
        assert scenario.hypothesis_report().passed

    def test_reference_labels(self):
        assert preset("tirathaba_28C").r0_target == pytest.approx(10.40)
        assert preset("tirathaba_20C").r0_target == pytest.approx(4.13)
        assert preset("nilaparvata").r0_target == pytest.approx(10.0)

    def test_insect_presets_grow(self):
        for name in ("tirathaba_28C", "nilaparvata"):
            scenario = preset(name)
            r0 = net_reproduction_rate(scenario.spec.rates,
                                       scenario.spec.grid.A)
            assert classify_growth(r0) == "growing"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("mystery")

    def test_readme_configuration_is_default_degenerate(self):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        block = readme.split("### Configuration", 1)[1] \
            .split("```json", 1)[1].split("```", 1)[0]
        doc = scenario_from_config(json.loads(block))
        ref = preset("default_degenerate")
        grid = ref.spec.grid
        assert doc.spec.grid == grid
        assert doc.spec.omega == ref.spec.omega
        assert doc.spec.k == ref.spec.k
        assert doc.spec.rates.a_bar == ref.spec.rates.a_bar
        assert doc.hum == ref.hum
        assert doc.audits == ref.audits
        assert doc.seed == ref.seed
        for arrays in ((doc.spec.rates.beta_grid(grid),
                        ref.spec.rates.beta_grid(grid)),
                       (doc.spec.rates.mu_grid(0.0, grid),
                        ref.spec.rates.mu_grid(0.0, grid)),
                       (doc.spec.y0.values, ref.spec.y0.values)):
            np.testing.assert_array_equal(*arrays)


class TestScenarioFromConfig:
    def test_valid_config_builds(self):
        scenario = scenario_from_config(config(), name="tiny")
        assert scenario.name == "tiny"
        assert scenario.spec.grid.Nt == 8
        assert scenario.hum.epsilon == 1e-4
        assert scenario.audits == ()

    def test_missing_keys_reported_with_dotted_path(self):
        cfg = config()
        del cfg["model"]["T"]
        with pytest.raises(ConfigError, match='missing key "model.T"'):
            scenario_from_config(cfg)
        cfg = config()
        del cfg["grid"]["Nx"]
        with pytest.raises(ConfigError, match='missing key "grid.Nx"'):
            scenario_from_config(cfg)

    def test_unknown_keys_rejected(self):
        cfg = config(extra={"x": 1})
        with pytest.raises(ConfigError, match='unknown key "extra"'):
            scenario_from_config(cfg)
        cfg = config()
        cfg["model"]["kk"] = 1
        with pytest.raises(ConfigError, match='unknown key "model.kk"'):
            scenario_from_config(cfg)

    @pytest.mark.parametrize("key,value", [("cg_tol", 1e-8),
                                           ("cg_max_iter", 300)])
    def test_cg_keys_rejected(self, key, value):
        # CG's stop rule is fixed in control, not configured
        cfg = config()
        cfg["hum"][key] = value
        with pytest.raises(ConfigError, match=f'unknown key "hum.{key}"'):
            scenario_from_config(cfg)

    def test_negative_tabulated_k_rejected(self):
        cfg = config()
        cfg["model"]["k"] = {"form": "table", "x": [0.0, 0.5, 1.0],
                             "k": [-1e-9, 0.5, 1.0]}
        with pytest.raises(ConfigError, match='key "model.k": tabulated '
                                              'k_values must be non-negative'):
            scenario_from_config(cfg)

    def test_bad_types_rejected(self):
        cfg = config()
        cfg["grid"]["Nt"] = "eight"
        with pytest.raises(ConfigError, match='"grid.Nt" must be an integer'):
            scenario_from_config(cfg)
        cfg = config()
        cfg["model"]["omega"] = [0.3]
        with pytest.raises(ConfigError, match="pair of numbers"):
            scenario_from_config(cfg)

    @pytest.mark.parametrize("key,entry,dotted", [
        ("T", float("inf"), "model.T"),
        ("delta", 10 ** 400, "model.delta"),
        ("mu", {"form": "constant", "value": float("nan")}, "model.mu.value"),
        ("mu", {"form": "table", "points": [[0.0, 0.2], [2.0, float("inf")]]},
         "model.mu.points"),
        ("k", {"form": "table", "x": [0.0, 0.5, 1.0],
               "k": [0.0, float("nan"), 0.0]}, "model.k.k"),
        ("k", {"form": "table", "x": [0.0, 0.5, 1.0], "k": [0.0, 0.25, 0.0],
               "kprime": [float("inf"), 0.0, -1.0]}, "model.k.kprime"),
        ("omega", [0.3, float("nan")], "model.omega"),
        ("grid.Nt", 10 ** 400, "grid.Nt"),
    ])
    def test_non_finite_numbers_rejected(self, key, entry, dotted):
        cfg = config()
        section, _, key = key.rpartition(".")
        cfg[section or "model"][key] = entry
        with pytest.raises(ConfigError, match=f'"{dotted}"'):
            scenario_from_config(cfg)

    def test_grid_mismatch_wrapped(self):
        cfg = config(grid={"Nt": 8, "Na": 15, "Nx": 10})
        with pytest.raises(ConfigError, match='key "grid"'):
            scenario_from_config(cfg)

    def test_bad_coefficient_form(self):
        cfg = config()
        cfg["model"]["k"] = {"form": "spline"}
        with pytest.raises(ConfigError, match='"model.k.form"'):
            scenario_from_config(cfg)

    def test_unknown_audit_name(self):
        cfg = config(audits=["hardy", "spectral"])
        with pytest.raises(ConfigError, match=r"audits\[1\]"):
            scenario_from_config(cfg)

    def test_hypothesis_violation_raises_value_error(self):
        cfg = config()
        # fertility active from age 0 violates the support hypothesis
        cfg["model"]["beta"] = {"form": "constant", "value": 3.0}
        with pytest.raises(ValueError, match="structural hypotheses"):
            scenario_from_config(cfg)

    def test_seed_controls_initial_data(self):
        s0 = scenario_from_config(config())
        s1 = scenario_from_config(config(seed=1))
        s0b = scenario_from_config(config())
        assert not np.array_equal(s0.spec.y0.values, s1.spec.y0.values)
        np.testing.assert_array_equal(s0.spec.y0.values, s0b.spec.y0.values)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match='key "seed" must be a '
                                              'non-negative integer'):
            scenario_from_config(config(seed=-3))


class TestScenarioValidation:
    def test_unknown_audit(self):
        base = scenario_from_config(config())
        with pytest.raises(ValueError, match="unknown audit"):
            Scenario(name="bad", spec=base.spec, hum=base.hum,
                     audits=("fourier",))

    def test_repeated_audit_rejected_in_code(self):
        base = scenario_from_config(config())
        with pytest.raises(ConfigError, match=r'key "audits\[1\]" repeats'):
            Scenario(name="twice", spec=base.spec, hum=base.hum,
                     audits=("observability", "observability"))

    def test_audit_names_constant(self):
        assert AUDIT_NAMES == ("hardy", "carleman", "caccioppoli",
                               "observability")


class TestHardyAudit:
    @pytest.mark.parametrize("alpha0,alpha1", [(0.5, 1.5), (1.5, 0.5)])
    def test_each_end_gets_its_vanishing_family(self, alpha0, alpha1):
        # weak ends (HP1) need w = 0 at the degenerate end, strong ones
        # (HP2) at the other end; the wrong end raises "does not vanish"
        cfg = config()
        cfg["model"]["k"] = {"form": "power", "alpha0": alpha0,
                             "alpha1": alpha1}
        reports = AUDITS["hardy"](scenario_from_config(cfg), count=3,
                                  n_quad=2001)
        case = lambda alpha: "HP1" if alpha < 1.0 else "HP2"
        assert [(stem, r.meta["case"], len(r.ratios()))
                for stem, r in reports] == [
            ("hardy_at_one", case(alpha1), 3),
            ("hardy_at_zero", case(alpha0), 3)]


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(config()))
        scenario = load_scenario(path)
        assert scenario.name == "tiny"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "absent.json")


class TestRunScenario:
    def test_artifacts_and_manifest(self, tmp_path):
        scenario = scenario_from_config(config(), name="tiny")
        manifest = run_scenario(scenario, tmp_path / "out")
        expected = {"hypotheses.txt", "energy.csv", "final_state.csv",
                    "control_cg.csv", "control_summary.json", "summary.json"}
        assert set(manifest["artifacts"]) == expected
        for name in expected:
            assert (tmp_path / "out" / name).exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["scenario"] == "tiny"
        assert summary["final_residual"] <= summary["certificate"]
        assert summary["growth"] in ("growing", "decaying", "steady")

    def test_reruns_byte_identical(self, tmp_path):
        first = run_scenario(scenario_from_config(config(), name="tiny"),
                             tmp_path / "a")
        second = run_scenario(scenario_from_config(config(), name="tiny"),
                              tmp_path / "b")
        assert first["artifacts"] == second["artifacts"]
        for name in first["artifacts"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("name", preset_names())
    def test_rerun_on_a_warm_scenario(self, name, tmp_path):
        # the second run finds the problem's one-step map already built
        scenario = preset(name)
        first = run_scenario(scenario, tmp_path / "first")
        prop = scenario.spec._propagator
        second = run_scenario(scenario, tmp_path / "second")
        assert scenario.spec._propagator is prop
        fresh = run_scenario(preset(name), tmp_path / "fresh")
        assert first == fresh
        assert second == fresh

    def test_run_builds_two_propagators(self, tmp_path, monkeypatch):
        # the problem, whose own march is the free phase; the control
        # window of the delayed control views its levels
        builds = []
        build = solver._Propagator.__init__

        def counting(prop, spec):
            builds.append(spec)
            build(prop, spec)

        monkeypatch.setattr(solver._Propagator, "__init__", counting)
        scenario = preset("tirathaba_28C")
        run_scenario(scenario, tmp_path / "out")
        assert len(builds) == 1 and builds[0] is scenario.spec

    def test_audits_write_reports(self, tmp_path):
        cfg = config(audits=["caccioppoli"])
        scenario = scenario_from_config(cfg, name="tiny")
        manifest = run_scenario(scenario, tmp_path / "out")
        names = set(manifest["artifacts"])
        assert any("caccioppoli" in n for n in names)

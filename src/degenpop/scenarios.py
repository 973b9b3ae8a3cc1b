"""Scenario presets, net reproduction rate, config files, report bundles.

This is the model layer behind the command line: named demographic
presets, JSON configuration ingestion with dotted-path diagnostics, and a
deterministic report pipeline (validate, solve, audits, control) whose
output directory carries a manifest of content hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coeffs import (DEFAULT_S_SWEEP, PowerLaw, Tabulated, VitalRates,
                     build_carleman_weights, classify_degeneracy,
                     validate_hypotheses)
from .control import HUMConfig, compose_delay_control
from .discretize import (Field2, Grid, random_final_data, write_field_csv,
                         write_json)
from .inequalities import (_k_rule, caccioppoli_audit, carleman_audit_deg0,
                           carleman_audit_deg1, carleman_local_audit,
                           hardy_ratio, hardy_ratio_at_zero,
                           manufactured_family, observability_ratio,
                           random_hardy_test_functions, window_nodes)
from .solver import ProblemSpec, control_norm, lattice_norm, solve_forward

__all__ = [
    "Scenario",
    "ConfigError",
    "net_reproduction_rate",
    "classify_growth",
    "rate_profile",
    "preset",
    "preset_names",
    "load_scenario",
    "scenario_from_config",
    "run_scenario",
    "AUDITS",
    "AUDIT_NAMES",
]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


class _HypothesisError(ValueError):
    """A scenario breaks a structural hypothesis; carries the full report."""

    def __init__(self, report):
        lines = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        super().__init__(f"scenario violates structural hypotheses ({lines})")
        self.report = report


# ---------------------------------------------------------------------------
# net reproduction rate


def _probe_age_only(rates: VitalRates, A: float):
    """Return (beta(a), mu(a)) callables or raise if the rates vary."""
    a_probe = np.linspace(0.0, A, 17)[:, None]
    x_probe = np.array([0.19, 0.5, 0.83])[None, :]

    vals = np.broadcast_to(
        np.asarray(rates.beta(a_probe, x_probe), dtype=float), (17, 3))
    spread = float(np.max(np.ptp(vals, axis=1)))
    if spread > 1e-10 * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError(
            "beta varies in space; no single net reproduction rate")

    stack = [np.broadcast_to(
        np.asarray(rates.mu(t, a_probe, x_probe), dtype=float), (17, 3))
        for t in (0.0, 0.37 * A, A)]
    vals = np.stack(stack)
    spread = max(float(np.max(np.ptp(vals, axis=2))),
                 float(np.max(np.ptp(vals, axis=0))))
    if spread > 1e-10 * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError(
            "mu varies in space or time; no single net reproduction rate")

    return (lambda a: np.asarray(rates.beta(a, 0.5), dtype=float),
            lambda a: np.asarray(rates.mu(0.0, a, 0.5), dtype=float))


def net_reproduction_rate(rates: VitalRates, A: float) -> float:
    """R0 = int_0^A beta(a) exp(-int_0^a mu) da by composite trapezoid on
    4096 cells.

    Defined only for age-structured rates: spatially varying beta or
    time/space varying mu raise ValueError.  The age profiles are probed
    from the rates the solver marches, at x = 0.5 and t = 0.
    """
    beta_age, mu_age = _probe_age_only(rates, A)
    nodes = np.linspace(0.0, A, 4097)
    h = A / 4096
    b = np.broadcast_to(np.asarray(beta_age(nodes), dtype=float), nodes.shape)
    m = np.broadcast_to(np.asarray(mu_age(nodes), dtype=float), nodes.shape)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (m[1:] + m[:-1]))])
    integrand = b * np.exp(-cum)
    return float(np.sum(0.5 * h * (integrand[1:] + integrand[:-1])))


def classify_growth(r0: float) -> str:
    """Asymptotic label for a net reproduction rate: growing above one,
    decaying below, steady within 1e-9 of one."""
    if r0 > 1.0 + 1e-9:
        return "growing"
    if r0 < 1.0 - 1e-9:
        return "decaying"
    return "steady"


# ---------------------------------------------------------------------------
# builtin rate families


def _smooth01(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def rate_profile(entry: dict, path: str = "rate"):
    """Build an age profile callable from a named-family description.

    Families: constant {value}, window {height, lo, ramp, hi optional}
    (smoothstep rise at lo, optional smoothstep fall ending at hi),
    gaussian-bump {height, center, width}, table {points: [[a, value],...]}
    linearly interpolated.  Errors name the missing key with ``path`` as
    prefix.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f'key "{path}" must be a mapping with a "form"')
    form = _want(entry, "form", path, str)

    if form == "constant":
        value = _want(entry, "value", path, (int, float))
        return lambda a: value + 0.0 * np.asarray(a, dtype=float)

    if form == "window":
        height = _want(entry, "height", path, (int, float))
        lo = _want(entry, "lo", path, (int, float))
        ramp = _want(entry, "ramp", path, (int, float))
        hi = _want(entry, "hi", path, (int, float), required=False)
        if ramp <= 0.0:
            raise ConfigError(f'key "{path}.ramp" must be positive')

        def window(a):
            a = np.asarray(a, dtype=float)
            rise = _smooth01((a - lo) / ramp)
            if hi is None:
                return height * rise
            return height * rise * (1.0 - _smooth01((a - (hi - ramp)) / ramp))

        return window

    if form == "gaussian-bump":
        height = _want(entry, "height", path, (int, float))
        center = _want(entry, "center", path, (int, float))
        width = _want(entry, "width", path, (int, float))
        if width <= 0.0:
            raise ConfigError(f'key "{path}.width" must be positive')
        return lambda a: height * np.exp(
            -((np.asarray(a, dtype=float) - center) / width) ** 2)

    if form == "table":
        arr = _want_array(entry, "points", path)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2 \
                or np.any(np.diff(arr[:, 0]) <= 0):
            raise ConfigError(
                f'key "{path}.points" needs >= 2 rows with increasing ages')
        return lambda a: np.interp(np.asarray(a, dtype=float),
                                   arr[:, 0], arr[:, 1])

    raise ConfigError(
        f'key "{path}.form" must be one of constant, window, '
        f'gaussian-bump, table; got {form!r}')


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class Scenario:
    """A fully specified experiment: problem, control settings, audits.

    Construction validates every structural hypothesis (horizons,
    degeneracy class, rate signs, window geometry), the audit list (known
    names, each once), the x windows of the listed audits (two nodes
    each) and, for a listed Hardy audit, an end to audit and an
    integrable left side at each HP2 end, and refuses invalid setups, so
    any Scenario in hand is runnable.  ``r0_target`` is an optional
    literature reference value attached as a label.
    """

    name: str
    spec: ProblemSpec
    hum: HUMConfig
    audits: tuple = ()
    r0_target: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        self.audits = tuple(self.audits)
        for i, name in enumerate(self.audits):
            if name not in AUDIT_NAMES:
                raise ConfigError(f'key "audits[{i}]" names an unknown audit '
                                  f'{name!r}; expected one of {AUDIT_NAMES}')
            if name in self.audits[:i]:
                raise ConfigError(f'key "audits[{i}]" repeats {name!r}')
        report = self.hypothesis_report()
        if not report.passed:
            raise _HypothesisError(report)
        # a listed audit's x windows need two nodes for their trapezoid
        # rules, and a listed Hardy audit needs an end it can audit
        for i, audit in enumerate(self.audits):
            windows = _AUDIT_WINDOWS.get(audit, lambda spec: {})(self.spec)
            for name, window in windows.items():
                try:
                    window_nodes(self.spec.grid.x_nodes, window, name)
                except ValueError as exc:
                    raise ConfigError(f'key "audits[{i}]": the {audit} audit '
                                      f'cannot run: {exc}') from None
            if audit != "hardy":
                continue
            ends = _hardy_ends(self.spec.k)
            if not ends:
                raise ConfigError(f'key "audits[{i}]": the hardy audit has '
                                  f'nothing to audit: no degenerate end of '
                                  f'k has theta != 1')
            for *_, end, theta in ends:
                if theta > 1.0:  # HP2: the left side's rule must exist
                    try:
                        _k_rule(self.spec.k, 1, end)
                    except ValueError as exc:
                        raise ConfigError(f'key "audits[{i}]": the hardy '
                                          f'audit cannot run: {exc}') from None

    def hypothesis_report(self):
        grid = self.spec.grid
        return validate_hypotheses(self.spec.k, self.spec.rates, grid.T,
                                   grid.A, self.spec.omega, self.hum.delta)


_HALF = {"form": "constant", "value": 0.5}
# name -> (fertility window height, mortality, top-level keys of its own)
_PRESETS = {
    "default_degenerate": (4.0, {"form": "table",
                                 "points": [[0.0, 0.2], [2.0, 0.4]]},
                           {"audits": ["carleman", "observability"]}),
    "tirathaba_28C": (12.0, _HALF, {"r0_target": 10.40}),
    "tirathaba_20C": (5.0, _HALF, {"r0_target": 4.13}),
    "nilaparvata": (12.0, _HALF, {"r0_target": 10.0}),
}


def _preset_config(name: str) -> dict:
    """The configuration mapping a JSON file would hold for a named
    built-in scenario (a fresh copy)."""
    if name not in _PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {preset_names()}")
    height, mu, extra = _PRESETS[name]
    return json.loads(json.dumps({
        "model": {"T": 1.0, "A": 2.0, "a_bar": 0.5, "delta": 1.25,
                  "k": {"form": "power", "alpha0": 0.5, "alpha1": 0.5},
                  "beta": {"form": "window", "height": height, "lo": 0.5,
                           "ramp": 0.25},
                  "mu": mu, "omega": [0.3, 0.7]},
        "grid": {"Nt": 24, "Na": 48, "Nx": 48},
        "seed": 0, **extra}))


def preset(name: str) -> Scenario:
    """Named built-in scenarios, built from their configuration mappings
    by :func:`scenario_from_config`, so they pass the checks a file does.

    default_degenerate is the reference setup used throughout the test
    suite (two-sided square-root coefficient, fertility onset at T/2).
    The insect presets carry published net-reproduction-rate figures as
    reference labels; their rate shapes are illustrative, not fitted.
    """
    return scenario_from_config(_preset_config(name), name=name)


def preset_names() -> tuple:
    return tuple(_PRESETS)


# ---------------------------------------------------------------------------
# configuration files


_KIND_NAMES = {str: "a string", list: "a list", dict: "a mapping",
               int: "an integer"}


def _want(mapping: dict, key: str, path: str, kind, *,
          required: bool = True, default=None):
    dotted = f"{path}.{key}" if path else key
    if key not in mapping:
        if required:
            raise ConfigError(f'missing key "{dotted}"')
        return default
    value = mapping[key]
    if kind == (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f'key "{dotted}" must be a number')
    elif not isinstance(value, kind) \
            or (kind is int and isinstance(value, bool)):
        raise ConfigError(f'key "{dotted}" must be {_KIND_NAMES[kind]}')
    if kind in (int, (int, float)) and not _is_finite(value):
        raise ConfigError(f'key "{dotted}" must be a finite number')
    return value


def _is_finite(value) -> bool:
    """False for NaN, infinities and integers beyond the float range, all
    of which json accepts."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _want_array(mapping: dict, key: str, path: str, *,
                required: bool = True) -> np.ndarray | None:
    """A list (or table of rows) of finite numbers as a float array."""
    raw = _want(mapping, key, path, list, required=required)
    if raw is None:
        return None
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise ConfigError(f'key "{path}.{key}" must hold finite numbers only')
    return arr


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(f'unknown key "{dotted}"')


def _coefficient_from(entry: dict, path: str):
    form = _want(entry, "form", path, str)
    if form == "power":
        _reject_unknown(entry, {"form", "alpha0", "alpha1"}, path)
        alpha0 = _want(entry, "alpha0", path, (int, float))
        alpha1 = _want(entry, "alpha1", path, (int, float),
                       required=False, default=0.0)
        try:
            return PowerLaw(float(alpha0), float(alpha1))
        except ValueError as exc:
            raise ConfigError(f'key "{path}": {exc}') from None
    if form == "table":
        _reject_unknown(entry, {"form", "x", "k", "kprime"}, path)
        xs = _want_array(entry, "x", path)
        kv = _want_array(entry, "k", path)
        kp = _want_array(entry, "kprime", path, required=False)
        try:
            if kp is None:
                kp = np.gradient(kv, xs, edge_order=2)
            return Tabulated(xs, kv, kp)
        except ValueError as exc:
            raise ConfigError(f'key "{path}": {exc}') from None
    raise ConfigError(f'key "{path}.form" must be "power" or "table", '
                      f'got {form!r}')


def scenario_from_config(cfg: dict, *, name: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed configuration mapping.

    Structural problems raise ConfigError naming the offending key by its
    dotted path; semantic problems (hypothesis violations) raise
    ValueError from the Scenario constructor.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("configuration root must be a mapping")
    _reject_unknown(cfg, {"model", "grid", "hum", "audits", "seed",
                          "name", "r0_target"}, "")
    model = _want(cfg, "model", "", dict)
    grid_c = _want(cfg, "grid", "", dict)
    hum_c = _want(cfg, "hum", "", dict, required=False, default={})
    audits = _want(cfg, "audits", "", list, required=False, default=[])
    seed = _want(cfg, "seed", "", int, required=False, default=0)
    if seed < 0:
        raise ConfigError('key "seed" must be a non-negative integer')
    name = _want(cfg, "name", "", str, required=False, default=name)
    r0_target = _want(cfg, "r0_target", "", (int, float), required=False)

    _reject_unknown(model, {"T", "A", "a_bar", "delta", "k", "mu", "beta",
                            "omega"}, "model")
    T = float(_want(model, "T", "model", (int, float)))
    A = float(_want(model, "A", "model", (int, float)))
    a_bar = float(_want(model, "a_bar", "model", (int, float)))
    delta = float(_want(model, "delta", "model", (int, float)))
    omega_raw = _want(model, "omega", "model", list)
    if len(omega_raw) != 2 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and _is_finite(v) for v in omega_raw):
        raise ConfigError('key "model.omega" must be a pair of numbers')
    omega = (float(omega_raw[0]), float(omega_raw[1]))

    coefficient = _coefficient_from(_want(model, "k", "model", dict), "model.k")
    beta_age = rate_profile(_want(model, "beta", "model", dict), "model.beta")
    mu_age = rate_profile(_want(model, "mu", "model", dict), "model.mu")
    rates = VitalRates(  # age profiles, constant in x (and t)
        beta=lambda a, x: (np.asarray(beta_age(a), dtype=float)
                           * np.ones_like(np.asarray(x, dtype=float))),
        mu=lambda t, a, x: (np.asarray(mu_age(a), dtype=float)
                            * np.ones_like(np.asarray(x, dtype=float))),
        a_bar=a_bar)

    _reject_unknown(grid_c, {"Nt", "Na", "Nx"}, "grid")
    Nt = _want(grid_c, "Nt", "grid", int)
    Na = _want(grid_c, "Na", "grid", int)
    Nx = _want(grid_c, "Nx", "grid", int)
    try:
        grid = Grid(T=T, A=A, Nt=Nt, Na=Na, Nx=Nx)
    except ValueError as exc:
        raise ConfigError(f'key "grid": {exc}') from None

    _reject_unknown(hum_c, {"epsilon"}, "hum")
    try:
        # HUMConfig's default fills an epsilon the configuration leaves out
        hum = HUMConfig(delta=delta, **{
            key: _want(hum_c, key, "hum", (int, float)) for key in hum_c})
    except ValueError as exc:
        raise ConfigError(f'key "hum": {exc}') from None

    try:
        spec = ProblemSpec(k=coefficient, rates=rates, grid=grid, omega=omega,
                           y0=random_final_data(grid, seed=seed, stream=0))
    except ValueError as exc:
        raise ConfigError(f'key "model.omega": {exc}') from None
    return Scenario(name=name, spec=spec, hum=hum, audits=tuple(audits),
                    r0_target=None if r0_target is None else float(r0_target),
                    seed=seed)


def load_scenario(path) -> Scenario:
    """Parse a JSON configuration file into a validated Scenario."""
    path = Path(path)
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path.name} is not valid JSON: {exc}") from None
    return scenario_from_config(cfg, name=path.stem)


# ---------------------------------------------------------------------------
# report pipeline


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hardy_ends(k) -> list:
    """(stem, ratio function, end, theta) of each end the Hardy audit
    covers: each degenerate end with exponent theta != 1."""
    ends = classify_degeneracy(k).ends
    return [(stem, ratio, end, float(ends[end].theta))
            for stem, ratio, end in (
                ("hardy_at_one", hardy_ratio, 1.0),
                ("hardy_at_zero", hardy_ratio_at_zero, 0.0))
            if end in ends and abs(ends[end].theta - 1.0) > 1e-9]


def _hardy_audit(scenario: Scenario, *, count: int = 100) -> list:
    """Hardy ratios at each degenerate endpoint with exponent theta != 1."""
    k, seed = scenario.spec.k, scenario.seed
    reports = []
    for stem, ratio, end, theta in _hardy_ends(k):
        case = "HP1" if theta < 1.0 else "HP2"
        # HP1 test functions vanish at the degenerate end, HP2 ones at the
        # other end
        vanish_at = end if case == "HP1" else 1.0 - end
        fns = random_hardy_test_functions(vanish_at, count, seed)
        reports.append((stem, ratio(k, theta, case, fns)))
    return reports


def _carleman_audit(scenario: Scenario, *, count: int = 3,
                    s_sweep: tuple[float, ...] = DEFAULT_S_SWEEP) -> list:
    """Carleman estimate for k singular at ``weights.end`` (x = 1 when only
    that end degenerates, x = 0 otherwise), observed at the other end, plus
    the omega-local estimate when exactly one end degenerates."""
    spec = scenario.spec
    samples = manufactured_family(spec, count, scenario.seed)
    weights = build_carleman_weights(spec.grid, spec.k, s_sweep=s_sweep)
    if weights.end:
        reports = [("carleman_deg1", carleman_audit_deg1(samples, weights))]
    else:
        reports = [("carleman_deg0", carleman_audit_deg0(samples, weights))]
    local = _AUDIT_WINDOWS["carleman"](spec)
    if local:
        reports.append(("carleman_local", carleman_local_audit(
            samples, local["omega"], weights)))
    return reports


def _caccioppoli_audit(scenario: Scenario, *, count: int = 3,
                       s: float = DEFAULT_S_SWEEP[0]) -> list:
    """Interior gradient bound on the middle half of omega."""
    spec = scenario.spec
    samples = manufactured_family(spec, count, scenario.seed)
    windows = _AUDIT_WINDOWS["caccioppoli"](spec)
    return [("caccioppoli", caccioppoli_audit(
        samples, windows["omega'"], windows["omega"], s=s))]


def _observability_audit(scenario: Scenario, *, count: int = 20) -> list:
    """Observability ratios over ``count`` random final data."""
    grid = scenario.spec.grid
    ensemble = [random_final_data(grid, seed=scenario.seed, stream=i + 1)
                for i in range(count)]
    return [("observability", observability_ratio(
        scenario.spec, ensemble, scenario.hum.delta))]


# name -> fn(scenario, **params) -> [(stem, InequalityReport)], shared by
# the CLI's audit subcommands and run_scenario; each runner's keyword
# defaults are the audit's one set of default sizes
AUDITS = {
    "hardy": _hardy_audit,
    "carleman": _carleman_audit,
    "caccioppoli": _caccioppoli_audit,
    "observability": _observability_audit,
}
AUDIT_NAMES = tuple(AUDITS)


def _middle_half(window: tuple[float, float]) -> tuple[float, float]:
    lo, hi = window
    shrink = 0.25 * (hi - lo)
    return (lo + shrink, hi - shrink)


def _one_sided(k) -> bool:
    return len(classify_degeneracy(k).ends) == 1


# audit -> fn(spec) -> {name: x window} it integrates over, each of which
# needs two x nodes: Scenario checks them and the runners take them from here
_AUDIT_WINDOWS = {
    # omega and omega', its middle half
    "caccioppoli": lambda spec: {"omega": spec.omega,
                                 "omega'": _middle_half(spec.omega)},
    # the omega-local Carleman estimate, audited when exactly one end of
    # k degenerates
    "carleman": lambda spec: ({"omega": spec.omega} if _one_sided(spec.k)
                              else {}),
}


def run_scenario(scenario: Scenario, out_dir) -> dict:
    """Run the full pipeline and write a hashed artifact bundle.

    Stages in order: hypothesis validation, free forward solve, requested
    audits, delay-composed control.  Every stage runs before any file is
    written, so a run that raises writes nothing.  Then an earlier
    manifest.json is removed, the artifacts are written, and the manifest,
    which lists every other artifact with its sha256, is written last.
    Reruns of the same scenario and seed produce byte-identical artifacts.
    """
    spec, grid = scenario.spec, scenario.spec.grid
    hypotheses = scenario.hypothesis_report()
    free = solve_forward(spec)
    audits = [(stem, report) for audit in scenario.audits
              for stem, report in AUDITS[audit](scenario)]
    control = compose_delay_control(spec, scenario.hum)
    try:
        r0 = net_reproduction_rate(spec.rates, grid.A)
        growth = classify_growth(r0)
    except ValueError:
        r0, growth = None, None
    summary = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "r0": r0,
        "r0_target": scenario.r0_target,
        "growth": growth,
        "initial_norm": lattice_norm(spec.y0.values, grid),
        "final_norm": lattice_norm(free.final_level(), grid),
        "control_norm": control_norm(control.f),
        "final_residual": control.final_residual,
        "certificate": control.certificate,
    }

    # artifact name -> its writer, called with the artifact's path
    writers = {
        "hypotheses.txt": lambda path: path.write_text(
            "\n".join(hypotheses.lines()) + "\n"),
        "energy.csv": free.write_energy_csv,
        "final_state.csv": lambda path: write_field_csv(
            Field2(grid, free.final_level()), path),
    }
    for stem, report in audits:
        # one artifact name per audit, whichever end Carleman observes
        stem = "audit_carleman" if stem.startswith("carleman_deg") \
            else f"audit_{stem}"
        writers[f"{stem}.csv"] = report.write_csv
        writers[f"{stem}.json"] = report.write_summary
    writers["control_cg.csv"] = control.write_cg_csv
    writers["control_summary.json"] = control.write_summary
    writers["summary.json"] = lambda path: write_json(path, summary)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for name, write in writers.items():
        write(out / name)
    manifest = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "artifacts": {name: _sha256(out / name) for name in sorted(writers)},
    }
    write_json(out / "manifest.json", manifest)
    return manifest

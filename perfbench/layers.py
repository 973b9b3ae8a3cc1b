"""Per-layer metrics derived from the spans of one traced round.

The layers are degenpop's modules. Each metric below is computed per
round (one pass over the workload's op sequence); ``run.py`` averages the
raw sums over the traced rounds before deriving the ratios.
"""

from __future__ import annotations

from spans import END, INFO, NAME, PARENT, START, argument, self_times

LAYERS = ("cli", "scenarios", "control", "solver", "inequalities", "coeffs",
          "discretize")

FORWARD, ADJOINT = "solver.solve_forward", "solver.solve_adjoint"
HUM = frozenset({"control.hum_control", "control.compose_delay_control"})
HARDY = frozenset({"inequalities.hardy_ratio",
                   "inequalities.hardy_ratio_at_zero"})

# metric -> span names whose inclusive time it sums (outermost spans only)
INCLUSIVE = {
    "inequalities.hardy.s": HARDY,
    "inequalities.carleman.s": frozenset({
        "inequalities.carleman_audit_deg0", "inequalities.carleman_audit_deg1",
        "inequalities.carleman_audit_nondeg",
        "inequalities.carleman_local_audit"}),
    "inequalities.caccioppoli.s": frozenset({"inequalities.caccioppoli_audit"}),
    "inequalities.manufactured.s": frozenset({
        "inequalities.manufactured_family", "inequalities.manufactured_adjoint",
        "inequalities.random_adjoint_profiles"}),
    "discretize.weighted_norm.s": frozenset({"discretize.weighted_norm"}),
    "discretize.write_csv.s": frozenset({"discretize.write_field_csv"}),
    "coeffs.classify.s": frozenset({"coeffs.classify_degeneracy"}),
    "coeffs.carleman_weights.s": frozenset({"coeffs.build_carleman_weights"}),
    "coeffs.validate.s": frozenset({"coeffs.validate_hypotheses"}),
    "coeffs.mu_grid.s": frozenset({"coeffs.VitalRates.mu_grid"}),
    "scenarios.load_s": frozenset({"scenarios.preset", "scenarios.load_scenario",
                                   "scenarios.scenario_from_config"}),
}
# metric -> span names whose self time it sums
SELF = {
    "solver.forward.self_s": frozenset({FORWARD}),
    "solver.adjoint.self_s": frozenset({ADJOINT}),
    "control.hum.self_s": HUM,
    "inequalities.observability.self_s": frozenset(
        {"inequalities.observability_ratio"}),
    "scenarios.run.self_s": frozenset({"scenarios.run_scenario"}),
}
# metric -> span names it counts
CALLS = {
    "solver.forward.calls": frozenset({FORWARD}),
    "solver.adjoint.calls": frozenset({ADJOINT}),
    "control.hum.calls": HUM,
    "discretize.weighted_norm.calls": frozenset({"discretize.weighted_norm"}),
    "coeffs.classify.calls": frozenset({"coeffs.classify_degeneracy"}),
    "coeffs.mu_grid.calls": frozenset({"coeffs.VitalRates.mu_grid"}),
}


def _march(fn, args, kwargs, result):
    grid = argument(fn, args, kwargs, "spec").grid
    return {"levels": grid.Nt, "unknowns": grid.Na * (grid.Nx - 1) * grid.Nt}


def _hardy(fn, args, kwargs, result):
    return {"quad_points": argument(fn, args, kwargs, "n_quad")
            * len(argument(fn, args, kwargs, "test_functions"))}


ANNOTATORS = {
    FORWARD: _march,
    ADJOINT: _march,
    "inequalities.hardy_ratio": _hardy,
    "inequalities.hardy_ratio_at_zero": _hardy,
    "inequalities.observability_ratio": lambda fn, args, kwargs, result: {
        "members": len(argument(fn, args, kwargs, "ensemble"))},
    **{name: lambda fn, args, kwargs, result: {
        "cg": result.cg_iterations} for name in HUM},
}

# name -> unit of every per-layer metric, in the order they are reported
UNITS = {
    "solver.forward.calls": "count", "solver.forward.self_s": "s",
    "solver.adjoint.calls": "count", "solver.adjoint.self_s": "s",
    "solver.level_solves": "count", "solver.us_per_level": "us",
    "solver.unknowns_per_s": "1/s",
    "control.cg_iterations": "count", "control.hum.calls": "count",
    "control.hum.self_s": "s", "control.marches_per_cg_iteration": "ratio",
    "control.final_residual_rel": "ratio",
    "inequalities.hardy.s": "s", "inequalities.hardy.quad_points": "count",
    "inequalities.carleman.s": "s", "inequalities.caccioppoli.s": "s",
    "inequalities.manufactured.s": "s",
    "inequalities.observability.self_s": "s",
    "inequalities.observability.members": "count",
    "discretize.weighted_norm.calls": "count",
    "discretize.weighted_norm.s": "s", "discretize.write_csv.s": "s",
    "coeffs.classify.calls": "count", "coeffs.classify.s": "s",
    "coeffs.carleman_weights.s": "s", "coeffs.validate.s": "s",
    "coeffs.mu_grid.calls": "count", "coeffs.mu_grid.s": "s",
    "scenarios.load_s": "s", "scenarios.run.self_s": "s",
    "scenarios.artifact_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


def _has_ancestor(spans, index: int, names) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def raw_sums(spans) -> dict:
    """Counts and times summed over ``spans``; ratios are derived later."""
    raw = dict.fromkeys(
        [*INCLUSIVE, *SELF, *CALLS, *(f"{layer}.self_s" for layer in LAYERS),
         "solver.level_solves", "solver.unknowns", "control.cg_iterations",
         "control.hum_marches", "inequalities.hardy.quad_points",
         "inequalities.observability.members"], 0.0)
    selfs = self_times(spans)
    for index, (span, own) in enumerate(zip(spans, selfs)):
        name, info = span[NAME], span[INFO] or {}
        layer_key = f"{name.split('.', 1)[0]}.self_s"
        if layer_key in raw:
            raw[layer_key] += own
        for metric, names in SELF.items():
            if name in names:
                raw[metric] += own
        for metric, names in CALLS.items():
            if name in names:
                raw[metric] += 1
        for metric, names in INCLUSIVE.items():
            if name in names and not _has_ancestor(spans, index, names):
                raw[metric] += span[END] - span[START]
        if name in (FORWARD, ADJOINT):
            raw["solver.level_solves"] += info.get("levels", 0)
            raw["solver.unknowns"] += info.get("unknowns", 0)
            if _has_ancestor(spans, index, HUM):
                raw["control.hum_marches"] += 1
        raw["control.cg_iterations"] += info.get("cg", 0)
        raw["inequalities.hardy.quad_points"] += info.get("quad_points", 0)
        raw["inequalities.observability.members"] += info.get("members", 0)
    return raw


def derive(raw: dict) -> dict:
    """Per-layer metrics from (averaged) raw sums; an undefined ratio is 0."""
    march_s = raw["solver.forward.self_s"] + raw["solver.adjoint.self_s"]
    levels, cg = raw["solver.level_solves"], raw["control.cg_iterations"]
    metrics = {name: raw[name] for name in UNITS if name in raw}
    metrics["solver.us_per_level"] = 1e6 * march_s / levels if levels else 0.0
    metrics["solver.unknowns_per_s"] = \
        raw["solver.unknowns"] / march_s if march_s else 0.0
    metrics["control.marches_per_cg_iteration"] = \
        raw["control.hum_marches"] / cg if cg else 0.0
    return {name: metrics[name] for name in UNITS if name in metrics}


def _descends(spans, index: int, ancestor: int) -> bool:
    parent = spans[index][PARENT]
    while parent > ancestor:
        parent = spans[parent][PARENT]
    return parent == ancestor


def march_identity(spans, start: int = 0, stop: int | None = None) -> list:
    """Problems with the HUM call-count identities over ``spans[start:stop]``.

    Inside each HUM span the trace must see one adjoint and one forward
    march per CG iteration, a free forward march, and a final adjoint and
    forward march; compose_delay_control adds the free march up to the
    switching time.
    """
    stop = len(spans) if stop is None else stop
    problems = []
    for index in range(start, stop):
        name = spans[index][NAME]
        if name not in HUM:
            continue
        cg = spans[index][INFO]["cg"]
        inside = [spans[j][NAME] for j in range(index + 1, stop)
                  if _descends(spans, j, index)]
        delayed = name == "control.compose_delay_control"
        expected = {FORWARD: cg + 2 + delayed, ADJOINT: cg + 1}
        for march, want in expected.items():
            seen = inside.count(march)
            if seen != want:
                problems.append(f"trace saw {seen} {march} calls in {name} "
                                f"with {cg} CG iterations; expected {want}")
    return problems

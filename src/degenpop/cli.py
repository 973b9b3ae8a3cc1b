"""Command line front end.

Every subcommand loads a scenario (from --config or --preset), runs one
stage of the pipeline and writes its artifacts under --out.  Exit codes:
0 on success, 2 when configuration or hypothesis validation fails or
memory runs out, 3 when a numerical stage breaks down.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from .coeffs import DEFAULT_S_SWEEP
from .control import ControlSolution, glue_two_sided, hum_control
from .discretize import Field2, random_final_data, write_field_csv, write_json
from .scenarios import (AUDITS, ConfigError, Scenario, _HypothesisError,
                        classify_growth, load_scenario, net_reproduction_rate,
                        preset, preset_names, run_scenario)
from .solver import solve_adjoint, solve_forward

__all__ = ["main"]


def _load(args) -> Scenario:
    if args.config is not None:
        scenario = load_scenario(args.config)
    else:
        scenario = preset(args.preset)
    if getattr(args, "epsilon", None) is not None:
        scenario.hum = replace(scenario.hum, epsilon=args.epsilon)
    if getattr(args, "seed", None) is not None:
        scenario.seed = args.seed
        scenario.spec = replace(scenario.spec, y0=random_final_data(
            scenario.spec.grid, seed=args.seed, stream=0))
    return scenario


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sweep(args) -> tuple[float, ...]:
    if args.s_sweep is None:
        return DEFAULT_S_SWEEP
    try:
        values = tuple(float(tok) for tok in args.s_sweep.split(","))
    except ValueError:
        raise ConfigError(f"--s-sweep must be comma-separated numbers, "
                          f"got {args.s_sweep!r}") from None
    if not values or not all(math.isfinite(v) and v > 0 for v in values):
        raise ConfigError(f"--s-sweep values must be finite and positive, "
                          f"got {args.s_sweep!r}")
    for v in values:
        try:
            v ** 3  # the Carleman left side weighs by s^3: a float must hold it
        except OverflowError:
            raise ConfigError(f"--s-sweep value {v!r} is too large") from None
    return values


def _integer(text: str, low: int, what: str) -> int:
    """``text`` as an integer of at least ``low``; argparse names the option."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low:
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return value


def _seed(text: str) -> int:
    """An argparse type: the non-negative integers numpy takes as seeds."""
    return _integer(text, 0, "a non-negative integer")


def _count(text: str) -> int:
    """An argparse type: the size of an audit's sample or ensemble."""
    return _integer(text, 1, "a positive integer")


def _cmd_validate(args) -> int:
    try:
        report = _load(args).hypothesis_report()
    except _HypothesisError as exc:
        report = exc.report
    for line in report.lines():
        print(line)
    if args.out is not None:
        out = _out_dir(args)
        (out / "hypotheses.txt").write_text("\n".join(report.lines()) + "\n")
    return 0 if report.passed else 2


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    traj = solve_forward(scenario.spec)
    traj.write_energy_csv(out / "energy.csv")
    write_field_csv(Field2(scenario.spec.grid, traj.final_level()),
                    out / "final_state.csv")
    print(f"forward solve done; final L2 norm {traj.norms[-1]:.6g}")
    return 0


def _cmd_adjoint(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    grid = scenario.spec.grid
    v_T = random_final_data(grid, seed=scenario.seed, stream=1)
    traj = solve_adjoint(scenario.spec, v_T)
    traj.write_energy_csv(out / "adjoint_energy.csv")
    write_field_csv(Field2(grid, traj.state.values[0]),
                    out / "adjoint_initial_state.csv")
    print(f"adjoint solve done; L2 norm at t=0 is {traj.norms[0]:.6g}")
    return 0


def _cmd_audit(args) -> int:
    scenario = _load(args)
    reports = AUDITS[args.audit](scenario, **args.audit_params(args))
    if not reports:
        raise ConfigError(f"{args.audit} audit: nothing to audit for this "
                          f"coefficient")
    out = _out_dir(args)
    for stem, report in reports:
        report.write_csv(out / f"{stem}.csv")
        report.write_summary(out / f"{stem}.json")
        const = report.empirical_constant
        flag = " (s-unstable)" if report.unstable_s else ""
        print(f"{report.name}: empirical constant "
              f"{'n/a' if const is None else f'{const:.6g}'}{flag}")
    return 0


def _print_control(sol: ControlSolution) -> None:
    print(f"control norm {sol.control_norm:.6g}, final residual "
          f"{sol.final_residual:.6g} <= certificate {sol.certificate:.6g}, "
          f"{sol.cg_iterations} CG iterations")


def _cmd_hum(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    sol = hum_control(scenario.spec, scenario.hum)
    sol.write_cg_csv(out / "control_cg.csv")
    sol.write_summary(out / "control_summary.json")
    _print_control(sol)
    return 0


def _cmd_glue(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    sol = glue_two_sided(scenario.spec, scenario.hum,
                         alpha_bar=args.alpha_bar, beta_bar=args.beta_bar)
    sol.write_summary(out / "glue_summary.json")
    write_field_csv(Field2(scenario.spec.grid,
                           sol.y.state.values[-1]), out / "glue_final.csv")
    d = sol.diagnostics
    print(f"glued control: residual {d['residual']:.6g} "
          f"(baseline {d['baseline']:.6g}), final residual "
          f"{sol.final_residual:.6g} <= certificate {sol.certificate:.6g}")
    return 0


def _cmd_r0(args) -> int:
    scenario = _load(args)
    r0 = net_reproduction_rate(scenario.spec.rates, scenario.spec.grid.A)
    label = classify_growth(r0)
    line = f"R0 = {r0:.6g} ({label})"
    if scenario.r0_target is not None:
        line += f"; reference value {scenario.r0_target:g}"
    print(line)
    if args.out is not None:
        write_json(_out_dir(args) / "r0.json",
                   {"r0": r0, "growth": label,
                    "r0_target": scenario.r0_target})
    return 0


def _cmd_run(args) -> int:
    scenario = _load(args)
    manifest = run_scenario(scenario, args.out)
    print(f"wrote {len(manifest['artifacts'])} artifacts to {args.out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it as it was, so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="degenpop",
        description="Degenerate age/space structured population models: "
                    "simulation, inequality audits, null control.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--config", type=Path,
                         help="JSON scenario configuration")
        src.add_argument("--preset", choices=preset_names(),
                         default="default_degenerate",
                         help="builtin scenario (default: default_degenerate)")
        p.add_argument("--out", type=Path, required=out_required,
                       help="output directory")
        p.add_argument("--seed", type=_seed,
                       help="override the scenario seed (non-negative)")

    p = sub.add_parser("validate", help="check structural hypotheses")
    common(p, out_required=False)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("simulate", help="free forward solve")
    common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("adjoint", help="backward adjoint solve")
    common(p)
    p.set_defaults(handler=_cmd_adjoint)

    p = sub.add_parser("hardy-audit", help="Hardy-Poincare ratio report")
    common(p)
    p.add_argument("--count", type=_count, default=100,
                   help="number of random test functions")
    p.set_defaults(handler=_cmd_audit, audit="hardy", audit_params=lambda a: {
        "count": a.count, "n_quad": 400_001})

    p = sub.add_parser("carleman-audit",
                       help="weighted Carleman inequality report")
    common(p)
    p.add_argument("--count", type=_count, default=3,
                   help="number of manufactured samples")
    p.add_argument("--s-sweep", help="comma separated s values")
    p.set_defaults(handler=_cmd_audit, audit="carleman",
                   audit_params=lambda a: {"count": a.count,
                                           "s_sweep": _sweep(a)})

    p = sub.add_parser("caccioppoli-audit",
                       help="interior gradient bound report")
    common(p)
    p.add_argument("--count", type=_count, default=3,
                   help="number of manufactured samples")
    p.add_argument("--s-sweep", help="comma separated s values (first used)")
    p.set_defaults(handler=_cmd_audit, audit="caccioppoli",
                   audit_params=lambda a: {"count": a.count,
                                           "s": _sweep(a)[0]})

    p = sub.add_parser("observability", help="empirical observability ratios")
    common(p)
    p.add_argument("--count", type=_count, default=20, help="ensemble size")
    p.set_defaults(handler=_cmd_audit, audit="observability",
                   audit_params=lambda a: {"count": a.count})

    p = sub.add_parser("hum", help="penalized HUM control solve")
    common(p)
    p.add_argument("--epsilon", type=float, help="penalization parameter")
    p.set_defaults(handler=_cmd_hum)

    p = sub.add_parser("glue", help="two-sided glued control")
    common(p)
    p.add_argument("--epsilon", type=float, help="penalization parameter")
    p.add_argument("--alpha-bar", type=float,
                   help="left edge of the gluing window (default: lo/2 "
                        "for omega = [lo, hi])")
    p.add_argument("--beta-bar", type=float,
                   help="right edge of the gluing window (default: "
                        "(1+hi)/2)")
    p.set_defaults(handler=_cmd_glue)

    p = sub.add_parser("r0", help="net reproduction rate")
    common(p, out_required=False)
    p.set_defaults(handler=_cmd_r0)

    p = sub.add_parser("run", help="full pipeline with hashed manifest")
    common(p)
    p.add_argument("--epsilon", type=float, help="penalization parameter")
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:  # ControlError included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

if __name__ == "__main__":
    raise SystemExit(main())

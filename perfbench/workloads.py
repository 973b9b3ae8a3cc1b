"""The benchmark's workloads: the CLI ops of one round and their checks.

A round is the workload's fixed op sequence. An op is one ``degenpop``
subcommand, run in-process through ``degenpop.cli.main``, whose output
directory is then checked. The checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

PRESETS = ("default_degenerate", "tirathaba_28C", "tirathaba_20C",
           "nilaparvata")
WORKLOADS = ("hum_default", "pipeline_presets", "adjoint_ensemble",
             "audit_quadrature")

REFERENCE = Path(__file__).resolve().parent / "reference.json"
ENSEMBLE = 80  # observability ensemble: four times the CLI default of 20
HARDY_FUNCTIONS = 100
# manufactured samples per Carleman/Caccioppoli audit: ten times the CLI
# default of 3, so that these ops last about a second and their timings
# are not dominated by the host's sub-second noise
MANUFACTURED = 30


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str  # "hum", "run" or "audit"
    preset: str
    reports: tuple[str, ...] = ()  # audit summaries whose constants are checked

    def reference_key(self, stem: str) -> str:
        return f"{self.argv[0]}/{self.preset}/{stem}"


def round_ops(workload: str, seed: int) -> list[Op]:
    """The op sequence of one round of ``workload`` for input seed ``seed``."""

    def args(command, preset, *extra):
        return (command, "--preset", preset, "--seed", str(seed)) + extra

    if workload == "hum_default":
        return [Op(args("hum", "default_degenerate"), "hum",
                   "default_degenerate")]
    if workload == "pipeline_presets":
        return [Op(args("run", p), "run", p) for p in PRESETS]
    if workload == "adjoint_ensemble":
        return [Op(args("observability", p, "--count", str(ENSEMBLE)),
                   "audit", p, ("observability",))
                for p in ("default_degenerate", "tirathaba_28C")]
    if workload == "audit_quadrature":
        p = "default_degenerate"
        return [
            Op(args("hardy-audit", p, "--count", str(HARDY_FUNCTIONS)),
               "audit", p, ("hardy_at_one", "hardy_at_zero")),
            Op(args("carleman-audit", p, "--count", str(MANUFACTURED)),
               "audit", p, ("carleman_deg0",)),
            Op(args("caccioppoli-audit", p, "--count", str(MANUFACTURED)),
               "audit", p, ("caccioppoli",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def load_reference() -> dict:
    """reference.json: the input-seed pool and each input seed's constants."""
    return json.loads(REFERENCE.read_text())


def input_seed(seed: int, reference: dict) -> int:
    """The input seed that ``--seed`` selects: ``pool[seed mod len(pool)]``.

    The pool holds the input seeds whose ``run`` controls take the same CG
    iteration counts (see make_reference.py), so that the work of a run
    does not depend on its seed, and each has reference constants.
    """
    pool = reference["pool"]
    return pool[seed % len(pool)]


def workload_presets(workload: str) -> list[str]:
    return sorted({op.preset for op in round_ops(workload, 0)})


def run_op(cli, op: Op, out: Path) -> tuple[int | None, float]:
    """Run one op through ``cli.main``; return (exit code, wall seconds).

    The CLI's standard output is discarded; the exit code is None when
    ``main`` ends in an exception instead of returning.
    """
    argv = [*op.argv, "--out", str(out)]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback escaping main is a failed op
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, time.perf_counter() - start


# ---------------------------------------------------------------------------
# output checks


@dataclass
class CheckContext:
    """What the checks of one run share: ||y0|| per preset, the reference
    constants of the input seed, and the first manifest seen per preset."""

    y0_norms: dict
    references: dict
    rtol: float
    atol: float
    manifests: dict = field(default_factory=dict)

    def check_constant(self, key: str, path: Path, problems: list) -> None:
        """Check the empirical constant of the audit summary at ``path``
        against the reference ``key``: finite and within rtol * |ref| + atol.

        atol admits round-off in constants that are 0 up to round-off.
        """
        const = json.loads(path.read_text())["empirical_constant"]
        ref = self.references.get(key)
        if ref is None:
            problems.append(f"{key}: no reference constant")
        elif const is None or not math.isfinite(const) \
                or abs(const - ref) > self.rtol * abs(ref) + self.atol:
            problems.append(f"{key}: empirical constant {const!r} is not "
                            f"within {self.rtol:g} of the reference {ref!r}")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_control(path: Path, y0_norm: float, problems: list, seen: dict):
    summary = json.loads(path.read_text())
    residual = summary["final_residual"]
    certificate = summary["certificate"]
    if not (math.isfinite(residual) and math.isfinite(certificate)):
        problems.append(f"{path.name}: non-finite residual or certificate")
        return
    # same relative slack as the library's own certificate check
    if residual > certificate * (1.0 + 1e-9):
        problems.append(f"{path.name}: final residual {residual:.6g} "
                        f"exceeds certificate {certificate:.6g}")
    if residual > 1e-2 * y0_norm:
        problems.append(f"{path.name}: final residual {residual:.6g} "
                        f"exceeds 1e-2 * ||y0|| = {1e-2 * y0_norm:.6g}")
    seen["final_residual_rel"] = residual / y0_norm
    seen["cg_iterations"] = summary["cg_iterations"]


def check_op(op: Op, out: Path, ctx: CheckContext) -> tuple[list, dict]:
    """Return (problems, observations) for the outputs of one op."""
    problems: list[str] = []
    seen: dict = {}
    try:
        if op.kind == "hum":
            _check_control(out / "control_summary.json",
                           ctx.y0_norms[op.preset], problems, seen)
        elif op.kind == "run":
            manifest = json.loads((out / "manifest.json").read_text())
            for name, digest in manifest["artifacts"].items():
                if _sha256(out / name) != digest:
                    problems.append(f"{name}: hash differs from manifest")
            for name in manifest["artifacts"]:
                if name.startswith("audit_") and name.endswith(".json"):
                    ctx.check_constant(op.reference_key(name[:-5]),
                                       out / name, problems)
            first = ctx.manifests.setdefault(op.preset, manifest)
            if manifest != first:
                problems.append(f"{op.preset}: manifest differs from an "
                                f"earlier run of the same preset and seed")
            seen["artifact_bytes"] = sum(
                (out / name).stat().st_size
                for name in [*manifest["artifacts"], "manifest.json"])
            _check_control(out / "control_summary.json",
                           ctx.y0_norms[op.preset], problems, seen)
        else:
            for stem in op.reports:
                ctx.check_constant(op.reference_key(stem),
                                   out / f"{stem}.json", problems)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems, seen

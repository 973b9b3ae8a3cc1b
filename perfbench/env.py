"""Process set-up shared by the benchmark scripts.

``cap_threads`` must run before numpy is first imported: OpenBLAS reads
its thread count once, at load time, and this numpy build allows 64.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout does not hold the degenpop sources."""


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads at the usable core count; return the caps."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 \
            else nproc
        os.environ[var] = str(cap)
        caps[var] = cap
    return {"nproc": nproc, **caps}


def import_program():
    """Import (or re-import) ``degenpop.cli`` from the checkout's sources.

    Any degenpop modules already loaded are dropped first, so each call
    pays the package's full import cost. Raises ProgramMissing when the
    sources are absent or an installed copy would shadow them.
    """
    if not (SRC / "degenpop" / "cli.py").is_file():
        raise ProgramMissing(f"no degenpop sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "degenpop" or m.startswith("degenpop.")]:
        del sys.modules[name]
    cli = importlib.import_module("degenpop.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "degenpop").resolve():
        raise ProgramMissing(f"degenpop was imported from {cli.__file__}, "
                             f"not from {SRC}")
    return cli


def describe(caps: dict) -> dict:
    """numpy version, BLAS build and thread caps, recorded with each result."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, **caps}

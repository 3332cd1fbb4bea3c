"""Environment block of a run report, read from ``/proc`` and the interpreter.

Nothing here changes the machine or the process: BLAS threads are read, not
set, so a run measures the thread count a user gets by default.
"""

from __future__ import annotations

import ctypes
import os
import platform


def _cpu_ticks() -> dict[str, int]:
    """Aggregate CPU tick counters from ``/proc/stat`` (empty when absent)."""
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return {}
    return dict(zip(names, (int(v) for v in fields[1 : 1 + len(names)])))


def _blas() -> dict:
    """BLAS library numpy was built against, and its thread count as found."""
    import numpy as np

    info: dict = {"library": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # an older numpy without the dict form of show_config
        pass
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


class EnvironmentProbe:
    """Snapshot at the start of a run; :meth:`report` closes it at the end."""

    def __init__(self) -> None:
        self.ticks = _cpu_ticks()
        self.load = os.getloadavg()

    def report(self) -> dict:
        import numpy as np
        import scipy

        hz = os.sysconf("SC_CLK_TCK")
        end = _cpu_ticks()
        steal = (end.get("steal", 0) - self.ticks.get("steal", 0)) / hz
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
            "steal_s": steal,
            "loadavg_start": list(self.load),
            "loadavg_end": list(os.getloadavg()),
        }

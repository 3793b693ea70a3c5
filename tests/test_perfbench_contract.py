"""The benchmark under perfbench/ still finds what it measures in the package.

perfbench wraps module attributes by name and reads the scalar solver's
return value; a rename or a signature change would break it silently.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_checks_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/test_checks.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_every_traced_site_resolves():
    for name, module_name, attr in _load_spans()._SITES:
        assert callable(getattr(importlib.import_module(module_name), attr)), name
    # perfbench/worker.py records the backend name with every run.
    import uavwpt

    assert uavwpt.BACKEND == "python"


def test_scalar_solve_pga_returns_five_tuple():
    from uavwpt import _kernels

    h = np.array([[1.0 + 0.5j, 0.2], [0.3, 1.0 - 0.1j]]) * 0.05
    dw = np.array([0.2, 0.3])
    out = _kernels.solve_pga(h, dw, 0.001, 4.0, 1e-8, 1e-6, 10_000, 1e-4, 0.5)
    assert len(out) == 5
    p, objective, iterations, kkt, converged = out
    assert p.shape == (2,) and isinstance(objective, float)
    assert isinstance(iterations, int) and isinstance(kkt, float)
    assert converged is True and kkt <= 1e-6

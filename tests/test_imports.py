"""Start-up cost: the package loads only numpy and scipy.special.

scipy.stats, scipy.integrate and scipy.optimize together take longer to
import than everything `bivqf reproduce` computes, so none of them may be
loaded by importing the CLI, by running `reproduce`, or by the root
searches of `fit` and the exact sampler.  scipy.linalg, which scipy's
Gauss-Jacobi rules load on first use, costs about 70 ms more: the model
builds its rules lazily, so commands that integrate nothing never load
it.  Each check runs in a fresh interpreter, where no other test has
imported them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PRELUDE = """
import sys
LAZY = ("scipy.stats", "scipy.integrate", "scipy.optimize")

def loaded():
    return [m for m in LAZY if m in sys.modules]
"""


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", PRELUDE + code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_and_reproduce_load_no_heavy_scipy_module(tmp_path):
    out = tmp_path / "rep"
    res = run_fresh(f"""
import bivqf.cli
assert not loaded(), "import bivqf.cli loaded " + ", ".join(loaded())
assert bivqf.cli.main(["reproduce", "--out", {str(out)!r}]) == 0
assert not loaded(), "reproduce loaded " + ", ".join(loaded())
""")
    assert res.returncode == 0, res.stderr
    assert "24/29 reference values reproduced" in res.stdout
    assert (tmp_path / "rep.report.json").is_file()


def test_fit_and_exact_sampler_load_no_heavy_scipy_module(tmp_path):
    res = run_fresh(f"""
import bivqf.cli
for argv in (["sample", "--catalog", "exponential", "--param", "c1=1", "--param", "c2=2",
              "--theta", "0.5", "--n", "50", "--seed", "3", "--method", "exact",
              "--out", {str(tmp_path / "s")!r}],
             ["fit", "--data", "cable", "--out", {str(tmp_path / "f")!r}]):
    assert bivqf.cli.main(argv) == 0, argv
    assert not loaded(), argv[0] + " loaded " + ", ".join(loaded())
""")
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "f.report.json").is_file()


def test_every_corner_loads_no_heavy_scipy_module():
    # one margin per branch of big_q1 / f1, the corners that once fell back
    # to adaptive quadrature and Brent included; the three on the
    # log-logistic line alpha + beta = -2 and the t2 row (-1.5, -1.5) come
    # with twins whose beta is moved down by ulps until they leave the row
    # and take the corner path
    res = run_fresh("""
import numpy as np
from bivqf.model import MarginalParams, big_q1, f1
shapes = [(0.0, 0.0), (0.5, -0.3), (-0.4, -1.6), (-1.5, -1.5), (-1.0, -1.0),
          (0.3, -1.00005), (0.2, -1.0), (0.5, -2.5), (-2.0, 0.5)]
on_row = lambda alpha, beta: alpha + beta == -2.0 or alpha == beta == -1.5
for alpha, beta in [s for s in shapes if on_row(*s)]:
    while on_row(alpha, beta):
        beta = float(np.nextafter(beta, -np.inf))
    shapes.append((alpha, beta))
assert len(shapes) == 13
for shape in shapes:
    m = MarginalParams(1.0, *shape)
    u = np.array([0.01, 0.5, 0.99])
    assert np.allclose(f1(m, big_q1(m, u)), u, rtol=1e-9), shape
    assert abs(f1(m, big_q1(m, 0.3)) - 0.3) < 1e-9, shape
assert not loaded(), "the model functions loaded " + ", ".join(loaded())
""")
    assert res.returncode == 0, res.stderr


def test_commands_without_a_rule_load_no_scipy_linalg(tmp_path):
    res = run_fresh(f"""
import bivqf.cli
from bivqf import model
assert "scipy.linalg" not in sys.modules, "import bivqf.cli loaded scipy.linalg"
# nothing is built at import time
assert model._gauss_jacobi.cache_info().currsize == 0
assert model._shape_plan.cache_info().currsize == 0
for argv in (["catalog"],
             ["catalog", "loglogistic", "--param", "a1=2", "--param", "b1=3",
              "--param", "a2=2", "--param", "b2=3"],
             ["sample", "--catalog", "exponential", "--param", "c1=1", "--param", "c2=2",
              "--theta", "0.5", "--n", "50", "--seed", "3", "--method", "exact",
              "--out", {str(tmp_path / "s")!r}],
             ["lmoments", "--data", "cable"]):
    assert bivqf.cli.main(argv) == 0, argv
    assert "scipy.linalg" not in sys.modules, argv[0] + " loaded scipy.linalg"
""")
    assert res.returncode == 0, res.stderr

"""Start-up cost: importing the package loads numpy and no part of scipy.

scipy.special loads at the first special-function call, through
`bivqf.specfun`, the one module that imports it; commands that call none
(`catalog`, `lmoments`, usage and data errors) never load it.

scipy.stats, scipy.integrate and scipy.optimize together take longer to
import than everything `bivqf reproduce` computes, so none of them may be
loaded by importing the CLI, by running `reproduce`, or by the root
searches of `fit` and the exact sampler.  Nor may scipy.linalg, which
costs about 56 ms and 5 MB more: the model builds its Gauss-Jacobi rules
on numpy's LAPACK, so of scipy's subpackages only scipy.special and the
scipy._lib it uses are ever loaded.  The rules are built lazily, so
commands that integrate nothing build none.  Each check runs in a fresh
interpreter, where no other test has imported them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "bivqf"

PRELUDE = """
import sys
LAZY = ("scipy.stats", "scipy.integrate", "scipy.optimize")

def loaded():
    return [m for m in LAZY if m in sys.modules]

def scipy_loaded():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
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


def test_pvalue_and_legendre_weights_load_no_heavy_scipy_module(tmp_path):
    # the K-S p-value and the sample L-comoment weights come from
    # scipy.special's kolmogorov and eval_sh_legendre
    res = run_fresh(f"""
import bivqf.cli
for argv in (["gof", "--data", "components", "--mode", "per-point",
              "--out", {str(tmp_path / "g")!r}],
             ["comoments", "--data", "cable"]):
    assert bivqf.cli.main(argv) == 0, argv
    assert not loaded(), argv[0] + " loaded " + ", ".join(loaded())
""")
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "g.report.json").is_file()


def test_every_corner_loads_no_heavy_scipy_module():
    # one margin per branch of big_q1 / f1, the corners that once fell back
    # to adaptive quadrature and Brent included, and the arcsine row
    # (-0.5, -0.5); the three on the log-logistic line alpha + beta = -2 and
    # the t2 row (-1.5, -1.5) come with twins whose beta is moved down by
    # ulps until they leave the row and take the corner path
    res = run_fresh("""
import numpy as np
from bivqf.model import MarginalParams, big_q1, f1
shapes = [(0.0, 0.0), (0.5, -0.3), (-0.4, -1.6), (-1.5, -1.5), (-1.0, -1.0),
          (0.3, -1.00005), (0.2, -1.0), (0.5, -2.5), (-2.0, 0.5), (-0.5, -0.5)]
on_row = lambda alpha, beta: alpha + beta == -2.0 or alpha == beta == -1.5
for alpha, beta in [s for s in shapes if on_row(*s)]:
    while on_row(alpha, beta):
        beta = float(np.nextafter(beta, -np.inf))
    shapes.append((alpha, beta))
assert len(shapes) == 14
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


def test_integrating_commands_load_only_scipy_special(tmp_path):
    # every command that builds Gauss-Jacobi rules, and rules of every size
    # _fixed_rule builds; the allow-list names scipy's subpackages
    res = run_fresh(f"""
import bivqf.cli
from bivqf import model
cable = "9.0819,-0.4864,-0.9946,29.2295,-0.3406,-0.3531,0.9"
for argv in (["reproduce", "--out", {str(tmp_path / "rep")!r}],
             ["fit", "--data", "cable"], ["compare", "--data", "components"],
             ["comoments", "--data", "components"],
             ["comoments", "--data", "cable", "--params", cable],
             ["gof", "--data", "cable"], ["gof", "--data", "components", "--mode", "per-point"]):
    assert bivqf.cli.main(argv) == 0, argv
for n in (16, 32, 64, 128, 256, 512):
    for a, b in ((0.0, 0.0), (0.5, -0.3), (999.0, 0.0), (2.0, 2.0)):
        model._gauss_jacobi(n, a, b)
assert model._gauss_jacobi.cache_info().currsize > 24
subpackages = {{m.split(".")[1] for m, mod in list(sys.modules.items())
               if m.startswith("scipy.") and hasattr(mod, "__path__")}}
assert subpackages <= {{"special", "_lib"}}, sorted(subpackages)
""")
    assert res.returncode == 0, res.stderr
    assert "24/29 reference values reproduced" in res.stdout


def test_import_and_commands_without_special_functions_load_no_scipy(tmp_path):
    res = run_fresh(f"""
import bivqf
assert not scipy_loaded(), "import bivqf loaded " + ", ".join(scipy_loaded())
import bivqf.cli
assert not scipy_loaded(), "import bivqf.cli loaded " + ", ".join(scipy_loaded())
cable = "9.0819,-0.4864,-0.9946,29.2295,-0.3406,-0.3531,0.6821"
for argv, code in ((["catalog"], 0),
                   (["catalog", "pareto1", "--param", "sigma1=1", "--param", "a1=2",
                     "--param", "sigma2=1.5", "--param", "a2=3", "--theta", "0.5"], 0),
                   (["lmoments", "--data", "cable"], 0),
                   (["lmoments", "--data", "cable", "--params", cable], 0),
                   (["sample", "--catalog", "power", "--param", "a1=2", "--param", "b1=1",
                     "--param", "a2=3", "--param", "b2=2", "--theta", "0.5", "--n", "50",
                     "--seed", "3", "--method", "exact", "--out", {str(tmp_path / "s")!r}], 0),
                   (["fit", "--data", "cable", "--quad-tol", "0"], 64),
                   (["fit", "--data", {str(tmp_path / "missing.csv")!r}], 2)):
    assert bivqf.cli.main(argv) == code, argv
    assert not scipy_loaded(), argv[0] + " loaded " + ", ".join(scipy_loaded())
""")
    assert res.returncode == 0, res.stderr


def test_special_functions_are_scipy_ufuncs_after_the_first_call():
    # the first lookup imports scipy.special and stores the ufunc itself in
    # specfun, so no wrapper sits between the hot paths and scipy
    res = run_fresh("""
import numpy as np
from bivqf import specfun
from bivqf.model import MarginalParams, big_q1, f1
assert "betainc" not in vars(specfun) and not scipy_loaded()
m = MarginalParams(1.0, 0.5, -0.3)
f1(m, big_q1(m, np.array([0.2, 0.4])))
import scipy.special
for name in ("betainc", "betaincinv"):
    assert vars(specfun)[name] is getattr(scipy.special, name), name
""")
    assert res.returncode == 0, res.stderr


def test_only_specfun_imports_scipy():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                importers.add(path.name)
    assert importers == {"specfun.py"}

"""Start-up cost: the package loads only numpy and scipy.special.

scipy.stats, scipy.integrate and scipy.optimize together take longer to
import than everything `bivqf reproduce` computes, so none of them may be
loaded by importing the CLI or by running `reproduce`.  Each check runs in
a fresh interpreter, where no other test has imported them.
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


def test_quadrature_fallback_works_after_a_fresh_import():
    res = run_fresh("""
from bivqf.lmom import population_lmoments, population_lmoments_quadrature
from bivqf.model import MarginalParams
m = MarginalParams(2.0, 0.5, -0.5)
assert not loaded()
got, ref = population_lmoments_quadrature(m), population_lmoments(m)
assert abs(got.l2 - ref.l2) <= 1e-8 * ref.l2, (got, ref)
assert "scipy.integrate" in loaded()
""")
    assert res.returncode == 0, res.stderr

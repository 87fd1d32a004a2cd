"""`repro` runs on the standard library alone.

numpy, scipy and networkx are test extras (oracles), not runtime
dependencies: a fresh interpreter that refuses to import them must still
import every `repro` module, list the artifacts, run a cell, and compute
confidence intervals and the feasibility series.
"""

import pathlib
import subprocess
import sys

import repro

BLOCKED = ("numpy", "scipy", "networkx")

SCRIPT = f"""
import importlib
import pkgutil
import random
import sys

BLOCKED = {BLOCKED!r}


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"{{name}} is blocked", name=name)
        return None


sys.meta_path.insert(0, Refuse())

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.rpartition(".")[2] != "__main__":
        importlib.import_module(info.name)

from repro.analysis.feasibility import fig1_energy_vs_size, fig2_breakeven_vs_idle
from repro.cli.main import main
from repro.models.scenario import ScenarioConfig, run_scenario
from repro.stats import mean_confidence
from repro.topology.layout import random_layout

assert main(["list"]) == 0
result = run_scenario(
    ScenarioConfig(model="sensor", rows=3, cols=3, sink=4, n_senders=2,
                   sim_time_s=5.0)
)
assert result.delivered_bits > 0
assert mean_confidence([1.0, 2.0, 4.0]).half_width > 0.0
assert len(fig1_energy_vs_size()) == 6 and len(fig2_breakeven_vs_idle()) == 7
random_layout(12, 60.0, 60.0, random.Random(3), connect_range_m=30.0)
loaded = sorted(name for name in sys.modules if name.partition(".")[0] in BLOCKED)
assert not loaded, loaded
print("stdlib-only ok")
"""


def test_repro_runs_with_numpy_scipy_and_networkx_blocked():
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        cwd=src,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("stdlib-only ok")

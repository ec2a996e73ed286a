"""``scipy.optimize`` loads only when a program is solved.

It is most of the package's import time, and no clearing or serving path
solves an LP or a MILP, so importing the package and its facade must not
load it.  A fresh interpreter sees what an import really loads.
"""

import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def loads_scipy_optimize(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", code + "; print('scipy.optimize' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=True,
    )
    return result.stdout.split()[-1] == "True"


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    assert not loads_scipy_optimize("import sys, repro, repro.api")


def test_solving_a_program_loads_it():
    assert loads_scipy_optimize(
        "import sys\n"
        "from repro.core.bids import Bid\n"
        "from repro.core.wsp import WSPInstance\n"
        "from repro.solvers.milp import solve_wsp_optimal\n"
        "bid = Bid(seller=0, index=0, covered=frozenset({1}), price=2.0)\n"
        "solve_wsp_optimal(WSPInstance.from_bids([bid], {1: 1}))"
    )

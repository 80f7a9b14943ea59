"""The package loads neither ``scipy.linalg`` nor ``scipy.sparse.linalg``.

Each check runs in a fresh interpreter, since the test session itself
imports both subpackages.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HEAVY = ("scipy.linalg", "scipy.sparse.linalg")
SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code: str) -> list[str]:
    """The subpackages in ``HEAVY`` that ``code`` leaves in ``sys.modules``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", autouse=True)
def scipy_sparse_alone_is_light():
    # Some scipy releases load the linear-algebra subpackages from
    # scipy.sparse itself; there the package cannot keep them out.
    already = loaded_after("import scipy.sparse")
    if already:
        pytest.skip(f"import scipy.sparse already loads {already} with this scipy")


def test_importing_the_package_and_cli_loads_no_scipy_linalg():
    assert loaded_after("import socialdmf") == []
    assert loaded_after("import socialdmf.cli") == []


def test_synth_above_the_dense_size_with_a_bound_certified_eta_loads_no_scipy_linalg():
    # m = 450 is above the dense eigenvalue path's 400; every degree is at
    # most 10 here, so eta = 0.05 is certified by the degree bound alone.
    code = (
        "from socialdmf import synth_generate\n"
        "_, trust, _ = synth_generate(450, 20, 2, 3, 200, 400, eta=0.05, noise_std=0.1, seed=1)\n"
        "op = trust.laplacians[-1]\n"
        "assert 0.05 * (op.degrees[op.rows] + op.degrees[op.cols]).max() <= 2"
    )
    assert loaded_after(code) == []

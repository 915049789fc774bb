"""numpy is imported on the first part of at least bits._PACKED_MIN_BYTES.

Each case runs alpir in a fresh interpreter, after importing every alpir
module a program might, and reports whether numpy was loaded. Narrow runs
and the in-process checks never need it; wide runs import it on first
use, possibly on a server thread and the client thread at once.
"""

import os
import subprocess
import sys

import pytest

import alpir

SCRIPT = """
import sys
import alpir, alpir.cli, alpir.netsim, alpir.selfcheck
assert "numpy" not in sys.modules, "importing alpir loaded numpy"
code = alpir.cli.main(["simulate", *sys.argv[1:]])
print("numpy loaded:", "numpy" in sys.modules)
sys.exit(code)
"""

WORKED = ("--n", "2", "--k", "2", "--l", "3", "--eps", "0.4054651081081644",
          "--delta", "0.26666666666666666")
WIDE_K = ("--n", "2", "--k", "255", "--l", "40", "--eps", "0.5",
          "--delta", "0.5")
# Masked parts of 5,156 bytes and open parts of 3,037: both wide.
WIDE_PARTS = ("--n", "2", "--k", "4", "--l", str(1 << 16), "--eps", "0.5",
              "--delta", "0.3")


def fresh_env() -> dict:
    """The environment with this alpir first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(alpir.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def simulate_fresh(*args: str) -> str:
    done = subprocess.run([sys.executable, "-c", SCRIPT, *args],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "decode_failures=0 " in done.stdout
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("args", [
    (*WORKED, "--transport", "memory", "--trials", "2000"),
    (*WIDE_K, "--transport", "tcp", "--trials", "500"),
], ids=["worked-memory", "wide-k-tcp"])
def test_narrow_run_never_loads_numpy(args):
    assert simulate_fresh(*args, "--seed", "1") == "numpy loaded: False"


CHECKS_SCRIPT = """
import math, sys
import alpir, alpir.cli, alpir.netsim, alpir.selfcheck
from alpir import SystemParams, empirical_cost_audit, empirical_query_audit
assert alpir.cli.main(["verify"]) == 0
worked = SystemParams(2, 2, 3, math.log(1.5), 4 / 15)
assert not empirical_query_audit(1000, worked, 1).violation
assert not empirical_cost_audit(1000, worked, 1).violation
assert alpir.cli.main(["sweep", "--n", "2,3", "--k", "2,3",
                       "--eps-grid", "0:1:0.5", "--delta-grid", "0:1:0.5"]) == 0
print("numpy loaded:", "numpy" in sys.modules)
"""


def test_checks_and_audits_never_load_numpy():
    """`verify`, both sampled audits at the worked point and a sweep."""
    done = subprocess.run([sys.executable, "-c", CHECKS_SCRIPT],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "numpy loaded: False"


@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_wide_run_loads_numpy_and_decodes(transport):
    assert simulate_fresh(*WIDE_PARTS, "--transport", transport,
                          "--trials", "50", "--seed", "1") == (
        "numpy loaded: True")

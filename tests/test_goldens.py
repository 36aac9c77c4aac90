"""Byte identity: the outputs the benchmark recorded in perfbench/goldens.json
replay unchanged, in-process.

The goldens, the benchmark's input generators (perfbench/inputs.py) and
its output checks (perfbench/checks.py) are only read here: the two
modules are compiled from source, so nothing is written under perfbench/.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from chebotarev import cli, zeros
from chebotarev.assembly import BoundForm, bound_eval
from chebotarev.invariants import FieldParams
from test_zeros import avx512_features

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


checks = _perfbench_module("checks")
inputs = _perfbench_module("inputs")
GOLDENS = checks.load_goldens()

# These four outputs print alpha0 values to the last bit, so their bytes
# follow numpy's power kernel.  goldens.json holds what numpy's AVX-512
# kernel gives; these digests are what every other kernel gives (recorded
# with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
LIBM_DIGESTS = {
    "params --n0 2 --beta0 present --format jsonl":
        "340ecad306fb2aeea0b3e41eb0cc089fdc9a85142e077fc53fae718b85b4e8d7",
    "params --n0 2 --beta0 absent --format jsonl":
        "d3fe311d6e1c4560e28d16630a40bb6e8f9df3656d1301b5b0bd0a24fe82612a",
    "params --n0 21 --beta0 present --format jsonl":
        "4c80cdecf8c2d46e6d780ab2124f44aae841f973ca4f1f94f61fcead2414e081",
    "params --n0 21 --beta0 absent --format jsonl":
        "ca83289fbcbda6cfac09fb789cee6994ae668fb3dee465499fdd22519498f317",
}


def _stdout_of(key: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(key.split(" ")) == 0, key
    return buf.getvalue()


def _numpy_power_is_libm() -> bool:
    """True when numpy's power rounds like Python's 10.0 ** y at every point
    of the eps grid, as it does without AVX-512."""
    return all(zeros._eps_point(i) == 10.0 ** (i * zeros._STEP + zeros._L0)
               for i in range(1, zeros._GRID_SIZE - 1))  # the two ends are pinned


def _mismatches(keys) -> list[str]:
    """The keys whose stdout differs from the golden of the kernel in use."""
    wants = LIBM_DIGESTS if _numpy_power_is_libm() else GOLDENS["constants"]
    return [k for k in keys
            if checks.digest(_stdout_of(k).encode("utf-8")) != wants.get(k, GOLDENS["constants"][k])]


def test_goldens_cover_every_constants_command():
    assert len(GOLDENS["constants"]) == 270
    assert LIBM_DIGESTS.keys() <= GOLDENS["constants"].keys()


def test_constants_digests():
    # every tables and params invocation, and the bound calls of seed 1
    assert _mismatches(GOLDENS["constants"]) == []


def test_kernel_dependent_params_without_avx512():
    # on an AVX-512 host the test above checks the goldens' branch; the
    # other branch runs here, with numpy's AVX-512 kernels disabled
    found = avx512_features()
    if not found:
        pytest.skip("numpy reports no AVX-512 feature to disable")
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import test_goldens as t\n"
            "print(json.dumps([t._numpy_power_is_libm(), t._mismatches(t.LIBM_DIGESTS)]))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(found)})
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [True, []]


def test_bound_stream_records():
    goldens = GOLDENS["bound-stream"]
    assert len(goldens) == 256
    failures = []
    for q, golden in zip(inputs.stream_pool(inputs.DEFAULT_SEED, len(goldens)), goldens):
        r = bound_eval(FieldParams(q.n_L, q.log_d), q.log_x, q.beta0 == "present",
                       BoundForm(q.form))
        why = checks.check_bound(q.log_x, checks.bound_record(r), golden)
        if why is not None:
            failures.append((q, why))
    assert failures == []


def test_verify_grid_goldens():
    # the 12 --x-grid goldens at |D| < 10^4 and the 12 single-x goldens at
    # |D| > 10^6, whose character is the vectorised Jacobi symbol
    assert len(GOLDENS["verify"]) == 24
    for key in GOLDENS["verify"]:
        argv = key.split(" ")
        text = _stdout_of(key)
        assert checks.check_verify(argv, text, GOLDENS["verify"][key]) is None, key
        assert checks.verify_values(argv, text) == GOLDENS["verify"][key], key


# verify where the goldens do not reach, in every format: |D| near the cap
# 10^18, and even D just above 10^6 on a grid from x = 2, where p = 2 alone
# counts.  Recorded when every |D| above 10^6 took one kronecker_symbol call
# per prime; the vectorised Jacobi symbol must print the same bytes.
CUTOFF_DIGESTS = {
    "verify --disc 1000012 --x-grid 2,100,12345,1e5,1e6 --format markdown":
        "2eaf8f9f45eb4f70d8786575e21cfe5f61b0b6cd494f48ea7bd7da7b0fd97938",
    "verify --disc 1000012 --x-grid 2,100,12345,1e5,1e6 --format csv":
        "9fcd19c68c652ee28dff6a08f535cb0f153bafa1f5a57bccae74afaec2cc73ba",
    "verify --disc 1000012 --x-grid 2,100,12345,1e5,1e6 --format jsonl":
        "99fa721ffb82e3c3ef6a9cdd867cb83002e9b46c60245a30cbaef2fbda7fcabf",
    "verify --disc -1000024 --x-grid 2,100,12345,1e5,1e6 --format markdown":
        "3e9c8986e499f7a6625cb327dc4cda2b55ff2cfb9bf91079deaca0238b4a37d5",
    "verify --disc -1000024 --x-grid 2,100,12345,1e5,1e6 --format csv":
        "9112db99cd836a594c30af3743091a87de8cda89ed5af3dfc6171b0db98e79b4",
    "verify --disc -1000024 --x-grid 2,100,12345,1e5,1e6 --format jsonl":
        "d5f0b52c048743c05b3e12aa89322335a7c08c800d58ad47fd2a29accb9356f3",
    "verify --disc 999999999999999901 --x-grid 2,100,12345,1e5,1e6 --format markdown":
        "b6022f884d01cda604197f0e403a1626e21c5f49298a89571a65fe3db52ab235",
    "verify --disc 999999999999999901 --x-grid 2,100,12345,1e5,1e6 --format csv":
        "c5bb61875eda96374fe2f811f9fbca3c460e4aa2a4f34962d9438843a3c78a79",
    "verify --disc 999999999999999901 --x-grid 2,100,12345,1e5,1e6 --format jsonl":
        "d71c55656dc56802e2ff1225c894cace9db7609e250acd437e6c500c48f78deb",
    "verify --disc -999999999999999903 --x-grid 2,100,12345,1e5,1e6 --format markdown":
        "c3494b138b66f382a28643defd97d555713baabd088008a8d1e79033acdd20f9",
    "verify --disc -999999999999999903 --x-grid 2,100,12345,1e5,1e6 --format csv":
        "c510df505a97af547ec99c2f4bd6657a32eb76362cde959eb65f9703860fa2f2",
    "verify --disc -999999999999999903 --x-grid 2,100,12345,1e5,1e6 --format jsonl":
        "6e43a17ca457de19638c3cdba0b0534515d2b4e07975f794e1ba776ffdb2381b",
}


def test_verify_across_the_table_cut_off():
    assert [k for k in CUTOFF_DIGESTS
            if checks.digest(_stdout_of(k).encode("utf-8")) != CUTOFF_DIGESTS[k]] == []

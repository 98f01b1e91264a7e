"""The arithmetic a test run ran on, printed as one line after its results.

The exact sample-path pins (TestGoldenSamplePath and the benchmark sweeps'
CSV hashes) hold on one arithmetic: OpenBLAS's SkylakeX kernels with
numpy's AVX-512 loops (README, reproducibility contract).  On another, the
pins fail, and this line says why: the core numpy's bundled OpenBLAS runs
its kernels for, read through ctypes, and numpy's X86_V4 and AVX512_*
dispatch.  What cannot be read is `unknown`; the probe never raises.
"""

import ctypes
import glob
import os

import numpy as np

_CORENAME = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def openblas_core() -> str:
    """The core name of numpy's bundled OpenBLAS, as OpenBLAS reports it."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in _CORENAME:
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    raise LookupError("numpy bundles no OpenBLAS that reports its core")


def numpy_dispatch() -> str:
    """numpy's X86_V4 and AVX512_* targets, 1 where its loops dispatch to them."""
    from numpy._core._multiarray_umath import __cpu_features__

    flags = sorted(k for k in __cpu_features__ if k == "X86_V4" or k.startswith("AVX512_"))
    return " ".join(f"{k}={int(__cpu_features__[k])}" for k in flags)


def arithmetic() -> str:
    values = []
    for probe in (openblas_core, numpy_dispatch):
        try:
            values.append(probe() or "unknown")
        except Exception:
            values.append("unknown")
    return "arithmetic: OpenBLAS core {}; numpy dispatch {}".format(*values)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("=", arithmetic())

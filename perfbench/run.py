"""fanofib benchmark: refinement-study time, memory, failures and
convergence order on three grid shapes, with a traced per-layer run.

Usage::

    python3 perfbench/run.py --workload refine_ladder --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  The seed draws the warp amplitude from [0.1, 0.3]; the program
receives only the generated configuration (class (a, c) = (2, 1),
``fiber_cubic`` warp, both fiber families).  The loop is closed: one
process runs one pass after another, where a pass is ``run_pipeline`` over
the workload's grids plus ``emit_report`` into a fresh directory.

With ``--trace 0`` the run measures the end-to-end metrics:

* ``setup_s``: median wall time of fresh interpreters that import
  ``fanofib.cli`` and build the workload configuration, half of them
  started before the timed passes and half after;
* ``study_s``: median wall time of the warm passes;
* ``peak_rss_mb``: ``ru_maxrss`` of the fresh worker process after its
  first pass;
* ``pass_share``: passed passes over attempted passes.  A pass fails when
  ``run_pipeline`` raises, when ``report.passed`` is False or when its
  emitted bytes differ from the first pass of the run;
* ``min_order``: smallest log2 residual ratio between consecutive grids
  over the truncation-grade series the acceptance suite gates.  A
  single-grid workload measures it against an untimed companion pass on
  the half grid.

With ``--trace 1`` it also runs one traced pass in a process of its own and
reports the per-layer metrics listed in BENCHMARK.json instead.  Both
modes report the known defects.  ``--reduced`` runs the same code on small
grids, for the benchmark's own tests.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
details and spans are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import ATTRIBUTION_NOTE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Why these workloads: refine_ladder is the north-star `fanofib refine` study
# and the only one with several refinement steps; the n^3 kernels (SKE
# Jacobian probes, dense audit_lap, fsum-based simpson2d) peak there.
# many_fibers loads the dense base Monge-Ampere Newton and the per-fiber loop
# of tiny solves; long_fibers runs the same solver and fiberwise layers as a
# few large systems.  A batching, banded or parallel change that helps one of
# the last two can cost the other.
WORKLOADS = {
    "refine_ladder": ("128x128", "256x256", "512x512", "1024x1024"),
    "many_fibers": ("64x2048",),
    "long_fibers": ("2048x64",),
}
REDUCED = {
    "refine_ladder": ("32x32", "64x64"),
    "many_fibers": ("32x256",),
    "long_fibers": ("256x32",),
}
SETUP_PROCESSES = 5  # per batch; one batch before and one after the timed passes
DEADLINE_S = 170.0
# every refinement step before 512^2 -> 1024^2 measures orders 1.93-2.00
ORDER_LOSS_FLOOR = 1.8
SELF_TIME_COVERAGE_TOL = 0.05
SETUP_CODE = ("import json, sys; import fanofib.cli; "
              "from fanofib.pipeline import config_from_mapping; "
              "config_from_mapping(json.loads(sys.argv[1]))")
DEFECT_CONFIG = "a = 3\nc = 2\nwarp_amplitude = 0\npipeline = ske\n"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def workload_mapping(grids, eps: float) -> dict:
    return {"a": "2", "c": "1", "warp_amplitude": eps,
            "warp_shape": "fiber_cubic", "pipeline": "both",
            "grids": ",".join(grids)}


def half_grid(grid: str) -> str:
    nf, nb = (int(t) for t in grid.split("x"))
    return f"{nf // 2}x{nb // 2}"


def input_nodes(grids) -> int:
    """Nodes of every grid, summed over the two fiber families."""
    total = 0
    for g in grids:
        nf, nb = (int(t) for t in g.split("x"))
        total += (nf + 1) * (nb + 1)
    return 2 * total


def tail_percentile(samples):
    """Highest percentile with at least 10 samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Runner:
    """Starts the child processes of one benchmark run within a deadline."""

    def __init__(self, out_dir: Path, blas_threads: int):
        self.out_dir = out_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)

    def run(self, cmd) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("deadline passed before " + " ".join(cmd[:3]))
        try:
            # run() kills the child and waits for it on timeout
            return subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(cmd[:3])}") from exc

    def setup_times(self, mapping: dict, warm: bool) -> list[float]:
        """Wall times of SETUP_PROCESSES fresh interpreters; with ``warm`` one
        more process first fills the bytecode and file caches, untimed."""
        cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(mapping)]
        times = []
        for i in range(SETUP_PROCESSES + warm):
            t0 = time.perf_counter()
            proc = self.run(cmd)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise BenchError("setup process failed:\n" + proc.stderr)
            if i >= warm:
                times.append(elapsed)
        return times

    def worker(self, mapping, seconds, companion=None, spans_path=None) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--config", json.dumps(mapping),
               "--seconds", repr(seconds), "--out", str(self.out_dir)]
        if companion is not None:
            cmd += ["--companion", json.dumps(companion)]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        proc = self.run(cmd)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError("worker failed:\n" + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def einstein_defect(self) -> dict:
        """`fanofib run` with a=3, c=2, eps=0, pipeline=ske on 512x64 and 256x64."""
        cfg = self.out_dir / "defect_c2.cfg"
        cfg.write_text(DEFECT_CONFIG)
        codes, message = {}, ""
        for grid in ("512x64", "256x64"):
            proc = self.run([sys.executable, "-m", "fanofib.cli", "run",
                             "--config", str(cfg), "--grid", grid])
            codes[grid] = proc.returncode
            if grid == "512x64" and proc.stderr.strip():
                message = proc.stderr.strip().splitlines()[-1]
        return {"status": "fixed" if codes["512x64"] == 0 else "present",
                "exit_codes": codes, "message": message}


def order_loss_defect(grids, orders) -> dict:
    """Whether the volume identities still lose order from 512^2 to 1024^2."""
    if grids[-2:] != ("512x512", "1024x1024"):
        return {"status": "not measured on this workload"}
    last = {k: v[-1] for k, v in orders.items() if k.startswith("volume_identity")}
    if len(last) != 4:
        return {"status": "not measured: volume identity orders missing"}
    return {"status": "present" if min(last.values()) < ORDER_LOSS_FLOOR else "fixed",
            "last_rung_orders": last}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def study_lines(grids, study, companion) -> list[str]:
    """Human-readable detail behind study_s and min_order."""
    passes = study["passes"]
    timed = [p["seconds"] for p in passes if p["kind"] == "timed"]
    tail = tail_percentile(timed)
    lines = [f"study_s: median of {len(timed)} warm passes; input "
             f"{input_nodes(grids)} nodes (sum of (n_f+1)(n_b+1) over grids, x 2 families)",
             "study_s tail: " + (f"p{tail[0]:.0f} = {tail[1]:.4f} s" if tail else
                                 f"none (needs more than 10 passes, have {len(timed)})"),
             f"study_s samples: {', '.join(f'{t:.4f}' for t in timed)}; "
             f"first (cold) pass {passes[0]['seconds']:.4f} s",
             "min_order per rung" + (" (companion half grid -> workload grid)"
                                     if companion else "") + ":"]
    for key in sorted(study["orders"]):
        lines.append(f"  {key:<26} " + ", ".join(f"{o:.3f}" for o in study["orders"][key]))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fanofib benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reduced", action="store_true",
                    help="small grids, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fanofib" / "__init__.py").is_file():
        print(f"error: no fanofib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    grids = (REDUCED if args.reduced else WORKLOADS)[args.workload]
    eps = random.Random(args.seed).uniform(0.1, 0.3)
    mapping = workload_mapping(grids, eps)
    companion = workload_mapping([half_grid(grids[0])], eps) if len(grids) == 1 else None
    nproc = len(os.sched_getaffinity(0))
    try:
        blas_threads = min(int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)), nproc)
    except ValueError:
        blas_threads = nproc

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    runner = Runner(out_dir, blas_threads)
    tag = f"{args.workload}{'_reduced' if args.reduced else ''}_seed{args.seed}"
    try:
        # set-up time drifts with the host's load, so it is sampled on both
        # sides of the timed passes
        setup = [] if args.trace else runner.setup_times(mapping, warm=True)
        study = runner.worker(mapping, args.seconds, companion=companion)
        if not args.trace:
            setup += runner.setup_times(mapping, warm=False)
        traced = None
        if args.trace:
            traced = runner.worker(mapping, args.seconds,
                                   spans_path=out_root / f"spans_{tag}.json")
        defects = {"einstein_c_ne_1": runner.einstein_defect(),
                   "order_loss_512_1024": order_loss_defect(grids, study["orders"])}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    passes = study["passes"] + (traced["passes"] if traced else [])
    failures = [p["failure"] for p in passes if p["failure"] is not None]
    orders = [o for v in study["orders"].values() for o in v]
    rungs = max(len(grids) - 1, 1)
    orders_ok = all(len(v) == rungs and all(o == o for o in v)
                    for v in study["orders"].values())
    correct = not failures and orders_ok
    commit = git_commit()
    prov = study["provenance"]

    print(f"workload {args.workload}{' (reduced)' if args.reduced else ''}: "
          f"grids {', '.join(grids)}; seed {args.seed} -> warp amplitude {eps!r}")
    print(f"provenance: commit {commit}; python {platform.python_version()}; "
          f"numpy {prov['numpy']}; blas {prov['blas']}; nproc {nproc}; "
          f"blas threads {blas_threads}")
    print(f"failed_share = {len(failures) / len(passes):.4f} "
          f"({len(failures)} of {len(passes)} passes)")
    for f in failures:
        print(f"FAILED pass: stage {f['stage']}: {f['type']}: {f['message']}")
    if not orders_ok:
        print("FAILED: convergence orders missing or not finite")
    for line in study_lines(grids, study, companion):
        print(line)

    timed = [p["seconds"] for p in study["passes"] if p["kind"] == "timed"]
    values = {"study_s": statistics.median(timed),
              "peak_rss_mb": study["peak_rss_mb"],
              "pass_share": 1.0 - len(failures) / len(passes),
              "min_order": min((o for o in orders if o == o), default=0.0)}
    if setup:
        values["setup_s"] = statistics.median(setup)
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}")
    if traced:
        values.update(traced["layer_metrics"])
        traced_pass = traced["passes"][-1]
        values["pipeline.cpu_per_wall"] = traced_pass["cpu_seconds"] / traced_pass["seconds"]
        values["trace.overhead"] = traced_pass["seconds"] / values["study_s"] - 1.0
        coverage = traced["traced_self_s"] / traced_pass["seconds"]
        print(f"traced pass {traced_pass['seconds']:.4f} s; layer self times sum to "
              f"{traced['traced_self_s']:.4f} s ({coverage:.2%} of the pass); "
              f"trace.overhead = {values['trace.overhead']:.4f}")
        print(f"attribution: {ATTRIBUTION_NOTE}")
        if abs(coverage - 1.0) > SELF_TIME_COVERAGE_TOL:
            print("FAILED: layer self times do not add up to the traced pass")
            correct = False
    for name, d in defects.items():
        detail = {k: v for k, v in d.items() if k != "status"}
        print(f"known defect {name}: {d['status']}" + (f" {json.dumps(detail)}" if detail else ""))

    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")

    detail = {"workload": args.workload, "reduced": args.reduced, "seed": args.seed,
              "warp_amplitude": eps, "grids": list(grids), "commit": commit,
              "nproc": nproc, "blas_threads": blas_threads, "provenance": prov,
              "passes": passes, "orders": study["orders"], "defects": defects,
              "setup_s_samples": setup, "metrics": metrics}
    (out_root / f"result_{tag}_trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(passes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

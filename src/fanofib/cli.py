"""Command-line interface: run, constants, refine, check."""

from __future__ import annotations

import argparse
import sys

from .errors import FanofibError
from .model import derive_constants
from .pipeline import ALL_CHECKS, PIPELINES, PipelineStageError, load_config, run_pipeline
from .report import _num, console_table, emit_report


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--grid", action="append", default=None, metavar="NxM",
                   help="grid size, repeatable for refinement lists")
    p.add_argument("--out", default=None, help="output directory for artifacts")
    p.add_argument("--pipeline", choices=PIPELINES, default=None)


def _build_config(args, extra=None):
    mapping = {}
    if args.grid:
        mapping["grids"] = ",".join(args.grid)
    if args.pipeline:
        mapping["pipeline"] = args.pipeline
    if extra:
        mapping.update(extra)
    return load_config(args.config, mapping)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fanofib",
        description="verify twisted Kahler-Einstein structures on "
                    "torus-symmetric model Fano fibrations")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="full pipeline with all requested checks")
    _add_common(run_p)

    const_p = sub.add_parser("constants", help="print the exact derived constants")
    const_p.add_argument("--config", help="key = value configuration file")
    const_p.add_argument("-a", default=None, help="base class coefficient (p/q)")
    const_p.add_argument("-c", default=None, help="fiber class coefficient (p/q)")

    refine_p = sub.add_parser("refine", help="convergence study over a grid list")
    _add_common(refine_p)

    check_p = sub.add_parser("check", help="run a single named check")
    check_p.add_argument("name", choices=ALL_CHECKS)
    _add_common(check_p)

    args = parser.parse_args(argv)

    try:
        if args.command == "constants":
            overrides = {k: v for k, v in (("a", args.a), ("c", args.c))
                         if v is not None}
            cfg = load_config(args.config, overrides)
            consts = derive_constants(cfg.model_spec(cfg.grids[0]))
            for key, value in consts.by_name().items():
                print(f"{key} = {_num(value)}")
            return 0

        extra = {"checks": args.name} if args.command == "check" else None
        cfg = _build_config(args, extra)
        if args.command == "refine" and len(cfg.grids) < 2:
            parser.error("refine needs at least two --grid arguments")
        try:
            report = run_pipeline(cfg)
        except PipelineStageError as exc:
            # printed first, so that a failed emission of the partial
            # report adds its own line instead of hiding the stage error
            print(console_table(exc.report), file=sys.stderr)
            print(f"error at stage {exc.stage}: {exc.original}", file=sys.stderr)
            if args.out:
                emit_report(exc.report, args.out)
            return 2
        print(console_table(report))
        if report.orders:
            print("\nconvergence orders (log residual ratio / log refinement "
                  "factor; nan where the axes refine unequally):")
            for name in sorted(report.orders):
                orders = ", ".join(f"{o:.2f}" for o in report.orders[name])
                print(f"  {name:<44} {orders}")
        if args.out:
            for path in emit_report(report, args.out):
                print(f"wrote {path}")
        return 0 if report.passed else 1
    except FanofibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

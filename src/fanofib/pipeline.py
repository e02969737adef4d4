"""Pipeline orchestration: configuration, staged runs, refinement studies.

A run builds the reference geometry once per grid and walks, per
fiber-family kind, through fiber solves, both base-form routes, the base
Monge-Ampere solves, and the selected residual and identity checks;
convergence orders are taken between consecutive grids that refine both
axes by the same factor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cohomology
from .basespace import (LP_EPS, VARIANT_B, VARIANT_BPRIME, compute_gprime,
                        check_g_descends, integrated_ma_defect, solve_base_ma,
                        twisted_ke_residual, volume_identity_residual,
                        wpl_fs_residual)
from .errors import ConfigError, FanofibError
from .fiberwise import SKE, SPR, solve_spr, solve_ske, verify_fiber_family
from .grids import TRUNCATION_CONSTANT, TRUNCATION_FLOOR, Grid
from .model import ModelSpec, ReferenceGeometry, build_reference, derive_constants
from .report import CheckRecord, Report, provenance
from .solvers import NEWTON_TOL
from .wpform import (SectionFamilySpec, volume_family_from_sections,
                     wp_from_residual, wp_from_sections)

ALL_CHECKS = ("fiber", "wp_routes", "gprime", "base_ma", "twisted_ke",
              "wpl_fs", "volume_identities", "cohomology")
PIPELINES = {"spr": (SPR,), "ske": (SKE,), "both": (SPR, SKE)}

_EXACT = "exact"
_TRUNC = "trunc"
EXACT_TOL = 1e-10       # the tolerance of an exact-grade residual, at roundoff


@dataclass(frozen=True)
class PipelineConfig:
    a: Fraction = Fraction(2)
    c: Fraction = Fraction(1)
    warp_amplitude: float = 0.0
    warp_shape: str = "product_bump"
    grids: tuple = ((64, 64),)
    pipeline: str = "both"
    checks: tuple = ALL_CHECKS

    def model_spec(self, grid: tuple[int, int]) -> ModelSpec:
        return ModelSpec.make(self.a, self.c, self.warp_amplitude,
                              self.warp_shape, grid[0], grid[1])

    def as_mapping(self) -> dict:
        """The fields, and the fixed gates under the keys they had as
        fields, so that a run's ``config_sha256`` keeps its value."""
        return {"a": str(self.a), "c": str(self.c),
                "warp_amplitude": self.warp_amplitude,
                "warp_shape": self.warp_shape,
                "grids": ["x".join(map(str, g)) for g in self.grids],
                "pipeline": self.pipeline, "checks": list(self.checks),
                "newton_tol": NEWTON_TOL, "residual_tol": TRUNCATION_FLOOR,
                "quadrature_tol": EXACT_TOL,
                "h2_constant": TRUNCATION_CONSTANT, "eps_lp": LP_EPS}


def parse_config(text: str) -> dict:
    """Parse the key = value configuration format ('#' starts a comment);
    a key may be set once."""
    out, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: key {key!r} is already set "
                              f"on line {first_line[key]}")
        out[key], first_line[key] = value, lineno
    return out


def _parse_grid(token: str) -> tuple[int, int]:
    try:
        nf, nb = token.lower().split("x")
        return (int(nf), int(nb))
    except ValueError as exc:
        raise ConfigError(f"bad grid {token!r}, expected NxM") from exc


def _tokens(key: str, raw) -> list[str]:
    """The non-empty items of a comma-separated string or of a list."""
    items = raw.split(",") if isinstance(raw, str) else raw
    tokens = [str(t).strip() for t in items] if isinstance(items, (list, tuple)) else []
    if not any(tokens):
        raise ConfigError(f"{key} = {raw!r} is not a non-empty list")
    return [t for t in tokens if t]


def _once(key: str, tokens: list[str], parse) -> tuple:
    """``parse`` of each token; ConfigError if two give the same item."""
    items = [parse(t) for t in tokens]
    twice = [t for i, t in enumerate(tokens) if items[i] in items[:i]]
    if twice:
        raise ConfigError(f"{key} lists {twice[0]!r} twice")
    return tuple(items)


def _number(key: str, raw, parse, what: str):
    """``parse(raw)`` if that gives a finite number, else ConfigError."""
    try:
        value = parse(raw)
        finite = math.isfinite(value)
    except (ArithmeticError, TypeError, ValueError):
        finite = False
    if not finite:
        raise ConfigError(f"{key} = {raw!r} is not {what}")
    return value


def config_from_mapping(mapping: dict) -> PipelineConfig:
    kw = {}
    m = dict(mapping)
    for key in ("a", "c"):
        if key in m:
            kw[key] = _number(key, m.pop(key), lambda raw: Fraction(str(raw)),
                              "a finite rational")
    if "warp_amplitude" in m:
        kw["warp_amplitude"] = _number("warp_amplitude", m.pop("warp_amplitude"),
                                       float, "a finite number")
    if "warp_shape" in m:
        kw["warp_shape"] = str(m.pop("warp_shape"))
    if "grids" in m:
        kw["grids"] = _once("grids", _tokens("grids", m.pop("grids")), _parse_grid)
    if "pipeline" in m:
        p = str(m.pop("pipeline"))
        if p not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {sorted(PIPELINES)}")
        kw["pipeline"] = p
    if "checks" in m:
        names = _tokens("checks", m.pop("checks"))
        unknown = [n for n in names if n not in ALL_CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks {unknown}; available {ALL_CHECKS}")
        kw["checks"] = _once("checks", names, str)
    if m:
        raise ConfigError(f"unknown configuration keys {sorted(map(str, m))}")
    cfg = PipelineConfig(**kw)
    if cfg.pipeline == "ske" and set(cfg.checks) == {"wpl_fs"}:
        # wpl_fs records for the prescribed-Ricci family alone (``_run_cell``),
        # and a run that records nothing would pass on its empty list
        raise ConfigError(f"checks {list(cfg.checks)} record nothing for "
                          f"pipeline = {cfg.pipeline}")
    for nf, nb in cfg.grids:
        try:
            Grid(nf, nb)
        except ValueError as exc:
            raise ConfigError(f"grid {nf}x{nb}: {exc}") from exc
    # the model: warp shape and amplitude, a > c > 0, class denominators
    try:
        derive_constants(cfg.model_spec(cfg.grids[0]))
    except FanofibError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path=None, overrides=None) -> PipelineConfig:
    """The configuration of a key = value file (if ``path`` is given)
    with the entries of ``overrides`` taking precedence."""
    mapping = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
        mapping = parse_config(text)
    mapping.update(overrides or {})
    return config_from_mapping(mapping)


# ---------------------------------------------------------------------------
# staged execution
# ---------------------------------------------------------------------------

class PipelineStageError(FanofibError):
    """A stage failed; carries the partial report for emission."""

    def __init__(self, stage: str, original: Exception, report: Report):
        super().__init__(f"stage {stage!r}: {original}")
        self.stage = stage
        self.original = original
        self.report = report


def run_pipeline(config: PipelineConfig) -> Report:
    report = Report(model={"a": config.a, "c": config.c,
                           "warp_amplitude": config.warp_amplitude,
                           "warp_shape": config.warp_shape},
                    constants={}, grids=list(config.grids),
                    checks=list(config.checks),
                    provenance=provenance(config.as_mapping()))
    stage = "derive_constants"
    try:
        consts = derive_constants(config.model_spec(config.grids[0]))
        report.constants = consts.by_name()
        for grid_pair in config.grids:
            stage = f"grid {grid_pair}"
            laps = _Laps()
            ref = build_reference(config.model_spec(grid_pair))
            for kind in PIPELINES[config.pipeline]:
                stage = f"grid {grid_pair} / {kind}"
                _run_cell(config, ref, kind, report, laps)
    except FanofibError as exc:
        report.error = {"stage": stage, "message": str(exc),
                        "type": type(exc).__name__}
        raise PipelineStageError(stage, exc, report) from exc
    _attach_orders(report)
    return report


class _Laps:
    """Wall time since the previous lap, starting at construction.

    One per grid: each record is charged the time since the record before
    it (the first one since the grid's reference build began), so the
    records' times partition the grid's run and no stage is counted twice
    or dropped.  A call that yields several records charges its shared
    work to the first.  Work computed before a record and reused later is
    charged to that record: wp_routes carries the family's pullback
    residual (``wp_from_residual``), which the volume identities reuse, so
    their records carry only O(n_base) work beyond the gap diagnostics.
    """

    def __init__(self):
        self.last = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed, self.last = now - self.last, now
        return elapsed


def _record(report: Report, grid: Grid, kind: str, name: str,
            residual: float, grade: str, laps: _Laps, **values):
    # fixed gates: no configuration key or flag changes them
    tol = EXACT_TOL if grade == _EXACT else grid.truncation_tol(1.0)
    report.records.append(CheckRecord(
        name=name, pipeline=kind, grid=(grid.n_fiber, grid.n_base),
        residual=float(residual), tolerance=tol,
        passed=bool(residual <= tol), grade=grade, values=values,
        wall_time=laps.lap()))


def _run_cell(cfg: PipelineConfig, ref: ReferenceGeometry, kind: str,
              report: Report, laps: _Laps) -> None:
    grid = ref.grid

    fiber = solve_spr(ref) if kind == SPR else solve_ske(ref)

    if "fiber" in cfg.checks:
        audit = verify_fiber_family(ref, fiber)
        values = {"solver_residual": fiber.residual_sup,
                  "volume_defect": fiber.volume_defect,
                  "positivity_margin": audit.positivity_margin}
        if audit.weight_forward_sup is not None:
            values["weight_forward"] = audit.weight_forward_sup
            values["exp_l2"] = audit.exp_l2_diagnostic
        _record(report, grid, kind, "fiber_solver", fiber.residual_sup,
                _EXACT, laps, **values)
        _record(report, grid, kind, "fiber_forward",
                audit.forward_residual_sup, _TRUNC, laps)

    family = volume_family_from_sections(
        ref, SectionFamilySpec.canonical(ref.consts), fiber)
    wp_sections = wp_from_sections(ref, family)
    wp_residual = wp_from_residual(ref, fiber)

    if "wp_routes" in cfg.checks:
        diff = float(np.abs(wp_sections.wp_base -
                            wp_residual.wp_base).max())
        _record(report, grid, kind, "wp_routes", diff, _TRUNC, laps,
                verticality_defect=wp_residual.verticality_defect,
                ric_defect=family.ric_defect,
                wp_fs_min=float(wp_sections.wp_fs.min()))

    gprime = compute_gprime(ref, fiber)
    if "gprime" in cfg.checks:
        gp = gprime
        descend = check_g_descends(ref, fiber, gp)
        _record(report, grid, kind, "gprime", gp.normalization_defect,
                _EXACT, laps, delta_lower=gp.delta_lower,
                adjoint_defect=gp.adjoint_defect,
                **{f"lp_{p:g}": v for p, v in gp.lp_norms.items()})
        _record(report, grid, kind, "g_descends",
                float(np.max([descend.vertical_oscillation,
                              descend.pullback_defect])),
                _TRUNC, laps, vertical_oscillation=descend.vertical_oscillation,
                pullback_defect=descend.pullback_defect)

    sol_b = solve_base_ma(ref, gprime, VARIANT_B)
    sol_bp = solve_base_ma(ref, gprime, VARIANT_BPRIME)
    if "base_ma" in cfg.checks:
        for sol in (sol_b, sol_bp):
            _record(report, grid, kind, f"base_ma[{sol.variant}]",
                    sol.forward_residual, _EXACT, laps,
                    positivity_margin=sol.positivity_margin,
                    zeroth_order_min=sol.zeroth_order_min,
                    iterations=sol.iterations,
                    integrated_defect=integrated_ma_defect(ref, gprime, sol))

    tke = {sol.variant: twisted_ke_residual(ref, sol, wp_sections)
           for sol in (sol_b, sol_bp)}
    if "twisted_ke" in cfg.checks:
        for sol in (sol_b, sol_bp):
            rep_r = twisted_ke_residual(ref, sol, wp_residual)
            _record(report, grid, kind, rep_r.name, rep_r.relative,
                    _TRUNC, laps, residual_sections=tke[sol.variant].residual_sup,
                    residual_routes=rep_r.residual_sup, scale=rep_r.scale)

    if "wpl_fs" in cfg.checks and kind == SPR:
        rep = wpl_fs_residual(ref, wp_sections)
        rep_r = wpl_fs_residual(ref, wp_residual)
        _record(report, grid, kind, rep_r.name, rep_r.relative,
                _TRUNC, laps, residual_sections=rep.residual_sup,
                residual_routes=rep_r.residual_sup)

    if "volume_identities" in cfg.checks:
        for rep in volume_identity_residual(ref, fiber, wp_residual,
                                            [sol_b, sol_bp]):
            _record(report, grid, kind, rep.name, rep.relative, _TRUNC,
                    laps, **rep.extra)

    if "cohomology" in cfg.checks:
        base = cohomology.check_base_identity(ref, wp_sections)
        fiber_rep, total = cohomology.check_total_identity(ref, wp_sections)
        _record(report, grid, kind, "cohomology",
                float(np.max([base.relative, total.relative])), _TRUNC, laps,
                base_measured=base.measured, base_expected=base.expected,
                total_base_defect=total.defect,
                fiber_defect_exact=float(fiber_rep.exact_defect))

    report.profiles[(kind, (grid.n_fiber, grid.n_base))] = {
        "x_b": grid.nodes_b,
        "gprime": gprime.gprime,
        "rho_B": sol_b.rho,
        "rho_Bprime": sol_bp.rho,
        "wp_sections_fs": wp_sections.wp_fs,
        "wp_residual_fs": wp_residual.wp_fs,
        "omega_B_fs": sol_b.dens_fs,
        "tke_B_residual": tke[VARIANT_B].field,
        "tke_Bprime_residual": tke[VARIANT_BPRIME].field,
    }


def _attach_orders(report: Report) -> None:
    """Convergence order log(r_h / r_{h/k}) / log k between consecutive
    grids of a truncation-grade series, where both axes refine by the
    same factor k (k = 2 on a halving ladder, k < 1 on a coarsening
    step); NaN where they do not, or where a residual is not positive.
    An exact-grade residual is roundoff and gets no order."""
    series: dict[tuple[str, str], list] = {}
    for rec in report.records:
        if rec.grade == _EXACT:
            continue
        series.setdefault((rec.name, rec.pipeline), []).append((rec.grid, rec.residual))
    for (name, kind), points in series.items():
        if len(points) < 2:
            continue
        orders = []
        for ((nf, nb), a), ((nf2, nb2), b) in zip(points, points[1:]):
            if a <= 0 or b <= 0 or nf2 * nb != nb2 * nf or nf2 == nf:
                orders.append(float("nan"))
            else:
                orders.append(math.log2(a / b) / math.log2(nf2 / nf))
        report.orders[f"{name}[{kind}]"] = orders

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanofib import pipeline
from fanofib.cli import main
from fanofib.errors import ConfigError, NonConvergence
from fanofib.fiberwise import SPR
from fanofib.pipeline import (ALL_CHECKS, EXACT_TOL, PipelineConfig,
                              PipelineStageError, config_from_mapping,
                              load_config, parse_config, run_pipeline)
from fanofib.report import emit_report

MODEL_A = "a = 2\nc = 1\nwarp_amplitude = 0\n"
MODEL_B = "a = 2\nc = 1\nwarp_amplitude = 0.2\n"


def write_cfg(tmp_path, text, name="model.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def model_with(line):
    """The config a = 2, c = 1 with ``line`` setting one more key, or
    replacing the entry of its key (a key may be set once)."""
    entries = {"a": "a = 2", "c": "c = 1"}
    entries[line.split("=")[0].strip()] = line
    return "".join(f"{entry}\n" for entry in entries.values())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_parse_config_roundtrip():
    mapping = parse_config("a = 3/2 # comment\n\nc= 1/2\ngrids = 32x32, 64x64\n")
    cfg = config_from_mapping(mapping)
    assert str(cfg.a) == "3/2"
    assert cfg.grids == ((32, 32), (64, 64))


def test_load_config_file(tmp_path):
    path = write_cfg(tmp_path, "a = 2\nc = 1\ngrids = 32x64\npipeline = spr\n")
    cfg = load_config(path, {"pipeline": "ske"})
    assert cfg.grids == ((32, 64),)
    assert cfg.pipeline == "ske"   # the overrides take precedence


def test_load_config_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    # editors on Windows save UTF-8 with a BOM, which must not end up in
    # the first key
    text = MODEL_B + "grids = 32x32\n"
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(text.encode("utf-8-sig"))
    assert load_config(bom, {}) == load_config(write_cfg(tmp_path, text), {})


FIELDS = tuple(f.name for f in dataclasses.fields(PipelineConfig))


def fields_of(cfg):
    """The six fields of ``cfg`` as ``config_from_mapping`` reads them."""
    return {"a": str(cfg.a), "c": str(cfg.c),
            "warp_amplitude": cfg.warp_amplitude, "warp_shape": cfg.warp_shape,
            "grids": ["x".join(map(str, g)) for g in cfg.grids],
            "pipeline": cfg.pipeline}


def test_config_keys_are_the_pipeline_config_fields():
    # every key sets a field, and no other key is accepted: out, n_fiber,
    # n_base and checks are no fields, so they are rejected, not dropped
    default = PipelineConfig()
    mapping = fields_of(default)
    assert set(mapping) == set(FIELDS)
    assert len(FIELDS) == 6
    assert config_from_mapping(mapping) == default
    for key in ("out", "n_fiber", "n_base", "checks"):
        with pytest.raises(ConfigError, match=rf"unknown configuration keys \['{key}'\]"):
            config_from_mapping({**mapping, key: "32"})


def test_readme_config_example_sets_exactly_the_config_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n# model.cfg\n", 1)[1].split("```", 1)[0]
    mapping = parse_config(block)
    assert set(mapping) == set(FIELDS)
    config_from_mapping(mapping)


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config("just words\n")
    with pytest.raises(ConfigError):
        config_from_mapping({"nonsense": 1})
    with pytest.raises(ConfigError):
        config_from_mapping({"pipeline": "all"})
    for bad in ({"grids": [64]}, {"grids": []}, {"grids": " , "},
                {"grids": 64}, {1: "a", "b": 2}):
        with pytest.raises(ConfigError):
            config_from_mapping(bad)


def test_parse_config_rejects_a_repeated_key():
    with pytest.raises(ConfigError,
                       match="line 3: key 'a' is already set on line 1"):
        parse_config("a = 2\nc = 1\na = 3\n")


def test_cli_rejects_a_repeated_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a = 2\nc = 1\na = 3\n", name="dup.cfg")
    code = main(["run", "--config", cfg, "--grid", "16x16"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'a'" in err and "line 1" in err and "line 3" in err


def test_cli_rejects_a_repeated_grid_flag(tmp_path, capsys):
    # a run would compute the cell twice; grids compare as parsed
    cfg = write_cfg(tmp_path, MODEL_A)
    code = main(["run", "--config", cfg, "--grid", "32x32", "--grid", "32X32"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: grids lists '32X32' twice\n"


def test_cli_grid_overrides_the_file(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_A + "grids = 32x32\npipeline = spr\n")
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--grid", "16x16", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert report["grids"] == [[16, 16]]


def test_cli_runs_the_skew_bump_warp_at_256(tmp_path):
    # next to the pole Q = x_b^2 (1 - x_b) is O(h^2), so the fiber
    # potentials' source u - m0 is 2.5e-7 on base column 1 while its
    # compatibility integral carries 7.5e-15 of the O(1) terms' roundoff:
    # 3.0e-8 of sup|g (u - m0)|, which failed the gate and the run with
    # exit 2, and 2.0e-14 of sup|g u| + sup|g m0|, the gate's scale now
    cfg = write_cfg(tmp_path, MODEL_B + "warp_shape = skew_bump\n"
                    "grids = 256x256\npipeline = both\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    assert {r["pipeline"] for r in report["records"]} == {"spr", "ske"}


_KEYS = ("a", "c", "warp_amplitude", "warp_shape", "grids", "n_fiber",
         "n_base", "pipeline", "checks", "newton_tol", "residual_tol",
         "quadrature_tol", "h2_constant", "eps_lp", "out")
_TOKENS = ("", " ", "0", "1", "2", "3/2", "-1", "1/0", "1e-400", "1e400",
           "nan", "inf", "abc", "16x16", "32x64", "48x64", "16x16,32x32", "x",
           "fiber_cubic", "product_bump", "both", "spr", "fiber,gprime",
           "volume_identities", "0.2", "64.5")
_VALUES = st.one_of(
    st.sampled_from(_TOKENS), st.none(), st.booleans(),
    st.integers(-10**4, 10**4), st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.lists(st.one_of(st.sampled_from(_TOKENS), st.integers(), st.none()),
             max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.one_of(st.sampled_from(_KEYS), st.text(max_size=4)),
                       _VALUES, max_size=6))
def test_any_mapping_builds_a_config_or_raises_config_error(mapping):
    try:
        cfg = config_from_mapping(mapping)
    except ConfigError:
        return
    assert isinstance(cfg, PipelineConfig)
    assert config_from_mapping(fields_of(cfg)) == cfg


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_KEYS + ("nonsense",)),
                          st.one_of(st.sampled_from(_TOKENS),
                                    st.text(st.characters(
                                        exclude_characters="\r\n#",
                                        exclude_categories=("Cs",)),
                                        max_size=8))),
                max_size=5))
def test_cli_exits_2_with_one_line_on_any_rejected_config(lines):
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        config_from_mapping(parse_config(text))
    except ConfigError:
        pass
    else:
        return                          # a valid config; not run here
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", path])
    assert code == 2
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def model_a_report():
    cfg = config_from_mapping({"a": "2", "c": "1", "grids": "32x32"})
    return run_pipeline(cfg)


def test_pipeline_model_a_passes(model_a_report):
    assert model_a_report.passed
    names = {(r.name, r.pipeline) for r in model_a_report.records}
    assert ("wp_routes", "spr") in names and ("wp_routes", "ske") in names
    assert ("volume_identity[1]", "spr") in names
    assert ("volume_identity[4]", "ske") in names


def test_pipeline_records_have_all_requested_checks(model_a_report):
    # every run makes every record of ALL_CHECKS, in the order of the
    # stages; wpl_fs records for the prescribed-Ricci family alone
    def names(kind, identities):
        return ["fiber_solver", "fiber_forward", "wp_routes", "gprime",
                "g_descends", "base_ma[B]", "base_ma[Bprime]", "twisted_ke[B]",
                "twisted_ke[Bprime]", *(["wpl_fs"] if kind == "spr" else []),
                *(f"volume_identity[{i}]" for i in identities), "cohomology"]

    assert model_a_report.checks == list(ALL_CHECKS)
    for kind, identities in (("spr", (1, 2)), ("ske", (3, 4))):
        got = [r.name for r in model_a_report.records if r.pipeline == kind]
        assert got == names(kind, identities), kind


def test_pipeline_model_a_values(model_a_report):
    wp = [r for r in model_a_report.records if r.name == "wp_routes"][0]
    assert wp.residual < 1e-10
    rhoB = model_a_report.profiles[("spr", (32, 32))]["rho_B"]
    assert np.abs(rhoB).max() == 0.0
    wp_fs = model_a_report.profiles[("spr", (32, 32))]["wp_sections_fs"]
    assert np.allclose(wp_fs, 4.0, atol=1e-11)


def test_pipeline_constants_echo(model_a_report):
    consts = model_a_report.constants
    assert str(consts["eT"]) == "2/3"
    assert consts["k"] == 3 and consts["kprime"] == 1


def test_pipeline_stage_error_carries_report():
    cfg = PipelineConfig(a=2, c=1, warp_amplitude=40.0)   # positivity fails
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.report.error is not None
    # the shared reference build fails before either family starts
    assert err.value.report.error["stage"] == "grid (64, 64)"


def test_pipeline_orientation_error_at_constants_stage():
    cfg = PipelineConfig(a=1, c=1)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.report.error["stage"] == "derive_constants"


def test_refinement_orders_attached():
    # only truncation-grade series get orders: an exact-grade residual is
    # roundoff, so its log2 ratio is no order; the records themselves stay
    cfg = config_from_mapping({"a": "2", "c": "1", "warp_amplitude": "0.2",
                               "warp_shape": "fiber_cubic",
                               "grids": "32x32,64x64", "pipeline": "both"})
    rep = run_pipeline(cfg)
    assert "wp_routes[spr]" in rep.orders
    assert rep.orders["fiber_forward[spr]"][0] > 1.5
    exact = {"fiber_solver", "gprime", "base_ma[B]", "base_ma[Bprime]"}
    assert exact <= {r.name for r in rep.records}
    for kind in ("spr", "ske"):
        assert not {f"{name}[{kind}]" for name in exact} & set(rep.orders)
        assert {f"{name}[{kind}]" for name in ("wp_routes", "fiber_forward",
                                               "g_descends")} <= set(rep.orders)


def test_orders_divide_by_the_log_of_the_refinement_factor():
    # fiber_forward[spr] is second order: a 4x step reads 2, not the log2
    # ratio of about 4, a coarsening step reads 2, not -2, and a step that
    # refines the axes by different factors has no order
    def fiber_forward(grids):
        rep = run_pipeline(config_from_mapping({
            "a": "2", "c": "1", "warp_amplitude": "0.2", "warp_shape": "fiber_cubic",
            "grids": grids, "pipeline": "spr"}))
        residuals = [r.residual for r in rep.records if r.name == "fiber_forward"]
        return residuals, rep.orders["fiber_forward[spr]"]

    (r32, r128), (up,) = fiber_forward("32x32,128x128")
    assert 1.9 < up < 2.1
    assert up == math.log2(r32 / r128) / 2.0
    _, (down,) = fiber_forward("128x128,32x32")
    assert down == pytest.approx(up, rel=1e-12)
    assert np.isnan(fiber_forward("32x32,64x128")[1][0])
    # a halving step is the log2 ratio itself, bit for bit
    (r32, r64), (half,) = fiber_forward("32x32,64x64")
    assert half == math.log2(r32 / r64)


def _replacing(name, field):
    """A patch under which ``pipeline.<name>`` returns its result with
    ``field`` replaced by the value."""
    def patch(monkeypatch, value):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args: dataclasses.replace(
            real(*args), **{field: value}))
    return patch


def _integrated_ma_defect(monkeypatch, value):
    monkeypatch.setattr(pipeline, "integrated_ma_defect", lambda *args: value)


def _fiber_pairing(monkeypatch, value):
    real = pipeline.cohomology.check_total_identity

    def off(ref, wp):
        fiber, base = real(ref, wp)
        return dataclasses.replace(fiber, relative=value), base

    monkeypatch.setattr(pipeline.cohomology, "check_total_identity", off)


# one case per quantity folded into a record's residual, (pipeline, record,
# value, patch): the producer reports 1e-6 to an exact-grade record, 1.0 to
# a truncation-grade one, and the record must read that value and fail
FOLDS = {
    "volume_defect": ("spr", "fiber_solver", 1e-6,
                      _replacing("solve_spr", "volume_defect")),
    "weight_forward_sup": ("ske", "fiber_forward", 1.0,
                           _replacing("verify_fiber_family", "weight_forward_sup")),
    "ric_defect": ("spr", "fiber_forward", 1.0,
                   _replacing("volume_family_from_sections", "ric_defect")),
    "adjoint_defect": ("spr", "gprime", 1e-6,
                       _replacing("compute_gprime", "adjoint_defect")),
    "integrated_ma_defect": ("spr", "base_ma", 1e-6, _integrated_ma_defect),
    "fiber_pairing": ("spr", "cohomology", 1.0, _fiber_pairing),
}


@pytest.mark.parametrize("quantity", sorted(FOLDS))
def test_a_folded_quantity_fails_its_record(monkeypatch, quantity):
    kind, name, value, patch = FOLDS[quantity]
    patch(monkeypatch, value)
    rep = run_pipeline(config_from_mapping(
        {"a": "2", "c": "1", "warp_amplitude": "0.2", "warp_shape": "fiber_cubic",
         "grids": "32x32", "pipeline": kind}))
    hit = [r for r in rep.records if r.name.split("[")[0] == name]
    assert hit and all(r.residual == value and not r.passed for r in hit)


@pytest.mark.parametrize("bend", [0.0, 1e-2])
def test_base_equation_records_see_a_bent_sections_form(monkeypatch, bend):
    # twisted_ke and wpl_fs read the sections route's form, where both
    # equations hold up to roundoff; bending that form by a smooth 1% (which
    # wp_routes, at 5.3e-3 against 6.1e-3 on this grid, lets through) fails
    # twisted_ke[B|Bprime] in both families and wpl_fs, which the unbent
    # run passes
    real = pipeline.wp_from_sections

    def bent(ref, family):
        wp = real(ref, family)
        wp_fs = wp.wp_fs * (1.0 + bend * np.cos(np.pi * ref.grid.nodes_b))
        return dataclasses.replace(wp, wp_fs=wp_fs, wp_base=ref.grid.g_b * wp_fs)

    monkeypatch.setattr(pipeline, "wp_from_sections", bent)
    rep = run_pipeline(config_from_mapping(
        {"a": "2", "c": "1", "warp_amplitude": "0.2", "warp_shape": "fiber_cubic",
         "grids": "128x128", "pipeline": "both"}))
    outcome = {(r.name, r.pipeline): r.passed for r in rep.records
               if r.name.startswith(("twisted_ke", "wpl_fs"))}
    assert outcome == {(name, kind): not bend
                       for kind in ("spr", "ske")
                       for name in ("twisted_ke[B]", "twisted_ke[Bprime]")} | {
                           ("wpl_fs", "spr"): not bend}


def _values_classes() -> dict:
    """The README's table of ``values`` keys: key -> list of (records, class)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| `values` key | records | class |", 1)[1]
    rows = {}
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        key, records, cls = (cell.strip() for cell in line.strip("|").split("|")[:3])
        rows.setdefault(key.strip("`"), []).append(
            ({r.strip().strip("`") for r in records.split(",")}, cls))
    return rows


def test_every_values_key_has_one_class_in_the_readme():
    classes = {"witness", "telemetry", "component", "gap"}
    rows = _values_classes()
    assert all(len(entries) == 1 and entries[0][1] in classes
               for entries in rows.values()), rows
    table = {(record, key) for key, ((records, _),) in rows.items()
             for record in records}
    rep = run_pipeline(config_from_mapping(
        {"a": "2", "c": "1", "warp_amplitude": "0.2", "warp_shape": "fiber_cubic",
         "grids": "32x32", "pipeline": "both"}))
    emitted = {(r.name.split("[")[0], key) for r in rep.records for key in r.values}
    assert emitted == table


def test_record_wall_times_partition_the_run(monkeypatch):
    real = pipeline.wp_from_residual

    def slow_first(ref, fiber_sol):
        if fiber_sol.kind == SPR:
            time.sleep(0.05)
        return real(ref, fiber_sol)

    monkeypatch.setattr(pipeline, "wp_from_residual", slow_first)
    cfg = config_from_mapping({"a": "2", "c": "1", "warp_amplitude": "0.2",
                               "warp_shape": "fiber_cubic", "grids": "32x32"})
    t0 = time.perf_counter()
    rep = run_pipeline(cfg)
    total = time.perf_counter() - t0
    wall = {f"{r.name}[{r.pipeline}]": r.wall_time for r in rep.records}
    # each record is charged only the time since the record before it; the
    # family's pullback residual, which the volume identities reuse, is
    # charged to wp_routes
    assert wall["wp_routes[spr]"] >= 0.05
    assert wall["gprime[spr]"] < 0.05
    assert wall["volume_identity[1][spr]"] < 0.05
    spent = sum(wall.values())
    assert 0.9 * total <= spent <= total


def test_both_families_share_one_reference_per_grid(monkeypatch):
    def run(kind):
        return run_pipeline(config_from_mapping(
            {"a": "2", "c": "1", "warp_amplitude": "0.2",
             "warp_shape": "fiber_cubic", "grids": "32x32", "pipeline": kind}))

    separate = {kind: run(kind) for kind in ("spr", "ske")}
    real, builds = pipeline.build_reference, []

    def counted(spec):
        builds.append(spec)
        return real(spec)

    def outcome(rep, kind):
        return [(r.name, r.grid, r.residual, r.tolerance, r.passed, r.values)
                for r in rep.records if r.pipeline == kind]

    monkeypatch.setattr(pipeline, "build_reference", counted)
    both = run("both")
    assert len(builds) == 1
    # neither family changes the reference the other one reads
    for kind, alone in separate.items():
        assert outcome(both, kind) == outcome(alone, kind)
        key = (kind, (32, 32))
        assert both.profiles[key].keys() == alone.profiles[key].keys()
        for name, values in alone.profiles[key].items():
            assert np.array_equal(both.profiles[key][name], values), (kind, name)


# ---------------------------------------------------------------------------
# emission and determinism
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "model_a_golden.json"
# a = 2, c = 1, fiber_cubic with eps = 0.2 on 32^2, both families, all
# checks: the truncation records read 6.7e-8 to 2.6e-4
WARPED_GOLDEN = Path(__file__).parent / "data" / "fiber_cubic_golden.json"
WARPED = {"a": "2", "c": "1", "warp_amplitude": "0.2",
          "warp_shape": "fiber_cubic", "grids": "32x32"}
EPS = np.finfo(float).eps
# The roundoff floor of the 32^2 golden run.  A residual there is a stencil
# or quadrature sum of O(1) terms, each at most 1/h^2: about 8 roundings of
# that size.  Model A is the product, so every residual in the file sits
# at or below it, and is compared by this absolute bound.
GOLDEN_ABS = 8.0 * EPS * 32**2
# A number above the floor (a constant, a tolerance, a margin) is a chain
# of a few rounded operations on exact inputs, each within eps/2 relative:
# at most 4 eps relative.
GOLDEN_REL = 4.0 * EPS


def _leaves(node, path=()):
    """(path, leaf) for every leaf of a JSON tree; an empty container is a
    leaf, so a record's empty ``values`` is compared too."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path, node


def _number(leaf):
    """A leaf as a float, or None for text (fractions such as "2/3" compare
    as text, which is exact) and for booleans."""
    if isinstance(leaf, bool):
        return None
    try:
        return float(leaf)
    except (TypeError, ValueError):
        return None


def _model_a_bound(number):
    return GOLDEN_ABS if abs(number) <= GOLDEN_ABS else GOLDEN_REL * abs(number)


def _warped_bound(number):
    # the warped run's residuals hold truncation content above the floor:
    # a reordering at roundoff moves one by at most GOLDEN_ABS, a move of
    # that content by more
    return max(GOLDEN_ABS, GOLDEN_REL * abs(number))


def assert_matches_golden(payload, golden_file=GOLDEN, bound=_model_a_bound):
    golden = json.loads(golden_file.read_text())
    got, want = dict(_leaves(payload)), dict(_leaves(golden))
    assert got.keys() == want.keys()
    for path, expect in want.items():
        value, number = got[path], _number(expect)
        record = golden["records"][path[1]] if path[0] == "records" else None
        where = (record["name"], record["pipeline"], *path[2:]) if record else path
        if number is None:
            assert value == expect, where
            continue
        if (record and path[2] == "residual"
                and float(record["tolerance"]) == EXACT_TOL):
            assert abs(float(value)) <= EXACT_TOL, where
        assert abs(float(value) - number) <= bound(number), (where, value)


def test_emit_and_golden_structure(tmp_path, model_a_report):
    emit_report(model_a_report, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["passed"] is True
    assert_matches_golden(payload)


@pytest.mark.parametrize("producer, bend, where", [
    # a residual at the floor (3.3e-16) moved by 1e-9: 1e-8 of its
    # tolerance, so no pass flag moves, and 550 times GOLDEN_ABS
    ("twisted_ke_residual",
     lambda rep: dataclasses.replace(rep, relative=rep.relative + 1e-9),
     r"'twisted_ke\[B\]', 'spr', 'residual'"),
    # a number above the floor (0.667) bent by 1e-6 relative
    ("solve_base_ma",
     lambda sol: dataclasses.replace(
         sol, positivity_margin=sol.positivity_margin * (1.0 + 1e-6)),
     r"'base_ma\[B\]', 'spr', 'values', 'positivity_margin'")])
def test_golden_check_fails_a_bent_number(tmp_path, monkeypatch, producer,
                                          bend, where):
    real = getattr(pipeline, producer)
    monkeypatch.setattr(pipeline, producer, lambda *args: bend(real(*args)))
    emit_report(run_pipeline(config_from_mapping(
        {"a": "2", "c": "1", "grids": "32x32"})), tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["passed"] is True
    with pytest.raises(AssertionError, match=where):
        assert_matches_golden(payload)


def _warped_payload(tmp_path):
    emit_report(run_pipeline(config_from_mapping(WARPED)), tmp_path)
    return json.loads((tmp_path / "report.json").read_text())


def test_warped_run_matches_its_golden_report(tmp_path):
    payload = _warped_payload(tmp_path)
    assert payload["passed"] is True
    assert_matches_golden(payload, WARPED_GOLDEN, _warped_bound)


def test_warped_golden_check_fails_a_bent_truncation_residual(tmp_path, monkeypatch):
    # fiber_forward[spr] (2.6e-4) bent by 1e-6 relative, 140 times GOLDEN_ABS
    real = pipeline.verify_fiber_family

    def bent(ref, sol):
        audit = real(ref, sol)
        if sol.kind != SPR:
            return audit
        return dataclasses.replace(
            audit, forward_residual_sup=audit.forward_residual_sup * (1.0 + 1e-6))

    monkeypatch.setattr(pipeline, "verify_fiber_family", bent)
    payload = _warped_payload(tmp_path)
    assert payload["passed"] is True
    with pytest.raises(AssertionError, match=r"'fiber_forward', 'spr', 'residual'"):
        assert_matches_golden(payload, WARPED_GOLDEN, _warped_bound)


@pytest.mark.parametrize("kind", ["spr", "ske", "both"])
def test_report_names_its_configuration(tmp_path, kind):
    # report.json names every PipelineConfig field, so the run's
    # configuration reads back from it; its checks are every check
    cfg = config_from_mapping({"a": "5/2", "c": "3/2", "warp_amplitude": "0.2",
                               "warp_shape": "fiber_cubic", "grids": "32x32",
                               "pipeline": kind})
    emit_report(run_pipeline(cfg), tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    mapping = {**payload["model"],
               "grids": ["x".join(map(str, g)) for g in payload["grids"]],
               "pipeline": payload["pipeline"]}
    assert config_from_mapping(mapping) == cfg
    assert payload["checks"] == list(ALL_CHECKS)


def test_emission_is_byte_deterministic(tmp_path):
    cfg = config_from_mapping({"a": "2", "c": "1", "warp_amplitude": "0.2",
                               "grids": "32x32", "pipeline": "spr"})
    blobs = []
    for sub in ("one", "two"):
        rep = run_pipeline(cfg)
        paths = emit_report(rep, tmp_path / sub)
        blobs.append({p.name: p.read_bytes() for p in paths})
    assert blobs[0] == blobs[1]


def test_profiles_csv_columns(tmp_path, model_a_report):
    paths = emit_report(model_a_report, tmp_path)
    csv = [p for p in paths if p.name == "profiles_spr_32x32.csv"][0]
    header = csv.read_text().splitlines()[0].split(",")
    for column in ("x_b", "gprime", "rho_B", "wp_sections_fs",
                   "tke_B_residual"):
        assert column in header
    body = csv.read_text().splitlines()[1:]
    wp_idx = header.index("wp_sections_fs")
    values = {row.split(",")[wp_idx] for row in body}
    assert values == {"4.0"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_constants(tmp_path, capsys):
    code = main(["constants", "-a", "2", "-c", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "eT = 2/3" in out and "kappa = 2/3" in out and "k = 3" in out


def test_cli_run_model_a(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODEL_A)
    code = main(["run", "--config", cfg, "--grid", "32x32",
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "out" / "report.json").exists()
    assert "pass" in out


@pytest.mark.parametrize("argv", [["run"], ["refine", "--grid", "32x32"]])
def test_cli_has_no_tolerance_flag(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, MODEL_A)
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--config", cfg, "--grid", "16x16", "--tol", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "model.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"a = 2\nc = 1\nwarp_shape = \xff\n")
    code = main(["run", "--config", str(path), "--grid", "16x16"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot read configuration file {path}: ")
    assert err.count("\n") == 1


def test_cli_refine_requires_grids(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_A)
    with pytest.raises(SystemExit):
        main(["refine", "--config", cfg, "--grid", "32x32"])


def test_cli_bad_model_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a = 1\nc = 1\n")
    code = main(["run", "--config", cfg, "--grid", "32x32"])
    err = capsys.readouterr().err
    assert code == 2
    assert "a > c" in err


@pytest.mark.parametrize("line", ["a = 1/0", "a = abc", "a = 1e400",
                                  "warp_amplitude = nan", "warp_amplitude = inf"])
def test_cli_rejects_malformed_number(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, model_with(line))
    code = main(["run", "--config", cfg, "--grid", "16x16"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    key, raw = line.split(" = ")
    assert f"{key} = {raw!r} is not" in err


@pytest.mark.parametrize("line, key", [
    ("grids = 48x64", "n_fiber=48"), ("grids = 0x0", "n_fiber=0"),
    ("grids = 16x16,32x48", "n_base=48"),
    ("n_fiber = 48", "unknown configuration keys ['n_fiber']"),
    ("grids = ", "grids"), ("warp_shape = nope", "warp_shape"),
    ("warp_amplitude = -0.1", "warp_amplitude"), ("c = 2", "a > c"),
    ("grids = 32x32, 64x64, 32X32", "grids lists '32X32' twice"),
    # every run makes every record: no key selects some of them
    ("checks = fiber", "unknown configuration keys ['checks']"),
    # the gates are fixed: a key that would loosen one is no key
    ("newton_tol = 1", "unknown configuration keys ['newton_tol']"),
    ("residual_tol = 1", "unknown configuration keys ['residual_tol']"),
    ("quadrature_tol = 1", "unknown configuration keys ['quadrature_tol']"),
    ("h2_constant = 1e9", "unknown configuration keys ['h2_constant']"),
    ("eps_lp = 0.5", "unknown configuration keys ['eps_lp']")])
def test_cli_rejects_invalid_setting(tmp_path, capsys, line, key):
    # rejected while the configuration is parsed, before any grid is built
    cfg = write_cfg(tmp_path, model_with(line))
    code = main(["run", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


def test_cli_non_finite_fiber_family_exits_2(tmp_path, capsys, monkeypatch):
    real = pipeline.solve_spr

    def nan_column(ref):
        sol = real(ref)
        u = sol.vertical_fs.copy()
        u[:, ref.grid.n_base // 2] = np.nan
        return dataclasses.replace(sol, vertical_fs=u)

    monkeypatch.setattr(pipeline, "solve_spr", nan_column)
    cfg = write_cfg(tmp_path, MODEL_B)
    code = main(["run", "--config", cfg, "--grid", "32x32"])
    err = capsys.readouterr().err
    assert code == 2
    named = [line for line in err.splitlines() if "grid (32, 32) / spr" in line]
    assert len(named) == 1 and named[0].startswith("error at stage")
    assert "Traceback" not in err


def test_cli_non_finite_einstein_potential_exits_2_at_the_fiber_audit(
        tmp_path, capsys, monkeypatch):
    # a NaN column in rho leaves the Einstein family's solver and forward
    # records at 0.0; the fiber audit's gate must end the run before the
    # WP stage reads the potential
    real_solve, real_wp = pipeline.solve_ske, pipeline.wp_from_residual

    def nan_column(ref):
        sol = real_solve(ref)
        rho = sol.rho.copy()
        rho[:, ref.grid.n_base // 2] = np.nan
        return dataclasses.replace(sol, rho=rho)

    def wp_before_the_gate(ref, fiber):
        assert fiber.kind == SPR, "the WP stage read a non-finite Einstein family"
        return real_wp(ref, fiber)

    monkeypatch.setattr(pipeline, "solve_ske", nan_column)
    monkeypatch.setattr(pipeline, "wp_from_residual", wp_before_the_gate)
    cfg = write_cfg(tmp_path, MODEL_B)
    code = main(["run", "--config", cfg, "--grid", "32x32", "--pipeline", "both"])
    err = capsys.readouterr().err
    assert code == 2
    named = [line for line in err.splitlines() if "grid (32, 32) / ske" in line]
    assert len(named) == 1 and "fiber potential is not finite" in named[0]
    assert "Traceback" not in err


def test_cli_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_B)
    for sub in ("r1", "r2"):
        assert main(["run", "--config", cfg, "--grid", "32x32",
                     "--out", str(tmp_path / sub), "--pipeline", "both"]) == 0
    f1 = sorted((tmp_path / "r1").iterdir())
    f2 = sorted((tmp_path / "r2").iterdir())
    assert [p.name for p in f1] == [p.name for p in f2]
    for p1, p2 in zip(f1, f2):
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("a, c", [(2, 1), (3, 2)])
def test_einstein_column_family_emits_the_bytes_of_the_full_family(a, c, tmp_path,
                                                                   monkeypatch):
    # solve_ske's metric is one column, and every stage reads the same bits
    # from it as from the field repeated along the base; at c = 2,
    # log u = log 2 gives the base-axis end rows a roundoff
    config = PipelineConfig(a=Fraction(a), c=Fraction(c), warp_amplitude=0.2,
                            warp_shape="fiber_cubic", grids=((32, 256),),
                            pipeline="both")
    emit_report(run_pipeline(config), tmp_path / "column")
    real = pipeline.solve_ske

    def materialized(ref):
        sol = real(ref)
        u = sol.vertical_fs
        assert u.shape == (ref.grid.n_fiber + 1, 1)
        full = np.repeat(u, ref.grid.n_base + 1, axis=1)
        assert full.shape == (ref.grid.n_fiber + 1, ref.grid.n_base + 1)
        return dataclasses.replace(sol, vertical_fs=full)

    monkeypatch.setattr(pipeline, "solve_ske", materialized)
    emit_report(run_pipeline(config), tmp_path / "full")
    names = sorted(p.name for p in (tmp_path / "column").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "full").iterdir())
    assert len(names) == 3
    for name in names:
        assert ((tmp_path / "column" / name).read_bytes()
                == (tmp_path / "full" / name).read_bytes()), name


def test_cli_keeps_the_stage_error_when_emitting_the_partial_report_fails(
        tmp_path, capsys, monkeypatch):
    def raising(*args, **kwargs):
        raise NonConvergence("injected", [])

    monkeypatch.setattr(pipeline, "solve_base_ma", raising)
    blocker = tmp_path / "blocker"
    blocker.write_text("")    # a regular file, so no directory can go under it
    cfg = write_cfg(tmp_path, MODEL_A)
    code = main(["run", "--config", cfg, "--grid", "32x32",
                 "--out", str(blocker / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err[0].startswith("check ")
    stage = [i for i, line in enumerate(err)
             if line == "error at stage grid (32, 32) / spr: injected"]
    emission = [i for i, line in enumerate(err)
                if line.startswith("error: report emission failed")]
    assert len(stage) == 1 and len(emission) == 1 and stage[0] < emission[0]

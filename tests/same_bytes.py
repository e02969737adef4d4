"""Byte identity of the run's output against another revision.

    python tests/same_bytes.py REV

runs five configurations with warp amplitude 0.2 and both fiber families.
Four are class (2, 1): the three benchmark workloads (the ``fiber_cubic``
warp on the grids 128^2..1024^2, 64x2048 and 2048x64) and a ``skew_bump``
ladder on 128^2..512^2, whose warp is not symmetric along the base, so that
a block-edge or column-order slip cannot hide behind the mirror symmetry of
the others.  The fifth is class (3, 2), ``fiber_cubic`` on 256^2 and
64x1024: at c = 1 the Einstein column's log u is 0, at c = 2 it is log 2,
whose roundoff reaches the base-axis end rows of L_b log u.  Each runs with
``fanofib run`` in a git worktree of REV and then in the working tree, one
process after the other; every emitted file is compared byte for byte, and
the exit codes.  It exits 0 when all match and 1 otherwise.  The test suite
does not run it.
"""

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# name: (a, c, warp shape, grids)
RUNS = {
    "refine_ladder": (2, 1, "fiber_cubic", ("128x128", "256x256", "512x512", "1024x1024")),
    "many_fibers": (2, 1, "fiber_cubic", ("64x2048",)),
    "long_fibers": (2, 1, "fiber_cubic", ("2048x64",)),
    "skew_refine": (2, 1, "skew_bump", ("128x128", "256x256", "512x512")),
    "class_3_2": (3, 2, "fiber_cubic", ("256x256", "64x1024")),
}
MODEL = "a = {}\nc = {}\nwarp_amplitude = 0.2\nwarp_shape = {}\npipeline = both\n"


def emit(tree: Path, configs: Path, out: Path) -> dict:
    """Run every configuration with the package of ``tree`` into ``out``,
    reading the model of each from ``configs``; the exit code of each
    run."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    codes = {}
    for name, (*_, grids) in RUNS.items():
        config = configs / f"{name}.cfg"
        cmd = [sys.executable, "-m", "fanofib.cli", "run", "--config", str(config),
               "--out", str(out / name), *(a for g in grids for a in ("--grid", g))]
        codes[name] = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
    return codes


def differences(a: Path, b: Path) -> list[str]:
    """The files under ``a`` or ``b`` that are missing from the other or
    differ in a byte."""
    files = {side: {p.relative_to(side) for p in side.rglob("*") if p.is_file()}
             for side in (a, b)}
    found = [f"only under {side.name}: {path}" for side, other in ((a, b), (b, a))
             for path in sorted(files[side] - files[other])]
    found += [f"differs: {path}" for path in sorted(files[a] & files[b])
              if not filecmp.cmp(a / path, b / path, shallow=False)]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, (a, c, shape, _) in RUNS.items():
            (tmp / f"{name}.cfg").write_text(MODEL.format(a, c, shape))
        worktree = tmp / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        str(worktree), argv[0]], check=True, stdout=subprocess.DEVNULL)
        try:
            codes = {side: emit(tree, tmp, tmp / side)
                     for side, tree in (("at_rev", worktree), ("working", ROOT))}
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(worktree)], check=True)
        found = differences(tmp / "at_rev", tmp / "working")
        if codes["at_rev"] != codes["working"]:
            found.append(f"exit codes {codes['at_rev']} at {argv[0]}, "
                         f"{codes['working']} in the working tree")
        count = sum(1 for p in (tmp / "working").rglob("*") if p.is_file())
    for line in found:
        print(line)
    print(f"{count} files emitted; "
          f"{'all identical' if not found else f'{len(found)} differences'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

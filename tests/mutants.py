"""One-line mutations of the rules the datasets and scores rest on, and
whether the tier-1 tests catch each.

    python tests/mutants.py               # run every mutation
    python tests/mutants.py --only A B    # run the mutations named A and B
    python tests/mutants.py --check       # each old text occurs exactly once

A run copies the repository (without .git and caches) into a temporary
directory per mutation, replaces the entry's old text with its new text
there, and runs the tier-1 tests with -x and a fixed Hypothesis seed. It
prints `killed` with the first failing test, or `survived`, and exits 1
if any mutation it ran was not killed. It changes no file of the
repository.
pytest does not collect this file: its name does not start with `test_`.

`--check` reads the sources only, so an entry whose line has moved or
changed fails at once; it exits 1 if any old text does not occur exactly
once in its file.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# seconds one mutation's tests may take: tier-1 takes 1-2 minutes on two CPUs
TIMEOUT = 1800


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in path
    new: str
    rule: str  # what the mutation breaks


_FORMATS = "src/sceneflowgen/formats.py"
_GT = "src/sceneflowgen/groundtruth.py"
_MATCH = "src/sceneflowgen/match.py"
_PARALLEL = "src/sceneflowgen/_parallel.py"
_METRICS = "src/sceneflowgen/metrics.py"
_PIPELINE = "src/sceneflowgen/pipeline.py"
_RENDER = "src/sceneflowgen/render.py"
_MARGIN = "        margin = _SPAN_SLACK * (\n"

MUTANTS = [
    Mutant("d1-threshold", _METRICS,
           "D1_ABS_THRESHOLD_PX = 3.0", "D1_ABS_THRESHOLD_PX = 3.5",
           "D1-all counts a pixel bad above 3 px (KITTI 2015)"),
    Mutant("occlusion-eps", _GT,
           "return 1e-3 * (scale if", "return 2e-3 * (scale if",
           "the occlusion tolerance is 1e-3 of the median depth"),
    Mutant("occlusion-eps-of-next", _GT,
           "eps = _occlusion_eps(passes.depth)",
           "eps = _occlusion_eps(np.where(next_frame.depth < np.inf, "
           "next_frame.depth, np.nan))",
           "the occlusion tolerance is of frame t's median depth, not t + 1's"),
    Mutant("occlusion-later-frame", _GT,
           "next_frame.frame_time <= passes.frame_time",
           "next_frame.frame_time < passes.frame_time",
           "the occlusion mask pairs a view with a later frame, not its own"),
    Mutant("occlusion-own-tables", _PIPELINE,
           "groundtruth.compute_occlusion_mask(fp, rig, tables))",
           "groundtruth.compute_occlusion_mask(fp, rig, "
           "groundtruth.next_frame_tables(fp)))",
           "frame t's occlusion mask reads frame t + 1's tables, not its own"),
    Mutant("occlusion-block-mixed", _GT,
           "        block[start:stop][~one] = 0\n", "",
           "a footprint whose 2x2 block mixes objects is occluded"),
    Mutant("occlusion-void-inf", _GT,
           "        z[index[start:stop] == 0] = np.inf\n", "",
           "the next frame's z-buffer is +inf at void"),
    Mutant("neighbour-finite", _GT,
           "                _refuse_non_finite(other, void, name)\n", "",
           "a covered point of pos3d_prev or pos3d_next is finite"),
    Mutant("pos3d-t-finite", _GT,
           '_refuse_non_finite(pos_t[..., :2], void, "pos3d_t")', "None",
           "a covered pixel's pos3d_t X and Y are finite"),
    Mutant("pfm-block-order", _FORMATS,
           "for start in range(0, len(a), rows):",
           "for start in range(0, len(a), rows)[::-1]:",
           "an encoded file's blocks hold its rows in order (a PFM's bottom "
           "to top)"),
    Mutant("covered-z-finite", _GT,
           "        ok &= bf_over_z_t <= np.finfo(np.float32).max\n", "",
           "a covered pixel's disparity b*f/Z_t is at most the float32 maximum"),
    Mutant("motion-threshold", _GT,
           "MOTION_DIFF_THRESHOLD_PX = 1.5", "MOTION_DIFF_THRESHOLD_PX = 1.6",
           "a motion boundary is a flow difference above 1.5 px"),
    Mutant("boundary-area", _GT,
           "MIN_BOUNDARY_AREA_PX = 10", "MIN_BOUNDARY_AREA_PX = 11",
           "motion-boundary regions under 10 px are dropped"),
    Mutant("parabola-clip", _MATCH,
           "np.clip(offset, -0.4999999, 0.4999999)", "np.clip(offset, -0.49, 0.49)",
           "the sub-pixel offset is clipped just inside half a pixel"),
    Mutant("matcher-tie", _MATCH,
           "np.greater(c, top_d, out=won_d)", "np.greater_equal(c, top_d, out=won_d)",
           "of two equal costs the smaller disparity wins"),
    Mutant("first-manifest", _PIPELINE,
           "    save_manifest(False)\n    try:\n", "    try:\n",
           "generate marks its manifest incomplete before its first file"),
    Mutant("atomic-write", _PIPELINE,
           'tmp = path.with_name(f".{path.name}.tmp")', "tmp = path",
           "a file holds its old content or all of the new, never part"),
    Mutant("span-margin-zero", _RENDER, _MARGIN, "        margin = 0.0 * (\n",
           "a span bound keeps a relative margin against rounding"),
    Mutant("span-widen-half", _RENDER, _MARGIN,
           "        margin = 0.5 + _SPAN_SLACK * (\n",
           "a span holds only the cells within the margin of its crossings"),
    Mutant("span-widen-one", _RENDER, _MARGIN,
           "        margin = 1.0 + _SPAN_SLACK * (\n",
           "a span holds only the cells within the margin of its crossings"),
    Mutant("span-lower-floor", _RENDER,
           "np.maximum(lo, np.ceil(", "np.maximum(lo, np.floor(",
           "a span's first cell is the first integer past its lower bound"),
    Mutant("span-slack-zero", _RENDER,
           "_SPAN_SLACK = 2.0 ** -40", "_SPAN_SLACK = 0.0",
           "a span bound keeps a relative margin against rounding"),
    Mutant("top-left", _RENDER,
           "top_left=((ey == 0) & (ex > 0)) | (ey < 0),",
           "top_left=((ey == 0) & (ex < 0)) | (ey < 0),",
           "a pixel centre on a shared edge goes to one triangle (top-left rule)"),
    Mutant("depth-tie", _RENDER,
           "np.minimum.at(owner, p[tie], o[tie])", "np.maximum.at(owner, p[tie], o[tie])",
           "of two fragments at equal depth the earlier draw wins"),
    Mutant("short-band-dropped", _PARALLEL,
           "return [slice(y, min(y + rows, h)) for y in range(0, h, rows)]",
           "return [slice(y, y + rows) for y in range(0, h - rows + 1, rows)]",
           "the bands cover every row, the last band short"),
    Mutant("edge-pairs-skipped", _GT,
           "for above, below, rows in zip(edges, edges[1:], cuts[1:]):",
           "for above, below, rows in zip(edges, edges[1:], cuts[:0]):",
           "motion-boundary pairs across a band edge are marked"),
]


def check():
    """One line per entry whose old text does not occur exactly once."""
    problems = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}")
        if m.old == m.new:
            problems.append(f"{m.name}: new text is the old text")
    return problems


def run(m):
    """('killed', first failing test), ('survived', '') or ('error', why)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        target = copy / m.path
        target.write_text(target.read_text().replace(m.old, m.new, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", "--hypothesis-seed=0"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "error", f"no result in {TIMEOUT} s"
    if proc.returncode == 0:
        return "survived", ""
    first = first_failure(proc.stdout)
    if proc.returncode == 1 and first:
        return "killed", first
    return "error", f"pytest exit {proc.returncode}"


def first_failure(stdout):
    """The id of the first test that pytest's short summary in stdout
    lists as FAILED or ERROR, whole: a parametrized id may hold spaces,
    and ` - ` after it starts the reason. None if there is no such line."""
    first = re.search(r"^(?:FAILED|ERROR) ([^\s\[]+(?:\[.*?\])?)(?: - |$)",
                      stdout, re.MULTILINE)
    return first and first.group(1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", action="store_true",
                   help="only check that every old text occurs exactly once")
    p.add_argument("--only", nargs="+", metavar="NAME",
                   help="run only the mutations of these names")
    args = p.parse_args(argv)

    problems = check()
    names = {m.name for m in MUTANTS}
    problems += [f"{name}: no such mutation" for name in args.only or ()
                 if name not in names]
    for line in problems:
        print(line)
    if problems or args.check:
        if not problems:
            print(f"{len(MUTANTS)} mutations, each old text found once")
        return 1 if problems else 0

    missed = 0
    for m in MUTANTS:
        if args.only and m.name not in args.only:
            continue
        start = time.monotonic()
        result, detail = run(m)
        missed += result != "killed"
        note = {"killed": f" by {detail}", "error": f" ({detail})"}.get(result, "")
        print(f"{m.name}: {result}{note} [{time.monotonic() - start:.0f} s]"
              f" - {m.rule}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, at a small image size.

Run from the root of a checkout: python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SMALL = (96, 54)


@pytest.fixture
def derive_session():
    workload = dataclasses.replace(run.WORKLOADS["derive"], size=SMALL)
    session = run.Session(workload, run.DEFAULT_SEED, trace=False)
    try:
        session.build_fixture()
        yield session
    finally:
        session.close()


def test_clean_fixture_passes(derive_session):
    op = derive_session.operation(derive_session.seed)
    assert op["ok"], op["checks"]


def _corrupt_depth(session, change):
    manifest = json.loads((session.fixture / "manifest.json").read_text())
    path = session.fixture / manifest["frames"][0]["files"]["left"]["depth"]
    data = path.read_bytes()
    depth = np.frombuffer(data, dtype="<f4", offset=len(data) - 4 * SMALL[0] * SMALL[1])
    path.write_bytes(data[:len(data) - depth.nbytes] + change(depth.copy()).tobytes())


def _assert_counts_as_failure(session, check=None):
    op = session.operation(session.seed)
    assert not op["ok"]
    if check:
        assert op["checks"][check] is False
    summary = run.summarize(session.w, session.seed, False, [], [op])
    assert summary["failed"] == summary["attempted"] == 1
    assert summary["failed_frac"] == 1.0
    assert json.loads(run.result_line(summary))["correct"] is False


def test_silently_corrupted_fixture_fails_the_output_check(derive_session):
    def nudge(depth):
        depth[:50] *= np.float32(1.01)  # the derived disparity moves by 1%
        return depth

    _corrupt_depth(derive_session, nudge)
    _assert_counts_as_failure(derive_session, "derived_maps_match_generate")


def test_invalid_fixture_counts_as_failure(derive_session):
    def zero(depth):
        depth[:50] = 0.0  # sfgen derive exits 1 on non-positive depth
        return depth

    _corrupt_depth(derive_session, zero)
    _assert_counts_as_failure(derive_session, "exit_code_0")


def test_self_times_share_overlapping_children():
    # root 0..10 with two children on different threads, overlapping 3..5
    spans = [["root", "cli", 0.0, 10.0, -1, 1],
             ["a", "render", 1.0, 5.0, 0, 2],
             ["b", "render", 3.0, 7.0, 0, 3]]
    own = run.self_times(spans)
    assert own == pytest.approx([4.0, 3.0, 3.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_times_nested():
    spans = [["root", "cli", 0.0, 4.0, -1, 1],
             ["outer", "pipeline", 1.0, 3.0, 0, 1],
             ["inner", "formats", 1.5, 2.0, 1, 1]]
    assert run.self_times(spans) == pytest.approx([2.0, 1.5, 0.5])


def test_without_sources_exits_nonzero_and_prints_no_result():
    # a directory that holds the benchmark and nothing else
    (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.ROOT / ".bench_tmp"))
    shutil.copytree(Path(run.__file__).parent, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "generate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    try:
        bare.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The pinned datasets: four `sfgen generate` runs whose files must keep
their bytes, the SHA-256 of each file in `pins.json` beside this module,
and the one check of a written tree against that table.

A test writes a run with ``main([*RUNS[run], "--out", str(out)])`` and
calls ``assert_pinned(out, run)``. The command's record
(``config.generate.json``) is not pinned, since it holds the output path;
every other file is, the manifest included.

Re-recording is done by hand; neither tier-1 nor CI runs this:

    python tests/pins.py DIR            # write the runs under DIR, rewrite pins.json
    python tests/pins.py DIR OLD_DIR    # the same, then report what moved

OLD_DIR is what ``python tests/pins.py OLD_DIR`` wrote at another
commit. For each file that moved between the two, the report gives its
run, path and pass, how many of its decoded values (`formats.read`; the
numbers of a manifest) differ and the largest difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # by hand: this checkout's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sceneflowgen import formats  # noqa: E402
from sceneflowgen.cli import main as sfgen  # noqa: E402

TABLE = Path(__file__).with_name("pins.json")

RUNS = {
    "64x48": ["generate", "--seed", "1", "--frames", "3", "--size", "64x48"],
    **{f"{preset}-{seed}": ["generate", "--preset", preset, "--seed", str(seed),
                            "--frames", "2", "--size", "96x64"]
       for preset, seed in (("flyingthings", 42), ("flyingthings", 7),
                            ("driving", 3))},
}


def digests(root):
    """{relative path: SHA-256} of every file under root but the command
    records (config.*.json)."""
    root = Path(root)
    return {rel.as_posix(): hashlib.sha256((root / rel).read_bytes()).hexdigest()
            for rel in sorted(p.relative_to(root) for p in root.rglob("*")
                              if p.is_file())
            if not rel.match("config.*.json")}


def assert_pinned(root, run, table=TABLE):
    """Raise AssertionError naming every file under root whose bytes
    differ from run's pins in table, every pinned file missing and every
    file not pinned."""
    want, got = json.loads(Path(table).read_text())[run], digests(root)
    lines = [f"  {what}: {rel}" for what, rels in (
        ("moved", sorted(r for r in want.keys() & got.keys() if want[r] != got[r])),
        ("missing", sorted(want.keys() - got.keys())),
        ("extra", sorted(got.keys() - want.keys()))) for rel in rels]
    if lines:
        raise AssertionError("\n".join(
            [f"{root} differs from the pinned {run} in {len(lines)} file(s):",
             *lines]))


def _values(path):
    """A file's decoded values as a flat float64 array; a manifest's are
    its numbers, in key order."""
    if path.suffix != ".json":
        return formats.read(path).astype(np.float64).ravel()

    def numbers(v):
        if isinstance(v, dict):
            v = [v[k] for k in sorted(v)]
        if isinstance(v, list):
            for item in v:
                yield from numbers(item)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield v
    return np.array(list(numbers(json.loads(path.read_text()))), dtype=np.float64)


def _difference(new, old):
    """How new's decoded values differ from old's, in one phrase."""
    a, b = _values(new), _values(old)
    if a.shape != b.shape:
        return f"{b.size} -> {a.size} values"
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    with np.errstate(all="ignore"):
        gap = np.abs(a - b)[differ]
    largest = np.where(np.isnan(gap), np.inf, gap).max(initial=0.0)
    return f"{differ.sum()} of {a.size} values differ, by at most {largest:.3g}"


def report(new_dir, old_dir):
    """One line per file that differs between the runs under old_dir and
    new_dir: its run, path, pass and _difference, or the side it is on."""
    for run in RUNS:
        new, old = digests(new_dir / run), digests(old_dir / run)
        for rel in sorted(new.keys() | old.keys()):
            if rel not in new or rel not in old:
                print(f"{run} {rel}: only in {new_dir if rel in new else old_dir}")
            elif new[rel] != old[rel]:
                kind = Path(rel).parent.name or Path(rel).stem
                print(f"{run} {rel} ({kind}): "
                      f"{_difference(new_dir / run / rel, old_dir / run / rel)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dir", type=Path, help="where to write the runs; must not exist")
    p.add_argument("old_dir", type=Path, nargs="?",
                   help="the runs as written at another commit")
    args = p.parse_args(argv)
    if args.dir.exists():
        p.error(f"{args.dir} exists")
    table = {}
    for run, command in RUNS.items():
        if sfgen([*command, "--out", str(args.dir / run)]) != 0:
            return 1
        table[run] = digests(args.dir / run)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    if args.old_dir:
        report(args.dir, args.old_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte identity of CLI outputs between two checkouts:
``python3 tools/same_bytes.py OTHER_CHECKOUT``.

Runs each call of ``CALLS`` as ``python3 -m obsvalue ARG...``, once with
this checkout's ``src`` on PYTHONPATH and once with OTHER_CHECKOUT's, each
run in a fresh temporary directory that holds the step densities and the
hypercube spec of ``DENSITIES``.  Compares the exit codes, stdout, stderr
and the files that ``--out`` and ``--summary`` name; prints ``same`` or
``DIFF`` for each call, with the first differing line of each differing
output, and exits 1 if any call differs.  A copy of the parent commit to
compare against: ``mkdir DIR && git archive HEAD | tar -x -C DIR``."""
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DENSITIES = {
    "a.json": '{"breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0], '
              '"values": [1.75, 0.25, 0.25, 1.75]}',
    "b.json": '{"breakpoints": [0.0, 0.5, 1.0], "values": [0.5, 1.5]}',
    "spec.json": '{"r": 1.5, "m": 6, "bits": [1, 0, 1, 1, 0, 0]}',
}
CALLS = [
    "sweep --r 2 --n 4:1024:x2",
    "sweep --r 2 --n 4:1024:x2 --format json --out report.json "
    "--summary rates.json",
    "sweep --r 1.5 --n 1:40 --format json",
    "sweep --r 4 --n 3:9:2 --format json",
    "sweep --r 1.5 --n 4:16777216:x4",
    "lower cube --r 2 --n 1:4096:x2 --format json",
    "lower cube --r 1.5 --n 1:7",
    "lower cube --r 4 --n 1:7 --format json",
    "lower cube --r 1.5 --n 7:8 --format json",
    "lower cube --r 2 --n 1048576",
    "lower risks --r 2 --n 64 --format json",
    "lower risks --r 1.5 --n 1:200",
    "lower mixedpbin --r 2 --n 8 --m 16",
    "lower mixedpbin --r 2 --n 16 --m 16",
    "lower mixedpbin --r 2 --n 9 --m 16",
    "lower mixedpbin --r 2 --n 9:12 --m 8",
    "lower mixedpbin --r 1.5 --n 1:10 --m 10",
    "lower mixedpbin --r 2 --n 254:255 --m 1",
    "lower mixedpbin --r 2 --n 10000 --m 2",
    "lower mixedpbin --r 2 --n 1 --m 100000",
    "lower mixedpbin --r 2 --n 190:200 --m 4",
    "upper mad --r 2 --n 1:64:x2 --mc 100000 --seed 1 --format json",
    "upper mad --r 2 --n 131072 --mc 20000 --seed 1",
    "upper bound --r 2 --n 1:4096:x2",
    "upper bound --r 1.5 --n 1:40 --format json",
    "upper floor --r 2 --n 1:4096:x2",
    "upper floor --r 4 --n 3:9:2 --format json --out floor.json",
    "upper chi2 --r 2",
    "upper chi2 --r 16",
    "pbin pmf 0.1 0.2 0.3",
    "pbin survival 0.1 0.2 0.3 0.4 --l 2",
    "pbin shift 0.5 --p 0.8 --p2 0.3 --l 1",
    "pbin --help",
    "experiment build --r 2 --bits 0101 --out density.json",
    "experiment build --spec-file spec.json",
    "experiment sample --density a.json --n 1000 --seed 7",
    "experiment sample --density a.json --n 100 --seed 7 --format json",
    "experiment tv --density a.json --density2 b.json",
    "verify --quick --seed 0",
    "verify --quick --seed 1",
    "verify --seed 1",
]


def run(src: Path, argv: list[str]) -> dict[str, bytes]:
    """Exit code, stdout, stderr and named output files of one call."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in DENSITIES.items():
            Path(tmp, name).write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "obsvalue", *argv], cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True)
        outputs = {"exit code": str(proc.returncode).encode(),
                   "stdout": proc.stdout, "stderr": proc.stderr}
        for flag, name in zip(argv, argv[1:]):
            if flag in ("--out", "--summary"):
                path = Path(tmp, name)
                outputs[name] = (path.read_bytes() if path.exists()
                                 else b"(not written)")
        return outputs


def first_difference(this: bytes, other: bytes) -> str:
    lines = itertools.zip_longest(this.splitlines(), other.splitlines())
    for i, (a, b) in enumerate(lines, 1):
        if a != b:
            return f"line {i}: {a!r} here, {b!r} there"
    return "line endings differ"


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.splitlines()[1], file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent.parent / "src"
    there = Path(sys.argv[1]).resolve() / "src"
    differing = 0
    for call in CALLS:
        argv = call.split()
        this, other = run(here, argv), run(there, argv)
        diffs = [f"{key} {first_difference(this[key], other[key])}"
                 for key in this if this[key] != other[key]]
        differing += bool(diffs)
        print(f"{'DIFF' if diffs else 'same'}  {call}")
        for line in diffs:
            print(f"      {line}")
    print(f"{differing} of {len(CALLS)} calls differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

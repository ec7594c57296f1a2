"""Record the reference outputs that the benchmark's checks compare against.

    python3 bench/make_reference.py

Run from the repository root.  Writes ``bench/reference/<workload>.json``
for every workload, with this command, the seed and the git commit of the
code that produced it.  Regenerating the reference is a change of its own.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

REFERENCE_SEED = 0


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            capture_output=True, check=True).stdout.strip()
    tmp = Path(".bench_out") / "tmp-reference"
    tmp.mkdir(parents=True, exist_ok=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name, workload in workloads.WORKLOADS.items():
            inputs = workload.build(REFERENCE_SEED, tmp)
            record = {
                "workload": name,
                "command": "python3 bench/make_reference.py",
                "seed": REFERENCE_SEED,
                "commit": commit,
                "argv": inputs["argv"],
                "outputs": workload.run(inputs, None),
            }
            path = workloads.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

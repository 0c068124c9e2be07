"""Record the input digests of a range of seeds in ``expected_inputs.json``.

Run from the root of a checkout::

    python3 perfbench/record_inputs.py --seeds 0-39 [--scale full]

``run.py`` refuses to measure a seed whose dataset or request list no longer
hashes to the recorded digests, so a change to the dataset or query
generators cannot silently change what a seed measures.  Re-record only when
such a change is intended (and the old figures are no longer comparable).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import host
    import inputs
    from run import WORKLOADS

    path = HERE / "expected_inputs.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    recorded = table.setdefault(args.scale, {})
    workdir = ROOT / ".perfbench_work" / "record"
    try:
        for seed in seeds:
            for workload in WORKLOADS:
                workdir.mkdir(parents=True, exist_ok=True)
                inp = inputs.build(workload, seed, inputs.SCALES[args.scale], workdir)
                recorded.setdefault(workload, {})[str(seed)] = {
                    "dataset_md5": host.file_md5(inp.dataset),
                    "requests_md5": inp.request_digest(),
                }
                print(workload, seed, recorded[workload][str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the expected output fingerprints of shipped seeds.

Usage: ``python3 perfbench/record.py SEED...`` from the root of a
checkout.  Runs each workload's operation once per seed and merges the
fingerprints into ``perfbench/expected.json``, which ``run.py`` then
holds every run of those seeds to.  Re-record only when a change is
meant to alter the extracted schema, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import gen
import run


def main(seeds) -> None:
    path = os.path.join(run.HERE, "expected.json")
    expected = run.load_expected()
    os.makedirs(run.WORK, exist_ok=True)
    for workload in sorted(gen.WORKLOADS):
        for seed in seeds:
            oem = os.path.join(run.WORK, f"record-{workload}-{seed}.oem")
            gen.write(workload, seed, oem)
            try:
                if workload == "service":
                    out = run.run_child("extract", oem, str(run.SERVICE_K))
                    out["fingerprints"][0].pop("assignment")
                else:
                    out = run.run_child("extract", oem)
            finally:
                os.remove(oem)
            expected.setdefault(workload, {})[str(seed)] = out["fingerprints"][0]
            print(workload, seed, out["fingerprints"][0], flush=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(expected, handle, indent=1, sort_keys=True)
                handle.write("\n")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]])

"""Record the reference answers the benchmark checks every pass against.

    python3 perfbench/record.py

Runs each workload once on its unrotated input (seed 0) and writes
``references.json``.
Run it only on a commit whose answers are trusted: the benchmark treats any
later disagreement as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, OUT, SRC, WORKLOADS, git_commit, pin_blas_threads, source_digest


def main():
    pin_blas_threads()
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    import msvdd.svdd
    import workloads

    refs = {
        "recorded_from": {"git_commit": git_commit(), "source_sha256_16": source_digest()},
        "objective_tol": msvdd.svdd.DEFAULT_TOLS.objective,
        "auc_tol": 1e-6,
    }
    for name in WORKLOADS:
        wl = workloads.make(name, OUT)
        inputs = wl.setup(0)
        refs[name] = wl.record(inputs, wl.run_pass(inputs).outcome)
        print(f"{name} recorded", flush=True)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Record the report digest of every fan the benchmark checks.

    python3 perfbench/record_digests.py

Runs one pass of each workload at seed 0 and writes perfbench/digests.json.
The fixed corpora do not depend on the seed; for blowups only the seed-0
draws that are decided within the per-fan limit get a digest. Re-record only
in a change that is meant to alter reports, and say so.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import tempfile

import run


def main() -> int:
    signal.signal(signal.SIGALRM, run._stop)
    run.os.makedirs(run.WORK, exist_ok=True)
    folder = tempfile.mkdtemp(dir=run.WORK)
    try:
        return record(folder)
    finally:
        shutil.rmtree(folder)


def record(folder) -> int:
    digests = {}
    for workload in sorted(run.load("workloads.json")["workloads"]):
        mods, fans = run.setup(workload, 0, folder)
        outcome = run.run_pass(workload, mods, fans)
        if outcome.errors:
            print("\n".join(outcome.errors), file=sys.stderr)
            return 1
        digests[workload] = dict(sorted(outcome.digests.items()))
        print(f"{workload}: {len(outcome.digests)} digests, undecided {outcome.undecided}")
    with open(run.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

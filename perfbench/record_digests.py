"""Record the `ccm` bases the benchmark draws from, with their output digests.

    python3 perfbench/record_digests.py

For every `ccm` workload, the bases of seeds ``0 .. pool-1`` are run in
process exactly as `geodual ccm FILE` prints them; each output must pass
the gate's soundness check, and its digest and number of meets are
stored in perfbench/digests.json under the base's shape and seed.  Runs
draw their instances from these bases, and the gate checks every output
against its digest (completeness).  Re-record only for a change that is
meant to alter `ccm` output.
"""

from __future__ import annotations

import json
import sys

import env

env.use_source_tree()

import gate  # noqa: E402
from layered import layered_base  # noqa: E402
from run import WORKLOADS  # noqa: E402

from geodual import formats, meet_irreducibles  # noqa: E402


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        if workload.command != "ccm":
            continue
        table = digests.setdefault(str(workload.shape), {})
        for seed in range(workload.pool):
            base = layered_base(workload.shape, seed)
            meets = [m for _, m in meet_irreducibles(base)]
            failure = gate.ccm_failure(base, [m.mask for m in meets])
            if failure:
                sys.exit(f"{name} seed {seed}: {failure}")
            out = "".join(formats.format_set(m) + "\n" for m in meets)
            table[str(seed)] = {"digest": gate.digest(out.encode("utf-8")), "meets": len(meets)}
            print(f"{name}: seed {seed}, {len(meets)} meets", flush=True)
    gate.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

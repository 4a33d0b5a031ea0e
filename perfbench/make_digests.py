"""Regenerate ``digests.json``: sha256 of every benchmark spec's result.

Run from the repository root::

    python3 perfbench/make_digests.py

Each digest covers the canonical JSON (sorted keys, no whitespace) of
the spec's ``NetworkResult`` only, not the job envelope. The table is
the benchmark's correctness reference: regenerate it only when a
change is meant to alter simulation results, and say so.
"""

from __future__ import annotations

import json
import sys
import time

from specs import (
    DIGESTS_PATH,
    GOLDEN_PATH,
    GOLDEN_SPEC,
    HERE,
    all_specs,
    canonical,
    result_digest,
    spec_id,
)

sys.path.insert(0, str(HERE.parent / "src"))

from repro.service.pool import execute_spec  # noqa: E402
from repro.service.spec import SimJobSpec  # noqa: E402


def main() -> int:
    started = time.perf_counter()
    table = {}
    for spec in all_specs():
        result = execute_spec(SimJobSpec.from_dict(spec)).to_dict()
        table[spec_id(spec)] = result_digest(result)
        if spec == GOLDEN_SPEC:
            golden = canonical(json.loads(GOLDEN_PATH.read_text()))
            if canonical(result) != golden:
                print("golden fig9 ResNet-18 mismatch", file=sys.stderr)
                return 1
    DIGESTS_PATH.write_text(
        json.dumps(table, indent=0, sort_keys=True) + "\n"
    )
    print(
        f"wrote {len(table)} digests to {DIGESTS_PATH.name} in "
        f"{time.perf_counter() - started:.0f} s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

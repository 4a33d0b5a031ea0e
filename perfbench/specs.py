"""Seeded spec streams and the byte-correctness gate.

Every spec the benchmark can send is built here from a small grid, so
the digest table in ``digests.json`` can list them all. A spec spells
each hyperparameter of its optimizer and omits ``engine``,
``validate``, ``deadline_ms`` and ``designs``: the server's production
defaults apply (all six design points, incremental engine, validation
on).

adam, adamw, adagrad and rmsprop are left out on purpose: submitted
through ``SimJobSpec`` they fail inside the worker with
``CompileError: ... needs the extended ALU``, even with explicit
hyperparameters.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"
GOLDEN_PATH = HERE.parent / "benchmarks" / "golden_fig9_resnet18.json"

OPTIMIZER_PARAMS = {
    "sgd": {"eta": 0.01},
    "momentum_sgd": {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4},
    "nag": {"eta": 0.01, "alpha": 0.9},
}
PRECISIONS = ("8/32", "16/32", "8/16", "32/32")
TIMINGS = ("DDR4-2133", "DDR4-3200", "HBM-like")
COLUMNS = (16, 32)
NETWORKS = ("ResNet18", "ResNet50", "MobileNet", "MLP1", "AlphaGoZero")

#: A substrate is (optimizer, precision, timing, columns_per_stripe):
#: everything the update-phase profile memo is keyed on. 72 of them.
SUBSTRATES = tuple(
    itertools.product(OPTIMIZER_PARAMS, PRECISIONS, TIMINGS, COLUMNS)
)

#: The paper default (Fig. 9): its ResNet-18 result must equal the
#: checked-in golden byte for byte.
GOLDEN_SUBSTRATE = ("momentum_sgd", "8/32", "DDR4-2133", 32)

#: hot-hits pool substrates (see ``hot_pool``).
HOT_POOL_SUBSTRATES = (GOLDEN_SUBSTRATE, ("sgd", "8/32", "DDR4-2133", 16))

#: mixed-writes substrates, warmed on every shard during setup.
MIXED_SUBSTRATES = (
    GOLDEN_SUBSTRATE,
    ("sgd", "8/32", "DDR4-2133", 16),
    ("nag", "16/32", "DDR4-3200", 16),
)
#: Batch sizes a mixed-writes miss draws from (the zoo defaults 32 and
#: 128 stay with the warmed hot pool, so a miss is never a hit).
MISS_BATCHES = tuple(b for b in range(1, 113) if b != 32)


def make_spec(substrate, network: str, batch: int | None = None) -> dict:
    optimizer, precision, timing, columns = substrate
    spec = {
        "network": network,
        "optimizer": optimizer,
        "optimizer_params": dict(OPTIMIZER_PARAMS[optimizer]),
        "precision": precision,
        "timing": timing,
        "columns_per_stripe": columns,
    }
    if batch is not None:
        spec["batch"] = batch
    return spec


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def spec_id(spec: dict) -> str:
    """The benchmark's own key for a spec (independent of the program's
    content hash, so a program change cannot move it)."""
    return hashlib.sha256(canonical(spec)).hexdigest()[:20]


def result_digest(result: dict) -> str:
    return hashlib.sha256(canonical(result)).hexdigest()


GOLDEN_SPEC = make_spec(GOLDEN_SUBSTRATE, "ResNet18")


# ----------------------------------------------------------------------
# Spec streams
# ----------------------------------------------------------------------
def cold_sweep_specs(seed: int) -> list[dict]:
    """All 72 substrates once, in a seeded but balanced order.

    Jobs are dealt round-robin over the six (timing, columns) groups,
    and within a group the three optimizers alternate, so any prefix
    of the sweep holds a near-even share of cheap and costly jobs. The
    network rotates over the zoo from a seeded offset.
    """
    rng = random.Random(f"cold-sweep:{seed}")
    groups = list(itertools.product(TIMINGS, COLUMNS))
    offsets = [0, 1, 2, 0, 1, 2]
    rng.shuffle(offsets)
    order_by_group = []
    for (timing, columns), offset in zip(groups, offsets):
        per_opt = {}
        for opt in OPTIMIZER_PARAMS:
            precisions = list(PRECISIONS)
            rng.shuffle(precisions)
            per_opt[opt] = precisions
        opts = list(OPTIMIZER_PARAMS)
        order_by_group.append([
            (
                opts[(r + offset) % 3],
                per_opt[opts[(r + offset) % 3]][r // 3],
                timing,
                columns,
            )
            for r in range(12)
        ])
    specs = []
    net_offset = rng.randrange(len(NETWORKS))
    for r in range(12):
        group_order = list(range(len(groups)))
        rng.shuffle(group_order)
        for g in group_order:
            network = NETWORKS[(len(specs) + net_offset) % len(NETWORKS)]
            specs.append(make_spec(order_by_group[g][r], network))
    return specs


def hot_pool() -> list[dict]:
    """20 specs: both pool substrates x the zoo x {default batch, 16}."""
    return [
        make_spec(sub, net, batch)
        for sub in HOT_POOL_SUBSTRATES
        for net in NETWORKS
        for batch in (None, 16)
    ]


def mixed_warm_specs() -> list[list[dict]]:
    """For each of the 2 shards, one default-batch spec per mixed
    substrate.

    Shard 0 gets the golden ResNet-18 spec on the golden substrate.
    Each shard's list uses other networks, so no shard can satisfy its
    warm-up from another shard's cache write.
    """
    return [
        [
            make_spec(sub, NETWORKS[(k + 2 * i) % len(NETWORKS)])
            for i, sub in enumerate(MIXED_SUBSTRATES)
        ]
        for k in range(2)
    ]


def mixed_miss_specs(seed: int) -> list[dict]:
    """Every warm-substrate miss candidate, in a seeded order."""
    specs = [
        make_spec(sub, net, batch)
        for sub in MIXED_SUBSTRATES
        for net in NETWORKS
        for batch in MISS_BATCHES
    ]
    random.Random(f"mixed-misses:{seed}").shuffle(specs)
    return specs


def all_specs() -> list[dict]:
    """Every spec any workload can send (the digest table's domain)."""
    specs = [
        make_spec(sub, net) for sub in SUBSTRATES for net in NETWORKS
    ]
    specs += hot_pool()
    for shard in mixed_warm_specs():
        specs += shard
    specs += mixed_miss_specs(0)
    unique = {}
    for spec in specs:
        unique.setdefault(spec_id(spec), spec)
    return list(unique.values())


# ----------------------------------------------------------------------
# Byte-correctness gate
# ----------------------------------------------------------------------
class Checker:
    """Digest (and golden) check of one returned ``result`` dict."""

    def __init__(self) -> None:
        self.digests = json.loads(DIGESTS_PATH.read_text())
        self.golden_id = spec_id(GOLDEN_SPEC)
        self.golden = canonical(json.loads(GOLDEN_PATH.read_text()))

    def check(self, sid: str, result) -> str | None:
        """None when ``result`` is byte-correct, else a reason."""
        if not isinstance(result, dict):
            return "no result in envelope"
        data = canonical(result)
        if hashlib.sha256(data).hexdigest() != self.digests.get(sid):
            return "result digest mismatch"
        if sid == self.golden_id and data != self.golden:
            return "golden fig9 ResNet-18 mismatch"
        return None

"""Fig. 11: command-bus utilization and internal bandwidth, update phase.

Paper headline numbers: baseline external ~15 GB/s (peak 17.1);
GradPIM-Direct ~28 GB/s internal at ~100 % command-bus utilization;
GradPIM-Buffered ~113 GB/s, about 4x Direct; peak internal
181.3 GB/s. In this model the update phase is workload-independent
(same optimizer/precision kernel per parameter), so the per-network
bars are identical by construction — the paper's variation across
networks is likewise small.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import DEFAULT_CONTEXT, ExperimentContext
from repro.system.design import DesignPoint
from repro.system.results import format_table
from repro.system.update_model import UpdateProfile

#: The four designs the paper plots.
FIG11_DESIGNS = (
    DesignPoint.BASELINE,
    DesignPoint.GRADPIM_DIRECT,
    DesignPoint.TENSORDIMM,
    DesignPoint.GRADPIM_BUFFERED,
)


@dataclass
class Fig11Result:
    """Per-design bandwidth/utilization plus the theoretical peak."""

    profiles: dict[DesignPoint, UpdateProfile]
    peak_internal: float
    peak_offchip: float

    def bandwidth(self, design: DesignPoint) -> float:
        """The bandwidth the paper plots: internal for PIM designs,
        device-side for the baseline and TensorDIMM."""
        p = self.profiles[design]
        return max(p.internal_bandwidth, p.external_bandwidth)

    def command_utilization(self, design: DesignPoint) -> float:
        return self.profiles[design].command_bus_utilization


def run_fig11(
    context: ExperimentContext = DEFAULT_CONTEXT,
) -> Fig11Result:
    """Profile the update phase for the four plotted designs."""
    model = context.update_model()
    optimizer = context.optimizer()
    profiles = model.profiles(optimizer, context.precision, FIG11_DESIGNS)
    return Fig11Result(
        profiles=profiles,
        peak_internal=context.timing.peak_internal_bandwidth(
            context.geometry.bankgroups,
            context.geometry.ranks,
            context.geometry.channels,
        ),
        peak_offchip=(
            context.timing.peak_offchip_bandwidth()
            * context.geometry.channels
        ),
    )


def render_fig11(result: Fig11Result) -> str:
    """Text rendering of both panels."""
    rows = []
    for d in FIG11_DESIGNS:
        rows.append(
            [
                d.value,
                result.command_utilization(d) * 100.0,
                result.bandwidth(d) / 1e9,
            ]
        )
    paper = {
        DesignPoint.BASELINE: "~15 GB/s external",
        DesignPoint.GRADPIM_DIRECT: "~28 GB/s, ~100% cmd bus",
        DesignPoint.TENSORDIMM: "rank-level parallelism",
        DesignPoint.GRADPIM_BUFFERED: "~113 GB/s (~4x Direct)",
    }
    out = [
        "Fig. 11 — update-phase command utilization / bandwidth",
        format_table(
            ["design", "cmd util (%)", "bandwidth (GB/s)"], rows
        ),
        f"peak internal: {result.peak_internal / 1e9:.1f} GB/s "
        "(paper 181.28)",
        f"peak off-chip: {result.peak_offchip / 1e9:.1f} GB/s "
        "(paper 17.1)",
        "paper reference points: "
        + "; ".join(f"{d.value}: {note}" for d, note in paper.items()),
    ]
    return "\n".join(out)

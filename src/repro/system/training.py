"""Whole-training-step simulation (paper Fig. 9).

For every design point, a training step is the sum over layers of

* forward, backward-activation and backward-weight times — the NPU
  roofline ``max(compute, memory)`` with the traffic model's bytes (and
  the AoS designs' 4x weight-traffic penalty), and
* the update time — the cycle-level per-parameter rate from
  :class:`repro.system.update_model.UpdatePhaseModel` times the layer's
  parameter count.

Results keep the per-block structure of Fig. 9, whose bars are
normalized to the baseline time of each network's slowest block (and
the 'Total' group to the baseline total).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.dram.timing import TimingParams, DDR4_2133
from repro.errors import ConfigError
from repro.models.graph import NetworkGraph
from repro.models.traffic import TrafficModel
from repro.models.zoo import build_network
from repro.npu.config import NPUConfig, DEFAULT_NPU
from repro.npu.dataflow import phase_time_seconds
from repro.npu.engine import NPUEngine
from repro.optim.precision import PrecisionConfig, PRECISION_8_32
from repro.optim.sgd import MomentumSGD
from repro.system.design import DesignPoint, DESIGNS, DESIGN_ORDER
from repro.system.update_model import UpdatePhaseModel, UpdateProfile


@dataclass(frozen=True)
class PhaseTimes:
    """Seconds per phase for a layer, block, or network."""

    fwd: float = 0.0
    bact: float = 0.0
    bwgt: float = 0.0
    update: float = 0.0

    @property
    def fwd_bwd(self) -> float:
        return self.fwd + self.bact + self.bwgt

    @property
    def total(self) -> float:
        return self.fwd_bwd + self.update

    def __add__(self, other: "PhaseTimes") -> "PhaseTimes":
        return PhaseTimes(
            fwd=self.fwd + other.fwd,
            bact=self.bact + other.bact,
            bwgt=self.bwgt + other.bwgt,
            update=self.update + other.update,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseTimes":
        return cls(**data)


@dataclass(frozen=True)
class BlockTimes:
    """Per-design times of one Fig. 9 block."""

    label: str
    times: Mapping[DesignPoint, PhaseTimes]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "times": {d.value: t.to_dict() for d, t in self.times.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BlockTimes":
        return cls(
            label=data["label"],
            times={
                DesignPoint(v): PhaseTimes.from_dict(t)
                for v, t in data["times"].items()
            },
        )


@dataclass
class NetworkResult:
    """Everything the figures need for one network."""

    network: str
    batch: int
    precision: str
    optimizer: str
    blocks: tuple[BlockTimes, ...]
    totals: Mapping[DesignPoint, PhaseTimes]
    profiles: Mapping[DesignPoint, UpdateProfile]

    # ------------------------------------------------------------------
    def overall_speedup(self, design: DesignPoint) -> float:
        """Baseline total / design total."""
        return (
            self.totals[DesignPoint.BASELINE].total
            / self.totals[design].total
        )

    def update_speedup(self, design: DesignPoint) -> float:
        """Baseline update time / design update time."""
        return (
            self.totals[DesignPoint.BASELINE].update
            / self.totals[design].update
        )

    def update_fraction(self, design: DesignPoint) -> float:
        """Update share of the design's training step."""
        t = self.totals[design]
        return t.update / t.total

    def normalized_blocks(self) -> dict[str, dict[DesignPoint, float]]:
        """Fig. 9 bars: each block / baseline time of the slowest block."""
        slowest = max(
            b.times[DesignPoint.BASELINE].total for b in self.blocks
        )
        return {
            b.label: {
                d: t.total / slowest for d, t in b.times.items()
            }
            for b in self.blocks
        }

    def normalized_totals(self) -> dict[DesignPoint, float]:
        """Fig. 9 'Total' group: each design / baseline total."""
        base = self.totals[DesignPoint.BASELINE].total
        return {d: t.total / base for d, t in self.totals.items()}

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-safe form (floats survive a dump/load exactly).

        This is what the service layer ships across worker processes and
        stores in the on-disk result cache.
        """
        return {
            "network": self.network,
            "batch": self.batch,
            "precision": self.precision,
            "optimizer": self.optimizer,
            "blocks": [b.to_dict() for b in self.blocks],
            "totals": {
                d.value: t.to_dict() for d, t in self.totals.items()
            },
            "profiles": {
                d.value: p.to_dict() for d, p in self.profiles.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkResult":
        """Inverse of :meth:`to_dict`, preserving mapping order."""
        return cls(
            network=data["network"],
            batch=data["batch"],
            precision=data["precision"],
            optimizer=data["optimizer"],
            blocks=tuple(
                BlockTimes.from_dict(b) for b in data["blocks"]
            ),
            totals={
                DesignPoint(v): PhaseTimes.from_dict(t)
                for v, t in data["totals"].items()
            },
            profiles={
                DesignPoint(v): UpdateProfile.from_dict(p)
                for v, p in data["profiles"].items()
            },
        )


class TrainingSimulator:
    """End-to-end training-step model over all design points."""

    def __init__(
        self,
        optimizer=None,
        precision: PrecisionConfig = PRECISION_8_32,
        timing: TimingParams = DDR4_2133,
        geometry: DeviceGeometry = DEFAULT_GEOMETRY,
        npu: NPUConfig = DEFAULT_NPU,
        update_model: Optional[UpdatePhaseModel] = None,
        designs: Sequence[DesignPoint] = DESIGN_ORDER,
    ) -> None:
        self.optimizer = optimizer if optimizer is not None else (
            MomentumSGD(eta=0.01, alpha=0.9, weight_decay=1e-4)
        )
        self.precision = precision
        self.timing = timing
        self.geometry = geometry
        self.npu = npu
        self.engine = NPUEngine(npu)
        self.designs = tuple(designs)
        if DesignPoint.BASELINE not in self.designs:
            raise ConfigError("the design set must include the baseline")
        self.update_model = (
            update_model
            if update_model is not None
            else UpdatePhaseModel(timing=timing, geometry=geometry)
        )

    # ------------------------------------------------------------------
    def offchip_bandwidth(self) -> float:
        """Peak NPU-visible off-chip bandwidth in bytes/second.

        Timing parameters describe one channel; every channel of the
        device contributes its own data bus, so the NPU's
        forward/backward traffic sees the full cross-channel aggregate
        (one channel leaves this identical to the historical
        per-channel figure).
        """
        return (
            self.timing.peak_offchip_bandwidth() * self.geometry.channels
        )

    # ------------------------------------------------------------------
    def simulate(self, network: NetworkGraph | str) -> NetworkResult:
        """Simulate one training step of ``network`` on every design."""
        if isinstance(network, str):
            network = build_network(network)
        profiles = self.update_model.profiles(
            self.optimizer, self.precision, self.designs
        )
        bandwidth = self.offchip_bandwidth()

        per_design_layers: dict[DesignPoint, list[PhaseTimes]] = {}
        for design in self.designs:
            config = DESIGNS[design]
            traffic = TrafficModel(
                precision=self.precision,
                npu=self.npu,
                update_bytes_per_param=0.0,  # time comes from the profile
                aos_weight_penalty=config.aos_weight_penalty,
            )
            layer_times: list[PhaseTimes] = []
            for i, layer in enumerate(network.layers):
                compute = self.engine.layer_compute(layer)
                bytes_ = traffic.layer_traffic(
                    layer, network.batch, first_layer=(i == 0)
                )
                layer_times.append(
                    PhaseTimes(
                        fwd=phase_time_seconds(
                            compute.fwd_cycles, bytes_.fwd, self.npu,
                            bandwidth,
                        ),
                        bact=phase_time_seconds(
                            compute.bact_cycles, bytes_.bact, self.npu,
                            bandwidth,
                        ),
                        bwgt=phase_time_seconds(
                            compute.bwgt_cycles, bytes_.bwgt, self.npu,
                            bandwidth,
                        ),
                        update=profiles[design].update_seconds(
                            layer.weights
                        ),
                    )
                )
            per_design_layers[design] = layer_times

        blocks = []
        for label in network.block_labels:
            times = {}
            for design in self.designs:
                acc = PhaseTimes()
                for layer, t in zip(
                    network.layers, per_design_layers[design]
                ):
                    if layer.block == label:
                        acc = acc + t
                times[design] = acc
            blocks.append(BlockTimes(label=label, times=times))

        totals = {
            design: _sum_times(per_design_layers[design])
            for design in self.designs
        }
        return NetworkResult(
            network=network.name,
            batch=network.batch,
            precision=self.precision.name,
            optimizer=self.optimizer.name,
            blocks=tuple(blocks),
            totals=totals,
            profiles=profiles,
        )

    # ------------------------------------------------------------------
    def layer_speedups(
        self,
        network: NetworkGraph | str,
        design: DesignPoint = DesignPoint.GRADPIM_BUFFERED,
    ) -> list[tuple[str, float, float]]:
        """Per-layer (name, weight/activation ratio, speedup) — Fig. 13.

        Only trainable layers appear (pooling has no update phase).
        """
        if isinstance(network, str):
            network = build_network(network)
        result = self.simulate(network)
        base_profile = result.profiles[DesignPoint.BASELINE]
        design_profile = result.profiles[design]
        bandwidth = self.offchip_bandwidth()
        traffic = TrafficModel(
            precision=self.precision,
            npu=self.npu,
            update_bytes_per_param=0.0,
        )
        out = []
        for i, layer in enumerate(network.layers):
            if not layer.is_trainable:
                continue
            compute = self.engine.layer_compute(layer)
            bytes_ = traffic.layer_traffic(
                layer, network.batch, first_layer=(i == 0)
            )
            fwbw = (
                phase_time_seconds(
                    compute.fwd_cycles, bytes_.fwd, self.npu, bandwidth
                )
                + phase_time_seconds(
                    compute.bact_cycles, bytes_.bact, self.npu, bandwidth
                )
                + phase_time_seconds(
                    compute.bwgt_cycles, bytes_.bwgt, self.npu, bandwidth
                )
            )
            t_base = fwbw + base_profile.update_seconds(layer.weights)
            t_design = fwbw + design_profile.update_seconds(layer.weights)
            out.append(
                (
                    layer.name,
                    layer.weight_activation_ratio(network.batch),
                    t_base / t_design,
                )
            )
        return out


def _sum_times(times: Sequence[PhaseTimes]) -> PhaseTimes:
    acc = PhaseTimes()
    for t in times:
        acc = acc + t
    return acc

"""Incremental and columnar engines == reference scheduler.

The incremental event-driven engine (:mod:`repro.dram.engine`) and the
columnar struct-of-arrays engine (:mod:`repro.dram.columnar`) promise
*exact* equivalence with the reference greedy loop: identical issue
cycles and identical :class:`TraceStats` on every stream. These tests
enforce the contract three ways:

* golden checks over every design point's real update stream;
* Hypothesis property tests sweeping windows, issue models, data-bus
  scopes, per-bank PIM, and all four update-kind stream generators;
* Hypothesis property tests over random synthetic (but structurally
  legal) command streams with random backward dependencies.

They also pin the ``run()`` API contract the engines share: caller
commands are never mutated, re-scheduling is deterministic, and a
supplied dependents adjacency changes nothing.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.commands import Command, CommandType
from repro.dram.engine import build_dependents
from repro.dram.scheduler import (
    CommandScheduler,
    IssueModel,
    _fresh_copy,
    replicate_across_channels,
)
from repro.dram.timing import DDR4_2133, PRESETS
from repro.errors import ConfigError, SimulationError
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint
from repro.system.update_model import UpdatePhaseModel

T = DDR4_2133
GEOM = UpdatePhaseModel().geometry  # the paper's default geometry


def _schedulers(issue_model=None, **kwargs):
    reference = CommandScheduler(
        T, GEOM, issue_model, engine="reference", **kwargs
    )
    incremental = CommandScheduler(
        T, GEOM, issue_model, engine="incremental", **kwargs
    )
    columnar = CommandScheduler(
        T, GEOM, issue_model, engine="columnar", **kwargs
    )
    return reference, incremental, columnar


def _assert_equivalent(commands, issue_model=None, dependents=None,
                       **kwargs):
    """All engines produce the same schedule — or the same deadlock.

    A window-limited scheduler can legitimately deadlock on streams
    whose cross-port dependencies point beyond every port's lookahead;
    equivalence then means every engine refuses identically.
    """
    reference, incremental, columnar = _schedulers(issue_model, **kwargs)
    try:
        ref = reference.run(commands)
    except SimulationError as exc:
        with pytest.raises(SimulationError) as caught:
            incremental.run(commands, dependents=dependents)
        assert str(caught.value) == str(exc)
        with pytest.raises(SimulationError) as caught:
            columnar.run(commands, dependents=dependents)
        assert str(caught.value) == str(exc)
        return None, None
    new = incremental.run(commands, dependents=dependents)
    assert ref.issue_cycles() == new.issue_cycles()
    assert ref.stats == new.stats
    col = columnar.run(commands, dependents=dependents)
    assert ref.issue_cycles() == col.issue_cycles()
    assert ref.stats == col.stats
    return ref, new


def _design_stream(design, model=None):
    model = model or UpdatePhaseModel(columns_per_stripe=8)
    optimizer = build_optimizer(
        "momentum_sgd", {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4}
    )
    config = DESIGNS[design]
    commands, _, _, dependents, _period, _art = model._build_stream(
        config, optimizer, PRECISIONS["8/32"]
    )
    return config, commands, dependents


class TestGoldenDesignPoints:
    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_identical_schedule_per_design(self, design):
        config, commands, dependents = _design_stream(design)
        _assert_equivalent(
            commands,
            issue_model=config.issue_model(GEOM),
            dependents=dependents,
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )

    def test_profile_identical_across_engines(self):
        optimizer = build_optimizer(
            "momentum_sgd",
            {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4},
        )
        seed = UpdatePhaseModel(
            columns_per_stripe=8, engine="reference",
            thorough_validate=True,
        )
        new = UpdatePhaseModel(columns_per_stripe=8)
        col = UpdatePhaseModel(columns_per_stripe=8, engine="columnar")
        for design in DesignPoint:
            expected = seed.profile(design, optimizer)
            assert expected == new.profile(design, optimizer)
            assert expected == col.profile(design, optimizer)


class TestRunContract:
    def test_caller_commands_never_mutated(self):
        _, commands, _ = _design_stream(DesignPoint.GRADPIM_BUFFERED)
        config = DESIGNS[DesignPoint.GRADPIM_BUFFERED]
        for engine in ("reference", "incremental", "columnar"):
            sched = CommandScheduler(
                T, GEOM, config.issue_model(GEOM), engine=engine,
                data_bus_scope=config.data_bus_scope,
            )
            result = sched.run(commands)
            assert all(c.issue_cycle == -1 for c in commands)
            assert all(c.issue_cycle >= 0 for c in result.commands)

    @pytest.mark.parametrize(
        "engine", ["reference", "incremental", "columnar"]
    )
    def test_rescheduling_same_stream_is_identical(self, engine):
        # Regression: the seed scheduler annotated the caller's Command
        # objects in place, so a second run of the same stream saw
        # stale issue cycles as "already issued" dependencies.
        config, commands, _ = _design_stream(DesignPoint.GRADPIM_DIRECT)
        sched = CommandScheduler(
            T, GEOM, config.issue_model(GEOM), engine=engine,
            data_bus_scope=config.data_bus_scope,
        )
        first = sched.run(commands)
        second = sched.run(commands)
        assert first.issue_cycles() == second.issue_cycles()
        assert first.stats == second.stats

    def test_supplied_dependents_change_nothing(self):
        config, commands, dependents = _design_stream(
            DesignPoint.GRADPIM_DIRECT
        )
        _, incremental, _ = _schedulers(
            config.issue_model(GEOM),
            data_bus_scope=config.data_bus_scope,
        )
        with_deps = incremental.run(commands, dependents=dependents)
        without = incremental.run(commands)
        assert with_deps.issue_cycles() == without.issue_cycles()

    def test_build_dependents_matches_deps(self):
        _, commands, dependents = _design_stream(DesignPoint.AOS)
        rebuilt = build_dependents(commands)
        assert rebuilt == dependents
        for i, cmd in enumerate(commands):
            for d in cmd.deps:
                assert i in rebuilt[d]

    def test_fresh_copy_covers_every_field(self):
        cmd = Command(
            CommandType.SCALED_READ, rank=1, bankgroup=2, bank=3, row=7,
            col=9, scale_id=1, dst_reg=1, src_reg=0, position=2,
            deps=(1, 4), tag="x", scaler=object(),
        )
        cmd.issue_cycle = 123
        copy = _fresh_copy(cmd)
        assert copy.issue_cycle == -1
        for field in dataclasses.fields(Command):
            if field.name == "issue_cycle":
                continue
            assert getattr(copy, field.name) == getattr(cmd, field.name)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            CommandScheduler(T, GEOM, engine="warp-speed")


# ----------------------------------------------------------------------
# Property tests: generator streams under random configurations
# ----------------------------------------------------------------------
_UPDATE_KINDS = st.sampled_from(
    [
        DesignPoint.BASELINE,  # baseline-stream
        DesignPoint.TENSORDIMM,  # nmp-stream
        DesignPoint.GRADPIM_BUFFERED,  # pim-kernel
        DesignPoint.AOS_PB,  # aos-kernel, per-bank PIM
    ]
)


class TestGeneratorStreamProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        design=_UPDATE_KINDS,
        window=st.integers(min_value=1, max_value=40),
        buffered=st.booleans(),
        scope=st.sampled_from(["channel", "dimm", "rank"]),
        timing_name=st.sampled_from(sorted(PRESETS)),
        optimizer_name=st.sampled_from(["sgd", "momentum_sgd"]),
        channels=st.sampled_from([1, 2, 4]),
    )
    def test_equivalent_under_random_configuration(
        self, design, window, buffered, scope, timing_name,
        optimizer_name, channels,
    ):
        optimizer = build_optimizer(optimizer_name, {"eta": 0.01})
        config = DESIGNS[design]
        model = UpdatePhaseModel(
            timing=PRESETS[timing_name], columns_per_stripe=4
        )
        commands, _, _, dependents, _period, _art = model._build_stream(
            config, optimizer, PRECISIONS["8/32"]
        )
        issue_model = (
            IssueModel.buffered(GEOM.ranks)
            if buffered
            else IssueModel.direct(GEOM.ranks)
        )
        geometry = (
            GEOM
            if channels == 1
            else dataclasses.replace(GEOM, channels=channels)
        )
        if channels > 1:
            commands, dependents = replicate_across_channels(
                commands, channels, dependents
            )
        timing = PRESETS[timing_name]
        engine_kwargs = dict(
            per_bank_pim=config.per_bank_pim, window=window,
            data_bus_scope=scope,
        )
        reference = CommandScheduler(
            timing, geometry, issue_model, engine="reference",
            **engine_kwargs,
        )
        incremental = CommandScheduler(
            timing, geometry, issue_model, engine="incremental",
            **engine_kwargs,
        )
        columnar = CommandScheduler(
            timing, geometry, issue_model, engine="columnar",
            **engine_kwargs,
        )
        ref = reference.run(commands)
        new = incremental.run(commands, dependents=dependents)
        assert ref.issue_cycles() == new.issue_cycles()
        assert ref.stats == new.stats
        col = columnar.run(commands, dependents=dependents)
        assert ref.issue_cycles() == col.issue_cycles()
        assert ref.stats == col.stats


# ----------------------------------------------------------------------
# Property tests: synthetic random legal streams
# ----------------------------------------------------------------------
@st.composite
def synthetic_streams(draw):
    """Structurally legal random streams with random backward deps.

    Per bank: ACT -> column accesses -> PRE bracketing, interleaved
    across a random bank set; every command may additionally depend on
    any earlier command (the scheduler only requires deps to point
    backwards).
    """
    n_banks = draw(st.integers(min_value=1, max_value=6))
    bank_coords = draw(
        st.lists(
            st.tuples(
                st.integers(0, GEOM.ranks - 1),
                st.integers(0, GEOM.bankgroups - 1),
                st.integers(0, GEOM.banks_per_group - 1),
            ),
            min_size=n_banks,
            max_size=n_banks,
            unique=True,
        )
    )
    commands: list[Command] = []
    open_act: dict[tuple, int] = {}  # bank -> ACT index
    accesses: dict[tuple, list[int]] = {}

    def extra_dep():
        if commands and draw(st.booleans()):
            return (draw(st.integers(0, len(commands) - 1)),)
        return ()

    n_ops = draw(st.integers(min_value=3, max_value=40))
    kinds = st.sampled_from(
        [
            CommandType.RD,
            CommandType.WR,
            CommandType.SCALED_READ,
            CommandType.WRITEBACK,
            CommandType.QREG_LOAD,
            CommandType.QREG_STORE,
            CommandType.PIM_ADD,
            CommandType.PIM_QUANT,
        ]
    )
    for _ in range(n_ops):
        bank = draw(st.sampled_from(bank_coords))
        rank, bg, b = bank
        kind = draw(kinds)
        if kind in (CommandType.PIM_ADD, CommandType.PIM_QUANT):
            # ALU ops need no open row.
            commands.append(
                Command(kind, rank=rank, bankgroup=bg, deps=extra_dep())
            )
            continue
        row = draw(st.integers(0, 2))
        act = open_act.get(bank)
        if act is not None and commands[act].row != row:
            # Close and reopen on a different row.
            pre = Command(
                CommandType.PRE, rank=rank, bankgroup=bg, bank=b,
                row=commands[act].row,
                deps=tuple(accesses[bank]) or (act,),
            )
            commands.append(pre)
            open_act[bank] = None
            act = None
        if act is None:
            commands.append(
                Command(
                    CommandType.ACT, rank=rank, bankgroup=bg, bank=b,
                    row=row,
                    deps=(len(commands) - 1,) if commands else (),
                )
            )
            act = len(commands) - 1
            open_act[bank] = act
            accesses[bank] = []
        commands.append(
            Command(
                kind, rank=rank, bankgroup=bg, bank=b,
                row=commands[act].row, col=draw(st.integers(0, 7)),
                deps=(act,) + extra_dep(),
            )
        )
        accesses[bank].append(len(commands) - 1)
    return commands


class TestSyntheticStreamProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        commands=synthetic_streams(),
        window=st.integers(min_value=1, max_value=24),
        issue=st.sampled_from(["direct", "buffered", "per-dimm"]),
        scope=st.sampled_from(["channel", "dimm", "rank"]),
        per_bank=st.booleans(),
    )
    def test_equivalent_on_random_streams(
        self, commands, window, issue, scope, per_bank
    ):
        # per-dimm is TensorDIMM's issue model: two ranks per port, and
        # under the dimm scope one bus per port; under the channel
        # scope one bus spans ports, so a burst must rescan them all.
        issue_model = {
            "direct": IssueModel.direct(GEOM.ranks),
            "buffered": IssueModel.buffered(GEOM.ranks),
            "per-dimm": DESIGNS[DesignPoint.TENSORDIMM].issue_model(GEOM),
        }[issue]
        _assert_equivalent(
            commands,
            issue_model=issue_model,
            window=window,
            data_bus_scope=scope,
            per_bank_pim=per_bank,
        )

    @settings(max_examples=30, deadline=None)
    @given(
        commands=synthetic_streams(),
        window=st.integers(min_value=1, max_value=24),
        channels=st.sampled_from([2, 4]),
        per_bank=st.booleans(),
    )
    def test_equivalent_on_random_multi_channel_streams(
        self, commands, window, channels, per_bank
    ):
        """All engines agree on random streams tiled across channels —
        the same contract as single-channel, along the channel axis."""
        replicated, _ = replicate_across_channels(commands, channels)
        geometry = dataclasses.replace(GEOM, channels=channels)
        reference = CommandScheduler(
            T, geometry, engine="reference", window=window,
            per_bank_pim=per_bank,
        )
        incremental = CommandScheduler(
            T, geometry, engine="incremental", window=window,
            per_bank_pim=per_bank,
        )
        columnar = CommandScheduler(
            T, geometry, engine="columnar", window=window,
            per_bank_pim=per_bank,
        )
        try:
            ref = reference.run(replicated)
        except SimulationError as exc:
            with pytest.raises(SimulationError) as caught:
                incremental.run(replicated)
            assert str(caught.value) == str(exc)
            with pytest.raises(SimulationError) as caught:
                columnar.run(replicated)
            assert str(caught.value) == str(exc)
            return
        new = incremental.run(replicated)
        assert ref.issue_cycles() == new.issue_cycles()
        assert ref.stats == new.stats
        col = columnar.run(replicated)
        assert ref.issue_cycles() == col.issue_cycles()
        assert ref.stats == col.stats

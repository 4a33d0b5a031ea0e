"""Independent timing-rule checker for scheduled command traces.

This module deliberately re-implements the JEDEC rules from scratch,
sharing no logic with the scheduler's state machines. The test suite
runs every scheduled trace through :func:`validate_trace`; a
disagreement between the two implementations surfaces as a
:class:`~repro.errors.TimingViolation`.

Performance
-----------

Two checking modes cover the same rules:

* the default is a **single sort-and-sweep pass**: the trace is sorted
  once by issue cycle and every rule family (command-bus slots, bank
  row-state, bank-group tCCD_L/tWTR_L/tPIM, rank tRRD/tFAW/tCCD_S/
  tWTR_S) advances its running state per command — linear in trace
  length after the sort. Data-bus occupancy is a second
  sort-and-sweep over the external bursts of each bus scope.
* ``thorough=True`` retains the original family-by-family checkers,
  each walking the full trace with its own state reconstruction. The
  test suite runs both modes and asserts they accept the same traces
  and reject the same seeded violations.

A third entry point, :func:`validate_trace_columnar`, checks a
scheduled :class:`~repro.dram.columnar.ColumnarSchedule` without ever
materializing ``Command`` objects: every rule family is evaluated as a
handful of whole-array numpy operations (segmented sorts, adjacent
differences, exclusive running maxima), fused across channels through
global resource ids. The accept path — the only path valid traces take
— is O(sort) with no per-command Python work. When any family flags a
problem, the trace is materialized and re-checked through the scalar
sweep so the raised :class:`TimingViolation` is byte-identical to the
one ``validate_trace`` produces.

Production sweeps that trust the (property-tested) scheduler can skip
validation entirely via ``SimJobSpec(validate=False)`` /
``--no-validate``; see :mod:`repro.service`.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from repro.dram.commands import (
    COLUMN_COMMANDS,
    Command,
    CommandType,
    EXTERNAL_COLUMN_COMMANDS,
    INTERNAL_COLUMN_COMMANDS,
    PIM_ALU_COMMANDS,
    READ_COMMANDS,
    WRITE_COMMANDS,
    command_latency,
)
from repro.dram.geometry import DeviceGeometry
from repro.dram.timing import TimingParams
from repro.errors import TimingViolation


def _data_interval(cmd: Command, timing: TimingParams) -> tuple[int, int]:
    """(start, end) cycles of an external command's data burst."""
    if cmd.kind is CommandType.RD:
        start = cmd.issue_cycle + timing.tCL
    else:
        start = cmd.issue_cycle + timing.tCWL
    return start, start + timing.tBURST


def _write_data_end(cmd: Command, timing: TimingParams) -> int:
    """Cycle at which a write-type command's data has fully arrived."""
    if cmd.kind is CommandType.WR:
        return cmd.issue_cycle + timing.tCWL + timing.tBURST
    # WRITEBACK / QREG_STORE: register data, no bus latency.
    return cmd.issue_cycle + timing.tBURST


def validate_trace(
    commands: Sequence[Command],
    timing: TimingParams,
    geometry: DeviceGeometry,
    port_of_rank: Sequence[int],
    per_bank_pim: bool = False,
    data_bus_scope: str = "channel",
    thorough: bool = False,
) -> None:
    """Raise :class:`TimingViolation` on the first rule breach.

    ``commands`` must carry issue cycles (``issue_cycle >= 0``). The
    default mode is the linear fused sweep; ``thorough=True`` runs the
    original family-by-family checkers instead (same rules, kept as a
    second, independent formulation for the test suite).
    """
    if data_bus_scope not in ("channel", "dimm", "rank"):
        raise TimingViolation(
            "config", 0, f"unknown data_bus_scope {data_bus_scope!r}"
        )
    if geometry.channels > 1:
        # Channels are fully independent replicas of every state
        # machine (ports, banks, groups, ranks, data buses), so each
        # channel's sub-trace checks in isolation. Dependencies index
        # the *global* stream and are checked once, up front.
        groups: list[list[Command]] = [
            [] for _ in range(geometry.channels)
        ]
        for i, cmd in enumerate(commands):
            if not 0 <= cmd.channel < geometry.channels:
                raise TimingViolation(
                    "channel",
                    max(cmd.issue_cycle, 0),
                    f"command {i} channel {cmd.channel} out of range",
                )
        _require_issued(commands)
        _check_dependencies(commands, timing)
        for cmd in commands:
            groups[cmd.channel].append(cmd)
        for subset in groups:
            if not thorough:
                _validate_sweep(
                    subset, timing, geometry, port_of_rank,
                    per_bank_pim, data_bus_scope, check_deps=False,
                )
            else:
                _validate_thorough(
                    subset, timing, geometry, port_of_rank,
                    per_bank_pim, data_bus_scope,
                )
        return
    if not thorough:
        _validate_sweep(
            commands, timing, geometry, port_of_rank,
            per_bank_pim, data_bus_scope,
        )
        return
    _require_issued(commands)
    _check_dependencies(commands, timing)
    _validate_thorough(
        commands, timing, geometry, port_of_rank,
        per_bank_pim, data_bus_scope,
    )


def _require_issued(commands: Sequence[Command]) -> None:
    for cmd in commands:
        if cmd.issue_cycle < 0:
            raise TimingViolation(
                "unissued", 0, "command without an issue cycle in trace"
            )


def _validate_thorough(
    commands: Sequence[Command],
    timing: TimingParams,
    geometry: DeviceGeometry,
    port_of_rank: Sequence[int],
    per_bank_pim: bool,
    data_bus_scope: str,
) -> None:
    """The family-by-family checkers over one channel's trace (the
    dependency and unissued checks are the caller's job)."""
    trace = sorted(
        (c for c in commands),
        key=lambda c: (c.issue_cycle, id(c)),
    )
    _require_issued(trace)
    _check_ports(trace, port_of_rank)
    _check_banks(trace, timing)
    _check_bankgroups(trace, timing, per_bank_pim)
    _check_ranks(trace, timing)
    if data_bus_scope == "channel":
        _check_data_bus(trace, timing)
    elif data_bus_scope == "dimm":
        for dimm in range(geometry.dimms):
            subset = [
                c
                for c in trace
                if geometry.dimm_of_rank(c.rank) == dimm
            ]
            _check_data_bus(subset, timing)
    else:  # rank
        for rank in range(geometry.ranks):
            _check_data_bus([c for c in trace if c.rank == rank], timing)


# ----------------------------------------------------------------------
# Fused single-pass checker (the default mode)
# ----------------------------------------------------------------------
def _validate_sweep(
    commands: Sequence[Command],
    timing: TimingParams,
    geometry: DeviceGeometry,
    port_of_rank: Sequence[int],
    per_bank_pim: bool,
    data_bus_scope: str,
    check_deps: bool = True,
) -> None:
    """All rule families in one pass over the cycle-sorted trace.

    State per family is carried in dictionaries keyed exactly like the
    thorough checkers'; every command advances each family it belongs
    to, so the cost is one dict update per (command, family) instead of
    one full trace walk per family. ``check_deps=False`` skips the
    dependency sweep (multi-channel validation checks dependencies once
    globally, then sweeps each channel's sub-trace).
    """
    trace = sorted(commands, key=operator.attrgetter("issue_cycle"))
    if trace and trace[0].issue_cycle < 0:
        raise TimingViolation(
            "unissued", 0, "command without an issue cycle in trace"
        )
    if check_deps:
        _check_dependencies(commands, timing)

    t_ = timing
    tRP, tRAS, tRTP, tWR, tRCD = t_.tRP, t_.tRAS, t_.tRTP, t_.tWR, t_.tRCD
    tCCD_L, tCCD_S, tPIM = t_.tCCD_L, t_.tCCD_S, t_.tPIM
    tWTR_L, tWTR_S = t_.tWTR_L, t_.tWTR_S
    tRRD_L, tRRD_S, tFAW = t_.tRRD_L, t_.tRRD_S, t_.tFAW
    tCL, tCWL, tBURST = t_.tCL, t_.tCWL, t_.tBURST

    # Per-kind classification, resolved once and looked up by the
    # member's plain value string (``CommandType.__hash__`` is a
    # Python-level function; a str hashes in C, cached).
    ACT, PRE, RD, WR = (
        CommandType.ACT, CommandType.PRE, CommandType.RD, CommandType.WR
    )
    kind_flags = {
        k._value_: (
            k in COLUMN_COMMANDS,
            k in INTERNAL_COLUMN_COMMANDS,
            k in EXTERNAL_COLUMN_COMMANDS,
            k in PIM_ALU_COMMANDS,
            k in READ_COMMANDS,
            k in WRITE_COMMANDS,
        )
        for k in CommandType
    }

    port_last: dict[int, int] = {}  # port -> last issue cycle
    bank_state: dict[tuple, list] = {}  # [row, act, pre, rd, wr_end]
    col_last: dict[tuple, int] = {}
    alu_last: dict[tuple, int] = {}
    g_wtr: dict[tuple, int] = {}
    acts: dict[int, list] = {}
    ext_last: dict[int, int] = {}
    r_wtr: dict[int, int] = {}
    bursts: dict[int, list] = {}  # bus id -> [(start, end, kind, rank)]
    if data_bus_scope == "channel":
        bus_of_rank = [0] * geometry.ranks
    elif data_bus_scope == "dimm":
        bus_of_rank = [
            geometry.dimm_of_rank(r) for r in range(geometry.ranks)
        ]
    else:  # rank
        bus_of_rank = list(range(geometry.ranks))

    for cmd in trace:
        t = cmd.issue_cycle
        kind = cmd.kind
        is_col, is_int, is_ext, is_alu, is_rd, is_wr = kind_flags[
            kind._value_
        ]
        rank = cmd.rank

        # Command-bus slots (the trace is cycle-sorted, so a reused
        # slot shows up as two consecutive equal cycles per port).
        port = port_of_rank[rank]
        if port_last.get(port) == t:
            raise TimingViolation(
                "command-bus",
                t,
                f"port {port} issued two commands in one cycle",
            )
        port_last[port] = t

        gkey = (rank, cmd.bankgroup)

        # Bank row-state rules.
        if kind is ACT or kind is PRE or is_col:
            key = (rank, cmd.bankgroup, cmd.bank)
            s = bank_state.get(key)
            if s is None:
                s = bank_state[key] = [None, None, None, None, None]
            if kind is ACT:
                if s[0] is not None:
                    raise TimingViolation(
                        "ACT-open", t, f"bank {key} already open"
                    )
                if s[2] is not None and t < s[2] + tRP:
                    raise TimingViolation("tRP", t, f"bank {key}")
                s[0], s[1] = cmd.row, t
            elif kind is PRE:
                if s[0] is None:
                    raise TimingViolation("PRE-closed", t, f"bank {key}")
                if t < s[1] + tRAS:
                    raise TimingViolation("tRAS", t, f"bank {key}")
                if s[3] is not None and t < s[3] + tRTP:
                    raise TimingViolation("tRTP", t, f"bank {key}")
                if s[4] is not None and t < s[4] + tWR:
                    raise TimingViolation("tWR", t, f"bank {key}")
                s[0], s[2] = None, t
            else:  # column access
                if s[0] != cmd.row:
                    raise TimingViolation(
                        "row-match",
                        t,
                        f"bank {key}: access to row {cmd.row}, "
                        f"open {s[0]}",
                    )
                if t < s[1] + tRCD:
                    raise TimingViolation("tRCD", t, f"bank {key}")
                if is_rd:
                    s[3] = t if s[3] is None else max(s[3], t)
                if is_wr:
                    end = _write_data_end(cmd, timing)
                    s[4] = end if s[4] is None else max(s[4], end)

        # Bank-group rules (tCCD_L, tWTR_L, tPIM).
        if is_col:
            ckey = (
                (rank, cmd.bankgroup, cmd.bank, "pb")
                if is_int and per_bank_pim
                else gkey
            )
            prev = col_last.get(ckey)
            if prev is not None and t < prev + tCCD_L:
                raise TimingViolation(
                    "tCCD_L", t, f"bank group {ckey}, prev at {prev}"
                )
            col_last[ckey] = t
            if is_rd:
                ready = g_wtr.get(gkey)
                if ready is not None and t < ready:
                    raise TimingViolation(
                        "tWTR_L", t, f"bank group {gkey}, ready at {ready}"
                    )
            if is_wr:
                end = _write_data_end(cmd, timing) + tWTR_L
                prev_end = g_wtr.get(gkey, 0)
                if end > prev_end:
                    g_wtr[gkey] = end
        elif is_alu:
            akey = (
                (rank, cmd.bankgroup, cmd.bank)
                if per_bank_pim
                else gkey
            )
            prev = alu_last.get(akey)
            if prev is not None and t < prev + tPIM:
                raise TimingViolation(
                    "tPIM", t, f"PIM unit {akey}, prev at {prev}"
                )
            alu_last[akey] = t

        # Rank rules (tRRD, tFAW, tCCD_S, tWTR_S).
        if kind is ACT:
            history = acts.get(rank)
            if history is None:
                history = acts[rank] = []
            if history:
                prev_t, prev_bg = history[-1]
                spacing = (
                    tRRD_L if prev_bg == cmd.bankgroup else tRRD_S
                )
                if t < prev_t + spacing:
                    raise TimingViolation("tRRD", t, f"rank {rank}")
            if len(history) >= 4 and t < history[-4][0] + tFAW:
                raise TimingViolation("tFAW", t, f"rank {rank}")
            history.append((t, cmd.bankgroup))
        elif is_ext:
            prev = ext_last.get(rank)
            if prev is not None and t < prev + tCCD_S:
                raise TimingViolation("tCCD_S", t, f"rank {rank}")
            ext_last[rank] = t
            if is_rd:
                ready = r_wtr.get(rank)
                if ready is not None and t < ready:
                    raise TimingViolation("tWTR_S", t, f"rank {rank}")
            if kind is WR:
                end = t + tCWL + tBURST + tWTR_S
                prev_end = r_wtr.get(rank, 0)
                if end > prev_end:
                    r_wtr[rank] = end
            # Data-bus bursts, grouped by scope for the second sweep.
            start = t + (tCL if kind is RD else tCWL)
            bus = bus_of_rank[rank]
            lst = bursts.get(bus)
            if lst is None:
                lst = bursts[bus] = []
            lst.append((start, start + tBURST, kind, rank))

    # Data-bus occupancy: sort-and-sweep per bus.
    rank_switch = timing.rank_switch_penalty
    for lst in bursts.values():
        lst.sort(key=_burst_start)
        last_end = None
        last_kind = None
        last_rank = None
        for start, end, kind, rank in lst:
            if last_end is not None:
                gap = 0
                if kind is not last_kind:
                    gap = 2
                if rank != last_rank and rank_switch > gap:
                    gap = rank_switch
                if start < last_end + gap:
                    raise TimingViolation(
                        "data-bus",
                        start,
                        f"burst at {start} overlaps previous ending "
                        f"{last_end} (required gap {gap})",
                    )
            last_end, last_kind, last_rank = end, kind, rank


def _burst_start(burst: tuple) -> int:
    return burst[0]


# ----------------------------------------------------------------------
# Fused columnar checker (vectorized accept path)
# ----------------------------------------------------------------------
def _kind_mask(members) -> np.ndarray:
    from repro.dram.columnar import KIND_ORDER

    return np.array([k in members for k in KIND_ORDER], dtype=bool)


class _KindTables:
    """Per-kind-code classification masks, built once on first use."""

    _cache = None

    @classmethod
    def get(cls):
        if cls._cache is None:
            from repro.dram.columnar import KIND_INDEX

            cls._cache = {
                "col": _kind_mask(COLUMN_COMMANDS),
                "int": _kind_mask(INTERNAL_COLUMN_COMMANDS),
                "ext": _kind_mask(EXTERNAL_COLUMN_COMMANDS),
                "alu": _kind_mask(PIM_ALU_COMMANDS),
                "rd": _kind_mask(READ_COMMANDS),
                "wr": _kind_mask(WRITE_COMMANDS),
                "act": _kind_mask({CommandType.ACT}),
                "pre": _kind_mask({CommandType.PRE}),
                "RD": KIND_INDEX[CommandType.RD],
                "WR": KIND_INDEX[CommandType.WR],
            }
        return cls._cache


#: Per-segment offset for the segmented-cummax trick; every value fed
#: through it (cycles, positions, burst ends) must stay below this.
_SEG_BIG = np.int64(1) << 41


def _seg_excl_cummax(
    values: np.ndarray, mask: np.ndarray, seg: np.ndarray
) -> np.ndarray:
    """Exclusive segmented running maximum.

    ``out[i]`` is the max of ``values[j]`` over ``j < i`` in the same
    segment with ``mask[j]`` set, or a negative number when no such
    ``j`` exists. Non-negative inputs only. Works by offsetting each
    segment into its own value band so one global
    ``np.maximum.accumulate`` never lets a previous segment's maximum
    leak forward as anything but a negative.
    """
    v = np.where(mask, values, -1) + seg * _SEG_BIG
    run = np.maximum.accumulate(v)
    excl = np.empty_like(run)
    excl[0] = -1
    excl[1:] = run[:-1]
    return excl - seg * _SEG_BIG


def _sorted_family(idx, res, t):
    """Sort one family's rows by (resource, cycle, stream index) and
    return (ordered stream indices, resources, cycles, segment ids,
    same-segment adjacency mask)."""
    order = np.lexsort((idx, t[idx], res))
    o = idx[order]
    r = res[order]
    c = t[o]
    same = r[1:] == r[:-1]
    seg = np.zeros(len(o), dtype=np.int64)
    if len(o) > 1:
        np.cumsum(~same, out=seg[1:])
    return o, r, c, seg, same


def validate_trace_columnar(
    schedule,
    timing: TimingParams,
    geometry: DeviceGeometry,
    port_of_rank: Sequence[int],
    per_bank_pim: bool = False,
    data_bus_scope: str = "channel",
) -> None:
    """Validate a :class:`~repro.dram.columnar.ColumnarSchedule`.

    Same rules and same exceptions as :func:`validate_trace` (default
    sweep mode), evaluated as whole-array numpy passes over the
    schedule's columns. Valid traces — the only traces the scheduler
    emits — never materialize a single ``Command``; a flagged trace is
    re-checked through the scalar sweep to raise the identical
    :class:`TimingViolation`.
    """
    if data_bus_scope not in ("channel", "dimm", "rank"):
        raise TimingViolation(
            "config", 0, f"unknown data_bus_scope {data_bus_scope!r}"
        )
    from repro.dram.columnar import _latency_table

    stream = schedule.stream
    n = stream.n
    if n == 0:
        return
    K = _KindTables.get()
    t = schedule.issue_cycle.astype(np.int64)
    kind = stream.kind.astype(np.int64)
    rank = stream.rank.astype(np.int64)
    bg = stream.bankgroup.astype(np.int64)
    bank = stream.bank.astype(np.int64)

    def _flagged(family: str) -> None:
        # Materialize and let the scalar sweep raise the canonical
        # exception; the guard raise only fires if the two checkers
        # ever disagree (which the test suite forbids).
        validate_trace(
            schedule.to_commands(), timing, geometry, port_of_rank,
            per_bank_pim=per_bank_pim, data_bus_scope=data_bus_scope,
        )
        raise TimingViolation(
            family, 0,
            "columnar validator flagged a violation the scalar sweep "
            "did not reproduce",
        )

    if bool((t < 0).any()):
        _flagged("unissued")
    channels = geometry.channels
    if channels > 1:
        ch = stream.channel.astype(np.int64)
        if bool(((ch < 0) | (ch >= channels)).any()):
            _flagged("channel")
    else:
        ch = np.zeros(n, dtype=np.int64)

    # Dependencies: every consumer must issue at or after each
    # dependency's completion.
    if len(stream.dep_indices):
        done = t + _latency_table(timing)[kind]
        counts = np.diff(stream.dep_indptr)
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        if bool((t[rows] < done[stream.dep_indices]).any()):
            _flagged("dependency")

    t_ = timing
    is_col = K["col"][kind]
    is_int = K["int"][kind]
    is_ext = K["ext"][kind]
    is_alu = K["alu"][kind]
    is_rd = K["rd"][kind]
    is_wr = K["wr"][kind]
    is_act = K["act"][kind]
    is_pre = K["pre"][kind]
    idx_all = np.arange(n, dtype=np.int64)

    # Global (channel-fused) resource ids.
    n_ranks = geometry.ranks
    rank_g = ch * n_ranks + rank
    group_g = rank_g * geometry.bankgroups + bg
    bank_g = group_g * geometry.banks_per_group + bank
    port_arr = np.asarray(port_of_rank, dtype=np.int64)
    n_ports = int(port_arr.max()) + 1
    port_g = ch * n_ports + port_arr[rank]

    # Command-bus slots: within a port, cycles must be unique.
    _, _, c, _, same = _sorted_family(idx_all, port_g, t)
    if bool((same & (c[1:] == c[:-1])).any()):
        _flagged("command-bus")

    # Bank row-state rules.
    bmask = is_act | is_pre | is_col
    bidx = idx_all[bmask]
    if len(bidx):
        o, _, c, seg, _ = _sorted_family(bidx, bank_g[bmask], t)
        p = np.arange(len(o), dtype=np.int64)
        k_act = is_act[o]
        k_pre = is_pre[o]
        k_col = is_col[o]
        la = _seg_excl_cummax(p, k_act, seg)  # last ACT position
        lp = _seg_excl_cummax(p, k_pre, seg)  # last PRE position
        open_before = la > lp
        la_c = np.maximum(la, 0)
        lp_c = np.maximum(lp, 0)
        act_t = c[la_c]  # cycle of the last ACT (where la >= 0)
        bad = k_act & (
            open_before | ((lp >= 0) & (c < c[lp_c] + t_.tRP))
        )
        # Running read cycles / write data-ends (never reset, as in the
        # scalar sweep; cycle-sorted order makes "last read" the max).
        lr = _seg_excl_cummax(c, k_col & is_rd[o], seg)
        wr_end = t + np.where(
            kind == K["WR"], t_.tCWL + t_.tBURST, t_.tBURST
        )
        we = _seg_excl_cummax(wr_end[o], k_col & is_wr[o], seg)
        bad |= k_pre & (
            ~open_before
            | ((la >= 0) & (c < act_t + t_.tRAS))
            | ((lr >= 0) & (c < lr + t_.tRTP))
            | ((we >= 0) & (c < we + t_.tWR))
        )
        rows_s = stream.row.astype(np.int64)[o]
        bad |= k_col & (
            ~open_before
            | (rows_s[la_c] != rows_s)
            | (c < act_t + t_.tRCD)
        )
        if bool(bad.any()):
            _flagged("bank")

    # Bank-group rules: tCCD_L and tWTR_L over columns, tPIM over ALU.
    cidx = idx_all[is_col]
    if len(cidx):
        n_groups = channels * n_ranks * geometry.bankgroups
        ckey = np.where(
            is_int & per_bank_pim, n_groups + bank_g, group_g
        )
        _, _, c, _, same = _sorted_family(cidx, ckey[is_col], t)
        if bool((same & (c[1:] < c[:-1] + t_.tCCD_L)).any()):
            _flagged("tCCD_L")
        o, _, c, seg, _ = _sorted_family(cidx, group_g[is_col], t)
        wr_end = t + np.where(
            kind == K["WR"], t_.tCWL + t_.tBURST, t_.tBURST
        )
        ready = _seg_excl_cummax(
            wr_end[o] + t_.tWTR_L, is_wr[o], seg
        )
        if bool((is_rd[o] & (ready >= 0) & (c < ready)).any()):
            _flagged("tWTR_L")
    aidx = idx_all[is_alu]
    if len(aidx):
        akey = bank_g if per_bank_pim else group_g
        _, _, c, _, same = _sorted_family(aidx, akey[is_alu], t)
        if bool((same & (c[1:] < c[:-1] + t_.tPIM)).any()):
            _flagged("tPIM")

    # Rank rules: tRRD/tFAW over ACTs, tCCD_S/tWTR_S over externals.
    actidx = idx_all[is_act]
    if len(actidx):
        o, _, c, _, same = _sorted_family(actidx, rank_g[is_act], t)
        bg_s = bg[o]
        spacing = np.where(bg_s[1:] == bg_s[:-1], t_.tRRD_L, t_.tRRD_S)
        if bool((same & (c[1:] < c[:-1] + spacing)).any()):
            _flagged("tRRD")
        if len(o) > 4:
            r_s = rank_g[o]
            same4 = r_s[4:] == r_s[:-4]
            if bool((same4 & (c[4:] < c[:-4] + t_.tFAW)).any()):
                _flagged("tFAW")
    extidx = idx_all[is_ext]
    if len(extidx):
        o, _, c, seg, same = _sorted_family(extidx, rank_g[is_ext], t)
        if bool((same & (c[1:] < c[:-1] + t_.tCCD_S)).any()):
            _flagged("tCCD_S")
        ready = _seg_excl_cummax(
            c + t_.tCWL + t_.tBURST + t_.tWTR_S,
            kind[o] == K["WR"],
            seg,
        )
        if bool((is_rd[o] & (ready >= 0) & (c < ready)).any()):
            _flagged("tWTR_S")

        # Data-bus occupancy: adjacent-burst gaps per bus scope.
        if data_bus_scope == "channel":
            bus_of_rank = np.zeros(n_ranks, dtype=np.int64)
            n_buses = 1
        elif data_bus_scope == "dimm":
            bus_of_rank = np.array(
                [geometry.dimm_of_rank(r) for r in range(n_ranks)],
                dtype=np.int64,
            )
            n_buses = geometry.dimms
        else:  # rank
            bus_of_rank = np.arange(n_ranks, dtype=np.int64)
            n_buses = n_ranks
        bus_g = (ch * n_buses + bus_of_rank[rank])[is_ext]
        te = t[extidx]
        start = te + np.where(
            kind[extidx] == K["RD"], t_.tCL, t_.tCWL
        )
        # The scalar sweep sorts bursts by start with trace-order ties.
        order = np.lexsort((extidx, te, start, bus_g))
        b = bus_g[order]
        s = start[order]
        e = s + t_.tBURST
        k_s = kind[extidx][order]
        r_s = rank_g[is_ext][order]
        same = b[1:] == b[:-1]
        gap = np.where(k_s[1:] != k_s[:-1], 2, 0)
        gap = np.where(
            (r_s[1:] != r_s[:-1])
            & (t_.rank_switch_penalty > gap),
            t_.rank_switch_penalty,
            gap,
        )
        if bool((same & (s[1:] < e[:-1] + gap)).any()):
            _flagged("data-bus")


# ----------------------------------------------------------------------
def _check_dependencies(
    commands: Sequence[Command], timing: TimingParams
) -> None:
    # One latency resolution per kind (keyed by value string: no enum
    # hashing per command), one completion per command — the dep sweep
    # itself is then pure integer compares.
    latency = {
        k._value_: command_latency(k, timing) for k in CommandType
    }
    done = [
        c.issue_cycle + latency[c.kind._value_] for c in commands
    ]
    for i, cmd in enumerate(commands):
        t = cmd.issue_cycle
        for d in cmd.deps:
            if t < done[d]:
                raise TimingViolation(
                    "dependency",
                    t,
                    f"command {i} issued before dependency {d} "
                    f"completed at {done[d]}",
                )


def _check_ports(
    trace: Sequence[Command], port_of_rank: Sequence[int]
) -> None:
    seen: dict[tuple[int, int], int] = {}
    for cmd in trace:
        key = (port_of_rank[cmd.rank], cmd.issue_cycle)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            raise TimingViolation(
                "command-bus",
                cmd.issue_cycle,
                f"port {key[0]} issued two commands in one cycle",
            )


def _check_banks(trace: Sequence[Command], timing: TimingParams) -> None:
    state: dict[tuple[int, int, int], dict] = {}
    for cmd in trace:
        if not (
            cmd.kind in (CommandType.ACT, CommandType.PRE) or cmd.is_column()
        ):
            continue
        key = (cmd.rank, cmd.bankgroup, cmd.bank)
        s = state.setdefault(
            key,
            {"row": None, "act": None, "pre": None, "rd": None, "wr_end": None},
        )
        t = cmd.issue_cycle
        if cmd.kind is CommandType.ACT:
            if s["row"] is not None:
                raise TimingViolation("ACT-open", t, f"bank {key} already open")
            if s["pre"] is not None and t < s["pre"] + timing.tRP:
                raise TimingViolation("tRP", t, f"bank {key}")
            s["row"], s["act"] = cmd.row, t
        elif cmd.kind is CommandType.PRE:
            if s["row"] is None:
                raise TimingViolation("PRE-closed", t, f"bank {key}")
            if t < s["act"] + timing.tRAS:
                raise TimingViolation("tRAS", t, f"bank {key}")
            if s["rd"] is not None and t < s["rd"] + timing.tRTP:
                raise TimingViolation("tRTP", t, f"bank {key}")
            if s["wr_end"] is not None and t < s["wr_end"] + timing.tWR:
                raise TimingViolation("tWR", t, f"bank {key}")
            s["row"], s["pre"] = None, t
        else:  # column access
            if s["row"] != cmd.row:
                raise TimingViolation(
                    "row-match",
                    t,
                    f"bank {key}: access to row {cmd.row}, open {s['row']}",
                )
            if t < s["act"] + timing.tRCD:
                raise TimingViolation("tRCD", t, f"bank {key}")
            if cmd.is_read():
                s["rd"] = t if s["rd"] is None else max(s["rd"], t)
            if cmd.is_write():
                end = _write_data_end(cmd, timing)
                s["wr_end"] = (
                    end if s["wr_end"] is None else max(s["wr_end"], end)
                )


def _check_bankgroups(
    trace: Sequence[Command], timing: TimingParams, per_bank_pim: bool
) -> None:
    col_last: dict[tuple, int] = {}
    alu_last: dict[tuple, int] = {}
    wtr_ready: dict[tuple[int, int], int] = {}
    for cmd in trace:
        t = cmd.issue_cycle
        gkey = (cmd.rank, cmd.bankgroup)
        if cmd.is_column():
            if cmd.is_internal_column() and per_bank_pim:
                key = (cmd.rank, cmd.bankgroup, cmd.bank, "pb")
            else:
                key = gkey
            prev = col_last.get(key)
            if prev is not None and t < prev + timing.tCCD_L:
                raise TimingViolation(
                    "tCCD_L", t, f"bank group {key}, prev at {prev}"
                )
            col_last[key] = t
            if cmd.is_read():
                ready = wtr_ready.get(gkey)
                if ready is not None and t < ready:
                    raise TimingViolation(
                        "tWTR_L", t, f"bank group {gkey}, ready at {ready}"
                    )
            if cmd.is_write():
                end = _write_data_end(cmd, timing) + timing.tWTR_L
                wtr_ready[gkey] = max(wtr_ready.get(gkey, 0), end)
        elif cmd.is_pim_alu():
            key = (
                (cmd.rank, cmd.bankgroup, cmd.bank)
                if per_bank_pim
                else gkey
            )
            prev = alu_last.get(key)
            if prev is not None and t < prev + timing.tPIM:
                raise TimingViolation(
                    "tPIM", t, f"PIM unit {key}, prev at {prev}"
                )
            alu_last[key] = t


def _check_ranks(trace: Sequence[Command], timing: TimingParams) -> None:
    acts: dict[int, list[tuple[int, int]]] = {}
    ext_last: dict[int, int] = {}
    wtr_ready: dict[int, int] = {}
    for cmd in trace:
        t = cmd.issue_cycle
        if cmd.kind is CommandType.ACT:
            history = acts.setdefault(cmd.rank, [])
            if history:
                prev_t, prev_bg = history[-1]
                spacing = (
                    timing.tRRD_L
                    if prev_bg == cmd.bankgroup
                    else timing.tRRD_S
                )
                if t < prev_t + spacing:
                    raise TimingViolation("tRRD", t, f"rank {cmd.rank}")
            if len(history) >= 4 and t < history[-4][0] + timing.tFAW:
                raise TimingViolation("tFAW", t, f"rank {cmd.rank}")
            history.append((t, cmd.bankgroup))
        elif cmd.is_external_column():
            prev = ext_last.get(cmd.rank)
            if prev is not None and t < prev + timing.tCCD_S:
                raise TimingViolation("tCCD_S", t, f"rank {cmd.rank}")
            ext_last[cmd.rank] = t
            if cmd.is_read():
                ready = wtr_ready.get(cmd.rank)
                if ready is not None and t < ready:
                    raise TimingViolation("tWTR_S", t, f"rank {cmd.rank}")
            if cmd.kind is CommandType.WR:
                end = _write_data_end(cmd, timing) + timing.tWTR_S
                wtr_ready[cmd.rank] = max(wtr_ready.get(cmd.rank, 0), end)


def _check_data_bus(trace: Sequence[Command], timing: TimingParams) -> None:
    last_end = None
    last_kind = None
    last_rank = None
    bursts = sorted(
        (
            (*_data_interval(c, timing), c.kind, c.rank)
            for c in trace
            if c.is_external_column()
        ),
        key=lambda x: x[0],
    )
    for start, end, kind, rank in bursts:
        if last_end is not None:
            gap = 0
            if kind is not last_kind:
                gap = max(gap, 2)
            if rank != last_rank:
                gap = max(gap, timing.rank_switch_penalty)
            if start < last_end + gap:
                raise TimingViolation(
                    "data-bus",
                    start,
                    f"burst at {start} overlaps previous ending {last_end} "
                    f"(required gap {gap})",
                )
        last_end, last_kind, last_rank = end, kind, rank

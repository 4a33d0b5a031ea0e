"""Incremental event-driven command-scheduling engine.

This module is the fast path behind
:class:`repro.dram.scheduler.CommandScheduler`. It computes *exactly*
the schedule the reference greedy loop computes — identical issue
cycles, identical :class:`~repro.dram.stats.TraceStats` — but replaces
the reference's per-iteration full recomputation with incremental
bookkeeping:

* **Dependency reference-counting.** Each command tracks how many of
  its dependencies are still unissued; a precomputed dependents list
  (see :func:`build_dependents`) lets every issue decrement its
  dependents' counters in O(out-degree). A command becomes a real
  candidate exactly when its counter hits zero — the reference instead
  rescans every candidate's dependency tuple on every iteration.

* **Dirty-set earliest-cycle caching.** A candidate's cached earliest
  cycle covers only the state machines private to its rank: its bank
  (ACT/PRE/column), its bank group (column/ALU) and, for ACT, its rank
  (tRRD/tFAW). When a candidate's cycle is computed it registers on
  those machines' dirty lists; issuing a command walks the dirty lists
  of exactly the machines it mutated and marks the registered
  candidates stale. Everything else keeps its cached cycle.

* **Folded floors.** Floors that many candidates share are left out of
  the cache and folded in at comparison time: the per-port issue slot
  (``port_free``) for every candidate, and for RD/WR one entry of a
  per-(rank, direction) table holding the rank's external-column
  timers (``ext_col_ready``, ``wtr_ready``) and the data bus's
  occupancy plus the turnaround / rank-switch gap. Each burst refreshes
  the table rows of the ranks on its bus and stales no cached cycle;
  on one shared bus it would otherwise stale every pending RD/WR of
  every rank.

* **Port memo.** Each issue port memoizes its best ``(cycle, index)``
  candidate. Selection takes the minimum over the ports' memos, and a
  port is rescanned only when its memo may have changed: it issued a
  command (its queue, its ``port_free`` and the machines of its ranks
  changed — bank, bank-group and rank machines belong to exactly one
  port), a command in its queue became dependency-ready, or a RD/WR
  moved the data bus one of its ranks uses. Buffered designs thus scan
  one port's window per issue instead of every port's.

* **Index-linked ready queues.** Per-port pending queues are linked
  index arrays (`next`/`prev`), making the issue-time removal O(1)
  instead of the reference's ``list.pop(pos)``.

* **Per-port scan cut-off.** Queues are kept in stream order and the
  selection tie-break is (cycle, stream index), so once a port's scan
  finds a candidate issuable at the port's own floor cycle, no later
  candidate in that port can win — the scan stops early.

* **No enum hashing on the hot path.** ``CommandType`` members hash
  through a Python-level ``__hash__``; every per-kind constant is
  resolved once per command by the member's plain ``_value_`` string,
  issue counts accumulate per kind index, and ``TraceStats.counts`` is
  assembled at the end in first-issue order.

The equivalence contract is enforced by golden and Hypothesis property
tests (``tests/dram/test_engine_equivalence.py``) that drive both
implementations over every update-kind stream, window size, issue
model and data-bus scope and assert identical schedules, and by
``benchmarks/bench_scheduler.py`` which re-checks equivalence on every
timed design point.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dram.bank import BankState
from repro.dram.bankgroup import BankGroupState
from repro.dram.channel import TURNAROUND_GAP
from repro.dram.commands import (
    Command,
    CommandType,
    EXTERNAL_COLUMN_COMMANDS,
    INTERNAL_COLUMN_COMMANDS,
    PIM_ALU_COMMANDS,
    READ_COMMANDS,
    WRITE_COMMANDS,
    command_latency,
)
from repro.dram.rank import RankState
from repro.dram.stats import TraceStats
from repro.errors import SimulationError

# Command-kind codes driving the inlined earliest-cycle computation.
_ACT = 0
_PRE = 1
_INT_COL = 2
_EXT_COL = 3
_ALU = 4
_OTHER = 5  # REF / MRW: no state machine constrains them

_KIND_CODE: dict[CommandType, int] = {}
for _k in CommandType:
    if _k is CommandType.ACT:
        _KIND_CODE[_k] = _ACT
    elif _k is CommandType.PRE:
        _KIND_CODE[_k] = _PRE
    elif _k in INTERNAL_COLUMN_COMMANDS:
        _KIND_CODE[_k] = _INT_COL
    elif _k in EXTERNAL_COLUMN_COMMANDS:
        _KIND_CODE[_k] = _EXT_COL
    elif _k in PIM_ALU_COMMANDS:
        _KIND_CODE[_k] = _ALU
    else:
        _KIND_CODE[_k] = _OTHER
del _k

#: Every kind in declaration order; a command's kind index points here.
_KINDS: tuple[CommandType, ...] = tuple(CommandType)


def build_dependents(commands: Sequence[Command]) -> list[list[int]]:
    """Adjacency from each command to the commands that depend on it.

    Kernel generators attach this (cached) to their streams so repeated
    scheduling of the same stream skips the O(N + E) rebuild; the
    engine computes it on the fly when not supplied.
    """
    out: list[list[int]] = [[] for _ in commands]
    for i, cmd in enumerate(commands):
        for d in cmd.deps:
            out[d].append(i)
    return out


def schedule_incremental(
    timing,
    geometry,
    issue_model,
    per_bank_pim: bool,
    window: int,
    bus_ids: Sequence[int],
    commands: list[Command],
    dependents: Optional[Sequence[Sequence[int]]] = None,
) -> TraceStats:
    """Annotate ``commands`` with issue cycles; return the trace stats.

    ``bus_ids[r]`` is the data-bus index serving rank ``r`` (dense).
    ``commands`` must already be validated (backward deps, ranks in
    range) and carry ``issue_cycle == -1``; the caller owns copying.
    """
    n = len(commands)
    n_ranks = geometry.ranks
    n_bg = geometry.bankgroups
    bpg = geometry.banks_per_group
    n_banks = n_ranks * n_bg * bpg
    n_groups = n_ranks * n_bg
    n_buses = len(set(bus_ids))

    banks = [BankState(timing) for _ in range(n_banks)]
    groups = [
        BankGroupState(timing, bpg, per_bank_pim) for _ in range(n_groups)
    ]
    ranks = [RankState(timing) for _ in range(n_ranks)]

    # Dirty lists: candidates whose cached cycle must be recomputed
    # when the corresponding state machine changes.
    dirty_bank: list[list[int]] = [[] for _ in range(n_banks)]
    dirty_group: list[list[int]] = [[] for _ in range(n_groups)]
    dirty_rank: list[list[int]] = [[] for _ in range(n_ranks)]

    port_of_rank = issue_model.port_of_rank
    n_ports = issue_model.n_ports
    # The ranks whose floors, and the ports whose memos, a burst on
    # each data bus changes.
    ranks_of_bus: list[list[int]] = [[] for _ in range(n_buses)]
    ports_of_bus: list[list[int]] = [[] for _ in range(n_buses)]
    for r in range(n_ranks):
        ranks_of_bus[bus_ids[r]].append(r)
        ports = ports_of_bus[bus_ids[r]]
        if port_of_rank[r] not in ports:
            ports.append(port_of_rank[r])
    # Folded RD/WR floors: slot ``2 * rank + 1`` holds the earliest
    # cycle the rank and its data bus allow a WR, ``2 * rank + 2`` a
    # RD. Slot 0 stays 0 for every other kind (cycles are never
    # negative), so the scan folds a floor in without branching.
    ext_floor = [0] * (2 * n_ranks + 1)

    # ------------------------------------------------------------------
    # Per-command precomputation (one pass; no Command attribute access
    # happens afterwards in the scan loop).
    # ------------------------------------------------------------------
    kind_code = [0] * n
    kind_idx = [0] * n
    latency = [0] * n
    bank_id = [0] * n
    group_id = [0] * n
    rank_arr = [0] * n
    bus_arr = [0] * n
    port_arr = [0] * n
    row_arr = [0] * n
    bank_in_group = [0] * n
    bg_arr = [0] * n
    data_off = [0] * n  # RD/WR: cycles from issue to burst
    floor_slot = [0] * n  # RD/WR: their ``ext_floor`` slot; else 0
    is_read = bytearray(n)
    is_write = bytearray(n)
    fresh = bytearray(n)  # cached_e valid?
    ndeps = [0] * n
    dep_ready = [0] * n  # max completion over issued deps
    cached_e = [0] * n
    tCL, tCWL = timing.tCL, timing.tCWL
    # One dict lookup per command (by the member's plain value string,
    # which hashes in C) resolves every kind-derived constant.
    kind_info = {
        k._value_: (
            _KIND_CODE[k],
            ki,
            command_latency(k, timing),
            1 if k in READ_COMMANDS else 0,
            1 if k in WRITE_COMMANDS else 0,
            (tCL if k is CommandType.RD else tCWL)
            if _KIND_CODE[k] == _EXT_COL
            else 0,
        )
        for ki, k in enumerate(_KINDS)
    }
    build_deps = dependents is None
    if build_deps:
        dependents = [[] for _ in range(n)]
    # Per-port pending queues as index-linked lists in stream order.
    heads = [-1] * n_ports
    tails = [-1] * n_ports
    nxt = [-1] * n
    prv = [-1] * n
    for i, cmd in enumerate(commands):
        kc, ki, lat, rd, wr, doff = kind_info[cmd.kind._value_]
        kind_code[i] = kc
        kind_idx[i] = ki
        latency[i] = lat
        is_read[i] = rd
        is_write[i] = wr
        data_off[i] = doff
        r = cmd.rank
        bg = cmd.bankgroup
        bank = cmd.bank
        gi = r * n_bg + bg
        bank_id[i] = gi * bpg + bank
        group_id[i] = gi
        rank_arr[i] = r
        bus_arr[i] = bus_ids[r]
        if kc == _EXT_COL:
            floor_slot[i] = 2 * r + 1 + rd
        row_arr[i] = cmd.row
        bank_in_group[i] = bank
        bg_arr[i] = bg
        deps = cmd.deps
        ndeps[i] = len(deps)
        if build_deps and deps:
            for dep in deps:
                dependents[dep].append(i)
        port = port_of_rank[r]
        port_arr[i] = port
        if tails[port] < 0:
            heads[port] = i
        else:
            nxt[tails[port]] = i
            prv[i] = tails[port]
        tails[port] = i

    completion = [0] * n
    port_free = [0] * n_ports

    # Hot-loop locals.
    t = timing
    tRRD_L, tRRD_S, tFAW = t.tRRD_L, t.tRRD_S, t.tFAW
    tRCD, tRAS, tRP, tRTP, tWR = t.tRCD, t.tRAS, t.tRP, t.tRTP, t.tWR
    tBURST, tCCD_L, tCCD_S = t.tBURST, t.tCCD_L, t.tCCD_S
    tWTR_L, tWTR_S, tPIM = t.tWTR_L, t.tWTR_S, t.tPIM
    rank_switch = t.rank_switch_penalty
    kind_counts = [0] * len(_KINDS)
    first_issued: list[int] = []  # kind indices in first-issue order
    port_issued_full = [0] * n_ports
    max_port = -1
    remaining = n
    ports_range = range(n_ports)

    INF = 1 << 62
    # Port memo: each port's best (cycle, index); ``stale`` marks the
    # ports whose memo must be rescanned before the next selection.
    memo_e = [INF] * n_ports
    memo_i = [-1] * n_ports
    stale = bytearray(b"\x01" * n_ports)
    while remaining:
        for port in ports_range:
            if not stale[port]:
                continue
            stale[port] = 0
            pe = INF
            pi = -1
            pf = port_free[port]
            node = heads[port]
            steps = window
            while node >= 0 and steps:
                i = node
                node = nxt[i]
                steps -= 1
                if ndeps[i]:
                    continue
                if fresh[i]:
                    e = cached_e[i]
                else:
                    # Recompute this candidate's cycle over the
                    # rank-private machines (the inlined equivalent of
                    # the state machines' ``earliest`` methods) and
                    # register it on the dirty lists of the machines
                    # it read.
                    kc = kind_code[i]
                    e = dep_ready[i]
                    if kc == _INT_COL or kc == _EXT_COL:
                        bid = bank_id[i]
                        bank = banks[bid]
                        gid = group_id[i]
                        if bank.open_row != row_arr[i]:
                            e = -1  # closed or different row
                        else:
                            v = bank.col_ready
                            if v > e:
                                e = v
                            grp = groups[gid]
                            if kc == _INT_COL and per_bank_pim:
                                v = grp.bank_io_ready[bank_in_group[i]]
                            else:
                                v = grp.io_ready
                            if v > e:
                                e = v
                            if is_read[i]:
                                v = grp.wtr_ready
                                if v > e:
                                    e = v
                        dirty_bank[bid].append(i)
                        dirty_group[gid].append(i)
                    elif kc == _ACT:
                        bid = bank_id[i]
                        bank = banks[bid]
                        rid = rank_arr[i]
                        if bank.open_row is not None:
                            e = -1
                        else:
                            v = bank.act_ready
                            if v > e:
                                e = v
                            rk = ranks[rid]
                            lac = rk.last_act_cycle
                            if lac >= 0:
                                v = lac + (
                                    tRRD_L
                                    if bg_arr[i] == rk.last_act_group
                                    else tRRD_S
                                )
                                if v > e:
                                    e = v
                            aw = rk.act_window
                            if len(aw) == 4:
                                v = aw[0] + tFAW
                                if v > e:
                                    e = v
                        dirty_bank[bid].append(i)
                        dirty_rank[rid].append(i)
                    elif kc == _PRE:
                        bid = bank_id[i]
                        bank = banks[bid]
                        if bank.open_row is None:
                            e = -1
                        elif bank.pre_ready > e:
                            e = bank.pre_ready
                        dirty_bank[bid].append(i)
                    elif kc == _ALU:
                        gid = group_id[i]
                        grp = groups[gid]
                        v = (
                            grp.bank_alu_ready[bank_in_group[i]]
                            if per_bank_pim
                            else grp.alu_ready
                        )
                        if v > e:
                            e = v
                        dirty_group[gid].append(i)
                    # _OTHER: dep_ready alone constrains it; the cached
                    # value never goes stale.
                    cached_e[i] = e
                    fresh[i] = 1
                if e < 0:
                    continue  # structurally blocked: deps unblock later
                # RD/WR: fold in the rank/bus floor of the command's
                # (rank, direction); every other kind reads slot 0.
                v = ext_floor[floor_slot[i]]
                if v > e:
                    e = v
                if e < pf:
                    e = pf
                if e < pe:
                    # Queues run in stream order: an equal cycle later
                    # in the port loses the tie-break.
                    pe = e
                    pi = i
                if e == pf:
                    # Port floor reached; any later candidate in this
                    # port ties at best and loses on stream index.
                    break
            memo_e[port] = pe
            memo_i[port] = pi

        best_e = INF
        best_idx = -1
        best_port = -1
        for port in ports_range:
            e = memo_e[port]
            if e < best_e or (e == best_e and memo_i[port] < best_idx):
                best_e, best_idx, best_port = e, memo_i[port], port
        if best_idx < 0:
            raise SimulationError(
                "deadlock: no pending command is issuable "
                f"({remaining} remaining)"
            )

        i = best_idx
        cycle = best_e
        commands[i].issue_cycle = cycle
        comp = cycle + latency[i]
        completion[i] = comp
        kc = kind_code[i]
        # Apply state-machine effects (the inlined equivalent of the
        # machines' ``apply`` methods) and flush the dirty lists of
        # exactly the cached cycles the command invalidates.
        if kc == _INT_COL or kc == _EXT_COL:
            bid = bank_id[i]
            gid = group_id[i]
            bank = banks[bid]
            grp = groups[gid]
            if is_read[i]:
                v = cycle + tRTP
                if v > bank.pre_ready:
                    bank.pre_ready = v
            elif kc == _EXT_COL:  # WR
                v = cycle + tCWL + tBURST + tWR
                if v > bank.pre_ready:
                    bank.pre_ready = v
            else:  # WRITEBACK / QREG_STORE: register data, no bus lag
                v = cycle + tBURST + tWR
                if v > bank.pre_ready:
                    bank.pre_ready = v
            if kc == _INT_COL and per_bank_pim:
                grp.bank_io_ready[bank_in_group[i]] = cycle + tCCD_L
            else:
                grp.io_ready = cycle + tCCD_L
            if is_write[i]:
                if kc == _EXT_COL:  # WR
                    data_end = cycle + tCWL + tBURST
                else:
                    data_end = cycle + tBURST
                v = data_end + tWTR_L
                if v > grp.wtr_ready:
                    grp.wtr_ready = v
            flushes = (dirty_bank[bid], dirty_group[gid])
            if kc == _EXT_COL:
                # Folded floors: no cached cycle reads the rank's
                # external-column timers or the bus, so instead of
                # flushing, refresh the floor of every (rank,
                # direction) on this bus and rescan its ports.
                rid = rank_arr[i]
                rk = ranks[rid]
                rk.ext_col_ready = cycle + tCCD_S
                if is_write[i]:  # WR
                    v = cycle + tCWL + tBURST + tWTR_S
                    if v > rk.wtr_ready:
                        rk.wtr_ready = v
                b = bus_arr[i]
                busy = cycle + data_off[i] + tBURST
                # Turnaround gap before a burst of each direction.
                to_rd = 0 if is_read[i] else TURNAROUND_GAP
                to_wr = TURNAROUND_GAP if is_read[i] else 0
                for r in ranks_of_bus[b]:
                    rk = ranks[r]
                    ext = rk.ext_col_ready
                    sw = rank_switch if r != rid else 0
                    v = busy + (sw if sw > to_rd else to_rd) - tCL
                    if ext > v:
                        v = ext
                    if rk.wtr_ready > v:
                        v = rk.wtr_ready
                    ext_floor[2 * r + 2] = v
                    v = busy + (sw if sw > to_wr else to_wr) - tCWL
                    ext_floor[2 * r + 1] = ext if ext > v else v
                for p in ports_of_bus[b]:
                    stale[p] = 1
        elif kc == _ACT:
            bid = bank_id[i]
            rid = rank_arr[i]
            bank = banks[bid]
            bank.open_row = row_arr[i]
            bank.col_ready = cycle + tRCD
            bank.pre_ready = cycle + tRAS
            rk = ranks[rid]
            rk.act_window.append(cycle)
            rk.last_act_cycle = cycle
            rk.last_act_group = bg_arr[i]
            flushes = (dirty_bank[bid], dirty_rank[rid])
        elif kc == _PRE:
            bid = bank_id[i]
            bank = banks[bid]
            bank.open_row = None
            bank.act_ready = cycle + tRP
            flushes = (dirty_bank[bid],)
        elif kc == _ALU:
            gid = group_id[i]
            grp = groups[gid]
            if per_bank_pim:
                grp.bank_alu_ready[bank_in_group[i]] = cycle + tPIM
            else:
                grp.alu_ready = cycle + tPIM
            flushes = (dirty_group[gid],)
        else:  # _OTHER: no machine effects
            flushes = ()
        for lst in flushes:
            if lst:
                for j in lst:
                    fresh[j] = 0
                del lst[:]
        port_free[best_port] = cycle + 1
        stale[best_port] = 1

        # Unlink from the port queue.
        p, q = prv[i], nxt[i]
        if p >= 0:
            nxt[p] = q
        else:
            heads[best_port] = q
        if q >= 0:
            prv[q] = p
        else:
            tails[best_port] = p

        ki = kind_idx[i]
        if not kind_counts[ki]:
            first_issued.append(ki)
        kind_counts[ki] += 1
        port_issued_full[best_port] += 1
        if best_port > max_port:
            max_port = best_port
        remaining -= 1
        for j in dependents[i]:
            left = ndeps[j] - 1
            ndeps[j] = left
            if comp > dep_ready[j]:
                dep_ready[j] = comp
            if not left:
                stale[port_arr[j]] = 1

    stats = TraceStats()
    stats.counts = {_KINDS[ki]: kind_counts[ki] for ki in first_issued}
    stats.issued_commands = n
    stats.port_issued = port_issued_full[: max_port + 1]
    stats.total_cycles = max(completion, default=0)
    return stats

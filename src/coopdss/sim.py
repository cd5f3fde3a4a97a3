"""Deterministic DSS lifetime simulator.

A run encodes the file, injects size-t failure rounds (explicit plan or a
seeded uniform choice), orchestrates cooperative repairs, accumulates the
eavesdropper's lifetime observation (stored content of E1/E2 nodes plus
every repair download of E2 nodes across all rounds), and emits a replayable
trace.  Helpers default to the d lowest-id survivors; a seeded random helper
mode exercises helper-set independence.

Trace text format (stable field order, one record per line):

    header,scheme,n,k,d,t,l1,l2,rounds,seed
    transfer,<round>,<src>,<dst>,<live|coop>,<hex>[:<hex>...]
    summary,<round>,<bandwidth>
    final,<ok>

Symbols are hex-encoded little-endian base-field coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from .codes import make_scheme
from .codes.base import NodeContent, ParameterError, RepairTranscript, Scheme, SchemeParams
from .precode import random_symbols, splitmix64


class ProtocolError(RuntimeError):
    """A repair round broke the protocol contract (wrong repair bandwidth)."""


@dataclass(frozen=True)
class SimConfig:
    params: SchemeParams
    rounds: int
    failure_plan: tuple[frozenset[int], ...] | None = None
    seed: int = 0
    e1: tuple[int, ...] = ()
    e2: tuple[int, ...] = ()
    secret: tuple[int, ...] | None = None
    helper_mode: str = "lowest"  # or "random"

    def resolved_plan(self, scheme: Scheme) -> tuple[frozenset[int], ...]:
        if self.failure_plan is not None:
            plan = tuple(frozenset(s) for s in self.failure_plan)
            if len(plan) != self.rounds:
                raise ParameterError("failure plan length must equal rounds")
        else:
            plan = tuple(self._random_plan(scheme))
        for fs in plan:
            if len(fs) != self.params.t:
                raise ParameterError("every failure set must have size t")
            if any(not 1 <= i <= self.params.n for i in fs):
                raise ParameterError("failure sets must reference nodes in [1, n]")
        repaired = set().union(*plan) if plan else set()
        missing = [i for i in self.e2 if i not in repaired]
        if missing:
            raise ParameterError(
                f"E2 nodes {missing} never fail in the plan; their downloads would not exist")
        return plan

    def _random_plan(self, scheme: Scheme):
        stream = splitmix64(self.seed ^ 0xFA11)
        all_sets = list(combinations(range(1, self.params.n + 1), self.params.t))
        out = []
        for _ in range(self.rounds):
            out.append(frozenset(all_sets[next(stream) % len(all_sets)]))
        return out


@dataclass(frozen=True)
class SimTrace:
    config: SimConfig
    initial: tuple[NodeContent, ...]
    transcripts: tuple[RepairTranscript, ...]
    bandwidth: tuple[int, ...]
    final: tuple[NodeContent, ...]

    @property
    def total_bandwidth(self) -> int:
        return sum(self.bandwidth)


def _build_inputs(scheme: Scheme, config: SimConfig):
    if config.secret is not None:
        u = tuple(config.secret)
    else:
        u = tuple(random_symbols(scheme.field, scheme.secure_size, config.seed))
    r = tuple(random_symbols(scheme.field, scheme.n_random, config.seed ^ 0xC0DE5EED))
    return u, r


def _choose_helpers(scheme: Scheme, survivors, round_idx: int, config: SimConfig):
    d = scheme.params.d
    ids = sorted(survivors)
    if config.helper_mode == "lowest":
        return tuple(ids[:d])
    if config.helper_mode == "random":
        stream = splitmix64(config.seed ^ (0xE1BE << 8) ^ round_idx)
        pool = list(ids)
        picked = []
        for _ in range(d):
            picked.append(pool.pop(next(stream) % len(pool)))
        return tuple(sorted(picked))
    raise ParameterError(f"unknown helper mode {config.helper_mode!r}")


def run(config: SimConfig) -> SimTrace:
    """Execute the lifetime: encode, repair each round, keep every transcript."""
    scheme = make_scheme(config.params)
    plan = config.resolved_plan(scheme)
    u, r = _build_inputs(scheme, config)
    initial = tuple(scheme.encode(u, r))
    states: dict[int, NodeContent] = {c.node_id: c for c in initial}
    transcripts = []
    bandwidth = []
    for round_idx, failed in enumerate(plan):
        survivors = {i: c for i, c in states.items() if i not in failed}
        helpers = _choose_helpers(scheme, survivors, round_idx, config)
        tr = scheme.cooperative_repair(failed, survivors, helpers)
        transcripts.append(tr)
        bw = sum(tr.downloads(i) for i in failed)
        expected = config.params.t * scheme.gamma
        if bw != expected:
            raise ProtocolError(f"round {round_idx}: bandwidth {bw} != t*gamma {expected}")
        bandwidth.append(bw)
        for res in tr.results:
            states[res.node_id] = res
    final = tuple(states[i] for i in sorted(states))
    return SimTrace(config=config, initial=initial, transcripts=tuple(transcripts),
                    bandwidth=tuple(bandwidth), final=final)


def observation(trace: SimTrace):
    """Cumulative lifetime observation matrix for the configured eavesdropper."""
    scheme = make_scheme(trace.config.params)
    return scheme.observation_matrix(trace.config.e1, trace.config.e2, trace.transcripts)


def replay_check(trace: SimTrace) -> tuple[bool, list[str]]:
    """Re-derive every transfer from survivor states; confirm exact repair.

    Returns (ok, diffs); diffs name the first few mismatching records.
    """
    scheme = make_scheme(trace.config.params)
    states: dict[int, NodeContent] = {c.node_id: c for c in trace.initial}
    diffs: list[str] = []
    for round_idx, tr in enumerate(trace.transcripts):
        survivors = {i: c for i, c in states.items() if i not in tr.failed}
        try:
            fresh = scheme.cooperative_repair(tr.failed, survivors, tr.helpers)
        except Exception as exc:  # pragma: no cover - defensive
            diffs.append(f"round {round_idx}: repair replay failed: {exc}")
            return False, diffs
        for key, vals in fresh.live_transfers.items():
            if tr.live_transfers.get(key) != vals:
                diffs.append(f"round {round_idx}: live transfer {key} mismatch")
        for key, vals in fresh.coop_transfers.items():
            if tr.coop_transfers.get(key) != vals:
                diffs.append(f"round {round_idx}: coop transfer {key} mismatch")
        if set(tr.live_transfers) != set(fresh.live_transfers) or \
                set(tr.coop_transfers) != set(fresh.coop_transfers):
            diffs.append(f"round {round_idx}: transfer edge sets differ")
        for res in fresh.results:
            recorded = next((c for c in tr.results if c.node_id == res.node_id), None)
            if recorded != res:
                diffs.append(f"round {round_idx}: result for node {res.node_id} mismatch")
            if res != states[res.node_id]:
                diffs.append(f"round {round_idx}: node {res.node_id} not exactly repaired")
        for res in tr.results:
            states[res.node_id] = res
        if diffs:
            return False, diffs
    for c in trace.final:
        if states[c.node_id] != c:
            diffs.append(f"final state of node {c.node_id} mismatch")
    initial_by_id = {c.node_id: c for c in trace.initial}
    for c in trace.final:
        if initial_by_id[c.node_id] != c:
            diffs.append(f"node {c.node_id} drifted from its initial content")
    return not diffs, diffs


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def _sym_hex(field, value: int) -> str:
    return field.symbol_to_bytes(value).hex()


def _sym_unhex(field, text: str) -> int:
    return field.symbol_from_bytes(bytes.fromhex(text))


def trace_to_text(trace: SimTrace) -> str:
    scheme = make_scheme(trace.config.params)
    f = scheme.field
    p = trace.config.params
    lines = [f"header,{p.scheme},{p.n},{p.k},{p.d},{p.t},{p.l1},{p.l2},"
             f"{trace.config.rounds},{trace.config.seed}"]
    for round_idx, tr in enumerate(trace.transcripts):
        for (src, dst) in sorted(tr.live_transfers):
            vals = ":".join(_sym_hex(f, v) for v in tr.live_transfers[(src, dst)])
            lines.append(f"transfer,{round_idx},{src},{dst},live,{vals}")
        for (src, dst) in sorted(tr.coop_transfers):
            vals = ":".join(_sym_hex(f, v) for v in tr.coop_transfers[(src, dst)])
            lines.append(f"transfer,{round_idx},{src},{dst},coop,{vals}")
        lines.append(f"summary,{round_idx},{trace.bandwidth[round_idx]}")
    ok, _ = replay_check(trace)
    lines.append(f"final,{'ok' if ok else 'MISMATCH'}")
    return "\n".join(lines) + "\n"


def trace_transfers_from_text(text: str):
    """Parse a trace file back into (header dict, transfer records)."""
    header = None
    transfers = []
    for line in text.strip().splitlines():
        parts = line.split(",")
        if parts[0] == "header":
            header = {
                "scheme": parts[1],
                "n": int(parts[2]), "k": int(parts[3]), "d": int(parts[4]),
                "t": int(parts[5]), "l1": int(parts[6]), "l2": int(parts[7]),
                "rounds": int(parts[8]), "seed": int(parts[9]),
            }
        elif parts[0] == "transfer":
            transfers.append((int(parts[1]), int(parts[2]), int(parts[3]),
                              parts[4], parts[5]))
    if header is None:
        raise ValueError("trace has no header record")
    return header, transfers

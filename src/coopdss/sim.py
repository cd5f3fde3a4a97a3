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

from dataclasses import dataclass, field
from math import comb

from .codes import make_scheme
from .codes.base import NodeContent, ParameterError, RepairTranscript, Scheme, SchemeParams
from .precode import splitmix64


# the trace header's counts lie in [0, 65535]: n..l2 of a parsed header and
# the rounds of a run, so a forged header or config cannot make the program
# build or draw millions of anything
HEADER_BOUND = 1 << 16


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

    def resolved_plan(self) -> tuple[frozenset[int], ...]:
        if not 0 <= self.rounds < HEADER_BOUND:
            raise ParameterError(f"rounds={self.rounds} is outside [0, {HEADER_BOUND - 1}]")
        if self.helper_mode not in ("lowest", "random"):
            raise ParameterError(f"unknown helper mode {self.helper_mode!r}")
        if self.failure_plan is not None:
            plan = tuple(frozenset(s) for s in self.failure_plan)
            if len(plan) != self.rounds:
                raise ParameterError("failure plan length must equal rounds")
        else:
            plan = tuple(self._random_plan())
        for fs in plan:
            if len(fs) != self.params.t:
                raise ParameterError("every failure set must have size t")
            if any(not 1 <= i <= self.params.n for i in fs):
                raise ParameterError(f"failure set node ids must lie in [1, {self.params.n}]")
        repaired = set().union(*plan) if plan else set()
        missing = [i for i in self.e2 if i not in repaired]
        if missing:
            raise ParameterError(
                f"E2 nodes {missing} never fail in the plan; their downloads would not exist")
        return plan

    def _random_plan(self):
        stream = splitmix64(self.seed ^ 0xFA11)
        n, t = self.params.n, self.params.t
        count = comb(n, t)
        return [frozenset(_unrank_subset(n, t, next(stream) % count))
                for _ in range(self.rounds)]


def _unrank_subset(n: int, t: int, index: int) -> tuple[int, ...]:
    """The index-th t-subset of 1..n in lexicographic order, the order of
    `itertools.combinations(range(1, n + 1), t)`, without listing the
    subsets before it: O(n) binomials at most."""
    out = []
    x = 1
    for need in range(t, 0, -1):
        # subsets whose next element is x: choose the other need-1 above x
        while index >= (block := comb(n - x, need - 1)):
            index -= block
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


@dataclass(frozen=True)
class SimTrace:
    config: SimConfig
    initial: tuple[NodeContent, ...]
    transcripts: tuple[RepairTranscript, ...]
    bandwidth: tuple[int, ...]
    final: tuple[NodeContent, ...]
    # (ok, diffs) of replay_check on this object; not an init field, so a
    # copy made with dataclasses.replace is replayed afresh
    _replay_verdict: tuple[bool, tuple[str, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)
    # the scheme `run` built, read again by the replay, the trace text and
    # the observation; not an init field either, so a copy builds its own
    _scheme: Scheme | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def total_bandwidth(self) -> int:
        return sum(self.bandwidth)


def _scheme_of(trace: SimTrace) -> Scheme:
    """The trace's scheme: the one `run` built, or, on a copy, one built on
    first use and kept.  A scheme holds only public coefficients, so one
    instance serves every later reading of the same trace."""
    if trace._scheme is None:
        object.__setattr__(trace, "_scheme", make_scheme(trace.config.params))
    return trace._scheme


def _build_inputs(scheme: Scheme, config: SimConfig):
    if config.secret is None:
        return scheme.random_inputs(config.seed)
    return tuple(config.secret), scheme.random_r(config.seed)


def _choose_helpers(scheme: Scheme, survivors, round_idx: int, config: SimConfig):
    d = scheme.params.d
    ids = sorted(survivors)
    if config.helper_mode == "lowest":
        return tuple(ids[:d])
    # "random": `resolved_plan` refuses every other mode
    stream = splitmix64(config.seed ^ (0xE1BE << 8) ^ round_idx)
    pool = list(ids)
    picked = []
    for _ in range(d):
        picked.append(pool.pop(next(stream) % len(pool)))
    return tuple(sorted(picked))


def run(config: SimConfig) -> SimTrace:
    """Execute the lifetime: encode, repair each round, keep every transcript."""
    scheme = make_scheme(config.params)
    plan = config.resolved_plan()
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
        # every symbol sent to a newcomer, in one pass over the transfers
        bw = sum(len(v) for transfers in (tr.live_transfers, tr.coop_transfers)
                 for (_, dst), v in transfers.items() if dst in failed)
        expected = config.params.t * scheme.gamma
        if bw != expected:
            raise ProtocolError(f"round {round_idx}: bandwidth {bw} != t*gamma {expected}")
        bandwidth.append(bw)
        for res in tr.results:
            states[res.node_id] = res
    final = tuple(states[i] for i in sorted(states))
    trace = SimTrace(config=config, initial=initial, transcripts=tuple(transcripts),
                     bandwidth=tuple(bandwidth), final=final)
    object.__setattr__(trace, "_scheme", scheme)
    return trace


def observation(trace: SimTrace):
    """Cumulative lifetime observation matrix for the configured eavesdropper."""
    return _scheme_of(trace).observation_matrix(trace.config.e1, trace.config.e2,
                                                trace.transcripts)


def replay_check(trace: SimTrace) -> tuple[bool, list[str]]:
    """Re-derive every transfer from survivor states; confirm exact repair.

    Returns (ok, diffs); diffs name the first few mismatching records.  The
    trace keeps the verdict: checking the same trace object again (as
    `trace_to_text` does) returns it without replaying, while a copy made
    with dataclasses.replace is replayed afresh.  Traces are values, never
    changed in place.
    """
    if trace._replay_verdict is None:
        ok, diffs = _replay(trace)
        object.__setattr__(trace, "_replay_verdict", (ok, tuple(diffs)))
    ok, diffs = trace._replay_verdict
    return ok, list(diffs)


def _replay(trace: SimTrace) -> tuple[bool, list[str]]:
    scheme = _scheme_of(trace)
    states: dict[int, NodeContent] = {c.node_id: c for c in trace.initial}
    diffs: list[str] = []
    for round_idx, tr in enumerate(trace.transcripts):
        survivors = {i: c for i, c in states.items() if i not in tr.failed}
        try:
            fresh = scheme.cooperative_repair(tr.failed, survivors, tr.helpers)
        except Exception as exc:  # pragma: no cover - defensive
            diffs.append(f"round {round_idx}: repair replay failed: {exc}")
            return False, diffs
        if not _round_matches(tr, fresh, states):
            diffs += _round_diffs(round_idx, tr, fresh, states)
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


def _round_matches(tr: RepairTranscript, fresh: RepairTranscript,
                   states: dict[int, NodeContent]) -> bool:
    """Whether the replayed round equals the recorded one and rebuilt every
    newcomer exactly: one equality per record kind.  When it holds,
    `_round_diffs` finds nothing."""
    return (fresh.live_transfers == tr.live_transfers
            and fresh.coop_transfers == tr.coop_transfers
            and fresh.results == tr.results
            and fresh.results == tuple(states[res.node_id] for res in fresh.results))


def _round_diffs(round_idx: int, tr: RepairTranscript, fresh: RepairTranscript,
                 states: dict[int, NodeContent]) -> list[str]:
    """Every record of the round that differs, one line each."""
    diffs = []
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
    return diffs


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def trace_to_text(trace: SimTrace) -> str:
    """The trace file: every transfer's symbols are encoded in one
    `symbols_to_bytes` pass and hexed with ':' between symbols, and each
    transfer record takes its slice of that text."""
    f = _scheme_of(trace).field
    p = trace.config.params
    rounds = [[(src, dst, kind, transfers[(src, dst)])
               for kind, transfers in (("live", tr.live_transfers), ("coop", tr.coop_transfers))
               for (src, dst) in sorted(transfers)]
              for tr in trace.transcripts]
    hexed = f.symbols_to_bytes([v for records in rounds for *_, vals in records
                                for v in vals]).hex(":", f.symbol_bytes)
    width = 2 * f.symbol_bytes + 1  # one symbol's hex and its ':'
    lines = [f"header,{p.scheme},{p.n},{p.k},{p.d},{p.t},{p.l1},{p.l2},"
             f"{trace.config.rounds},{trace.config.seed}"]
    start = 0
    for round_idx, records in enumerate(rounds):
        for src, dst, kind, vals in records:
            end = start + len(vals) * width
            lines.append(f"transfer,{round_idx},{src},{dst},{kind},{hexed[start:end - 1]}")
            start = end
        lines.append(f"summary,{round_idx},{trace.bandwidth[round_idx]}")
    ok, _ = replay_check(trace)
    lines.append(f"final,{'ok' if ok else 'MISMATCH'}")
    return "\n".join(lines) + "\n"


_HEADER_COUNTS = ("n", "k", "d", "t", "l1", "l2", "rounds", "seed")
_KINDS = ("live", "coop")


def _bad_fields(lineno: int, parts: list[str], want: int) -> ValueError:
    return ValueError(f"trace line {lineno}: {parts[0]} record has "
                      f"{len(parts)} fields, expected {want}")


def _not_integer(lineno: int, tag: str) -> ValueError:
    return ValueError(f"trace line {lineno}: {tag} record has a non-integer field")


def trace_transfers_from_text(text: str):
    """Parse a trace file back into (header dict, transfer records).

    Every malformed record raises ValueError naming its line: a wrong field
    count, a field that should be an integer and is not, a second header, a
    header count outside [0, 65535], and a transfer before the header, with
    a round outside [0, rounds) or a kind other than live or coop."""
    header = None
    rounds = 0
    transfers = []
    for lineno, line in enumerate(text.strip().splitlines(), 1):
        parts = line.split(",")
        tag = parts[0]
        if tag == "transfer":
            if len(parts) != 6:
                raise _bad_fields(lineno, parts, 6)
            try:
                rnd, src, dst = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise _not_integer(lineno, tag) from None
            kind = parts[4]
            if not 0 <= rnd < rounds or kind not in _KINDS:
                what = ("comes before the header" if header is None
                        else f"has kind {kind!r}, neither live nor coop" if kind not in _KINDS
                        else f"has round {rnd}, outside [0, {rounds})")
                raise ValueError(f"trace line {lineno}: transfer record {what}")
            transfers.append((rnd, src, dst, kind, parts[5]))
        elif tag == "header":
            if len(parts) != 10:
                raise _bad_fields(lineno, parts, 10)
            if header is not None:
                raise ValueError(f"trace line {lineno}: a second header record")
            try:
                header = {"scheme": parts[1], **dict(zip(_HEADER_COUNTS, map(int, parts[2:])))}
            except ValueError:
                raise _not_integer(lineno, tag) from None
            rounds = header["rounds"]
            # the node-file header's 16-bit bound: a forged n cannot make
            # the scheme build millions of evaluation points
            for key in _HEADER_COUNTS[:6]:
                if not 0 <= header[key] < HEADER_BOUND:
                    raise ValueError(f"trace line {lineno}: {key}={header[key]} "
                                     f"is outside [0, {HEADER_BOUND - 1}]")
    if header is None:
        raise ValueError("trace has no header record")
    return header, transfers

"""Common contract shared by all code constructions.

Every scheme encodes a secret u and randomness r into n node contents of
alpha symbols each, reconstructs u from any k nodes, repairs any t
simultaneous failures exactly with per-newcomer bandwidth d*beta+(t-1)*beta',
and exposes the eavesdropper's view as an explicit linear map e = A_u u + A_r r.

Every scheme encodes, reconstructs and repairs through one executor,
`Scheme._run_plan`, behind one node id and size check (`_check_nodes`).  The
scheme writes each map once from its construction and public parameters
(`_encode_plan`, `_reconstruct_plan`, `_repair_plan`, given a builder): a
key's first request evaluates it, its second compiles it (`PlanBuilder`).
Bounded process-wide `PlanCache`s keep the plans and the observation rows for
every instance of the same params; each table states its key and size there.

Observation row order:

  1. for each node in sorted(E1): its alpha stored symbols in segment order;
  2. for each node in sorted(E2): its alpha stored symbols;
  3. for each transcript, in the order given: for each newcomer in
     sorted(failed & E2): live downloads grouped by helper id ascending
     (symbols in transfer order), then cooperative downloads grouped by
     peer id ascending.

`Scheme._view` is the one implementation of this order: it takes the
rounds as a tuple once (an iterator of them is read whole), validates E1,
E2 and the rounds in one pass and builds the view as one record.  Each
symbol has one row of `file_size` ints: its row of [A_r | A_u] over
(r || u), or, for a Gabidulin scheme, the GF(p) coordinates of its
evaluation point.  A scheme writes its stored rows (`_stored_rows`); a
round's download rows are its `_repair_plan` run on stored rows
(`_round_rows`), which also checks exact repair for all data.  The view
(`ObservationMatrix`, `PointObservation`) holds the row tables' own tuples
and packed ints, and walks its `labels` on first use from the scheme, E1,
E2 and rounds it keeps.  The base labels every row itself
(`Scheme._observation_labels`):

  ("stored", node, idx)            idx < alpha, a stored symbol;
  ("live", round, helper, newcomer, idx)
                                   idx < beta, a helper's download;
  ("coop", round, peer, newcomer, idx)
                                   idx < beta', a fellow newcomer's download;

with `round` the transcript's index.  `Scheme.observed_symbols` walks the
same order over replayed values, separately, so that the brute-force oracle
and the faithfulness checks compare two independent walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from ..field import (
    Matrix,
    PrimeField,
    _lanes,
    _reduce_lanes,
    _unpack_lanes,
    basis_moore_apply,
    basis_moore_inverse_apply,
    pack_rows,
)
from ..precode import coefficients, random_symbols


class ParameterError(ValueError):
    """Scheme parameters violate a constraint."""


class RepairInfeasibleError(RuntimeError):
    """The requested repair cannot be completed by this construction."""


class PositiveSecrecyImpossibleError(ParameterError):
    """The eavesdropper budget forces a secure file size of zero."""


@dataclass(frozen=True)
class SchemeParams:
    """(n,k,d,t) plus the eavesdropper budget and the scheme selector."""

    n: int
    k: int
    d: int
    t: int
    l1: int = 0
    l2: int = 0
    scheme: str = "mbcr-exact"

    def validate(self) -> None:
        n, k, d, t = self.n, self.k, self.d, self.t
        if not (0 < k <= d < n):
            raise ParameterError(f"need 0 < k <= d < n, got k={k} d={d} n={n}")
        if not (1 <= t <= n - d):
            raise ParameterError(f"need 1 <= t <= n-d for repair, got t={t}, n-d={n - d}")
        if self.l1 < 0 or self.l2 < 0:
            raise ParameterError("eavesdropper counts must be nonnegative")
        if self.l1 + self.l2 >= k:
            raise ParameterError(
                f"need l1+l2 < k, got l1={self.l1} l2={self.l2} k={k}")


@dataclass(frozen=True)
class NodeContent:
    """alpha symbols stored at one node, with named layout segments."""

    node_id: int
    symbols: tuple[int, ...]
    layout: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if sum(n for _, n in self.layout) != len(self.symbols):
            raise ValueError("layout does not cover the symbols")


@dataclass(frozen=True)
class RepairTranscript:
    """One cooperative repair round: who sent what to whom, and the results."""

    failed: frozenset[int]
    helpers: tuple[int, ...]
    live_transfers: Mapping[tuple[int, int], tuple[int, ...]]
    coop_transfers: Mapping[tuple[int, int], tuple[int, ...]]
    results: tuple[NodeContent, ...]

    def downloads(self, newcomer: int) -> int:
        live = sum(len(v) for (h, i), v in self.live_transfers.items() if i == newcomer)
        coop = sum(len(v) for (m, i), v in self.coop_transfers.items() if i == newcomer)
        return live + coop


class PlanBuilder:
    """Assembles a plan: a linear map of a scheme (a repair round, the
    encoding of node 0's inputs, or a decoding) as a straight-line program
    of GF(p)-row steps over stored symbols, from public parameters alone.
    `symbol` and `step` return slots in the order asked; `live` and `coop`
    hold each transfer's slots, keyed (sender, newcomer); a result has
    `alpha` slots.  `plan` compiles it into the field's one function of node
    id -> `NodeContent` (`compile_plan`), which returns the live and coop
    transfers as dicts in builder order, the results as (node, symbols)."""

    def __init__(self, alpha: int, field):
        self.alpha = alpha
        self.field = field
        self._inputs: dict[tuple[int, int], int] = {}
        self._steps: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._step_slots: list[int] = []
        self.live: dict[tuple[int, int], list[int]] = {}
        self.coop: dict[tuple[int, int], list[int]] = {}

    def symbol(self, helper: int, index: int) -> int:
        """The slot of survivor `helper`'s stored symbol `index`."""
        slot = self._inputs.get((helper, index))
        if slot is None:
            slot = self._inputs[(helper, index)] = len(self._inputs) + len(self._steps)
        return slot

    def step(self, row: tuple[int, ...], src: Sequence[int]) -> int:
        """The slot of the dot of `row` with the slots `src`."""
        slot = len(self._inputs) + len(self._steps)
        self._steps.append((row, tuple(src)))
        self._step_slots.append(slot)
        return slot

    def plan(self, results: Iterable[tuple[int, Sequence[int]]]) -> Callable:
        """The plan with its transfers (`live`, `coop`) and `results`,
        compiled; ValueError unless each result has alpha slots."""
        return self.field.compile_plan(*self._renumbered(results))

    def _renumbered(self, results) -> tuple[tuple, ...]:
        """(inputs, steps, live, coop, results): slots 0 .. len(inputs)-1 hold
        survivor h's symbol s for each (h, s) of `inputs` that a step or an
        output reads, and each (row, src) of `steps` appends one slot."""
        results = [(i, tuple(v)) for i, v in results]
        for i, v in results:
            if len(v) != self.alpha:
                raise ValueError(f"newcomer {i} gets {len(v)} result slots, alpha is {self.alpha}")
        outputs = [*self.live.values(), *self.coop.values(), *(v for _, v in results)]
        read = set().union(*outputs, *[src for _, src in self._steps])
        inputs = [key for key, slot in self._inputs.items() if slot in read]
        new = {self._inputs[key]: pos for pos, key in enumerate(inputs)}
        new.update(zip(self._step_slots, count(len(new))))
        get = new.__getitem__

        def slots(old):
            return tuple(map(get, old))

        live, coop, res = (tuple([(key, slots(v)) for key, v in group])
                           for group in (self.live.items(), self.coop.items(), results))
        steps = tuple([(row, slots(src)) for row, src in self._steps])
        return tuple(inputs), steps, live, coop, res


class PlanCache:
    """A bounded map from a key of public parameters to what they alone
    determine (a compiled plan, observation rows), shared by every scheme
    instance in the process, so a lifetime, its replay and later lifetimes
    of the same parameters reuse it.  `get` takes the builder and its
    arguments, so a hit makes no closure and hashes its key once, marking
    its entry used.  Eviction is second chance (CLOCK) in insertion order,
    before a new entry goes in: the oldest entry goes unless used since it
    was last passed over, when it moves to the newest end, unmarked.  With
    `build_on_reuse`, a key's first request enters the key with no value
    and returns None, so what is asked for once is never built.  `hits` and
    `misses` count lookups; a build that raises leaves no value behind."""

    def __init__(self, maxsize: int, build_on_reuse: bool = False):
        self.maxsize = maxsize
        self.build_on_reuse = build_on_reuse
        self.hits = self.misses = 0
        self._plans: dict = {}  # key -> [value or None, used since last passed over]

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key, build, *args):
        """The value under `key`, from `build(*args)` on a miss."""
        entry = self._plans.get(key)
        if entry is not None and entry[0] is not None:
            self.hits += 1
            entry[1] = True
            return entry[0]
        self.misses += 1
        if entry is not None:  # asked for before: build it in its place, used
            entry[0], entry[1] = build(*args), True
            return entry[0]
        value, plans = None if self.build_on_reuse else build(*args), self._plans
        while len(plans) >= self.maxsize:
            old = next(iter(plans))
            entry = plans.pop(old)
            if entry[1]:
                entry[1] = False
                plans[old] = entry
        plans[key] = [value, False]
        return value


# Observation rows: stored rows by (params, node), at most 1024 entries of
# alpha rows, and every newcomer's download rows of a round by (params,
# failed, helpers), at most 512 entries of t gamma rows; each row of M ints
# kept as a tuple and packed into one int (`pack_rows`).  At the lifetime
# benchmark's sizes a stored entry takes about 1.7 KB and a round entry 3-6
# KB (tracemalloc), so 1.7 and 3 MB for the tables full; at mbcr-bivariate
# (20,4,8,4) 2.6 KB besides the point table's tuples and 60 KB, 2.6 and 31 MB.
STORED_ROWS = PlanCache(1024)
DOWNLOAD_ROWS = PlanCache(512)

# Repair plans by (params, failed, helpers), encode plans by params and
# reconstruct plans by (params, the k sorted contacted ids), each built on
# its key's second request: the first, in a one-shot command, a set-up's
# warm-up or a lifetime's run, evaluates (`_Evaluator`) and leaves a key of
# under 0.5 KB with no value.  A lifetime's replay asks again, so a
# lifetime benchmark pass builds all 56-58 repair plans it meets.  A plan is
# its compiled function, code and constants (tracemalloc, one plan of each
# kind in a fresh process): 4-10 KB at the benchmark's lifetime sizes, so
# about 2.3, 0.3 and 1.8 MB for the tables full; at mbcr-bivariate
# (20,4,8,4) 115, 112 and 21 KB, 29, 3.6 and 5.4 MB; at mbcr-exact
# (9,5,7,2), GF(331^55), 14, 29 and 19 KB.  An encode plan grows with n alpha.
REPAIR_PLANS = PlanCache(256, build_on_reuse=True)
ENCODE_PLANS = PlanCache(32, build_on_reuse=True)
RECONSTRUCT_PLANS = PlanCache(256, build_on_reuse=True)


class _Evaluator:
    """`PlanBuilder`'s interface evaluated as it goes, by `symbol(node, index)`
    and `step(row, values)`: stored values and the field's `dot` (`_run_plan`),
    or packed stored rows and a packed dot (`_round_rows`)."""

    def __init__(self, step: Callable, symbol: Callable[[int, int], int]):
        self.step, self.symbol = step, symbol
        self.live: dict[tuple[int, int], list[int]] = {}
        self.coop: dict[tuple[int, int], list[int]] = {}

    def plan(self, results: Iterable[tuple[int, Sequence[int]]]) -> tuple[dict, dict, tuple]:
        live, coop = ({key: tuple(v) for key, v in group.items()} for group in (self.live, self.coop))
        return live, coop, tuple([(key, tuple(v)) for key, v in results])


def _record(cls, **fields):
    """A record built without `__init__` (`NodeContent`'s sums its layout; a frozen
    dataclass's sets each field through `object.__setattr__`), only for records
    right by construction: a repair's transcript and nodes (`_repair`), an
    encoding's nodes, a node file's, a rank verdict's (`secrecy.rank_leakage`)."""
    rec = object.__new__(cls)
    rec.__dict__.update(fields)
    return rec


class ObservationMatrix:
    """Eavesdropper view e = A_u u + A_r r as one matrix [A_r | A_u], one
    row over (r || u) per observed symbol, over GF(p) in every scheme.

    The r columns come first so that one elimination yields both
    rank([A_u|A_r]) and rank(A_r).  The subclass `PointObservation` keeps
    the same fields but holds evaluation points in `matrix` instead.

    A view holds its rows as tuples of `ncols` ints over `field` (a scheme's,
    the row tables' own) and, over GF(p), each row packed into one int
    (`packed`, `pack_rows`, the tables' own too), which the verdict
    eliminates as they are.  `Scheme._view` builds a view as one `__dict__`,
    with no `__init__`, that also keeps the scheme, E1, E2 and rounds;
    `matrix`, a copy, and `labels`, walked from those, are built on first
    use.  Over GF(p^m), only the tests' Moore-row oracle builds a view
    (through `__init__`), and `packed` is None."""

    def __init__(self, matrix: Matrix, n_random: int, labels: Sequence[tuple]):
        if matrix.nrows != len(labels):
            raise ValueError("row count mismatch")
        self.matrix = matrix
        self.labels = tuple(labels)
        self.field, self.ncols = matrix.field, matrix.ncols
        self.rows = list(map(tuple, matrix.rows))
        self.packed = (pack_rows(self.field.p, self.ncols, self.rows)
                       if self.field.degree == 1 else None)
        self.n_secret, self.n_random = matrix.ncols - n_random, n_random

    @cached_property
    def matrix(self) -> Matrix:
        return Matrix(self.field, self.rows, ncols=self.ncols)

    @cached_property
    def labels(self) -> tuple:
        return self._scheme._observation_labels(self._e1, self._e2, self._rounds)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


class PointObservation(ObservationMatrix):
    """View of a Gabidulin-precoded scheme, kept as GF(p) evaluation points.

    Every observed symbol is f(h) for the precoding polynomial
    f(X) = sum_i c_i X^(p^i) with coefficients c = (r || u) and a point h in
    GF(p)^M; row j of `rows` holds the base coordinates of h_j.  Row j of
    [A_r | A_u] over GF(p^M) is the Moore row (h_j, h_j^p, ...,
    h_j^(p^(M-1))), but a rank verdict needs only the GF(p) rank of the
    points, so the view keeps the points alone.
    """


class Scheme:
    """Base class; subclasses set name/params/field and the four operations."""

    name = "abstract"

    params: SchemeParams
    field: object
    file_size: int        # M, in symbols
    secure_size: int      # Ms
    alpha: int
    beta: int
    beta_prime: int

    @classmethod
    def node_format(cls, params: SchemeParams) -> tuple[int, int, int, tuple[tuple[str, int], ...]]:
        """(p, m, alpha, layout): every node stores alpha symbols of GF(p^m)
        in the named segments of `layout`.  A closed form of the params, so a
        node file is read without building the scheme; it runs the
        constructor's parameter checks, with the same errors."""
        raise NotImplementedError

    @cached_property
    def _key(self) -> str:
        """The params as their repr, a str whose hash Python keeps: the head of every table key."""
        return repr(self.params)

    @property
    def n_random(self) -> int:
        return self.file_size - self.secure_size

    @property
    def gamma(self) -> int:
        return self.params.d * self.beta + (self.params.t - 1) * self.beta_prime

    # -- contract -------------------------------------------------------------

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        raise NotImplementedError

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        raise NotImplementedError

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        raise NotImplementedError

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = (),
                           ) -> ObservationMatrix:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------

    def random_inputs(self, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Deterministic (u, r) pair for tests and the simulator."""
        u = tuple(random_symbols(self.field, self.secure_size, seed))
        return u, self.random_r(seed)

    def random_r(self, seed: int) -> tuple[int, ...]:
        """The r of `random_inputs(seed)`, drawn without its u."""
        return tuple(random_symbols(self.field, self.n_random, seed ^ 0xC0DE5EED))

    def _check_inputs(self, u: Sequence[int], r: Sequence[int]) -> None:
        if len(u) != self.secure_size:
            raise ParameterError(f"secret must have {self.secure_size} symbols, got {len(u)}")
        if len(r) != self.n_random:
            raise ParameterError(f"randomness must have {self.n_random} symbols, got {len(r)}")
        if isinstance(self.field, PrimeField) and any(not 0 <= v < self.field.p for v in (*u, *r)):
            raise ParameterError(f"every symbol of u and r must lie in [0, {self.field.p})")

    def _repair(self, failed: Iterable[int], survivors: Mapping[int, NodeContent],
                helpers: Sequence[int] | None) -> RepairTranscript:
        """Run one repair round by `_repair_plan` through `_run_plan`, keyed
        (params, failed, helpers) in `REPAIR_PLANS`, after the failed set,
        the helpers, `_check_helpers` and the survivors (`_check_nodes`) are
        validated.  Its records are each helper's transfer to each newcomer,
        the newcomers' transfers to each other, then the t rebuilt nodes."""
        failed = self._validate_failed(failed, survivors)
        helpers = self._pick_helpers(failed, survivors, helpers)
        self._check_helpers(helpers, survivors)
        self._check_nodes(survivors, survivors)
        live, coop, results = self._run_plan(REPAIR_PLANS, (self._key, failed, helpers),
                                             self._repair_plan, survivors, failed, helpers)
        return _record(RepairTranscript, failed=failed, helpers=helpers,
                       live_transfers=live, coop_transfers=coop,
                       results=tuple([_record(NodeContent, node_id=i, symbols=v, layout=self.layout)
                                      for i, v in results]))

    def _run_plan(self, table: PlanCache, key, build, nodes: Mapping[int, NodeContent],
                  *args) -> tuple[dict, dict, tuple]:
        """The records of the plan `build(*args)` kept in `table` under
        `key`, run on `nodes` (node 0 holds an encoding's inputs): the live
        and coop transfers as dicts keyed (sender, receiver), then the
        results as (node, symbols) pairs.  The one place a plan runs, one
        call of its compiled function; a key's first request evaluates the
        construction instead (`build(*args, _Evaluator(...))`)."""
        plan = table.get(key, build, *args)
        if plan is None:
            return build(*args, _Evaluator(self.field.dot, lambda h, s: nodes[h].symbols[s]))
        return plan(nodes)

    def _encode_nodes(self, x: list[int]) -> list[NodeContent]:
        """Every node's content from the encode plan's inputs x, the M
        precoded symbols or (r || u) (`ENCODE_PLANS`)."""
        layout = self.layout
        inputs = _record(NodeContent, node_id=0, symbols=x, layout=(("inputs", len(x)),))
        return [_record(NodeContent, node_id=i, symbols=syms, layout=layout) for i, syms
                in self._run_plan(ENCODE_PLANS, self._key, self._encode_plan, {0: inputs})[2]]

    def _decode(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        """u, or a Gabidulin scheme's M evaluations, from the k lowest
        distinct node ids given (`RECONSTRUCT_PLANS`, keyed by those ids)."""
        by_id = {c.node_id: c for c in contents}
        if len(by_id) < self.params.k:
            raise ParameterError(f"need k={self.params.k} distinct nodes, got {len(by_id)}")
        self._check_nodes(by_id, by_id)
        ids = tuple(sorted(by_id)[:self.params.k])
        return self._run_plan(RECONSTRUCT_PLANS, (self._key, ids), self._reconstruct_plan,
                              by_id, ids)[2][0][1]

    def _check_helpers(self, helpers: tuple[int, ...],
                       survivors: Mapping[int, NodeContent]) -> None:
        """A scheme-specific helper rule, run before the plan lookup."""

    def _pick_helpers(self, failed: frozenset[int],
                      survivors: Mapping[int, NodeContent],
                      helpers: Sequence[int] | None) -> tuple[int, ...]:
        d = self.params.d
        if len(survivors) < d:
            raise RepairInfeasibleError(f"need {d} survivors, have {len(survivors)}")
        if helpers is None:  # d distinct survivors, none failed (`_validate_failed`)
            return tuple(sorted(survivors)[:d])
        helpers = tuple(sorted(helpers))
        if (len(helpers) != d or len(set(helpers)) != d or not failed.isdisjoint(helpers)
                or not all(map(survivors.__contains__, helpers))):
            raise ParameterError("helpers must be d distinct surviving nodes")
        return helpers

    def _validate_failed(self, failed: Iterable[int],
                         survivors: Mapping[int, NodeContent]) -> frozenset[int]:
        failed = frozenset(failed)
        if len(failed) != self.params.t:
            raise ParameterError(f"exactly t={self.params.t} failures required")
        if not failed.isdisjoint(survivors):
            raise ParameterError("a failed node cannot also be a survivor")
        self._check_nodes(failed)
        return failed

    def _check_nodes(self, ids: Iterable[int], nodes: Mapping[int, NodeContent] = ()) -> None:
        """The data path's one node boundary, checked before a plan table
        lookup so that no bad key enters a table: every id lies in [1, n],
        and every node of `nodes` holds alpha symbols."""
        if not self._ids.issuperset(ids):
            raise ParameterError("node ids must lie in [1, n]")
        alpha = self.alpha
        for i in nodes:
            if len(nodes[i].symbols) != alpha:
                raise ParameterError(f"node {i} holds {len(nodes[i].symbols)} symbols, alpha is {alpha}")

    @cached_property
    def _ids(self) -> frozenset[int]:
        return frozenset(range(1, self.params.n + 1))

    def _validate_eaves(self, e1, e2, rounds: tuple):
        """E1 and E2 as sorted tuples of distinct ids, checked in one pass with
        the tuple `rounds`: with no E2 and no rounds, a range check and a sort."""
        n, ids = self.params.n, self._ids
        e1 = set(e1)
        if not e2 and not rounds:
            if not ids.issuperset(e1):
                raise ParameterError(f"eavesdropped node ids must lie in [1, {n}]")
            return tuple(sorted(e1)), ()
        e2 = set(e2)
        if not ids.issuperset(e1) or not ids.issuperset(e2):
            raise ParameterError(f"eavesdropped node ids must lie in [1, {n}]")
        if not e1.isdisjoint(e2):
            raise ParameterError("E1 and E2 must be disjoint")
        d, t, unrepaired = self.params.d, self.params.t, e2.copy()
        for tr in rounds:  # t failed and d helpers, d + t distinct ids in all
            if (len(tr.failed) != t or len(tr.helpers) != d
                    or len(ends := tr.failed.union(tr.helpers)) != d + t or not ids.issuperset(ends)):
                raise ParameterError(
                    f"a repair needs t={t} failed ids and d={d} distinct helper ids, "
                    f"all in [1, {n}] and no helper failed")
            unrepaired -= tr.failed
        if unrepaired:
            raise ParameterError(
                f"E2 nodes {sorted(unrepaired)} never appear as newcomers in the transcripts")
        return tuple(sorted(e1)), tuple(sorted(e2))

    def _stored_rows(self, node: int) -> list:
        """One observation row per symbol stored at `node`, in segment order:
        a sequence of `file_size` ints.  Read through `_row_entry`."""
        raise NotImplementedError

    def _row_entry(self, node: int) -> tuple[tuple, tuple]:
        """`STORED_ROWS`' entry for `node`, a validated id: `_stored_rows(node)`
        as a tuple of tuples, and each row packed over the view's GF(p)
        (`pack_rows`, `file_size` lanes), built once for every verdict."""
        rows = tuple(map(tuple, self._stored_rows(node)))
        return rows, tuple(pack_rows(self.field.char, self.file_size, rows))

    def _round_rows(self, failed: frozenset[int], helpers: tuple[int, ...]) -> dict:
        """newcomer -> (its download rows in transfer order as tuples, packed):
        `_repair_plan` run by `_Evaluator` on the helpers' packed stored rows,
        each step one dot of at most M packed rows, which the `lazy` plan of
        `_lanes(p, M)` reduces.  RuntimeError, a program fault, unless each
        rebuilt row is the newcomer's stored row: exact repair for all data."""
        p, m, key, entry, get = self.field.char, self.file_size, self._key, self._row_entry, STORED_ROWS.get
        layout = _lanes(p, m)
        lazy, packed = layout[2], {h: get((key, h), entry, h)[1] for h in helpers}
        live, coop, results = self._repair_plan(failed, helpers, _Evaluator(
            lambda row, src: _reduce_lanes(sum(map(mul, row, src)), lazy, p), lambda h, s: packed[h][s]))
        rows = {}
        for i, rebuilt in results:
            if rebuilt != get((key, i), entry, i)[1]:
                raise RuntimeError(f"{self.name} {self.params}: repairing {sorted(failed)} from "
                                   f"{list(helpers)} does not rebuild node {i}'s stored rows")
            ints = (*[v for h in helpers for v in live[(h, i)]],
                    *[v for j in sorted(failed - {i}) for v in coop[(j, i)]])
            rows[i] = tuple([tuple(_unpack_lanes(layout, v, m)) for v in ints]), ints
        return rows

    def _observation_labels(self, e1, e2, rounds) -> tuple[tuple, ...]:
        """The label of each row of a view, in the shared row order, walked
        apart from its rows."""
        labels = [("stored", node, idx) for node in e1 + e2 for idx in range(self.alpha)]
        for rnd, tr in enumerate(rounds):
            for i in sorted(tr.failed.intersection(e2)):
                labels += [("live", rnd, h, i, idx) for h in tr.helpers for idx in range(self.beta)]
                labels += [("coop", rnd, m, i, idx) for m in sorted(tr.failed - {i})
                           for idx in range(self.beta_prime)]
        return tuple(labels)

    def _view(self, cls, field, e1, e2, transcripts) -> ObservationMatrix:
        """The observation as a `cls` view over `field` in the shared row
        order: its rows and packed rows list the row tables' own tuples and
        ints (`STORED_ROWS` by (params, node), `DOWNLOAD_ROWS` by (params,
        failed, helpers)), kept for every later view of the same params.
        The rounds are taken as a tuple once, so that an iterator of them is
        validated and read alike."""
        rounds = tuple(transcripts)
        e1, e2 = self._validate_eaves(e1, e2, rounds)
        key, entry, get, rows, packed = self._key, self._row_entry, STORED_ROWS.get, [], []
        for node in e1 + e2:
            tuples, ints = get((key, node), entry, node)
            rows += tuples
            packed += ints
        get, round_rows = DOWNLOAD_ROWS.get, self._round_rows
        for tr in rounds:
            if newcomers := sorted(tr.failed.intersection(e2)):
                failed, helpers = frozenset(tr.failed), tuple(tr.helpers)
                by_newcomer = get((key, failed, helpers), round_rows, failed, helpers)
                for i in newcomers:
                    tuples, ints = by_newcomer[i]
                    rows += tuples
                    packed += ints
        view = object.__new__(cls)
        view.__dict__ = {"field": field, "rows": rows, "packed": packed, "ncols": self.file_size,
                         "n_random": self.n_random, "n_secret": self.secure_size,
                         "_scheme": self, "_e1": e1, "_e2": e2, "_rounds": rounds}
        return view

    def observed_symbols(self, u: Sequence[int], r: Sequence[int],
                         e1: Iterable[int], e2: Iterable[int],
                         plans: Sequence[tuple[Iterable[int], Sequence[int] | None]] = (),
                         ) -> list[int]:
        """Replay the protocol for (u, r) and stack the eavesdropped symbols.

        `plans` are (failed, helpers) pairs; repairs are re-executed on the
        freshly encoded state.  Row order matches observation_matrix.
        """
        e1 = tuple(sorted(set(e1)))
        e2 = tuple(sorted(set(e2)))
        contents = {c.node_id: c for c in self.encode(u, r)}
        out: list[int] = []
        for e in e1:
            out.extend(contents[e].symbols)
        for e in e2:
            out.extend(contents[e].symbols)
        for failed, helpers in plans:
            failed = frozenset(failed)
            survivors = {i: c for i, c in contents.items() if i not in failed}
            tr = self.cooperative_repair(failed, survivors, helpers)
            for i in sorted(failed & set(e2)):
                for h in tr.helpers:
                    out.extend(tr.live_transfers.get((h, i), ()))
                for m in sorted(failed - {i}):
                    out.extend(tr.coop_transfers.get((m, i), ()))
        return out


class GabidulinScheme(Scheme):
    """A scheme whose every stored or transferred symbol is f(h) for the
    Gabidulin precoding polynomial f and a point h in GF(p)^M.

    The field is GF(p^M) with M = file_size, and f is evaluated at its
    canonical basis, so the precoding Moore map and its inverse depend on
    the field alone: both run from the per-field monomial table in
    coopdss.field, with no product of two GF(p^M) elements.

    Subclasses give the points as `_stored_rows`, and each defines
    `observation_matrix`, a `PointObservation` over `base` from
    `Scheme._view`, in its own class body, because the benchmark's tracer
    wraps the contract methods per scheme class.
    """

    base: object  # the prime field GF(p) of the point coordinates

    def _precode(self, u: Sequence[int], r: Sequence[int]) -> list[int]:
        """The M Gabidulin evaluations x = Moore . (r || u), with Moore the
        canonical-basis Moore matrix applied as GF(p)-scaled monomials
        (`basis_moore_apply`).  Raises ValueError unless |r| + |u| = M."""
        return basis_moore_apply(self.field, coefficients(u, r))

    def _secret_from_evaluations(self, x: Sequence[int]) -> tuple[int, ...]:
        """u from the M evaluations: the u rows of (r || u) = Moore^-1 . x,
        the inverse applied in closed form from the same table
        (`basis_moore_inverse_apply`).  Raises ValueError unless |x| = M."""
        return tuple(basis_moore_inverse_apply(self.field, x, self.n_random))

    def observation_point_matrix(self, e1: Iterable[int], e2: Iterable[int],
                                 transcripts: Sequence[RepairTranscript] = ()) -> Matrix:
        """GF(p) matrix of the observation points, one row per observed
        symbol; its rank equals rank([A_u | A_r]) over GF(p^M)."""
        return self.observation_matrix(e1, e2, transcripts).matrix

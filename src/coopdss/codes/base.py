"""Common contract shared by all code constructions.

Every scheme encodes a secret u and randomness r into n node contents of
alpha symbols each, reconstructs u from any k nodes, repairs any t
simultaneous failures exactly with per-newcomer bandwidth d*beta+(t-1)*beta',
and exposes the eavesdropper's view as an explicit linear map e = A_u u + A_r r.

Observation row order (shared by observation_matrix and observed_symbols):

  1. for each node in sorted(E1): its alpha stored symbols in segment order;
  2. for each node in sorted(E2): its alpha stored symbols;
  3. for each transcript, in the order given: for each newcomer in
     sorted(failed & E2): live downloads grouped by helper id ascending
     (symbols in transfer order), then cooperative downloads grouped by
     peer id ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..field import (
    Matrix,
    basis_elements,
    basis_moore_inverse,
    basis_moore_matrix,
    moore_matrix,
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

    def segment(self, name: str) -> tuple[int, ...]:
        start = 0
        for seg, count in self.layout:
            if seg == name:
                return self.symbols[start:start + count]
            start += count
        raise KeyError(name)


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


class ObservationMatrix:
    """Eavesdropper view e = A_u u + A_r r over the scheme's field."""

    points: Matrix | None = None  # GF(p) evaluation points; see PointObservation

    def __init__(self, a_u: Matrix, a_r: Matrix, labels: Sequence[tuple]):
        if a_u.nrows != a_r.nrows or a_u.nrows != len(labels):
            raise ValueError("row count mismatch")
        self.a_u = a_u
        self.a_r = a_r
        self.labels = tuple(labels)
        self.field = a_u.field
        self.n_secret = a_u.ncols
        self.n_random = a_r.ncols

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def joint(self) -> Matrix:
        """[A_r | A_u]; putting the r columns first lets one elimination
        yield both rank([A_u|A_r]) and rank(A_r)."""
        return self.a_r.hstack(self.a_u)


class PointObservation(ObservationMatrix):
    """View of a Gabidulin-precoded scheme, kept as GF(p) evaluation points.

    Every observed symbol is f(h) for the precoding polynomial
    f(X) = sum_i c_i X^(p^i) with coefficients c = (r || u) and a point h in
    GF(p)^M; row j of `points` holds the base coordinates of h_j.  Row j of
    [A_r | A_u] is the Moore row (h_j, h_j^p, ..., h_j^(p^(M-1))) over
    GF(p^M).  A rank verdict needs only the GF(p) rank of `points`, so the
    Moore rows are built on first access to `a_u` or `a_r`.
    """

    def __init__(self, field, points: Matrix, n_random: int, labels: Sequence[tuple]):
        if points.nrows != len(labels):
            raise ValueError("row count mismatch")
        self.points = points
        self.labels = tuple(labels)
        self.field = field
        self.n_secret = points.ncols - n_random
        self.n_random = n_random
        self._moore_rows: tuple[Matrix, Matrix] | None = None

    def _split_moore_rows(self) -> tuple[Matrix, Matrix]:
        if self._moore_rows is None:
            f = self.field
            rows = moore_matrix(f, [f.from_coords(pt) for pt in self.points.rows],
                                self.points.ncols).rows
            nr = self.n_random
            self._moore_rows = (Matrix(f, [row[nr:] for row in rows], ncols=self.n_secret),
                                Matrix(f, [row[:nr] for row in rows], ncols=nr))
        return self._moore_rows

    @property
    def a_u(self) -> Matrix:
        return self._split_moore_rows()[0]

    @property
    def a_r(self) -> Matrix:
        return self._split_moore_rows()[1]


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
                           transcripts: Sequence[RepairTranscript] = ()) -> ObservationMatrix:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------

    def random_inputs(self, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Deterministic (u, r) pair for tests and the simulator."""
        u = tuple(random_symbols(self.field, self.secure_size, seed))
        r = tuple(random_symbols(self.field, self.n_random, seed ^ 0xC0DE5EED))
        return u, r

    def _check_inputs(self, u: Sequence[int], r: Sequence[int]) -> None:
        if len(u) != self.secure_size:
            raise ParameterError(f"secret must have {self.secure_size} symbols, got {len(u)}")
        if len(r) != self.n_random:
            raise ParameterError(f"randomness must have {self.n_random} symbols, got {len(r)}")

    def _pick_helpers(self, failed: frozenset[int],
                      survivors: Mapping[int, NodeContent],
                      helpers: Sequence[int] | None) -> tuple[int, ...]:
        d = self.params.d
        if len(survivors) < d:
            raise RepairInfeasibleError(f"need {d} survivors, have {len(survivors)}")
        if helpers is None:
            helpers = sorted(survivors)[:d]
        helpers = tuple(sorted(helpers))
        if len(helpers) != d or any(h in failed or h not in survivors for h in helpers):
            raise ParameterError("helpers must be d distinct surviving nodes")
        return helpers

    def _validate_failed(self, failed: Iterable[int],
                         survivors: Mapping[int, NodeContent]) -> frozenset[int]:
        failed = frozenset(failed)
        if len(failed) != self.params.t:
            raise ParameterError(f"exactly t={self.params.t} failures required")
        if any(i in survivors for i in failed):
            raise ParameterError("a failed node cannot also be a survivor")
        if any(not 1 <= i <= self.params.n for i in failed):
            raise ParameterError("node ids must lie in [1, n]")
        return failed

    def _validate_eaves(self, e1, e2, transcripts):
        e1 = tuple(sorted(set(e1)))
        e2 = tuple(sorted(set(e2)))
        if set(e1) & set(e2):
            raise ParameterError("E1 and E2 must be disjoint")
        repaired = set()
        for tr in transcripts:
            repaired |= tr.failed
        missing = [i for i in e2 if i not in repaired]
        if missing:
            raise ParameterError(
                f"E2 nodes {missing} never appear as newcomers in the transcripts")
        return e1, e2

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
    canonical basis, so the precoding Moore matrix and its inverse depend on
    the field alone and come from the per-field cache in coopdss.field.

    Subclasses give the points: `stored_points(node)` and
    `_download_points(transcript, newcomer)`, the latter as (label, point)
    pairs in transfer order with labels lacking the transcript index.  Each
    subclass still defines `observation_matrix` (as `_point_observation`)
    in its own class body, like the other contract methods, because the
    benchmark's tracer wraps those per scheme class.
    """

    base: object  # the prime field GF(p) of the point coordinates

    @property
    def points(self) -> tuple[int, ...]:
        """The M precoding evaluation points: the canonical basis of GF(p^M)."""
        return tuple(basis_elements(self.field, self.file_size))

    def _precode(self, u: Sequence[int], r: Sequence[int]) -> list[int]:
        """The M Gabidulin evaluations x = Moore . (r || u)."""
        return basis_moore_matrix(self.field).matvec(coefficients(u, r))

    def _secret_from_evaluations(self, x: Sequence[int]) -> tuple[int, ...]:
        """u from the M evaluations: (r || u) = Moore^-1 . x."""
        return tuple(basis_moore_inverse(self.field).matvec(x)[self.n_random:])

    def stored_points(self, node: int) -> list[list[int]]:
        raise NotImplementedError

    def _download_points(self, tr: RepairTranscript,
                         newcomer: int) -> list[tuple[tuple, list[int]]]:
        raise NotImplementedError

    def _point_observation(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript]) -> PointObservation:
        """The observation in the shared row order, as evaluation points."""
        e1, e2 = self._validate_eaves(e1, e2, transcripts)
        points: list[list[int]] = []
        labels: list[tuple] = []
        for e in e1 + e2:
            for idx, pt in enumerate(self.stored_points(e)):
                points.append(pt)
                labels.append(("stored", e, idx))
        for t_idx, tr in enumerate(transcripts):
            for i in sorted(tr.failed & set(e2)):
                for label, pt in self._download_points(tr, i):
                    points.append(pt)
                    labels.append((label[0], t_idx) + label[1:])
        return PointObservation(self.field, Matrix(self.base, points, ncols=self.file_size),
                                self.n_random, labels)

    def observation_point_matrix(self, e1: Iterable[int], e2: Iterable[int],
                                 transcripts: Sequence[RepairTranscript] = ()) -> Matrix:
        """GF(p) matrix of the observation points, one row per observed
        symbol; its rank equals rank([A_u | A_r]) over GF(p^M)."""
        return self.observation_matrix(e1, e2, transcripts).points

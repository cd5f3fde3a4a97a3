"""Deliberately insecure toy scheme: a negative control for the verifiers.

Three nodes over GF(5), M = 2, Ms = 1: node 1 stores the secret symbol in
the clear, node 2 the random symbol, node 3 their sum.  Any two nodes
reconstruct, and a single failure is repaired from both survivors (d = 2,
t = 1, beta = 1), by rows of the inverse of their 2x2 system in cached
plans.  Eavesdropping node 1 leaks the secret; verifiers must flag it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..field import Matrix, prime_field
from ..precode import coefficients
from .base import (
    NodeContent,
    ObservationMatrix,
    ParameterError,
    PlanBuilder,
    RepairTranscript,
    Scheme,
    SchemeParams,
)


class InsecureDemoScheme(Scheme):

    name = "insecure-demo"

    _rows = {1: (0, 1), 2: (1, 0), 3: (1, 1)}  # (r, u) coefficients per node

    @classmethod
    def node_format(cls, params: SchemeParams) -> tuple[int, int, int, tuple[tuple[str, int], ...]]:
        if (params.n, params.k, params.d, params.t) != (3, 2, 2, 1):
            raise ParameterError(f"{cls.name} is fixed at n=3,k=2,d=2,t=1")
        if (params.l1, params.l2) != (1, 0):
            raise ParameterError(f"{cls.name} models a single storage eavesdropper")
        return 5, 1, 1, (("shares", 1),)

    def __init__(self, params: SchemeParams):
        p, _, self.alpha, self.layout = self.node_format(params)
        self.params = params
        self.field = prime_field(p)
        self.file_size = 2
        self.secure_size = 1
        self.beta = 1
        self.beta_prime = 1

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        self._check_inputs(u, r)
        return self._encode_nodes(coefficients(u, r))

    def _encode_plan(self, b=None):
        """Node i's symbol: its (r, u) row over r || u."""
        b = b or PlanBuilder(self.alpha, self.field)
        x = (b.symbol(0, 0), b.symbol(0, 1))
        return b.plan((i, [b.step(row, x)]) for i, row in self._rows.items())

    def _inverse_rows(self, ids: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """The inverse of the 2x2 system of the (r, u) rows of nodes `ids`."""
        return tuple(map(tuple, Matrix(self.field, [list(self._rows[i]) for i in ids]).inverse().rows))

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        return self._decode(contents)

    def _reconstruct_plan(self, ids: tuple[int, ...], b=None):
        """u: the inverse's u row over the two contacted symbols."""
        b = b or PlanBuilder(self.secure_size, self.field)
        x = [b.symbol(i, 0) for i in ids]
        return b.plan([(0, [b.step(self._inverse_rows(ids)[1], x)])])

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        return self._repair(failed, survivors, helpers)

    def _repair_plan(self, failed: frozenset[int], helpers: tuple[int, ...], b=None):
        """Each helper sends its symbol; r and u are the inverse's rows over
        the two downloads, and the newcomer stores its own row over them."""
        (i,) = failed
        b = b or PlanBuilder(self.alpha, self.field)
        for h in helpers:
            b.live[(h, i)] = [b.symbol(h, 0)]
        downloads = [b.live[(h, i)][0] for h in helpers]
        ru = [b.step(row, downloads) for row in self._inverse_rows(helpers)]
        return b.plan([(i, [b.step(self._rows[i], ru)])])

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> ObservationMatrix:
        return self._view(ObservationMatrix, self.field, e1, e2, transcripts)

    def _stored_rows(self, node: int) -> list[tuple[int, int]]:
        return [self._rows[node]]

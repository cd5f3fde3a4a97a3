"""Deliberately insecure toy scheme: a negative control for the verifiers.

Three nodes over GF(5), M = 2, Ms = 1: node 1 stores the secret symbol in
the clear, node 2 the random symbol, node 3 their sum.  Any two nodes
reconstruct; a single failure is repaired by reading both survivors
(d = 2, t = 1, beta = 1).  Eavesdropping node 1 leaks the whole secret;
any verifier that fails to flag it is broken.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..field import Matrix, prime_field
from .base import (
    NodeContent,
    ObservationMatrix,
    ParameterError,
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
        f = self.field
        vals = {i: f.add(f.mul(cu, u[0]), f.mul(cr, r[0]))
                for i, (cr, cu) in self._rows.items()}
        return [NodeContent(i, (vals[i],), self.layout) for i in (1, 2, 3)]

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        by_id = {c.node_id: c for c in contents}
        if len(by_id) < 2:
            raise ParameterError("need k=2 nodes")
        ids = sorted(by_id)[:2]
        m = Matrix(self.field, [list(self._rows[i]) for i in ids])
        _, u0 = m.solve([by_id[i].symbols[0] for i in ids])
        return (u0,)

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        f = self.field
        failed = self._validate_failed(failed, survivors)
        helpers = self._pick_helpers(failed, survivors, helpers)
        (i,) = tuple(failed)
        live = {(h, i): (survivors[h].symbols[0],) for h in helpers}
        m = Matrix(f, [list(self._rows[h]) for h in helpers])
        r0, u0 = m.solve([survivors[h].symbols[0] for h in helpers])
        cr, cu = self._rows[i]
        val = f.add(f.mul(cu, u0), f.mul(cr, r0))
        return RepairTranscript(failed=failed, helpers=helpers, live_transfers=live,
                                coop_transfers={},
                                results=(NodeContent(i, (val,), self.layout),))

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> ObservationMatrix:
        return self._linear_observation(e1, e2, transcripts)

    def _stored_rows(self, node: int) -> list[tuple[int, int]]:
        return [self._rows[node]]

    def _download_rows(self, tr: RepairTranscript, newcomer: int) -> list[tuple[int, int]]:
        return [row for h in tr.helpers for row in self._node_rows(h)]

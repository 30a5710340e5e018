"""Remove Equilibrium (RE): no agent gains by dropping one incident edge.

Dropping edge ``uv`` saves ``alpha`` and raises ``u``'s distance cost by

    loss(u, uv) = dist_{G - uv}(u) - dist_G(u),

so ``u`` improves iff ``loss < alpha`` (exact integer vs Fraction).  Under
the uniform cost model bridges never qualify: disconnection costs at least
``M > alpha * n^3``.  By Proposition A.2 the RE coincides with the Pure
Nash Equilibrium of the BNCG, so this checker doubles as the bilateral NE
test.

Trees are RE for every ``alpha`` (every edge is a bridge); the checker
shortcuts that case.

**Heterogeneous traffic** changes the bridge story: an agent with *zero*
demand toward a bridge's far side pays nothing for the disconnection, so
bridge removals can be improving and must be evaluated, not skipped.
**Non-linear cost models** likewise: a max aggregate can be entirely
indifferent to a removal.  Every state carrying a
:class:`~repro.core.costmodel.ModelOps` (``state.value_ops``) therefore
takes one every-edge scan, :func:`valued_improving_removals`: each
bridge removal is charged through the engine's search-free
two-component split — the far side's entries jump to the ``M``
sentinel, mapped to the model's value sentinel (``M`` itself for
weighted-linear costs) — and only non-bridges pay a probe BFS, exactly
like the uniform path.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.moves import RemoveEdge
from repro.core.state import GameState

__all__ = [
    "find_improving_removal",
    "is_remove_equilibrium",
    "removal_loss",
    "valued_improving_removals",
]


def removal_loss(state: GameState, actor: int, other: int) -> int:
    """(Weighted/model-valued) distance-cost increase for ``actor`` when
    edge ``actor-other`` goes."""
    after = state.dist.row_after_remove(actor, other)
    ops = state.value_ops
    if ops is not None:
        return ops.row_value(actor, after) - ops.row_value(
            actor, state.dist.row(actor)
        )
    return int((after - state.dist.row(actor)).sum())


def valued_improving_removals(state: GameState) -> Iterator[RemoveEdge]:
    """All improving removals of a weighted or modeled state, enumeration
    order.

    Every edge — bridges included — is charged through the engine's
    mutation-free removal query (zero demand across a bridge's cut makes
    it droppable), with both endpoints' losses read as model-value diffs
    straight off the engine.  Shared by the RE checker and the removal
    move generator so the two can never disagree.
    """
    dm = state.dist
    ops = state.model_ops
    for u, v in list(state.graph.edges):
        row_u, row_v = dm.rows_after_remove(u, v)
        loss_u = ops.row_value(u, row_u) - ops.row_value(u, dm.matrix[u])
        loss_v = ops.row_value(v, row_v) - ops.row_value(v, dm.matrix[v])
        for actor, other, loss in ((u, v, loss_u), (v, u, loss_v)):
            if loss < state.alpha:
                yield RemoveEdge(actor=actor, other=other)
                break  # the edge can only be removed once


def find_improving_removal(state: GameState) -> RemoveEdge | None:
    """First improving single-edge removal, or ``None`` (exact, O(m * m)).

    Uniform states skip bridges straight off the engine's incrementally
    maintained bridge set (no per-check Tarjan pass) — and trees
    entirely; both endpoints' post-removal losses for the remaining
    edges come from the engine's batched speculative query — the same
    path the kernel's
    :meth:`~repro.core.speculative.SpeculativeEvaluator.remove_loss_pair`
    delegates to (one BFS pair per edge; the graph is never mutated).
    Weighted and modeled states take :func:`valued_improving_removals`.
    """
    if state.value_ops is not None:
        return next(valued_improving_removals(state), None)
    if state.is_tree():
        return None  # removing any tree edge disconnects: loss >= M > alpha
    dm = state.dist
    for u, v in state.graph.edges:
        if dm.is_bridge(u, v):
            continue
        loss_u, loss_v = dm.remove_loss_pair(u, v)
        for actor, other, loss in ((u, v, loss_u), (v, u, loss_v)):
            if loss < state.alpha:
                return RemoveEdge(actor=actor, other=other)
    return None


def is_remove_equilibrium(state: GameState) -> bool:
    """Exact RE check (equivalently: bilateral Pure Nash, Prop. A.2)."""
    return find_improving_removal(state) is None

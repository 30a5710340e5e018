"""Pluggable distance-cost models: ``cost(u) = alpha*deg(u) + F_u(d(u, .))``.

The paper's cost function is the linear distance sum, but the same
authors' follow-up (*Cooperation in Bilateral Generalized Network
Creation*, arXiv 2510.00239) generalizes it to

    cost(u) = alpha * deg(u) + sum_v W[u, v] * f(d(u, v))

for a monotone non-decreasing ``f`` — concave regimes (nearby agents
matter, far ones barely more), convex regimes (long detours are
punishing) — plus the **max/eccentricity objective**
``max_v W[u, v] * f(d(u, v))``.  A :class:`CostModel` names one such
regime; :class:`~repro.core.state.GameState` accepts ``cost_model=...``
and every layer of the stack (distance engine, speculative kernel,
checkers, move generators, schedulers, campaigns) routes its cost
arithmetic through the model.

Exactness contract (mirrors :mod:`repro.core.traffic`):

* ``f`` is realised as an **int64 lookup table** ``f(0..n-1)`` with
  ``f(0) = 0`` and ``f`` monotone non-decreasing — so every model value
  is an exact integer and cost comparisons stay exact ``Fraction``-vs-int
  (:class:`ConcaveCost` floors ``scale * d**(p/q)`` through an exact
  integer root, never a float);
* unreachable pairs carry the **value sentinel** ``F`` (the aggregate-
  space analogue of the distance big-M, sized by
  :meth:`CostModel.unreachable_cost` so that reconnecting one
  positive-demand pair dominates any buying saving plus any real value
  total);
* :class:`LinearCost` *is* the paper's game: ``state.modeled`` stays
  ``False``, uniform states keep the plain row-sum code paths and
  weighted ones run :class:`ModelOps` with the identity table (sentinel
  ``M``) — the byte-exact equivalence guarantee, same discipline as
  ``TrafficMatrix.uniform``;
* monotonicity is what keeps the searchers' pruning sound: removals only
  grow distances, so with ``f`` non-decreasing they only grow model
  values — the generalized ``dist_floor`` bounds of the BNE/k-BSE DFS
  remain valid lower bounds.

Every model carries a lossless JSON-able ``spec``
(:func:`costmodel_from_spec` is the inverse) so campaign trials naming a
regime stay content-addressed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "ConcaveCost",
    "ConvexCost",
    "CostModel",
    "LinearCost",
    "MaxCost",
    "ModelOps",
    "TableCost",
    "costmodel_from_spec",
    "integer_root",
]


def integer_root(value: int, k: int) -> int:
    """Exact ``floor(value ** (1/k))`` for non-negative integers.

    A float seed refined by integer Newton steps — correct for any
    magnitude (the float is only a starting guess, every comparison is
    pure-integer).
    """
    if k <= 0:
        raise ValueError("the root index must be positive")
    if value < 0:
        raise ValueError("integer roots need a non-negative radicand")
    if value == 0 or k == 1:
        return value
    guess = int(round(value ** (1.0 / k)))
    if guess < 1:
        guess = 1
    while guess > 1 and guess**k > value:
        guess -= 1
    while (guess + 1) ** k <= value:
        guess += 1
    return guess


def _validate_table(table: np.ndarray) -> np.ndarray:
    """Enforce the table contract: int64, ``f(0) = 0``, monotone, exact."""
    table = np.asarray(table)
    if table.ndim != 1 or table.size == 0:
        raise ValueError("a cost table must be a non-empty 1-d array")
    if not np.issubdtype(table.dtype, np.integer):
        raise ValueError("cost tables must be integer-valued (exact arithmetic)")
    table = table.astype(np.int64)
    if int(table[0]) != 0:
        raise ValueError("cost tables must satisfy f(0) = 0")
    if table.size > 1 and (np.diff(table) < 0).any():
        raise ValueError("cost tables must be monotone non-decreasing")
    table.setflags(write=False)
    return table


class CostModel:
    """One distance-cost regime ``(f, aggregate)``.

    Subclasses fix :attr:`kind`, :attr:`aggregate` (``"sum"`` or
    ``"max"``) and implement :meth:`table` / :attr:`spec`.  Instances
    hash/compare by spec (value semantics, like
    :class:`~repro.core.traffic.TrafficMatrix`).
    """

    kind: str = "abstract"
    aggregate: str = "sum"

    @property
    def is_linear(self) -> bool:
        """Whether this model is the paper's linear sum.

        ``True`` keeps ``GameState.modeled`` off, so every layer runs
        the original code paths byte-exactly — the cost-model analogue
        of uniform traffic.
        """
        return False

    def table(self, n: int) -> np.ndarray:
        """The int64 lookup table ``f(0..n-1)`` (read-only)."""
        raise NotImplementedError

    @property
    def spec(self) -> dict[str, Any]:
        """A lossless JSON-able description (for campaign content hashes)."""
        raise NotImplementedError

    def unreachable_cost(self, n: int, alpha: Fraction, max_row_mass: int) -> int:
        """The value sentinel ``F`` for unreachable pairs.

        Sized so one unit of unmet demand dominates any buying saving
        (``<= alpha * n``) plus any real value total
        (``<= max_row_mass * f(n - 1)``) — the aggregate-space analogue
        of :func:`repro._alpha.big_m`, and strictly above every real
        table value.
        """
        top = int(self.table(n)[-1])
        return (
            math.floor(alpha * n)
            + (int(max_row_mass) + 1) * max(top, 1)
            + 1
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CostModel):
            return NotImplemented
        return self.spec == other.spec

    def __hash__(self) -> int:
        return hash(_freeze(self.spec))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec!r})"


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    return value


class LinearCost(CostModel):
    """The paper's game: ``f(d) = d``, sum aggregate, byte-exact dispatch."""

    kind = "linear"

    @property
    def is_linear(self) -> bool:
        return True

    def table(self, n: int) -> np.ndarray:
        return _validate_table(np.arange(n, dtype=np.int64))

    @property
    def spec(self) -> dict[str, Any]:
        return {"model": "linear"}


class ConcaveCost(CostModel):
    """``f(d) = floor(scale * d**exponent)`` for a rational exponent in
    ``(0, 1]`` — computed exactly as the integer ``q``-th root of
    ``scale**q * d**p`` (no float ever touches a cost)."""

    kind = "concave"

    def __init__(self, exponent=Fraction(1, 2), scale: int = 1):
        exponent = (
            exponent
            if isinstance(exponent, Fraction)
            else Fraction(str(exponent))
        )
        if not 0 < exponent <= 1:
            raise ValueError("a concave exponent must lie in (0, 1]")
        if int(scale) < 1:
            raise ValueError("scale must be a positive integer")
        self.exponent = exponent
        self.scale = int(scale)

    def table(self, n: int) -> np.ndarray:
        p, q = self.exponent.numerator, self.exponent.denominator
        values = [
            integer_root(self.scale**q * d**p, q) for d in range(n)
        ]
        return _validate_table(np.array(values, dtype=np.int64))

    @property
    def spec(self) -> dict[str, Any]:
        return {
            "model": "concave",
            "exponent": str(self.exponent),
            "scale": self.scale,
        }


class ConvexCost(CostModel):
    """``f(d) = scale * d**exponent`` for an integer exponent ``>= 1``."""

    kind = "convex"

    def __init__(self, exponent: int = 2, scale: int = 1):
        if int(exponent) < 1:
            raise ValueError("a convex exponent must be an integer >= 1")
        if int(scale) < 1:
            raise ValueError("scale must be a positive integer")
        self.exponent = int(exponent)
        self.scale = int(scale)

    def table(self, n: int) -> np.ndarray:
        values = [self.scale * d**self.exponent for d in range(n)]
        return _validate_table(np.array(values, dtype=np.int64))

    @property
    def spec(self) -> dict[str, Any]:
        return {
            "model": "convex",
            "exponent": self.exponent,
            "scale": self.scale,
        }


class MaxCost(CostModel):
    """The eccentricity objective: ``cost(u) = alpha*deg(u) +
    max_v W[u, v] * d(u, v)`` (``f`` is the identity, max aggregate)."""

    kind = "max"
    aggregate = "max"

    def table(self, n: int) -> np.ndarray:
        return _validate_table(np.arange(n, dtype=np.int64))

    @property
    def spec(self) -> dict[str, Any]:
        return {"model": "max"}


class TableCost(CostModel):
    """An explicit ``f`` table — any monotone integer values with
    ``f(0) = 0``; must cover every distance ``0..n-1`` of the game it is
    used in."""

    kind = "table"

    def __init__(self, values: Sequence[int]):
        self.values = _validate_table(np.array(list(values), dtype=np.int64))

    def table(self, n: int) -> np.ndarray:
        if self.values.size < n:
            raise ValueError(
                f"cost table covers distances 0..{self.values.size - 1}, "
                f"the game needs 0..{n - 1}"
            )
        table = self.values[:n].copy()
        table.setflags(write=False)
        return table

    @property
    def spec(self) -> dict[str, Any]:
        return {"model": "table", "values": [int(v) for v in self.values]}


class ModelOps:
    """Vectorised model-value arithmetic bound to one game size.

    The one object the engine binding, the speculative kernel and the
    vectorised checkers share: ``apply_f`` maps a distance array through
    the table (sentinel entries — ``d >= n``, exact because real
    distances are at most ``n - 1`` and the distance sentinel is at
    least ``n`` — map to the value sentinel ``F``), and the ``*_value``
    helpers aggregate per-agent rows under the model's demand weighting.
    ``weights is None`` means uniform demand (all off-diagonal 1; the
    diagonal contributes ``f(0) = 0`` either way); otherwise it is an
    int64 ``(n, n)`` demand matrix.  Weighted-linear states bind the
    identity table with the distance sentinel ``M`` as the value
    sentinel, so ``apply_f`` is the identity on every engine entry.
    """

    __slots__ = ("n", "table", "unreachable_value", "weights", "aggregate")

    def __init__(
        self,
        n: int,
        table: np.ndarray,
        unreachable_value: int,
        weights: np.ndarray | None = None,
        aggregate: str = "sum",
    ):
        if aggregate not in ("sum", "max"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        self.n = int(n)
        self.table = _validate_table(table)
        if self.table.size != self.n:
            raise ValueError("the cost table must cover exactly 0..n-1")
        self.unreachable_value = int(unreachable_value)
        if self.unreachable_value <= int(self.table[-1]):
            raise ValueError(
                "the value sentinel must exceed every real table value"
            )
        if weights is not None:
            weights = np.asarray(weights)
            if weights.shape != (self.n, self.n):
                raise ValueError(
                    f"demand matrix shape {weights.shape} does not match "
                    f"n={self.n}"
                )
            if weights.dtype != np.int64:
                raise ValueError(
                    "demand matrix must be int64 (exact arithmetic)"
                )
        self.weights = weights
        self.aggregate = aggregate

    def apply_f(self, dist: np.ndarray) -> np.ndarray:
        """``f`` over a distance array; sentinel distances map to ``F``."""
        dist = np.asarray(dist)
        values = self.table[np.minimum(dist, self.n - 1)]
        sentinel = dist >= self.n
        if sentinel.any():
            values[sentinel] = self.unreachable_value
        return values

    def row_value(self, agent: int, row: np.ndarray) -> int:
        """The model value of one distance row owned by ``agent``."""
        values = self.apply_f(row)
        if self.weights is not None:
            values = self.weights[agent] * values
        if self.aggregate == "max":
            return int(values.max())
        return int(values.sum())

    def rows_value(self, agent: int, rows: np.ndarray) -> np.ndarray:
        """Per-row model values of a ``(k, n)`` row stack, all owned by
        ``agent`` (the swap searchers' candidate batches)."""
        values = self.apply_f(rows)
        if self.weights is not None:
            values = values * self.weights[agent]
        if self.aggregate == "max":
            return values.max(axis=1)
        return values.sum(axis=1)

    def rows_value_owned(
        self, owners: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Per-row model values of a ``(k, n)`` row stack where row ``i``
        is owned by agent ``owners[i]`` (the batch kernel's candidate
        blocks — owners are arbitrary, possibly repeated, agents)."""
        values = self.apply_f(rows)
        if self.weights is not None:
            values = values * self.weights[owners]
        if self.aggregate == "max":
            return values.max(axis=1)
        return values.sum(axis=1)

    def rows_value_per_owner(self, rows: np.ndarray) -> np.ndarray:
        """Per-row model values where row ``i`` is owned by agent ``i``
        (full ``(n, n)`` stacks — e.g. a distance matrix)."""
        values = self.apply_f(rows)
        if self.weights is not None:
            values = values * self.weights
        if self.aggregate == "max":
            return values.max(axis=1)
        return values.sum(axis=1)

    def totals(self, matrix: np.ndarray) -> np.ndarray:
        """Naive from-scratch per-agent totals of a distance matrix —
        the reference the engine's incremental ``ftotals()`` is
        cross-validated against."""
        return self.rows_value_per_owner(matrix)

    def floors(self) -> np.ndarray:
        """Per-agent lower bound on the model value in *any* graph.

        Every off-diagonal destination sits at distance at least 1, so a
        sum aggregate can never drop below ``mass * f(1)`` and a max
        aggregate never below ``max_v W[u, v] * f(1)`` (both achieved on
        a star) — the generalized ``dist_floor`` behind the searchers'
        size pruning, sound because ``f`` is monotone.
        """
        f1 = int(self.table[1]) if self.n >= 2 else 0
        if self.aggregate == "max":
            if self.weights is None:
                per = np.full(
                    self.n, f1 if self.n >= 2 else 0, dtype=np.int64
                )
            else:
                per = self.weights.max(axis=1) * f1
        else:
            if self.weights is None:
                per = np.full(self.n, (self.n - 1) * f1, dtype=np.int64)
            else:
                per = self.weights.sum(axis=1) * f1
        return per


def costmodel_from_spec(
    spec: Mapping[str, Any] | None, n: int
) -> CostModel | None:
    """Build a :class:`CostModel` from its JSON-able ``spec`` dict.

    The inverse of :attr:`CostModel.spec`, mirroring
    :func:`repro.core.traffic.traffic_from_spec`: a campaign trial's
    ``costmodel`` parameter is the spec dict, so the regime is a pure
    function of the trial's content-addressed identity.  ``None`` passes
    through (the unmodeled linear game); ``n`` early-validates explicit
    tables.
    """
    if spec is None:
        return None
    if not isinstance(spec, Mapping):
        raise TypeError(f"cost model spec must be a mapping, got {spec!r}")
    payload = dict(spec)
    model = payload.pop("model", None)
    if model == "linear":
        _expect_keys(payload, set())
        return LinearCost()
    if model == "concave":
        _expect_keys(payload, {"exponent", "scale"})
        return ConcaveCost(
            exponent=payload.get("exponent", Fraction(1, 2)),
            scale=payload.get("scale", 1),
        )
    if model == "convex":
        _expect_keys(payload, {"exponent", "scale"})
        return ConvexCost(
            exponent=payload.get("exponent", 2),
            scale=payload.get("scale", 1),
        )
    if model == "max":
        _expect_keys(payload, set())
        return MaxCost()
    if model == "table":
        _expect_keys(payload, {"values"})
        cost = TableCost(payload["values"])
        cost.table(n)  # fail fast if the table is too short for the game
        return cost
    raise ValueError(f"unknown cost model {model!r}")


def _expect_keys(payload: Mapping[str, Any], allowed: set) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown cost model spec fields: {sorted(unknown)}")

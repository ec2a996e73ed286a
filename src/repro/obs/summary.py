"""Trace analysis: rebuild auction economics from a trace alone.

:func:`summarize` reads a ``repro.obs.trace`` JSONL stream (path or
already-loaded records) and reconstructs, without touching any outcome
object, exactly what the paper's evaluation plots per round: social cost
(Σ winning original prices, in selection order), total payment, and the
per-buyer coverage.  The reconstruction is cross-checkable against the
live result — the golden-trace regression suite asserts
``summarize(trace).social_cost == outcome.social_cost`` *bit-for-bit*
for both engines, which pins the trace schema to the mechanism's actual
accounting.

The reader is strict: sequence numbers must increase, spans must nest,
and any summary fields recorded on a ``span_end`` must agree with the
event-level reconstruction.  A trace that fails these checks raises
:class:`~repro.errors.ObservabilityError` — a mismatch means the
instrumentation (or the mechanism) regressed, and hiding it would defeat
the point of the layer.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.obs.tracer import read_trace

__all__ = ["AuctionSummary", "RoundSummary", "TraceSummary", "summarize"]


@dataclass
class _SpanNode:
    """One span while the tree is being rebuilt."""

    span_id: int
    parent: int
    name: str
    fields: dict
    events: list[dict] = field(default_factory=list)
    children: list["_SpanNode"] = field(default_factory=list)
    status: str | None = None
    end_fields: dict = field(default_factory=dict)
    duration_s: float = 0.0


@dataclass(frozen=True)
class AuctionSummary:
    """One single-stage auction reconstructed from its span."""

    span_id: int
    mechanism: str
    engine: str | None
    social_cost: float
    total_payment: float
    winners: tuple[dict, ...]
    coverage: dict[int, int]
    demand: dict[int, int]
    iterations: int

    @property
    def satisfied(self) -> bool:
        """Whether reconstructed coverage meets every buyer's demand."""
        return all(
            self.coverage.get(buyer, 0) >= units
            for buyer, units in self.demand.items()
        )


@dataclass(frozen=True)
class RoundSummary:
    """One MSOA round: its index and the round's effective auction."""

    span_id: int
    round_index: int
    auctions: tuple[AuctionSummary, ...]
    social_cost: float
    total_payment: float


@dataclass(frozen=True)
class TraceSummary:
    """Everything :func:`summarize` can rebuild from one trace."""

    schema_version: int
    auctions: tuple[AuctionSummary, ...]
    rounds: tuple[RoundSummary, ...]
    span_count: int
    truncated: bool

    @property
    def social_cost(self) -> float:
        """Total social cost: Σ per-round costs + Σ standalone auctions.

        Summation mirrors the outcome objects' own associativity —
        per-round sums first, then the horizon sum — so the result is
        bit-for-bit comparable with ``OnlineOutcome.social_cost`` (and
        with ``AuctionOutcome.social_cost`` for a single-auction trace).
        """
        return float(
            sum(r.social_cost for r in self.rounds)
            + sum(a.social_cost for a in self.auctions)
        )

    @property
    def total_payment(self) -> float:
        """Total payments across rounds and standalone auctions."""
        return float(
            sum(r.total_payment for r in self.rounds)
            + sum(a.total_payment for a in self.auctions)
        )


def summarize(source: str | pathlib.Path | list[dict]) -> TraceSummary:
    """Reconstruct per-round economics from a trace (path or records)."""
    records = (
        source if isinstance(source, list) else read_trace(source)
    )
    if not records or records[0].get("kind") != "header":
        raise ObservabilityError("trace does not start with a header record")
    version = int(records[0].get("version", -1))
    roots, span_count, truncated = _build_tree(records[1:])
    rounds: list[RoundSummary] = []
    standalone: list[AuctionSummary] = []
    for node in _walk(roots):
        if node.name == "msoa.round":
            rounds.append(_summarize_round(node))
        elif node.name in _CLEARINGS and not _inside_clearing(node, roots):
            if node.status == "ok":
                standalone.append(_summarize_clearing(node))
    rounds.sort(key=lambda r: r.round_index)
    _check_round_monotonicity(rounds)
    return TraceSummary(
        schema_version=version,
        auctions=tuple(standalone),
        rounds=tuple(rounds),
        span_count=span_count,
        truncated=truncated,
    )


# ----------------------------------------------------------------------
# tree construction and validation
# ----------------------------------------------------------------------
def _build_tree(records: list[dict]) -> tuple[list[_SpanNode], int, bool]:
    roots: list[_SpanNode] = []
    open_stack: list[_SpanNode] = []
    by_id: dict[int, _SpanNode] = {}
    last_seq = 0
    saw_footer = False
    for record in records:
        kind = record.get("kind")
        seq = record.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            raise ObservabilityError(
                f"trace sequence numbers must increase (got {seq!r} after "
                f"{last_seq})"
            )
        last_seq = seq
        if kind == "span_start":
            node = _SpanNode(
                span_id=int(record["id"]),
                parent=int(record.get("parent", 0)),
                name=str(record["name"]),
                fields=dict(record.get("fields", {})),
            )
            expected_parent = open_stack[-1].span_id if open_stack else 0
            if node.parent != expected_parent:
                raise ObservabilityError(
                    f"span {node.span_id} ({node.name!r}) declares parent "
                    f"{node.parent} but span {expected_parent} is open"
                )
            if open_stack:
                open_stack[-1].children.append(node)
            else:
                roots.append(node)
            by_id[node.span_id] = node
            open_stack.append(node)
        elif kind == "span_end":
            span_id = int(record["id"])
            if not open_stack or open_stack[-1].span_id != span_id:
                raise ObservabilityError(
                    f"span_end for {span_id} does not match the innermost "
                    "open span (improper nesting)"
                )
            node = open_stack.pop()
            node.status = str(record.get("status", "ok"))
            node.end_fields = dict(record.get("fields", {}))
            node.duration_s = float(record.get("duration_s", 0.0))
        elif kind == "event":
            target = by_id.get(int(record.get("span", 0)))
            if target is not None:
                target.events.append(record)
        elif kind == "footer":
            saw_footer = True
        else:
            raise ObservabilityError(f"unknown trace record kind {kind!r}")
    # A crashed process can leave spans open and the footer missing; the
    # summary flags it instead of failing, so partial traces stay usable.
    truncated = bool(open_stack) or not saw_footer
    return roots, len(by_id), truncated


def _walk(roots: list[_SpanNode]):
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


# Spans that clear one market: an SSAM run, or a sharded round's merge
# of per-shard auctions plus the reconciliation (``sharded-auction``).
_CLEARINGS = ("auction", "sharded-auction")


def _inside_clearing(node: _SpanNode, roots: list[_SpanNode]) -> bool:
    """Whether ``node`` is part of an MSOA round or a sharded merge."""
    parents = {}
    for root in roots:
        for parent in _walk([root]):
            for child in parent.children:
                parents[child.span_id] = parent
    current = parents.get(node.span_id)
    while current is not None:
        if current.name in ("msoa.round", "sharded-auction"):
            return True
        current = parents.get(current.span_id)
    return False


def _check_round_monotonicity(rounds: list[RoundSummary]) -> None:
    indices = [r.round_index for r in rounds]
    if indices != sorted(set(indices)):
        raise ObservabilityError(
            f"round indices are not strictly increasing: {indices}"
        )


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
def _summarize_clearing(node: _SpanNode) -> AuctionSummary:
    """An ``auction`` span, or a ``sharded-auction`` as the merged
    auction: its ``ok`` parts' winners concatenated in trace order,
    which is the merge's order (shards in order, then reconciliation)."""
    if node.name == "auction":
        return _summarize_auction(node)
    winners = [
        winner
        for part in node.children
        if part.name == "auction" and part.status == "ok"
        for winner in _summarize_auction(part).winners
    ]
    return _summarize_auction(node, winners=tuple(winners))


def _summarize_auction(
    node: _SpanNode, winners: tuple[dict, ...] | None = None
) -> AuctionSummary:
    """``node``'s economics from its ``winner`` events, or from
    ``winners`` (a sharded merge's parts) when given."""
    if winners is None:
        winners = tuple(
            dict(event.get("fields", {}))
            for event in node.events
            if event.get("name") == "winner"
        )
    # Selection order is event order; summing in it reproduces the
    # outcome object's own left fold exactly.
    social_cost = float(sum(w["original_price"] for w in winners))
    total_payment = float(sum(w["payment"] for w in winners))
    demand = {
        int(buyer): int(units)
        for buyer, units in node.fields.get("demand", {}).items()
    }
    coverage = {buyer: 0 for buyer in demand}
    for winner in winners:
        for buyer in winner.get("covered", ()):
            if buyer in coverage:
                coverage[buyer] += 1
    recorded = node.end_fields.get("social_cost")
    if recorded is not None and recorded != social_cost:
        raise ObservabilityError(
            f"span {node.span_id}: recorded social cost {recorded!r} "
            f"disagrees with the winner-event reconstruction {social_cost!r}"
        )
    recorded_payment = node.end_fields.get("total_payment")
    if recorded_payment is not None and recorded_payment != total_payment:
        raise ObservabilityError(
            f"span {node.span_id}: recorded total payment "
            f"{recorded_payment!r} disagrees with the reconstruction "
            f"{total_payment!r}"
        )
    return AuctionSummary(
        span_id=node.span_id,
        mechanism=str(node.fields.get("mechanism", "unknown")),
        engine=node.fields.get("engine"),
        social_cost=social_cost,
        total_payment=total_payment,
        winners=winners,
        coverage=coverage,
        demand=demand,
        iterations=int(node.end_fields.get("iterations", len(winners))),
    )


def _summarize_round(node: _SpanNode) -> RoundSummary:
    auctions = tuple(
        _summarize_clearing(child)
        for child in node.children
        if child.name in _CLEARINGS and child.status == "ok"
    )
    # Infeasible attempts (status "error") precede the round's effective
    # auction; the last completed one is what the round committed to.
    effective = auctions[-1] if auctions else None
    return RoundSummary(
        span_id=node.span_id,
        round_index=int(node.fields.get("round_index", -1)),
        auctions=auctions,
        social_cost=effective.social_cost if effective else 0.0,
        total_payment=effective.total_payment if effective else 0.0,
    )

"""The fast-path auction engine: incremental greedy + parallel payments.

The reference implementation in :mod:`repro.core.ssam` recomputes every
candidate's average-price ratio and rebuilds the stranding guard's
buyer→suppliers map from scratch on every greedy iteration — an O(n·m)
scan nested inside an O(n) loop — and the exact critical-value payment
rule replays that loop once per winner.  On the paper's Figure-4(b)
instances this O(n²m) payment phase dominates the runtime.

This module provides a drop-in fast path with *bit-identical* results:

* :func:`fast_greedy_selection` — the same greedy, driven by the
  incremental :class:`~repro.core.wsp.ActiveBidIndex` bookkeeping and a
  lazy-invalidation heap.  Marginal utilities only ever decrease, so a
  popped heap entry whose recorded utility still matches the index is
  guaranteed to be the true minimum under the reference ordering
  (ratio, price, seller, index); stale entries are refreshed and
  re-queued.  Ties are impossible beyond the key itself because
  ``(seller, index)`` is unique, so the selection sequence — and with it
  winners, payments, and dual certificates — matches the reference loop
  exactly.  The equivalence is pinned by the property tests in
  ``tests/properties/test_engine_equivalence.py``.
* :func:`fast_critical_payment` — the critical-value replay on the same
  incremental machinery.
* :func:`compute_critical_payments` — the per-winner replays are
  independent, so they fan out over a process pool (``parallelism``
  workers; forked on POSIX), falling back to serial execution where a
  pool cannot be used.

Use :func:`repro.api.run_ssam` (``engine="fast"`` is the default) rather
than calling these directly.
"""

from __future__ import annotations

import heapq
import math
import os
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor

from repro.core.bids import Bid
from repro.core.ssam import (
    GreedyStep,
    _residual_feasible,
    _selection_key,
)
from repro.core.wsp import ActiveBidIndex, CoverageState
from repro.errors import ConfigurationError, InfeasibleInstanceError
from repro.obs.profiler import profiled
from repro.obs.runtime import STATE as _OBS

__all__ = [
    "fast_greedy_selection",
    "fast_critical_payment",
    "compute_critical_payments",
    "resolve_parallelism",
    "validate_parallelism",
    "AUTO_PARALLELISM_THRESHOLD",
    "MAX_AUTO_WORKERS",
]

_SelectionKey = tuple[float, float, int, int]
_HeapEntry = tuple[_SelectionKey, int, int]  # (key, bid_id, utility at push)


def _build_heap(index: ActiveBidIndex) -> list[_HeapEntry]:
    entries: list[_HeapEntry] = []
    for bid_id in index.active_bid_ids():
        utility = index.utility(bid_id)
        if utility > 0:
            bid = index.bids[bid_id]
            entries.append(
                (_selection_key(bid.price / utility, bid), bid_id, utility)
            )
    heapq.heapify(entries)
    return entries


def _pop_fresh(
    heap: list[_HeapEntry], index: ActiveBidIndex
) -> _HeapEntry | None:
    """Pop the candidate with the smallest *current* selection key.

    Entries are pushed with the utility they were keyed at; utilities only
    decrease (ratios only increase), so a popped entry that still matches
    the index is the true minimum, and a stale one is refreshed in place.
    """
    while heap:
        key, bid_id, pushed_utility = heapq.heappop(heap)
        if _OBS.enabled:
            _OBS.metrics.counter("engine.heap_pops").inc()
        if not index.active[bid_id]:
            continue
        utility = index.utility(bid_id)
        if utility != pushed_utility:
            if utility > 0:
                bid = index.bids[bid_id]
                heapq.heappush(
                    heap,
                    (_selection_key(bid.price / utility, bid), bid_id, utility),
                )
            continue
        return key, bid_id, pushed_utility
    return None


def _peek_fresh_key(
    heap: list[_HeapEntry], index: ActiveBidIndex
) -> _SelectionKey | None:
    """The smallest current selection key without consuming the entry."""
    while heap:
        key, bid_id, pushed_utility = heap[0]
        if not index.active[bid_id]:
            heapq.heappop(heap)
            continue
        utility = index.utility(bid_id)
        if utility != pushed_utility:
            heapq.heappop(heap)
            if utility > 0:
                bid = index.bids[bid_id]
                heapq.heappush(
                    heap,
                    (_selection_key(bid.price / utility, bid), bid_id, utility),
                )
            continue
        return key
    return None


def _select_candidate(
    heap: list[_HeapEntry],
    index: ActiveBidIndex,
    *,
    guard_feasibility: bool,
    exact_guard: bool,
) -> tuple[_HeapEntry, _SelectionKey | None] | None:
    """One iteration's choice: the guarded winner and the runner-up key.

    Mirrors the reference loop exactly: candidates are examined in
    ascending key order; guard-stranding ones are passed over; if none is
    safe the overall best is chosen anyway; the runner-up is the next
    candidate *after* the chosen position in the full ordering.
    """
    deferred: list[_HeapEntry] = []
    winner: _HeapEntry | None = None
    while True:
        entry = _pop_fresh(heap, index)
        if entry is None:
            break
        if guard_feasibility and not _passes_guard(
            entry[1], index, exact_guard=exact_guard
        ):
            deferred.append(entry)
            continue
        winner = entry
        break
    if winner is None:
        if not deferred:
            return None
        # No candidate was guard-safe: waive the guard for the iteration
        # (paper-literal behaviour) and take the overall best.
        winner = deferred.pop(0)
        runner_key = deferred[0][0] if deferred else _peek_fresh_key(heap, index)
    else:
        runner_key = _peek_fresh_key(heap, index)
    for entry in deferred:
        heapq.heappush(heap, entry)
    return winner, runner_key


def _passes_guard(
    bid_id: int, index: ActiveBidIndex, *, exact_guard: bool
) -> bool:
    if index.would_strand(bid_id):
        return False
    if exact_guard:
        active = [index.bids[i] for i in index.active_bid_ids()]
        if not _residual_feasible(index.bids[bid_id], active, index.coverage):
            return False
    return True


@profiled("ssam.selection")
def fast_greedy_selection(
    bids: Sequence[Bid],
    demand: Mapping[int, int],
    *,
    require_feasible: bool = True,
    guard_feasibility: bool = True,
    exact_guard: bool = False,
) -> list[GreedyStep]:
    """Incremental-bookkeeping twin of :func:`repro.core.ssam.greedy_selection`.

    Same contract, same trace, same exceptions; only the per-iteration cost
    changes — from rescanning all active bids to touching the bids whose
    utilities actually moved.
    """
    with _OBS.tracer.span("bid-indexing", bids=len(bids)):
        coverage = CoverageState(demand=demand)
        index = ActiveBidIndex(bids, coverage)
        heap = _build_heap(index)
    steps: list[GreedyStep] = []
    iteration = 0
    while not coverage.satisfied:
        selection = _select_candidate(
            heap,
            index,
            guard_feasibility=guard_feasibility,
            exact_guard=exact_guard,
        )
        if selection is None:
            if require_feasible:
                raise InfeasibleInstanceError(
                    f"{coverage.unmet} demand units cannot be covered by the "
                    "remaining bids"
                )
            break
        (key, bid_id, utility), runner_key = selection
        winner = index.bids[bid_id]
        steps.append(
            GreedyStep(
                iteration=iteration,
                bid=winner,
                utility=utility,
                ratio=key[0],
                runner_up_ratio=runner_key[0] if runner_key is not None else None,
                coverage_before=dict(coverage.granted),
            )
        )
        index.apply_win(bid_id)
        index.remove_seller(winner.seller)
        iteration += 1
    return steps


def fast_critical_payment(
    instance,
    winner: Bid,
    *,
    exact_guard: bool = False,
    guard_feasibility: bool = True,
) -> float:
    """Incremental twin of :func:`repro.core.ssam._critical_payment`.

    Replays the greedy with the winner present but priced at +∞ on the
    incremental index and tracks the supremum price at which the winner
    would have displaced a replay selection (ceiling-capped when the
    winner is pivotal).
    """
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    infinite = winner.with_price(math.inf)
    bids = [infinite if b.key == winner.key else b for b in instance.bids]
    winner_id = next(i for i, b in enumerate(bids) if b.key == winner.key)
    coverage = CoverageState(demand=demand)
    index = ActiveBidIndex(bids, coverage)
    heap = _build_heap(index)
    ceiling = instance.effective_ceiling
    threshold = 0.0
    while not coverage.satisfied:
        selection = _select_candidate(
            heap,
            index,
            guard_feasibility=guard_feasibility,
            exact_guard=exact_guard,
        )
        winner_utility = (
            index.utility(winner_id) if index.active[winner_id] else 0
        )
        if selection is None:
            # Replay stuck with demand left over: if the winner could
            # still contribute it is pivotal and ceiling-capped.
            if winner_utility > 0:
                threshold = max(threshold, winner_utility * ceiling)
            break
        (key, chosen_id, _), _ = selection
        chosen = index.bids[chosen_id]
        if chosen_id == winner_id:
            # Only the winner serves the remaining demand: pivotal.
            if winner_utility > 0:
                threshold = max(threshold, winner_utility * ceiling)
            break
        winner_safe = not guard_feasibility or not index.would_strand(winner_id)
        if winner_safe and guard_feasibility and exact_guard:
            active = [index.bids[i] for i in index.active_bid_ids()]
            winner_safe = _residual_feasible(infinite, active, coverage)
        if winner_utility > 0 and winner_safe:
            threshold = max(threshold, winner_utility * key[0])
        index.apply_win(chosen_id)
        if chosen.seller == winner.seller:
            # A sibling bid of the winner's seller won: the winner is out
            # of the market from here on.
            break
        index.remove_seller(chosen.seller)
    return threshold


# ----------------------------------------------------------------------
# parallel critical payments
# ----------------------------------------------------------------------
# Per-winner replays are independent, so they fan out over a process pool.
# The instance is shipped once per worker through the pool initializer
# (with the default POSIX fork start method it is inherited for free).

_WORKER_CONTEXT: tuple | None = None


def _payment_worker_init(context: tuple) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _payment_worker(winner: Bid) -> float:
    instance, exact_guard, guard_feasibility, use_fast = _WORKER_CONTEXT
    if use_fast:
        return fast_critical_payment(
            instance,
            winner,
            exact_guard=exact_guard,
            guard_feasibility=guard_feasibility,
        )
    from repro.core.ssam import _critical_payment

    return _critical_payment(
        instance,
        winner,
        exact_guard=exact_guard,
        guard_feasibility=guard_feasibility,
    )


AUTO_PARALLELISM_THRESHOLD = 24_000
"""Minimum ``n_bids × n_winners`` work units before ``"auto"`` forks.

Calibrated against ``BENCH_engine.json``: the Figure-4(b) cases (≤150
bids, work units in the hundreds-to-thousands) run 0.08–0.21× under a
pool — process startup swamps the replays.  On ``stress_large_n`` (800
bids, ≈10⁵ work units) the pool is >10× faster than the *reference*
engine but still loses to serial ``fast``: 542 ms against 305 ms.  No
committed case has the pool beating serial execution; the threshold
only keeps it off the cases where it loses worst.
"""

MAX_AUTO_WORKERS = 8
"""Ceiling on pool size under ``"auto"`` (payment replays saturate the
memory bus before they saturate a big machine's core count)."""


def validate_parallelism(parallelism) -> None:
    """Fail fast on a bad ``parallelism`` value (``"auto"`` or int ≥ 1)."""
    if parallelism == "auto":
        return
    if isinstance(parallelism, bool) or not isinstance(parallelism, int):
        raise ConfigurationError(
            f"parallelism must be 'auto' or a positive integer, "
            f"got {parallelism!r}"
        )
    if parallelism < 1:
        raise ConfigurationError(
            f"parallelism must be 'auto' or a positive integer, "
            f"got {parallelism}"
        )


def resolve_parallelism(parallelism, *, n_bids: int, n_winners: int) -> int:
    """Turn a ``parallelism`` request into a concrete worker count.

    Explicit integers are honoured as before (the caller opted in or out
    of the pool deliberately).  ``"auto"`` — the default everywhere since
    the serving redesign — picks serial execution whenever the payment
    phase is too small to amortize pool startup, measured in
    ``n_bids × n_winners`` work units (each of the ``n_winners`` critical
    replays rescans up to ``n_bids`` bids), and otherwise caps the pool
    at :data:`MAX_AUTO_WORKERS`, the machine's core count, and the number
    of replays.
    """
    validate_parallelism(parallelism)
    if parallelism != "auto":
        return int(parallelism)
    if n_winners < 2:
        return 1
    if n_bids * n_winners < AUTO_PARALLELISM_THRESHOLD:
        return 1
    return max(2, min(os.cpu_count() or 1, MAX_AUTO_WORKERS, n_winners))


@profiled("ssam.payments")
def compute_critical_payments(
    instance,
    winners: Sequence[Bid],
    *,
    exact_guard: bool = False,
    guard_feasibility: bool = True,
    parallelism: int | str = "auto",
    use_fast: bool = True,
    engine: str | None = None,
    columnar=None,
    trajectory=None,
) -> list[float]:
    """Critical values for every winner, optionally in parallel.

    ``parallelism`` caps the worker count: an explicit integer is used
    as-is (1 = serial), while ``"auto"`` (the default) sizes the pool
    from the instance via :func:`resolve_parallelism`.  The pool path
    preserves winner order; any environment where a process pool cannot
    be created degrades gracefully to the serial path.

    ``engine="columnar"`` dispatches to the batched
    :func:`repro.core.columnar.columnar_critical_payments` kernel
    instead, which shares the greedy prefix across all winners in one
    serial pass (``parallelism`` is ignored there — the batching already
    removes the per-winner replays a pool would distribute).  Pass the
    prebuilt ``columnar`` layout and the main run's ``trajectory``
    (its :class:`~repro.core.ssam.GreedyStep` list) to skip redundant
    rebuild/re-selection work; both default to being derived on demand.
    When ``engine`` is ``None`` (default), ``use_fast`` selects between
    the fast and reference scalar replays as before.
    """
    if engine == "columnar":
        from repro.core.columnar import columnar_critical_payments

        return columnar_critical_payments(
            instance,
            winners,
            exact_guard=exact_guard,
            guard_feasibility=guard_feasibility,
            columnar=columnar,
            trajectory=trajectory,
        )
    workers = min(
        resolve_parallelism(
            parallelism,
            n_bids=len(instance.bids),
            n_winners=len(winners),
        ),
        len(winners),
    )
    if workers > 1:
        context = (instance, exact_guard, guard_feasibility, use_fast)
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_payment_worker_init,
                initargs=(context,),
            ) as pool:
                return list(pool.map(_payment_worker, winners, chunksize=4))
        except (OSError, RuntimeError, ValueError):
            pass  # sandboxed / no-fork environments: fall through to serial
    if use_fast:
        return [
            fast_critical_payment(
                instance,
                winner,
                exact_guard=exact_guard,
                guard_feasibility=guard_feasibility,
            )
            for winner in winners
        ]
    from repro.core.ssam import _critical_payment

    return [
        _critical_payment(
            instance,
            winner,
            exact_guard=exact_guard,
            guard_feasibility=guard_feasibility,
        )
        for winner in winners
    ]

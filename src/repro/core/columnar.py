"""Columnar numerical core: the production engine on numpy arrays.

The reference loops of :mod:`repro.core.ssam` rescan every active bid
on every greedy iteration and replay the whole greedy once per winner
to price it, walking Python objects throughout.  This module rebuilds
the greedy machinery on flat numpy arrays:

* :class:`ColumnarInstance` — the immutable *structure* of a market:
  price/seller/index columns, a CSR-style bid→buyer incidence (plus a
  dense bid×buyer mask), per-seller bid groupings,
  and a seller×buyer coverage matrix for the stranding guard.  Built
  once from ``(bids, demand)``; re-pricing (MSOA's ψ-scaled rounds)
  shares every structural array via :meth:`ColumnarInstance.with_bids`.
* :class:`ColumnarState` — the mutable per-run arrays (granted units,
  active mask, marginal utilities, supplier counts).  ``fork()`` is a
  handful of ``ndarray.copy()`` calls, which is what makes the batched
  payment kernel cheap.
* :func:`columnar_greedy_selection` — the greedy selection loop as
  vectorized candidate scans.  Each iteration takes the head of the
  exact reference order ``(ratio, price, seller, index)`` from a
  ``min`` over the ratios (:func:`_head_candidate`, ``lexsort``-ing
  only the rows tied on it) and the runner-up as the second order
  statistic; the full ``lexsort`` and ordered guard walk run only when
  that head would strand a buyer or the exact guard is on.
* :func:`columnar_critical_payments` — a batched critical-value kernel.
  For a winner chosen at main-run iteration ``k``, the +∞-replay of
  :func:`repro.core.ssam._critical_payment` provably follows the main
  trajectory for every iteration before ``k`` (the stranding guard is
  price-independent, and an ∞-priced bid sorts last so it is never
  preferred while its real-priced twin was still losing).  The kernel
  therefore walks the main trajectory *once*, accumulating every
  pending winner's threshold per iteration, and forks a state copy at
  each winner's own divergence point, collecting the forks in chunks.
* :func:`_lockstep_replays` — a chunk's suffixes advanced side by side
  on R × bids arrays; a replay whose head is not finite or would strand
  a buyer leaves the chunk for :func:`_suffix_replay`.
* :func:`_suffix_replay` — one winner's private suffix, cut to the
  steps that can still move its threshold; the fallback and in-module
  oracle of the lockstep path.  It stops as soon as the
  winner's marginal utility reaches 0: utilities only fall and sellers
  never re-enter, so no later step can raise the threshold (every
  update, the ceiling-capped terminal cases included, needs a positive
  utility).  Each step takes its head as the selection loop does.

Bit-identical outcomes to the ``reference`` engine are the
contract (IEEE-754 division of the same operands, the same lexicographic
candidate order, the same guard walk), pinned by
``tests/properties/test_columnar_equivalence.py``.

The layout targets the paper's regime — buyers (edge cloudlets) number
in the tens while bids number in the thousands-to-hundreds-of-thousands
— so dense ``n_bids × n_buyers`` and ``n_sellers × n_buyers`` masks are
deliberately used for the guard probes; memory is linear in ``n·B``.

Use :func:`repro.core.ssam.run_ssam` (``engine="columnar"`` is its
default) rather than calling these directly.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.bids import Bid
from repro.core.ssam import GreedyStep, _residual_feasible
from repro.core.wsp import CoverageState
from repro.errors import InfeasibleInstanceError
from repro.obs.profiler import profiled
from repro.obs.runtime import STATE as _OBS

__all__ = [
    "ColumnarInstance",
    "ColumnarState",
    "columnar_greedy_selection",
    "columnar_critical_payments",
]


class ColumnarInstance:
    """Immutable columnar view of one winner-selection problem.

    All arrays are index-aligned with ``bids`` (rows) and the demand
    map's key order (buyer columns).  Structural arrays are shared, not
    copied, across re-pricings (:meth:`with_bids`).
    """

    __slots__ = (
        "bids",
        "demand_map",
        "buyers",
        "demand",
        "prices",
        "seller_ids",
        "bid_indices",
        "seller_rows",
        "sellers",
        "cover",
        "cover_indptr",
        "cover_cols",
        "seller_bid_rows",
        "seller_cov",
        "initial_utilities",
        "initial_suppliers",
        "row_of",
    )

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    @classmethod
    @profiled("columnar.build")
    def build(
        cls, bids: Sequence[Bid], demand: Mapping[int, int]
    ) -> "ColumnarInstance":
        """Construct the columnar layout from a bid list and demand map."""
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.builds").inc()
        bids = tuple(bids)
        n = len(bids)
        buyers = [int(b) for b in demand]
        buyer_pos = {buyer: j for j, buyer in enumerate(buyers)}
        n_buyers = len(buyers)
        demand_arr = np.fromiter(
            (demand[b] for b in buyers), dtype=np.int64, count=n_buyers
        )
        prices = np.fromiter(
            (b.price for b in bids), dtype=np.float64, count=n
        )
        seller_ids = np.fromiter(
            (b.seller for b in bids), dtype=np.int64, count=n
        )
        bid_indices = np.fromiter(
            (b.index for b in bids), dtype=np.int64, count=n
        )
        sellers, seller_rows = np.unique(seller_ids, return_inverse=True)
        seller_rows = seller_rows.astype(np.int64)
        n_sellers = sellers.size

        cover_indptr = np.zeros(n + 1, dtype=np.int64)
        cols_per_bid: list[list[int]] = []
        for i, bid in enumerate(bids):
            cols = sorted(
                buyer_pos[b] for b in bid.covered if b in buyer_pos
            )
            cols_per_bid.append(cols)
            cover_indptr[i + 1] = cover_indptr[i] + len(cols)
        cover_cols = np.fromiter(
            (c for cols in cols_per_bid for c in cols),
            dtype=np.int64,
            count=int(cover_indptr[-1]),
        )
        cover = np.zeros((n, n_buyers), dtype=bool)
        rows_rep = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(cover_indptr)
        )
        cover[rows_rep, cover_cols] = True

        seller_bid_rows: list[np.ndarray] = [
            np.flatnonzero(seller_rows == s) for s in range(n_sellers)
        ]
        seller_cov = np.zeros((n_sellers, n_buyers), dtype=bool)
        np.logical_or.at(seller_cov, seller_rows, cover)

        positive = demand_arr > 0
        initial_utilities = (cover & positive[None, :]).sum(
            axis=1, dtype=np.int64
        )
        initial_suppliers = seller_cov.sum(axis=0, dtype=np.int64)

        return cls(
            bids=bids,
            demand_map=dict(demand),
            buyers=buyers,
            demand=demand_arr,
            prices=prices,
            seller_ids=seller_ids,
            bid_indices=bid_indices,
            seller_rows=seller_rows,
            sellers=sellers,
            cover=cover,
            cover_indptr=cover_indptr,
            cover_cols=cover_cols,
            seller_bid_rows=seller_bid_rows,
            seller_cov=seller_cov,
            initial_utilities=initial_utilities,
            initial_suppliers=initial_suppliers,
            row_of={bid.key: i for i, bid in enumerate(bids)},
        )

    @property
    def n_bids(self) -> int:
        return len(self.bids)

    @property
    def n_buyers(self) -> int:
        return len(self.buyers)

    def with_bids(
        self, bids: Sequence[Bid], prices: np.ndarray
    ) -> "ColumnarInstance":
        """Re-price the instance, sharing every structural array.

        ``bids`` (MSOA passes its lazy :class:`~repro.core.outcomes.
        ScaledBids` view) and the ``prices`` column must be structurally
        identical to the originals (same sellers, indices, and coverage
        sets, in the same order, under the same demand) — only prices
        may differ.  This is the MSOA round-to-round refresh: a new
        ψ-scaled price column, no structural or per-bid work.  The
        caller guarantees the match (MSOA's bid frame re-prices only
        while the round's bids, exclusions and demand repeat); only
        lengths are checked here.
        """
        for name, size in (("bids", len(bids)), ("prices", len(prices))):
            if size != self.n_bids:
                raise ValueError(
                    f"with_bids: expected {self.n_bids} {name}, got {size}"
                )
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.price_refreshes").inc()
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields["bids"] = bids
        fields["prices"] = np.asarray(prices, dtype=np.float64)
        return ColumnarInstance(**fields)

    def price_spread(self) -> float:
        """Theorem 3's ``Ξ`` from the price column grouped by seller row:
        exactly :func:`repro.core.ratios.price_spread` of :attr:`bids`
        (an all-zero seller skipped, a 0 bottom under a positive top
        ``inf``) without walking the bids."""
        top = np.full(self.sellers.size, -np.inf)
        bottom = np.full(self.sellers.size, np.inf)
        np.maximum.at(top, self.seller_rows, self.prices)
        np.minimum.at(bottom, self.seller_rows, self.prices)
        priced = top != 0
        top, bottom = top[priced], bottom[priced]
        with np.errstate(all="ignore"):  # overflow is ``inf``, as in Python
            spreads = np.where(bottom == 0, np.inf, top / bottom)
        # fmax skips NaN quotients (inf/inf) exactly as ``max`` does.
        return float(np.fmax.reduce(spreads, initial=1.0))

    @profiled("columnar.subset")
    def subset(
        self, rows: Sequence[int], buyers: Sequence[int]
    ) -> "ColumnarInstance":
        """Fork a shard-local layout by slicing this one.

        ``rows`` selects bid rows (ascending, preserving the original
        bid order) and ``buyers`` selects demand-map keys (in this
        instance's buyer order).  The sliced layout is exactly what
        :meth:`build` would produce for the sub-market, but derived with
        vectorized slicing instead of a per-bid Python walk — this is
        the per-round fork the sharded clearing path
        (:mod:`repro.shard`) uses to hand each shard its own columnar
        view of one shared parent build.
        """
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.subsets").inc()
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size > 1 and not np.all(np.diff(rows) > 0):
            raise ValueError("subset: rows must be strictly ascending")
        buyer_pos = {buyer: j for j, buyer in enumerate(self.buyers)}
        try:
            cols = np.fromiter(
                (buyer_pos[int(b)] for b in buyers),
                dtype=np.int64,
                count=len(buyers),
            )
        except KeyError as exc:  # buyer not in the parent demand map
            raise ValueError(f"subset: unknown buyer {exc.args[0]}") from exc
        bids = tuple(self.bids[i] for i in rows)
        n = len(bids)
        n_buyers = cols.size
        demand_arr = self.demand[cols].copy()
        seller_ids = self.seller_ids[rows]
        sellers, seller_rows = np.unique(seller_ids, return_inverse=True)
        seller_rows = seller_rows.astype(np.int64)
        cover = (
            self.cover[np.ix_(rows, cols)]
            if n and n_buyers
            else np.zeros((n, n_buyers), dtype=bool)
        )
        counts = cover.sum(axis=1, dtype=np.int64)
        cover_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=cover_indptr[1:])
        # np.nonzero walks row-major: columns arrive grouped by row in
        # ascending column order — the CSR layout build() produces.
        cover_cols = np.nonzero(cover)[1].astype(np.int64)
        seller_bid_rows = [
            np.flatnonzero(seller_rows == s) for s in range(sellers.size)
        ]
        seller_cov = np.zeros((sellers.size, n_buyers), dtype=bool)
        np.logical_or.at(seller_cov, seller_rows, cover)
        positive = demand_arr > 0
        initial_utilities = (cover & positive[None, :]).sum(
            axis=1, dtype=np.int64
        )
        initial_suppliers = seller_cov.sum(axis=0, dtype=np.int64)
        demand_map = {int(b): int(self.demand_map[int(b)]) for b in buyers}
        return ColumnarInstance(
            bids=bids,
            demand_map=demand_map,
            buyers=[int(b) for b in buyers],
            demand=demand_arr,
            prices=self.prices[rows].copy(),
            seller_ids=seller_ids,
            bid_indices=self.bid_indices[rows],
            seller_rows=seller_rows,
            sellers=sellers,
            cover=cover,
            cover_indptr=cover_indptr,
            cover_cols=cover_cols,
            seller_bid_rows=seller_bid_rows,
            seller_cov=seller_cov,
            initial_utilities=initial_utilities,
            initial_suppliers=initial_suppliers,
            row_of={bid.key: i for i, bid in enumerate(bids)},
        )


class ColumnarState:
    """Mutable greedy-run state over a :class:`ColumnarInstance`.

    Mirrors :class:`~repro.core.wsp.CoverageState` plus the reference
    loop's active-bid rescans exactly: ``granted`` may overshoot demand
    (a winner covers an already-saturated buyer), ``utilities`` only
    ever decrease, sellers leave the market wholesale, and
    ``suppliers`` counts distinct in-market sellers with any bid
    covering the buyer.
    """

    __slots__ = (
        "inst",
        "prices",
        "granted",
        "active",
        "utilities",
        "suppliers",
        "unsat",
        "unmet",
    )

    def __init__(
        self, inst: ColumnarInstance, prices: np.ndarray | None = None
    ) -> None:
        self.inst = inst
        self.prices = inst.prices if prices is None else prices
        self.granted = np.zeros(inst.n_buyers, dtype=np.int64)
        self.active = np.ones(inst.n_bids, dtype=bool)
        self.utilities = inst.initial_utilities.copy()
        self.suppliers = inst.initial_suppliers.copy()
        self.unsat = inst.demand > 0
        self.unmet = int(inst.demand.sum())

    def fork(self) -> "ColumnarState":
        """Independent copy (payment suffix replays mutate it freely)."""
        twin = ColumnarState.__new__(ColumnarState)
        twin.inst = self.inst
        twin.prices = self.prices
        twin.granted = self.granted.copy()
        twin.active = self.active.copy()
        twin.utilities = self.utilities.copy()
        twin.suppliers = self.suppliers.copy()
        twin.unsat = self.unsat.copy()
        twin.unmet = self.unmet
        return twin

    @property
    def satisfied(self) -> bool:
        return self.unmet == 0

    def coverage_before(self) -> dict[int, int]:
        """Granted units per buyer, as the reference engine's dict."""
        return {
            buyer: int(units)
            for buyer, units in zip(self.inst.buyers, self.granted)
        }

    def would_strand(self, row: int) -> bool:
        """Vector twin of :func:`repro.core.ssam._selection_strands`.

        Accepting ``row`` consumes its seller; some unsatisfied buyer is
        stranded iff its residual demand exceeds the count of *other*
        in-market sellers still covering it.  ``need > 0`` implies the
        buyer is unsatisfied (``unsat`` tracks ``granted < demand``).
        """
        inst = self.inst
        need = inst.demand - self.granted - inst.cover[row]
        avail = self.suppliers - inst.seller_cov[inst.seller_rows[row]]
        return bool(((need > 0) & (avail < need)).any())

    def apply_win(self, row: int) -> int:
        """Grant the bid's coverage; propagate utility decrements.

        Returns the marginal units contributed, like
        :meth:`CoverageState.apply` (overshoot grants count zero).
        """
        inst = self.inst
        cols = inst.cover_cols[
            inst.cover_indptr[row] : inst.cover_indptr[row + 1]
        ]
        was_unsat = self.unsat[cols]
        gained = int(was_unsat.sum())
        self.granted[cols] += 1
        newly = cols[was_unsat & (self.granted[cols] >= inst.demand[cols])]
        if newly.size:
            self.unsat[newly] = False
            self.utilities -= inst.cover[:, newly].sum(axis=1)
        self.unmet -= gained
        return gained

    def remove_seller(self, seller_row: int) -> None:
        """Deactivate every bid of the seller; update supplier counts."""
        inst = self.inst
        self.active[inst.seller_bid_rows[seller_row]] = False
        self.suppliers -= inst.seller_cov[seller_row]

    def active_bids(self) -> list[Bid]:
        """The in-market ``Bid`` objects, in submission order."""
        bids = self.inst.bids
        return [bids[i] for i in self.active.nonzero()[0]]

    def coverage_view(self) -> CoverageState:
        """A :class:`CoverageState` snapshot (exact-guard escalations)."""
        return CoverageState(
            demand=self.inst.demand_map, granted=self.coverage_before()
        )


def _ordered_candidates(
    state: ColumnarState,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate rows and their ratios, in exact reference order.

    The reference engine sorts candidates by the tuple
    ``(ratio, price, seller, index)``; ``np.lexsort`` with the primary
    key last reproduces that ordering bit-for-bit (the ratios are the
    same IEEE-754 divisions the reference performs).
    """
    rows = (state.active & (state.utilities > 0)).nonzero()[0]
    if rows.size == 0:
        return rows, np.empty(0, dtype=np.float64)
    inst = state.inst
    prices = state.prices[rows]
    ratios = prices / state.utilities[rows]
    perm = np.lexsort(
        (inst.bid_indices[rows], inst.seller_ids[rows], prices, ratios)
    )
    return rows[perm], ratios[perm]


def _guarded_choice(
    state: ColumnarState,
    order: np.ndarray,
    *,
    exact_guard: bool,
) -> int:
    """Position of the chosen candidate within ``order``.

    Walks candidates in ascending key order, passing over the ones the
    stranding guard (and, when escalated, the exact residual-feasibility
    check) rejects; if none is safe the guard is waived for the
    iteration and the overall best is taken — exactly the reference
    walk.
    """
    for pos in range(order.size):
        row = int(order[pos])
        if state.would_strand(row):
            continue
        if exact_guard and not _residual_feasible(
            state.inst.bids[row], state.active_bids(), state.coverage_view()
        ):
            continue
        return pos
    return 0


@profiled("ssam.selection")
def columnar_greedy_selection(
    bids: Sequence[Bid],
    demand: Mapping[int, int],
    *,
    exact_guard: bool = False,
    columnar: ColumnarInstance | None = None,
) -> list[GreedyStep]:
    """Vectorized twin of :func:`repro.core.ssam.greedy_selection`.

    Same contract, same trace, same exceptions.  Pass a prebuilt
    ``columnar`` instance (for the same bids/demand) to skip the layout
    construction — the MSOA incremental path does.

    Each iteration takes the head of the reference order
    (:func:`_head_candidate`) and, as runner-up, the ratio second in
    that order (:func:`_runner_up_ratio`).  The full ordered guard walk
    runs only when the head would strand a buyer or ``exact_guard`` is
    on; in every other case the walk would pick the head.
    """
    inst = (
        columnar
        if columnar is not None
        else ColumnarInstance.build(bids, demand)
    )
    state = ColumnarState(inst)
    steps: list[GreedyStep] = []
    iteration = 0
    while not state.satisfied:
        rows, ratios, ties = _head_candidate(state)
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.candidates_scanned").inc(
                int(rows.size)
            )
        if rows.size == 0:
            raise InfeasibleInstanceError(
                f"{state.unmet} demand units cannot be covered by the "
                "remaining bids"
            )
        head = int(ties[0])
        row = int(rows[head])
        if exact_guard or state.would_strand(row):
            if _OBS.enabled:
                _OBS.metrics.counter("engine.columnar.selection_walks").inc()
            order, ordered = _ordered_candidates(state)
            pos = _guarded_choice(state, order, exact_guard=exact_guard)
            row, ratio = int(order[pos]), float(ordered[pos])
            runner_up = (
                float(ordered[pos + 1]) if pos + 1 < order.size else None
            )
        else:
            ratio = float(ratios[head])
            runner_up = _runner_up_ratio(ratios, ties)
        steps.append(
            GreedyStep(
                iteration=iteration,
                bid=inst.bids[row],
                utility=int(state.utilities[row]),
                ratio=ratio,
                runner_up_ratio=runner_up,
                coverage_before=state.coverage_before(),
            )
        )
        state.apply_win(row)
        state.remove_seller(int(inst.seller_rows[row]))
        iteration += 1
    return steps


def _head_candidate(
    state: ColumnarState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate rows, their ratios, and the head of the reference order.

    ``ties`` holds the positions (into ``rows``) of the candidates tied
    on the least ratio, in :func:`_ordered_candidates` order, so
    ``rows[ties[0]]`` is that order's first row.  A ``min`` over the
    ratios finds them, and only they are ``lexsort``-ed on the remaining
    key ``(price, seller, index)``.  With no candidate left all three
    arrays are empty; in a payment replay the +∞-priced winner itself
    is a candidate for as long as the replay runs.
    """
    rows = (state.active & (state.utilities > 0)).nonzero()[0]
    ratios = state.prices[rows] / state.utilities[rows]
    if rows.size == 0:
        return rows, ratios, rows
    ties = (ratios == ratios.min()).nonzero()[0]
    if ties.size > 1:
        inst = state.inst
        tied_rows = rows[ties]
        ties = ties[
            np.lexsort(
                (
                    inst.bid_indices[tied_rows],
                    inst.seller_ids[tied_rows],
                    state.prices[tied_rows],
                )
            )
        ]
    return rows, ratios, ties


def _runner_up_ratio(ratios: np.ndarray, ties: np.ndarray) -> float | None:
    """The ratio second in reference order, given the head's ``ties``.

    That is the second order statistic of ``ratios``: the tie's second
    member when two or more rows share the least ratio, ``None`` with a
    single candidate, and otherwise the least ratio of the other rows.
    """
    if ties.size > 1:
        return float(ratios[ties[1]])
    if ratios.size == 1:
        return None
    head = int(ties[0])
    return float(
        min(
            ratios[:head].min(initial=np.inf),
            ratios[head + 1 :].min(initial=np.inf),
        )
    )


def _suffix_replay(
    state: ColumnarState,
    winner_row: int,
    threshold: float,
    *,
    exact_guard: bool,
    ceiling: float,
) -> float:
    """Finish one winner's +∞ critical replay from its divergence point.

    ``state`` is a private fork whose price column already carries +∞
    at ``winner_row``; the loop body is the exact tail of
    :func:`repro.core.ssam._critical_payment`, with two shortcuts that
    cannot change its result:

    * **Zero-utility exit.**  The replay stops as soon as the winner's
      marginal utility is 0.  Granted units only grow and sellers never
      re-enter, so the utility stays 0, and every threshold update —
      the per-step one and the ceiling-capped terminal one — requires
      it to be positive.
    * **Head-candidate fast path.**  The step's choice is the head of
      the reference order (:func:`_head_candidate`) whenever the head
      strands nobody; the full ordered walk
      (:func:`_ordered_candidates` + :func:`_guarded_choice`) runs only
      when the head would strand a buyer or ``exact_guard`` is on.

    A step whose bid ``winner_utility * ratio`` cannot raise the
    threshold also skips the winner's guard probe: ``max`` would keep
    the threshold either way.
    """
    inst = state.inst
    winner_seller = int(inst.seller_rows[winner_row])
    infinite = (
        inst.bids[winner_row].with_price(math.inf) if exact_guard else None
    )
    steps = 0
    while not state.satisfied:
        # The winner stays active until a sibling wins (which breaks
        # below), so while its utility is positive it is a candidate
        # itself and _head_candidate always finds a head.
        winner_utility = int(state.utilities[winner_row])
        if winner_utility <= 0:
            break
        steps += 1
        rows, ratios, ties = _head_candidate(state)
        row, ratio = int(rows[ties[0]]), float(ratios[ties[0]])
        if exact_guard or state.would_strand(row):
            order, ratios = _ordered_candidates(state)
            chosen_pos = _guarded_choice(state, order, exact_guard=exact_guard)
            row, ratio = int(order[chosen_pos]), float(ratios[chosen_pos])
        if row == winner_row:
            threshold = max(threshold, winner_utility * ceiling)
            break
        bid = winner_utility * ratio
        if bid > threshold:
            winner_safe = not state.would_strand(winner_row)
            if winner_safe and exact_guard:
                winner_safe = _residual_feasible(
                    infinite, state.active_bids(), state.coverage_view()
                )
            if winner_safe:
                threshold = bid
        state.apply_win(row)
        if int(inst.seller_rows[row]) == winner_seller:
            break
        state.remove_seller(int(inst.seller_rows[row]))
    if _OBS.enabled:
        _OBS.metrics.counter("engine.columnar.payment_suffix_steps").inc(steps)
    return threshold


# Size rule of the lockstep path: a chunk holds at most
# ``_LOCKSTEP_CELLS // n_bids`` replays, and chunks of fewer than
# ``_LOCKSTEP_MIN`` replays run one by one in ``_suffix_replay`` (few
# replays over many rows lose to the scalar head scan).
_LOCKSTEP_CELLS = 65_536
_LOCKSTEP_MIN = 8


def _strands(need, suppliers, cover_rows, seller_cov_rows) -> np.ndarray:
    """:meth:`ColumnarState.would_strand` for one candidate row per row
    of ``cover_rows``; ``need`` is the residual demand."""
    need = need - cover_rows
    return ((need > 0) & (suppliers - seller_cov_rows < need)).any(axis=1)


def _padded_groups(
    keys: np.ndarray, n_keys: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row ``k``: the positions ``i`` with ``keys[i] == k``, ascending,
    padded by repeating a position; plus the mask of real entries."""
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=n_keys)
    slots = np.arange(max(int(counts.max()), 1))
    last = np.cumsum(counts)[:, None] - 1
    padded = np.minimum(last - counts[:, None] + 1 + slots, last)
    return order[np.maximum(padded, 0)], slots < counts[:, None]


def _lockstep_replays(
    batch: list[tuple[int, float, ColumnarState]],
    *,
    ceiling: float,
) -> list[float]:
    """Critical values of R forked ``(winner_row, threshold, fork)``
    replays, advanced side by side on R × bids arrays.

    Each iteration is one :func:`_suffix_replay` step of every live
    replay.  Bid columns are permuted into ``lexsort`` order of
    ``(price, seller, index)``, so a row's first minimum of prices (+∞
    at the winner and removed bids) over utilities — the reference's
    IEEE-754 quotients — is that replay's reference head.  The +∞
    winner ties only at +∞, so a replay whose head ratio is not finite,
    or whose head would strand a buyer, leaves for
    :func:`_suffix_replay`.  Utilities are float64, exact below 2⁵³.
    Live rows are compacted once half have finished.
    """
    inst = batch[0][2].inst
    perm = np.lexsort((inst.bid_indices, inst.seller_ids, inst.prices))
    col_of = np.empty_like(perm)
    col_of[perm] = np.arange(perm.size)
    cover, sellers = inst.cover[perm], inst.seller_rows[perm]
    seller_cov = inst.seller_cov
    seller_cols, _ = _padded_groups(inst.seller_rows, inst.sellers.size)
    seller_cols = col_of[seller_cols]
    cover_cols, cover_buyers = cover.nonzero()
    buyer_cols, buyer_real = _padded_groups(cover_buyers, inst.n_buyers)
    buyer_cols, buyer_real = cover_cols[buyer_cols], buyer_real.astype(float)
    forks = [fork for _, _, fork in batch]
    winners = np.array([row for row, _, _ in batch], dtype=np.int64)
    ids = here = np.arange(len(batch))
    wcol, wseller = col_of[winners], inst.seller_rows[winners]
    wcover, wseller_cov = cover[wcol], seller_cov[wseller]
    threshold = np.array([t for _, t, _ in batch], dtype=np.float64)
    utilities = np.stack([f.utilities for f in forks])[:, perm].astype(float)
    active = np.stack([f.active for f in forks])[:, perm]
    prices = np.where(active, inst.prices[perm], np.inf)
    prices[ids, wcol] = np.inf
    need = inst.demand - np.stack([f.granted for f in forks])  # unsat: > 0
    suppliers = np.stack([f.suppliers for f in forks])
    unmet = np.array([f.unmet for f in forks], dtype=np.int64)
    live = np.ones(ids.size, dtype=bool)
    resolved = np.empty(ids.size)
    lockstep_steps = suffix_steps = exits = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            winner_utility = utilities[here, wcol]
            live &= (unmet > 0) & (winner_utility > 0)
            if 2 * np.count_nonzero(live) <= ids.size:
                resolved[ids] = threshold
                if not live.any():
                    break
                keep = live.nonzero()[0]
                (ids, wcol, wseller, wcover, wseller_cov, threshold, live,
                 winner_utility, utilities, prices, active, need, suppliers,
                 unmet) = (a[keep] for a in (
                    ids, wcol, wseller, wcover, wseller_cov, threshold, live,
                    winner_utility, utilities, prices, active, need,
                    suppliers, unmet))
                here = np.arange(ids.size)
            ratios = prices / utilities
            head = ratios.argmin(axis=1)
            ratio = ratios[here, head]
            head_seller = sellers[head]
            head_cover, head_seller_cov = cover[head], seller_cov[head_seller]
            leave = live & (
                ~(ratio < np.inf)
                | _strands(need, suppliers, head_cover, head_seller_cov)
            )
            for k in leave.nonzero()[0]:
                fork = forks[ids[k]]  # now carries row k's state
                fork.granted, fork.unsat = inst.demand - need[k], need[k] > 0
                fork.active = active[k, col_of]
                fork.utilities = utilities[k, col_of].astype(np.int64)
                fork.suppliers, fork.unmet = suppliers[k].copy(), int(unmet[k])
                threshold[k] = _suffix_replay(
                    fork,
                    int(winners[ids[k]]),
                    float(threshold[k]),
                    exact_guard=False,
                    ceiling=ceiling,
                )
                exits += 1
            live &= ~leave
            advanced = int(np.count_nonzero(live))
            if not advanced:
                continue
            lockstep_steps += 1
            suffix_steps += advanced
            bid = winner_utility * ratio
            raised = live & (bid > threshold)
            if raised.any():
                raised &= ~_strands(need, suppliers, wcover, wseller_cov)
            threshold = np.where(raised, bid, threshold)
            was_unsat = (need > 0) & head_cover
            need -= head_cover
            unmet -= was_unsat.sum(axis=1)
            # Each newly saturated buyer costs its covering bids a unit.
            rows, buyers = (was_unsat & (need <= 0)).nonzero()
            np.subtract.at(
                utilities,
                (rows[:, None], buyer_cols[buyers]),
                buyer_real[buyers],
            )
            # A sibling win ends the replay; the rest drop the seller.
            live &= head_seller != wseller
            removed = (here[:, None], seller_cols[head_seller])
            active[removed] = False
            prices[removed] = np.inf
            suppliers -= head_seller_cov
    if _OBS.enabled:
        metrics = _OBS.metrics
        for name, value in (
            ("lockstep_steps", lockstep_steps),
            ("lockstep_exits", exits),
            ("suffix_steps", suffix_steps),
        ):
            metrics.counter(f"engine.columnar.payment_{name}").inc(value)
    return resolved.tolist()


@profiled("columnar.payments")
def columnar_critical_payments(
    instance,
    winners: Sequence[Bid],
    *,
    exact_guard: bool = False,
    columnar: ColumnarInstance | None = None,
    trajectory: Sequence[GreedyStep] | None = None,
) -> list[float]:
    """Batched critical values: one shared prefix, per-winner suffixes.

    Each winner's critical replay provably coincides with the main
    greedy trajectory up to the iteration where that winner was chosen
    (see the module docstring), so a single pass over the trajectory
    accumulates every pending winner's threshold — the winner's current
    marginal utility times the iteration's selected ratio, whenever the
    winner is guard-safe — and a state fork at each winner's own
    iteration, with the winner priced +∞, joins a chunk whose divergent
    suffixes run in lockstep or one by one (the module's size rule).
    A bid whose seller sibling wins first resolves at that iteration
    (the replay breaks there), matching the scalar replay's early exit.

    ``trajectory`` (the main run's :class:`GreedyStep` list) skips the
    re-selection pass; omitted, the kernel re-derives it.  Results are
    bit-identical to :func:`repro.core.ssam._critical_payment` per
    winner.
    """
    if not winners:
        return []
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    inst = (
        columnar
        if columnar is not None
        else ColumnarInstance.build(instance.bids, demand)
    )
    if trajectory is None:
        trajectory = columnar_greedy_selection(
            instance.bids,
            demand,
            exact_guard=exact_guard,
            columnar=inst,
        )
    traj_rows = [inst.row_of[step.bid.key] for step in trajectory]
    winner_rows = [inst.row_of[w.key] for w in winners]
    ceiling = instance.effective_ceiling

    pending = np.array(list(dict.fromkeys(winner_rows)), dtype=np.int64)
    thresholds = np.zeros(pending.size)
    resolved: dict[int, float] = {}

    def resolve(done: np.ndarray) -> None:
        nonlocal pending, thresholds
        if done.any():
            resolved.update(
                zip(pending[done].tolist(), thresholds[done].tolist())
            )
            pending, thresholds = pending[~done], thresholds[~done]

    state = ColumnarState(inst)
    forks = 0
    chunk = _LOCKSTEP_CELLS // max(inst.n_bids, 1)
    if exact_guard or chunk < _LOCKSTEP_MIN:
        chunk = 1  # no lockstep: replay each fork at once, cache-warm
    batch: list[tuple[int, float, ColumnarState]] = []

    def finish_batch() -> None:
        if len(batch) >= _LOCKSTEP_MIN and not exact_guard:
            payments = _lockstep_replays(batch, ceiling=ceiling)
        else:
            payments = [
                _suffix_replay(
                    fork,
                    row,
                    threshold,
                    exact_guard=exact_guard,
                    ceiling=ceiling,
                )
                for row, threshold, fork in batch
            ]
        resolved.update(zip((row for row, _, _ in batch), payments))
        batch.clear()

    for chosen_row in traj_rows:
        if not pending.size:
            break
        if state.satisfied:
            break
        ratio = float(
            state.prices[chosen_row] / state.utilities[chosen_row]
        )
        chosen_seller = int(inst.seller_rows[chosen_row])
        chosen = pending == chosen_row
        if chosen.any():
            # This winner's replay diverges here: fork a private state
            # with the winner priced +∞; its suffix runs with its chunk.
            prices = state.prices.copy()
            prices[chosen_row] = math.inf
            fork = state.fork()
            fork.prices = prices
            batch.append((chosen_row, float(thresholds[chosen][0]), fork))
            if len(batch) == chunk:
                finish_batch()
            pending, thresholds = pending[~chosen], thresholds[~chosen]
            forks += 1
        if pending.size:
            utilities = np.where(
                state.active[pending], state.utilities[pending], 0
            )
            updatable = utilities > 0
            if updatable.any():
                unsafe = _strands(
                    inst.demand - state.granted,
                    state.suppliers,
                    inst.cover[pending],
                    inst.seller_cov[inst.seller_rows[pending]],
                )
                if exact_guard:
                    for k in np.flatnonzero(updatable & ~unsafe):
                        infinite = inst.bids[int(pending[k])].with_price(
                            math.inf
                        )
                        if not _residual_feasible(
                            infinite,
                            state.active_bids(),
                            state.coverage_view(),
                        ):
                            unsafe[k] = True
                updatable &= ~unsafe
            bids = utilities[updatable] * ratio
            kept = thresholds[updatable]
            thresholds[updatable] = np.where(bids > kept, bids, kept)
        state.apply_win(chosen_row)
        # A sibling of a pending bid's seller won: the scalar replay
        # breaks here, freezing the accumulated threshold.
        resolve(inst.seller_rows[pending] == chosen_seller)
        state.remove_seller(chosen_seller)
    if batch:
        finish_batch()
    resolve(np.ones(pending.size, dtype=bool))
    if _OBS.enabled:
        metrics = _OBS.metrics
        metrics.counter("engine.columnar.payment_batches").inc()
        metrics.counter("engine.columnar.payment_forks").inc(forks)
        metrics.counter("engine.columnar.payment_prefix_iterations").inc(
            len(traj_rows)
        )
    return [resolved[row] for row in winner_rows]

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
  handful of ``ndarray.copy()`` calls, which is what makes recording a
  run's states cheap.
* :func:`columnar_greedy_selection` — the greedy selection loop as
  vectorized candidate scans.  Each iteration takes the head of the
  exact reference order ``(ratio, price, seller, index)`` from a
  ``min`` over the ratios (:func:`_head_candidate`, ``lexsort``-ing
  only the rows tied on it) and the runner-up as the second order
  statistic; the full ``lexsort`` and ordered guard walk run only when
  that head would strand a buyer or the exact guard is on.  It returns
  a :class:`Trajectory`: the step list plus the state before every
  step, kept (never mutated again) while a fork advances; a step's
  ``coverage_before`` is a read-only view of that state.
* :func:`columnar_critical_payments` — a batched critical-value kernel
  that walks no trajectory a second time.  For a winner chosen at
  main-run iteration ``k``, the +∞-replay of
  :func:`repro.core.ssam._critical_payment` provably follows the main
  trajectory for every iteration before ``k`` (the stranding guard is
  price-independent, and an ∞-priced bid sorts last so it is never
  preferred while its real-priced twin was still losing).  Its
  threshold over those iterations is therefore one masked reduction
  over the recorded states (:func:`_prefix_thresholds`), and its
  replay diverges from the state recorded at ``k``.  One call can price
  several markets (a sharded round's shards) in one batch.
* :func:`_lockstep_replays` — the one payment-replay walker: a batch's
  diverged replays side by side on R × columns arrays, each row over
  its own layout and in its own guard mode, every head resolved inside
  the batch.  A replay stops once the winner's marginal utility is 0:
  utilities only fall and sellers never re-enter, so no later step can
  raise the threshold (every update needs a positive utility).
  Batches run in chunks of at most ``_LOCKSTEP_CELLS`` bid cells.

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
from repro.core.wsp import CoverageState, WSPInstance
from repro.errors import InfeasibleInstanceError
from repro.obs.profiler import profiled
from repro.obs.runtime import STATE as _OBS

__all__ = [
    "ColumnarInstance",
    "ColumnarState",
    "columnar_greedy_selection",
    "columnar_critical_payments",
    "Trajectory",
]


def _rows_by_seller(seller_rows: np.ndarray, n_sellers: int) -> list[np.ndarray]:
    """Per seller row ``s``, the ascending bid rows of that seller: one
    stable ``argsort`` sliced at the sellers' cumulative bid counts."""
    order = np.argsort(seller_rows, kind="stable")
    ends = np.cumsum(np.bincount(seller_rows, minlength=n_sellers)).tolist()
    return [order[start:end] for start, end in zip([0, *ends], ends)]


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
        "tables",
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

        seller_bid_rows = _rows_by_seller(seller_rows, n_sellers)
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
            tables={},
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

    def replay_tables(self) -> tuple[np.ndarray, ...]:
        """The payment replays' structure tables, built on first use and
        shared by every re-pricing (:attr:`tables` is the same dict):
        the bid rows of each seller row and of each buyer (padded by
        repeating one), and each buyer's count of covering rows."""
        if "replay" not in self.tables:
            seller_cols, _ = _padded_groups(self.seller_rows, self.sellers.size)
            entries, counts = _padded_groups(self.cover_cols, self.n_buyers)
            rows = np.repeat(np.arange(self.n_bids), np.diff(self.cover_indptr))
            self.tables["replay"] = (seller_cols, rows[entries], counts)
        return self.tables["replay"]

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
        seller_bid_rows = _rows_by_seller(seller_rows, sellers.size)
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
            tables={},
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
        """Independent copy (selection advances it, keeping ``self``)."""
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
            demand=self.inst.demand_map,
            granted=dict(zip(self.inst.buyers, self.granted.tolist())),
        )


class _Granted(Mapping):
    """Read-only ``{buyer: granted units}`` over a recorded state: a
    columnar step's ``coverage_before``, equal to the reference
    engine's dict without building one per step."""

    __slots__ = ("_state",)

    def __init__(self, state: ColumnarState) -> None:
        self._state = state

    def __getitem__(self, buyer: int) -> int:
        inst = self._state.inst
        pos = inst.tables.get("buyer_pos")
        if pos is None:
            pos = inst.tables["buyer_pos"] = {
                b: j for j, b in enumerate(inst.buyers)
            }
        return int(self._state.granted[pos[buyer]])

    def __iter__(self):
        return iter(self._state.inst.buyers)

    def __len__(self) -> int:
        return len(self._state.inst.buyers)

    def __repr__(self) -> str:
        return repr(dict(self))


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


class Trajectory(list):
    """A columnar selection trace: the :class:`GreedyStep` list plus what
    the payment kernel reads instead of walking the run again.

    ``layout`` is the instance the run selected on and ``exact_guard``
    its guard mode; ``rows[k]`` is step ``k``'s chosen row and
    ``states[k]`` the :class:`ColumnarState` just before that win.  A
    recorded state is never mutated: the payment replays copy what they
    read (:meth:`stacked`).
    """

    __slots__ = ("layout", "exact_guard", "rows", "states", "_stacked")

    def __init__(self, layout: ColumnarInstance, exact_guard: bool) -> None:
        super().__init__()
        self.layout = layout
        self.exact_guard = exact_guard
        self.rows: list[int] = []
        self.states: list[ColumnarState] = []
        self._stacked: tuple[np.ndarray, ...] | None = None

    def stacked(self) -> tuple[np.ndarray, ...]:
        """The recorded states' ``utilities``, ``active``, ``granted`` and
        ``suppliers``, each stacked one row per step (built once)."""
        if self._stacked is None or len(self._stacked[0]) != len(self.states):
            self._stacked = tuple(
                np.array([getattr(state, name) for state in self.states])
                for name in ("utilities", "active", "granted", "suppliers")
            )
        return self._stacked


@profiled("ssam.selection")
def columnar_greedy_selection(
    bids: Sequence[Bid],
    demand: Mapping[int, int],
    *,
    exact_guard: bool = False,
    columnar: ColumnarInstance | None = None,
) -> Trajectory:
    """Vectorized twin of :func:`repro.core.ssam.greedy_selection`.

    Same contract, same trace, same exceptions.  Pass a prebuilt
    ``columnar`` instance (for the same bids/demand) to skip the layout
    construction — the MSOA incremental path does.

    Each iteration takes the head of the reference order
    (:func:`_head_candidate`) and, as runner-up, the ratio second in
    that order (:func:`_runner_up_ratio`).  The full ordered guard walk
    runs only when the head would strand a buyer or ``exact_guard`` is
    on; in every other case the walk would pick the head.  Each step's
    state is kept and a fork of it advanced, so the returned
    :class:`Trajectory` carries every step's state for the payments.
    """
    inst = (
        columnar
        if columnar is not None
        else ColumnarInstance.build(bids, demand)
    )
    state = ColumnarState(inst)
    steps = Trajectory(inst, exact_guard)
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
                coverage_before=_Granted(state),
            )
        )
        steps.rows.append(row)
        steps.states.append(state)
        state = state.fork()
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


# A lockstep chunk holds at most ``_LOCKSTEP_CELLS // width`` replays
# (``width``: the widest layout's bid count); the same cell budget
# bounds the prefix guard's (step, row) × buyers tensor.
_LOCKSTEP_CELLS = 65_536


def _strands(need, suppliers, cover_rows, seller_cov_rows) -> np.ndarray:
    """:meth:`ColumnarState.would_strand` for one candidate row per row
    of ``cover_rows``; ``need`` is the residual demand."""
    need = need - cover_rows
    return ((need > 0) & (suppliers - seller_cov_rows < need)).any(axis=1)


def _padded_groups(
    keys: np.ndarray, n_keys: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row ``k``: the positions ``i`` with ``keys[i] == k``, ascending,
    padded by repeating a position; plus each key's count.
    (Keys cast to the narrowest type that holds them: a stable sort of
    16-bit keys is a radix sort.)"""
    order = np.argsort(keys.astype(np.min_scalar_type(n_keys)), kind="stable")
    counts = np.bincount(keys, minlength=n_keys)
    slots = np.arange(max(int(counts.max()), 1))
    last = np.cumsum(counts)[:, None] - 1
    padded = np.minimum(last - counts[:, None] + 1 + slots, last)
    return order[np.maximum(padded, 0)], counts


def _stacked(tables: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-layout tables; 2-D ones row-wise, each padded to
    the widest by repeating its last column."""
    if len(tables) == 1:
        return tables[0]
    if tables[0].ndim == 1:
        return np.concatenate(tables)
    cols = np.arange(max(t.shape[1] for t in tables))
    return np.concatenate([t[:, np.minimum(cols, t.shape[1] - 1)] for t in tables])


def _lockstep_replays(
    batch: list[tuple[int, float, Trajectory, int, float]],
) -> list[float]:
    """Critical values of R ``(winner_row, threshold, recorded, step,
    ceiling)`` replays, each leaving the state ``recorded`` holds at
    ``step`` with the winner priced +∞: one step of the tail of
    :func:`repro.core.ssam._critical_payment` per iteration for every
    live replay, in its trajectory's guard mode.

    Each row holds its own layout's bid columns, padded to the widest
    layout, and its own buyers, padded to the most; a padded column is
    priced +∞ with utility 0 and a padded buyer's need starts at 0 and
    only falls, so neither is ever a head or binds the guard.  A row's
    head is its least ratio (the reference's IEEE-754 quotients) and,
    among the candidates tied on it, the least ``(price, seller,
    index)``; a row whose least quotient is not finite (0/0 from a
    zero-priced bid without utility, or only +∞-priced candidates left)
    takes it over its candidates alone.  A stranding head and every
    exact-guard step take the ordered guard walk on a
    :class:`ColumnarState` over the row's slices.  A replay ends
    ceiling-capped when it chooses the +∞ winner, and early on a
    sibling win or once the winner's utility is 0 (it only falls, and
    every update needs it positive).  Live rows are compacted once half
    of a batch of 16 or more have finished.
    """
    runs = list({id(job[2]): job[2] for job in batch}.values())
    slot = {id(recorded): l for l, recorded in enumerate(runs)}
    layouts = [recorded.layout for recorded in runs]
    # Rows ordered by trajectory (``ids``: their batch positions), so
    # each trajectory's rows fill one slice.
    lay = np.array([slot[id(job[2])] for job in batch])
    ids = np.argsort(lay, kind="stable")
    jobs = [batch[k] for k in ids.tolist()]
    lay = lay[ids]
    wcol = np.array([job[0] for job in jobs], dtype=np.int64)
    threshold = np.array([job[1] for job in jobs], dtype=np.float64)
    ceiling = np.array([job[4] for job in jobs], dtype=np.float64)
    exact = np.array([runs[l].exact_guard for l in lay.tolist()], dtype=bool)
    here = np.arange(ids.size)
    width = max(inst.n_bids for inst in layouts)
    n_buyers = max(inst.n_buyers for inst in layouts)
    utilities = np.zeros((ids.size, width))
    active = np.zeros((ids.size, width), dtype=bool)
    prices = np.full((ids.size, width), np.inf)
    # int32 suffices: in a feasible market both are at most the seller
    # count.  Need > 0 marks an unsatisfied buyer.
    need = np.zeros((ids.size, n_buyers), dtype=np.int32)
    suppliers = np.zeros((ids.size, n_buyers), dtype=np.int32)
    ends = np.cumsum(np.bincount(lay, minlength=len(runs))).tolist()
    for recorded, lo, hi in zip(runs, [0, *ends], ends):
        inst = recorded.layout
        n, b = inst.n_bids, inst.n_buyers
        steps = [job[3] for job in jobs[lo:hi]]
        run_utilities, run_active, granted, run_suppliers = recorded.stacked()
        utilities[lo:hi, :n] = run_utilities[steps]
        active[lo:hi, :n] = run_active[steps]
        np.copyto(prices[lo:hi, :n], inst.prices, where=active[lo:hi, :n])
        need[lo:hi, :b] = inst.demand - granted[steps]
        suppliers[lo:hi, :b] = run_suppliers[steps]
    unmet = need.clip(min=0).sum(axis=1)
    # Layout l's column c, seller row s and buyer j are entries
    # col_base[l] + c, seller_base[l] + s and buyer_base[l] + j of the
    # batch tables; group tables hold columns local to their layout.
    col_base, seller_base, buyer_base = np.cumsum(
        [(0, 0, 0)]
        + [(inst.n_bids, inst.sellers.size, inst.n_buyers) for inst in layouts],
        axis=0,
    ).T
    tables = [inst.replay_tables() for inst in layouts]
    seller_cols, buyer_cols, buyer_counts = (
        _stacked([t[i] for t in tables]) for i in range(3)
    )
    cover, seller_cov, seller_ids, bid_indices = (
        _stacked([getattr(inst, name) for inst in layouts])
        for name in ("cover", "seller_cov", "seller_ids", "bid_indices")
    )
    sellers = _stacked([at + i.seller_rows for at, i in zip(seller_base, layouts)])
    slots = np.arange(buyer_cols.shape[1])
    base = col_base[lay]
    row_buyers = buyer_base[lay]

    def guard_rows(cols: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each row's column ``cols``: its cover row, seller and seller
        coverage, the rows as int32 (the type of need and suppliers)."""
        seller = sellers[base + cols]
        return (
            cover[base + cols].astype(np.int32),
            seller,
            seller_cov[seller].astype(np.int32),
        )

    wcover, wseller, wseller_cov = guard_rows(wcol)
    prices[here, wcol] = np.inf
    guarded = bool(exact.any())

    def row_state(k: int) -> ColumnarState:
        """Row ``k`` of the batch as a state of its own layout, for the
        guard walk (``unsat`` and ``unmet`` are left unset)."""
        inst = layouts[lay[k]]
        n, b = inst.n_bids, inst.n_buyers
        state = ColumnarState.__new__(ColumnarState)
        state.inst = inst
        state.prices = prices[k, :n]
        state.active = active[k, :n]
        state.utilities = utilities[k, :n]
        state.granted = inst.demand - need[k, :b]
        state.suppliers = suppliers[k, :b]
        return state

    live = np.ones(ids.size, dtype=bool)
    resolved = np.empty(ids.size)
    # One ratio buffer: a fresh R × columns temporary every step costs
    # page faults once it outgrows the allocator's heap.
    ratios = np.empty_like(prices)
    lockstep_steps = suffix_steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            winner_utility = utilities[here, wcol]
            live &= (unmet > 0) & (winner_utility > 0)
            n_live = int(np.count_nonzero(live))
            if not n_live:
                break
            if 2 * n_live <= ids.size >= 16:
                resolved[ids] = threshold
                keep = live.nonzero()[0]
                (ids, lay, base, row_buyers, wcol, wseller, wcover,
                 wseller_cov, threshold, ceiling, exact, live, winner_utility,
                 utilities, prices, active, need, suppliers, unmet) = (
                    a[keep] for a in (
                        ids, lay, base, row_buyers, wcol, wseller, wcover,
                        wseller_cov, threshold, ceiling, exact, live,
                        winner_utility, utilities, prices, active, need,
                        suppliers, unmet))
                here = np.arange(ids.size)
                ratios = np.empty_like(prices)
            lockstep_steps += 1
            suffix_steps += n_live
            np.divide(prices, utilities, out=ratios)
            head = ratios.argmin(axis=1)
            ratio = ratios[here, head]
            # A tie iff the least ratio of the other columns matches.
            ratios[here, head] = np.inf
            resolve = live & (ratios[here, ratios.argmin(axis=1)] == ratio)
            ratios[here, head] = ratio
            odd = live & ~(ratio < np.inf)
            odd_rows = odd.any()
            if odd_rows:
                k = odd.nonzero()[0]
                candidate = active[k] & (utilities[k] > 0)
                ratio[k] = np.where(candidate, ratios[k], np.inf).min(axis=1)
                resolve |= odd
            if resolve.any():
                # The least (price, seller, index) of each row's ties.
                k = resolve.nonzero()[0]
                tied = (ratios[k] == ratio[k, None]) & active[k]
                rows, cols = (tied & (utilities[k] > 0)).nonzero()
                at = base[k[rows]] + cols
                first = np.lexsort(
                    (bid_indices[at], seller_ids[at], prices[k[rows], cols], rows)
                )
                rows, cols = rows[first], cols[first]
                head[k] = cols[np.unique(rows, return_index=True)[1]]
            head_cover, head_seller, head_seller_cov = guard_rows(head)
            walk = live & _strands(need, suppliers, head_cover, head_seller_cov)
            walked = (walk | live & exact if guarded else walk).nonzero()[0]
            for k in walked.tolist():
                state = row_state(k)
                order, ordered = _ordered_candidates(state)
                pos = _guarded_choice(state, order, exact_guard=bool(exact[k]))
                head[k], ratio[k] = order[pos], ordered[pos]
            if walked.size:
                head_cover, head_seller, head_seller_cov = guard_rows(head)
            if walked.size or odd_rows:
                # The +∞ winner chosen: pivotal, ceiling-capped.
                pivotal = live & (head == wcol)
                capped = winner_utility * ceiling
                threshold = np.where(
                    pivotal & (capped > threshold), capped, threshold
                )
                live &= ~pivotal
            bid = winner_utility * ratio
            raised = live & (bid > threshold)
            if raised.any():
                raised &= ~_strands(need, suppliers, wcover, wseller_cov)
                for k in (raised & exact).nonzero()[0].tolist() if guarded else ():
                    state = row_state(k)
                    infinite = state.inst.bids[wcol[k]].with_price(math.inf)
                    raised[k] = _residual_feasible(
                        infinite, state.active_bids(), state.coverage_view()
                    )
                threshold = np.where(raised, bid, threshold)
            covered = head_cover > 0
            was_unsat = (need > 0) & covered
            unmet -= was_unsat.sum(axis=1)
            # Each newly saturated buyer costs its covering bids a unit.
            rows, buyers = ((need == 1) & covered).nonzero()
            need -= head_cover
            if rows.size:
                buyers += row_buyers[rows]
                np.subtract.at(
                    utilities.reshape(-1),
                    (rows[:, None] * width + buyer_cols[buyers]).reshape(-1),
                    # float weights: ufunc.at is slow on mixed types.
                    (slots < buyer_counts[buyers, None]).astype(float).ravel(),
                )
            # A sibling win ends the replay; the rest drop the seller.
            live &= head_seller != wseller
            removed = (here[:, None], seller_cols[head_seller])
            active[removed] = False
            prices[removed] = np.inf
            suppliers -= head_seller_cov
    resolved[ids] = threshold
    if _OBS.enabled:
        metrics = _OBS.metrics
        metrics.counter("engine.columnar.payment_lockstep_steps").inc(
            lockstep_steps
        )
        metrics.counter("engine.columnar.payment_suffix_steps").inc(
            suffix_steps
        )
    return resolved.tolist()


def _prefix_thresholds(
    recorded: Trajectory, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's threshold over the steps its +∞ replay shares with the
    main run, and the step its replay diverges at (-1 if none).

    A row's replay follows the recorded trajectory up to its *end*: its
    own win (the replay diverges there, from that step's recorded
    state), one past the step a sibling bid of its seller wins (the
    replay breaks there), or the whole run for a bid whose seller never
    wins.  Each step ``k`` before the end offers ``U_k · ρ_k`` — the
    row's marginal utility times the step's ratio — when ``U_k > 0`` and
    accepting the row would strand no buyer at step ``k``; the threshold
    is the largest offer, or 0.  One masked reduction over the recorded
    states computes every row's, the guard in chunks of the lockstep
    cell budget.  Under the exact guard each row's offers are probed
    from the largest down with :func:`_residual_feasible`, stopping at
    the first feasible one.
    """
    inst = recorded.layout
    n_steps = len(recorded)
    thresholds = np.zeros(rows.size)
    diverge = np.full(rows.size, -1, dtype=np.int64)
    if not n_steps:
        return thresholds, diverge
    chosen = np.asarray(recorded.rows, dtype=np.int64)
    step_of_seller = np.full(inst.sellers.size, n_steps, dtype=np.int64)
    step_of_seller[inst.seller_rows[chosen]] = np.arange(n_steps)
    end = step_of_seller[inst.seller_rows[rows]]
    own = (end < n_steps) & (chosen[np.minimum(end, n_steps - 1)] == rows)
    diverge[own] = end[own]
    end = np.where(own, end, np.minimum(end + 1, n_steps))
    horizon = int(end.max())
    if not horizon:
        return thresholds, diverge
    run_utilities, _, granted, run_suppliers = recorded.stacked()
    utilities = run_utilities[:horizon, rows]
    ratios = np.array([step.ratio for step in recorded[:horizon]])
    with np.errstate(invalid="ignore"):  # 0 · ∞ (an ∞-priced pick): masked
        offers = utilities * ratios[:, None]
    steps, cols = (
        (utilities > 0)
        & (offers > 0)
        & (np.arange(horizon)[:, None] < end)
    ).nonzero()
    if not steps.size:
        return thresholds, diverge
    need = inst.demand - granted[:horizon]
    suppliers = run_suppliers[:horizon]
    candidates = rows[cols]
    safe = np.empty(steps.size, dtype=bool)
    chunk = max(_LOCKSTEP_CELLS // max(inst.n_buyers, 1), 1)
    for lo in range(0, steps.size, chunk):
        k, row = steps[lo : lo + chunk], candidates[lo : lo + chunk]
        safe[lo : lo + chunk] = ~_strands(
            need[k],
            suppliers[k],
            inst.cover[row],
            inst.seller_cov[inst.seller_rows[row]],
        )
    steps, cols = steps[safe], cols[safe]
    values = offers[steps, cols]
    if not recorded.exact_guard:
        np.maximum.at(thresholds, cols, values)
        return thresholds, diverge
    for col in np.unique(cols).tolist():
        mine = (cols == col).nonzero()[0]
        infinite = inst.bids[int(rows[col])].with_price(math.inf)
        for j in mine[np.argsort(-values[mine], kind="stable")].tolist():
            state = recorded.states[int(steps[j])]
            if _residual_feasible(
                infinite, state.active_bids(), state.coverage_view()
            ):
                thresholds[col] = values[j]
                break
    return thresholds, diverge


def _recorded(
    instance: WSPInstance,
    trajectory: Sequence[GreedyStep] | None,
    *,
    exact_guard: bool,
    columnar: ColumnarInstance | None,
) -> Trajectory:
    """``trajectory`` if it is a recorded :class:`Trajectory`, else the
    market's selection re-run on ``columnar`` (built when omitted)."""
    if isinstance(trajectory, Trajectory):
        return trajectory
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    return columnar_greedy_selection(
        instance.bids,
        demand,
        exact_guard=exact_guard,
        columnar=(
            columnar
            if columnar is not None
            else ColumnarInstance.build(instance.bids, demand)
        ),
    )


@profiled("columnar.payments")
def columnar_critical_payments(
    instance: WSPInstance | Sequence[WSPInstance],
    winners: Sequence[Bid],
    *,
    exact_guard: bool = False,
    columnar: ColumnarInstance | None = None,
    trajectory: Sequence | None = None,
) -> list[float]:
    """Critical values of ``winners``, from the recorded selection run.

    ``instance`` is one market, or a sequence of markets priced in one
    batch (a sharded round's shards); ``trajectory`` is then the
    matching sequence, the markets hold disjoint bid keys, and each
    winner is priced in the market whose layout holds its key.  A
    :class:`Trajectory` from :func:`columnar_greedy_selection` brings
    its layout, guard mode and recorded states; anything else
    (``None``, a plain step list) is re-derived by selecting with
    ``exact_guard`` on ``columnar`` (one market only; built when
    omitted).

    Each winner's critical replay provably coincides with the main
    greedy trajectory up to the iteration where that winner was chosen
    (see the module docstring), so its threshold over that shared
    prefix is read off the recorded states (:func:`_prefix_thresholds`);
    a bid whose seller sibling wins first resolves at that iteration
    (the replay breaks there), matching the scalar replay's early exit.
    The replays that diverge start from the state recorded at their own
    win, with the winner priced +∞, and run in :func:`_lockstep_replays`
    across every market and guard mode of the batch, in chunks of at
    most ``_LOCKSTEP_CELLS`` bid cells.
    Results are bit-identical to
    :func:`repro.core.ssam._critical_payment` per winner.
    """
    if not winners:
        return []
    if isinstance(instance, WSPInstance):
        instance, trajectory = [instance], [trajectory]
    else:
        columnar = None  # a layout belongs to one market
        if trajectory is None:
            trajectory = [None] * len(instance)
    markets = [
        (
            market,
            _recorded(
                market, recorded, exact_guard=exact_guard, columnar=columnar
            ),
        )
        for market, recorded in zip(instance, trajectory, strict=True)
    ]
    row_ofs = [recorded.layout.row_of for _, recorded in markets]
    if len(row_ofs) > 1 and len(set().union(*row_ofs)) != sum(
        map(len, row_ofs)
    ):
        raise ValueError("the markets of a payment batch share a bid key")
    located, m = [], 0
    for bid in winners:
        if bid.key not in row_ofs[m]:  # winners mostly come market by market
            m = next(
                (i for i, row_of in enumerate(row_ofs) if bid.key in row_of),
                None,
            )
            if m is None:
                raise KeyError(bid.key)
        located.append((m, row_ofs[m][bid.key]))

    pending: list[dict[int, None]] = [{} for _ in markets]  # rows, deduped
    for m, row in located:
        pending[m][row] = None
    resolved: dict[tuple[int, int], float] = {}
    keys, jobs = [], []
    for m, ((market, recorded), rows) in enumerate(zip(markets, pending)):
        if not rows:
            continue
        rows = np.fromiter(rows, dtype=np.int64, count=len(rows))
        thresholds, diverge = _prefix_thresholds(recorded, rows)
        ceiling = market.effective_ceiling
        for row, threshold, step in zip(
            rows.tolist(), thresholds.tolist(), diverge.tolist()
        ):
            if step < 0:
                resolved[m, row] = threshold
            else:
                keys.append((m, row))
                jobs.append((row, threshold, recorded, step, ceiling))
    if jobs:
        chunk = max(_LOCKSTEP_CELLS // max(j[2].layout.n_bids for j in jobs), 1)
        for at in range(0, len(jobs), chunk):
            part = slice(at, at + chunk)
            resolved.update(zip(keys[part], _lockstep_replays(jobs[part])))
    if _OBS.enabled:
        metrics = _OBS.metrics
        metrics.counter("engine.columnar.payment_batches").inc()
        metrics.counter("engine.columnar.payment_forks").inc(len(jobs))
    return [resolved[key] for key in located]

"""Columnar numerical core: the production engine on numpy arrays.

The reference loops of :mod:`repro.core.ssam` rescan every active bid
on every greedy iteration and replay the whole greedy once per winner
to price it, walking Python objects throughout.  This module rebuilds
the greedy machinery on flat numpy arrays:

* :class:`ColumnarInstance` — the immutable *structure* of a market:
  price/seller/index columns, a CSR-style bid→buyer incidence (plus a
  dense bid×buyer mask), per-seller bid groupings and a seller×buyer
  coverage matrix for the stranding guard.  Built once from ``(bids,
  demand)`` (MSOA's scaled bids are
  read as columns, not built); re-pricing (MSOA's ψ-scaled rounds)
  shares every structural array via :meth:`ColumnarInstance.with_bids`,
  and :meth:`ColumnarInstance.subset` forks a shard's layout by rows.
* :class:`ColumnarState` — the per-run arrays (granted units, active
  mask, marginal utilities, supplier counts) of one market at one step.
* :func:`columnar_greedy_selection` — the greedy selection loop as
  vectorized candidate scans, over one market or over several that
  share no buyer and no seller (a sharded round's shards), advanced in
  lockstep (:func:`_lockstep_selection`).  Each step takes the head of
  every unfinished market's exact reference order ``(ratio, price,
  seller, index)`` from a segmented ``fmin`` over the ratios
  (``lexsort``-ing only the rows tied on it) and the runner-up as the
  second order statistic; the full ``lexsort`` and ordered guard walk
  run only for a head that would strand a buyer or under the exact
  guard.  It returns a :class:`Trajectory` per market: the step list
  plus the state before every step, recorded as is (every update
  builds new arrays); a step's ``coverage_before`` is a read-only view
  of that state.
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
from repro.core.outcomes import BidRows, ScaledBids
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
        "seller_table",
        "seller_cov",
        "initial_utilities",
        "initial_suppliers",
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
        """Construct the columnar layout from a bid list and demand map.

        A :class:`~repro.core.outcomes.ScaledBids` view is read through
        its price column and its rows' announced bids (the same seller,
        index and cover) and kept as :attr:`bids`, so the build creates
        no scaled :class:`Bid`.
        """
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.builds").inc()
        if isinstance(bids, ScaledBids):
            prices = np.asarray(bids.prices, dtype=np.float64)
            shapes = bids.announced()
        else:
            bids = shapes = tuple(bids)
            prices = np.fromiter(
                (b.price for b in bids), dtype=np.float64, count=len(bids)
            )
        n = len(shapes)
        buyers = [int(b) for b in demand]
        buyer_pos = {buyer: j for j, buyer in enumerate(buyers)}
        demand_arr = np.fromiter(
            (demand[b] for b in buyers), dtype=np.int64, count=len(buyers)
        )
        seller_ids = np.fromiter(
            (b.seller for b in shapes), dtype=np.int64, count=n
        )
        bid_indices = np.fromiter(
            (b.index for b in shapes), dtype=np.int64, count=n
        )
        # Each (row, covered buyer) pair; a buyer outside the demand map
        # has column -1 and stays out of the cover.
        sizes = np.fromiter(
            (len(b.covered) for b in shapes), dtype=np.int64, count=n
        )
        cols = np.fromiter(
            (buyer_pos.get(b, -1) for bid in shapes for b in bid.covered),
            dtype=np.int64,
            count=int(sizes.sum()),
        )
        rows = np.repeat(np.arange(n, dtype=np.int64), sizes)
        known = cols >= 0
        rows, cols = rows[known], cols[known]
        cover = np.zeros((n, len(buyers)), dtype=bool)
        cover[rows, cols] = True
        # The CSR cover: each row's columns in ascending order.
        cover_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=cover_indptr[1:])
        return cls._of_columns(
            bids=bids,
            demand_map=dict(demand),
            buyers=buyers,
            demand=demand_arr,
            prices=prices,
            seller_ids=seller_ids,
            bid_indices=bid_indices,
            cover=cover,
            cover_indptr=cover_indptr,
            cover_cols=cols[np.lexsort((cols, rows))],
        )

    @classmethod
    def _of_columns(
        cls, *, seller_ids, cover, demand, **fields
    ) -> "ColumnarInstance":
        """The layout of the given columns and cover, shared by
        :meth:`build` and :meth:`subset`: derives the seller rows (the
        rank of each row's seller id), the CSR cover unless given, and
        the guard's and the walk's start from the CSR entries: the
        seller table, the seller coverage and the initial utilities and
        supplier counts."""
        n = len(seller_ids)
        order = np.argsort(seller_ids, kind="stable")
        ranked = seller_ids[order]
        first = np.ones(n, dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        seller_rows = np.empty(n, dtype=np.int64)
        seller_rows[order] = np.cumsum(first) - 1
        if "cover_cols" not in fields:
            fields["cover_indptr"] = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(
                cover.sum(axis=1, dtype=np.int64), out=fields["cover_indptr"][1:]
            )
            # np.nonzero walks row-major: columns arrive grouped by row
            # in ascending column order.
            fields["cover_cols"] = np.nonzero(cover)[1]
        cols = fields["cover_cols"]
        rows = np.repeat(np.arange(n), np.diff(fields["cover_indptr"]))
        # Seller row s: its bid rows, ascending, padded by repeating the
        # last (``order`` groups the rows by seller).
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=n)
        slots = np.arange(max(int(counts.max(initial=1)), 1))
        last = starts + counts - 1
        seller_table = order[np.minimum(starts[:, None] + slots, last[:, None])]
        seller_cov = np.zeros((starts.size, cover.shape[1]), dtype=bool)
        seller_cov[seller_rows[rows], cols] = True
        return cls(
            **fields,
            demand=demand,
            seller_ids=seller_ids,
            seller_rows=seller_rows,
            sellers=ranked[first],
            cover=cover,
            seller_table=seller_table,
            seller_cov=seller_cov,
            initial_utilities=np.bincount(rows[demand[cols] > 0], minlength=n),
            initial_suppliers=seller_cov.sum(axis=0, dtype=np.int64),
            tables={},
        )

    def _derived(self, name: str, make):
        """A structure-only table, built by ``make`` on first use and
        shared by every re-pricing (:attr:`tables` is the same dict)."""
        table = self.tables.get(name)
        if table is None:
            table = self.tables[name] = make()
        return table

    @property
    def row_of(self) -> dict[tuple[int, int], int]:
        """Each bid key's row, from the seller and index columns."""
        return self._derived(
            "row_of",
            lambda: dict(
                zip(
                    zip(self.seller_ids.tolist(), self.bid_indices.tolist()),
                    range(self.n_bids),
                )
            ),
        )

    @property
    def buyer_pos(self) -> dict[int, int]:
        """Each buyer's column."""
        return self._derived(
            "buyer_pos", lambda: {b: j for j, b in enumerate(self.buyers)}
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

        def make():
            entries, counts = _padded_groups(self.cover_cols, self.n_buyers)
            rows = np.repeat(np.arange(self.n_bids), np.diff(self.cover_indptr))
            return self.seller_table, rows[entries], counts

        return self._derived("replay", make)

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
        :meth:`build` would produce for the sub-market, derived from
        this layout's columns; its :attr:`bids` is a
        :class:`~repro.core.outcomes.BidRows` view that reads a bid
        only when something asks for it.  This is the per-round fork
        the sharded clearing path (:mod:`repro.shard`) uses to hand each
        shard its own columnar view of one shared parent build.
        """
        if _OBS.enabled:
            _OBS.metrics.counter("engine.columnar.subsets").inc()
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size > 1 and not np.all(np.diff(rows) > 0):
            raise ValueError("subset: rows must be strictly ascending")
        buyers = [int(b) for b in buyers]
        buyer_pos = self.buyer_pos
        try:
            cols = np.array([buyer_pos[b] for b in buyers], dtype=np.int64)
        except KeyError as exc:  # buyer not in the parent demand map
            raise ValueError(f"subset: unknown buyer {exc.args[0]}") from exc
        return ColumnarInstance._of_columns(
            bids=BidRows(self.bids, rows.tolist()),
            demand_map={b: self.demand_map[b] for b in buyers},
            buyers=buyers,
            demand=self.demand[cols],
            prices=self.prices[rows],
            seller_ids=self.seller_ids[rows],
            bid_indices=self.bid_indices[rows],
            cover=self.cover[np.ix_(rows, cols)],
        )


class ColumnarState:
    """A greedy run's state over a :class:`ColumnarInstance` at one step
    (a new one is the state before the first).

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
    """Read-only ``{buyer: granted units}`` over a recorded ``granted``
    column of ``inst``: a columnar step's ``coverage_before``, equal to
    the reference engine's dict without building one per step."""

    __slots__ = ("_inst", "_granted")

    def __init__(self, inst: ColumnarInstance, granted: np.ndarray) -> None:
        self._inst, self._granted = inst, granted

    def __getitem__(self, buyer: int) -> int:
        return int(self._granted[self._inst.buyer_pos[buyer]])

    def __iter__(self):
        return iter(self._inst.buyers)

    def __len__(self) -> int:
        return len(self._inst.buyers)

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


class _Record:
    """A lockstep selection's state before each of its steps: per step
    its ``(granted, active, utilities, suppliers, unsat)`` arrays, over
    every market of the run (never mutated once recorded)."""

    __slots__ = ("steps", "_stacked")

    def __init__(self) -> None:
        self.steps: list[tuple[np.ndarray, ...]] = []
        self._stacked: tuple[np.ndarray, ...] | None = None

    def stacked(self) -> tuple[np.ndarray, ...]:
        """``utilities``, ``active``, ``granted`` and ``suppliers``, each
        stacked one row per step (built once, after the run)."""
        if self._stacked is None:
            self._stacked = tuple(
                np.array([step[i] for step in self.steps]) for i in (2, 1, 0, 3)
            )
        return self._stacked


class _States(Sequence):
    """One market's recorded states: step ``k``'s :class:`ColumnarState`
    is a view of the market's ``rows`` and ``cols`` slices of the
    record's step ``k``, built on access; ``unmet[k]`` its unmet
    units."""

    __slots__ = ("inst", "record", "rows", "cols", "unmet")

    def __init__(self, inst, record: _Record, rows: slice, cols: slice) -> None:
        self.inst, self.record, self.rows, self.cols = inst, record, rows, cols
        self.unmet: list[int] = []

    def __len__(self) -> int:
        return len(self.unmet)

    def __getitem__(self, k: int) -> ColumnarState:
        unmet = self.unmet[k]  # IndexError past the end
        if k < 0:
            k += len(self)
        granted, active, utilities, suppliers, unsat = self.record.steps[k]
        state = ColumnarState.__new__(ColumnarState)
        state.inst = self.inst
        state.prices = self.inst.prices
        state.granted = granted[self.cols]
        state.active = active[self.rows]
        state.utilities = utilities[self.rows]
        state.suppliers = suppliers[self.cols]
        state.unsat = unsat[self.cols]
        state.unmet = unmet
        return state

    def stacked(self) -> tuple[np.ndarray, ...]:
        n, inst = len(self), self.inst
        if not n:
            return (
                np.empty((0, inst.n_bids), np.int64),
                np.empty((0, inst.n_bids), bool),
                np.empty((0, inst.n_buyers), np.int64),
                np.empty((0, inst.n_buyers), np.int64),
            )
        utilities, active, granted, suppliers = self.record.stacked()
        return (
            utilities[:n, self.rows],
            active[:n, self.rows],
            granted[:n, self.cols],
            suppliers[:n, self.cols],
        )


class Trajectory(list):
    """A columnar selection trace: the :class:`GreedyStep` list plus what
    the payment kernel reads instead of walking the run again.

    ``layout`` is the instance the run selected on and ``exact_guard``
    its guard mode; ``rows[k]`` is step ``k``'s chosen row and
    ``states[k]`` the :class:`ColumnarState` just before that win, a
    view of the selection's record.  A recorded state is never mutated:
    the payment replays copy what they read (:meth:`stacked`).
    """

    __slots__ = ("layout", "exact_guard", "rows", "states")

    def __init__(
        self, layout: ColumnarInstance, exact_guard: bool, states: _States
    ) -> None:
        super().__init__()
        self.layout = layout
        self.exact_guard = exact_guard
        self.rows: list[int] = []
        self.states = states

    def stacked(self) -> tuple[np.ndarray, ...]:
        """The recorded states' ``utilities``, ``active``, ``granted`` and
        ``suppliers``, each stacked one row per step."""
        return self.states.stacked()


@profiled("ssam.selection")
def columnar_greedy_selection(
    bids: Sequence[Bid],
    demand: Mapping[int, int],
    *,
    exact_guard: bool = False,
    columnar: ColumnarInstance | None = None,
    shards: Sequence[ColumnarInstance] | None = None,
) -> Trajectory | list[Trajectory | None]:
    """Vectorized twin of :func:`repro.core.ssam.greedy_selection`.

    Same contract, same trace, same exceptions.  Pass a prebuilt
    ``columnar`` instance (for the same bids/demand) to skip the layout
    construction — the MSOA incremental path does.  The returned
    :class:`Trajectory` carries every step's state for the payments.

    ``shards`` selects several markets side by side instead: layouts
    that share no buyer and no seller, such as a sharded round's local
    shards (row subsets of the round's layout ``columnar``, which
    ``bids`` and ``demand`` describe; the walk reads only the shards).
    The call then returns, per shard, the :class:`Trajectory` a
    one-market call on its layout returns, or ``None`` where that call
    raises :class:`~repro.errors.InfeasibleInstanceError`.  See
    :func:`_lockstep_selection` for the walk.
    """
    if shards is not None:
        return _lockstep_selection(list(shards), exact_guard)[0]
    inst = (
        columnar
        if columnar is not None
        else ColumnarInstance.build(bids, demand)
    )
    (steps,), (unmet,) = _lockstep_selection([inst], exact_guard)
    if steps is None:
        raise InfeasibleInstanceError(
            f"{unmet} demand units cannot be covered by the remaining bids"
        )
    return steps


def _lockstep_selection(
    parts: list[ColumnarInstance], exact_guard: bool
) -> tuple[list[Trajectory | None], list[int]]:
    """The greedy walks of ``parts`` — markets sharing no buyer and no
    seller — advanced side by side; per part its :class:`Trajectory`
    (``None`` if it runs out of candidates with demand unmet) and the
    demand units it leaves unmet.

    The parts' columns are stacked block-diagonally (a part's rows cover
    only its own buyers; seller rows are per part), so one state holds
    every part's.  Each step takes the head of every unfinished part's
    reference order ``(ratio, price, seller, index)``: a segmented
    ``fmin`` over the quotients of the in-market prices (a retired
    seller's rows price at +∞, a row without utility divides by 0),
    ``lexsort``-ing only the rows tied on it, and the runner-up ratio as
    the second order statistic.  A part whose least quotient is not
    finite (only +∞-priced candidates, or none) takes it over its
    candidates alone.  A head that would strand a buyer of its part, and
    every head under the exact guard, takes the ordered guard walk on
    its part's slice (:func:`_ordered_candidates`,
    :func:`_guarded_choice`).  Then every head wins in one vectorized
    update.  A part's steps, rows and recorded states equal a walk of
    that part alone: no win touches another part's buyers, sellers or
    candidates.  Every update builds new arrays, so each step's state
    is recorded as is (:class:`_Record`) and read through views of each
    part's slices.
    """
    record = _Record()
    unmet = [int(part.demand.sum()) for part in parts]
    trajectories: list[Trajectory | None] = []
    runs, stack, states, row_starts, col_starts = [], [], [], [0], [0]
    for k, part in enumerate(parts):
        if not part.n_bids and unmet[k]:
            trajectories.append(None)
            continue
        run = _States(
            part,
            record,
            slice(row_starts[-1], row_starts[-1] + part.n_bids),
            slice(col_starts[-1], col_starts[-1] + part.n_buyers),
        )
        trajectories.append(Trajectory(part, exact_guard, run))
        if unmet[k]:
            runs.append(k)
            stack.append(part)
            states.append(run)
            row_starts.append(run.rows.stop)
            col_starts.append(run.cols.stop)
    if not stack:
        return trajectories, unmet
    # One market finds its head and applies its win with scalar
    # reductions: the segmented forms below cost it about 20 µs more a
    # step (1.5× a wide market's selection), which its callers feel.
    sharded = len(stack) > 1
    if not sharded:
        (inst,) = stack
        prices, seller_ids, bid_indices = (
            inst.prices, inst.seller_ids, inst.bid_indices
        )
        seller_rows, cover, seller_cov = (
            inst.seller_rows, inst.cover, inst.seller_cov
        )
        demand, utilities, suppliers = (
            inst.demand, inst.initial_utilities, inst.initial_suppliers
        )
        seller_table = inst.seller_table
    else:
        prices, seller_ids, bid_indices, demand, utilities, suppliers = (
            np.concatenate([getattr(p, name) for p in stack])
            for name in (
                "prices", "seller_ids", "bid_indices", "demand",
                "initial_utilities", "initial_suppliers",
            )
        )
        seller_starts = np.cumsum([0] + [p.sellers.size for p in stack])
        seller_rows = np.concatenate(
            [p.seller_rows + at for p, at in zip(stack, seller_starts)]
        )
        seller_table = _stacked(
            [p.seller_table + run.rows.start for p, run in zip(stack, states)]
        )
        cover = np.zeros((prices.size, demand.size), dtype=bool)
        seller_cov = np.zeros((seller_starts[-1], demand.size), dtype=bool)
        for p, run, at in zip(stack, states, seller_starts.tolist()):
            cover[run.rows, run.cols] = p.cover
            seller_cov[at : at + p.sellers.size, run.cols] = p.seller_cov
        starts = np.array(row_starts[:-1])
        # Each row's and each buyer column's part.
        row_part = np.repeat(np.arange(len(stack)), np.diff(row_starts))
        col_part = np.repeat(np.arange(len(stack)), np.diff(col_starts))
        col_starts = np.array(col_starts)
        live = np.ones(len(stack), dtype=bool)

        columns = np.arange(demand.size)

        def by_column(heads, parts_of):
            """Per buyer column, its part's head's cover and seller
            coverage (nothing for a part without a head): one vector
            each, as the parts' columns are disjoint."""
            if len(heads) == len(stack):  # ``heads`` is in part order
                row = np.asarray(heads)[col_part]
                return cover[row, columns], seller_cov[seller_rows[row], columns]
            head_of = np.zeros(len(stack), dtype=np.int64)
            head_of[parts_of] = heads
            has_head = np.zeros(len(stack), dtype=bool)
            has_head[parts_of] = True
            row, on = head_of[col_part], has_head[col_part]
            return (
                cover[row, columns] & on,
                seller_cov[seller_rows[row], columns] & on,
            )
    granted = np.zeros(demand.size, dtype=np.int64)
    unsat = demand > 0
    active = np.ones(prices.size, dtype=bool)
    live_prices = prices
    left = [unmet[k] for k in runs]
    books = [
        (trajectories[k], part, run.rows.start, run.cols)
        for k, part, run in zip(runs, stack, states)
    ]
    n_live = len(stack)
    infinite_prices = None  # whether any price is +∞, once looked up
    walks = scanned = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while n_live:
            ratios = live_prices / utilities
            if sharded:
                least = np.fmin.reduceat(ratios, starts)
                if n_live < len(stack):
                    least[~live] = -1.0  # no quotient is negative
                if least.max() < np.inf:
                    tied = ratios == least[row_part]
                else:
                    candidate = active & (utilities > 0) & live[row_part]
                    ratios = np.where(candidate, ratios, np.inf)
                    least = np.minimum.reduceat(ratios, starts)
                    stuck = live & ~np.logical_or.reduceat(candidate, starts)
                    if stuck.any():
                        for i in stuck.nonzero()[0].tolist():
                            trajectories[runs[i]] = None
                        live &= ~stuck
                        n_live = int(np.count_nonzero(live))
                        if not n_live:
                            break
                    tied = candidate & (ratios == least[row_part])
                tied = tied.nonzero()[0]
                parts_of = row_part[tied]
                if tied.size > n_live:
                    # Each part's head: the least (price, seller, index)
                    # of its ties.
                    order = np.lexsort(
                        (bid_indices[tied], seller_ids[tied], prices[tied], parts_of)
                    )
                    tied, parts_of = tied[order], parts_of[order]
                    first = np.flatnonzero(np.diff(parts_of, prepend=-1))
                    tied, parts_of = tied[first], parts_of[first]
                ratio = least[parts_of]
                # Runner-up: the least ratio of the part's other rows (a
                # tie's when it has one); a part with no other candidate
                # has none.
                ratios[tied] = np.inf
                second = np.fmin.reduceat(ratios, starts)[parts_of]
                runner_up = second.tolist()
                if not second.max() < np.inf:
                    if infinite_prices is None:
                        infinite_prices = bool(np.isinf(prices).any())
                    if infinite_prices:
                        candidate = active & (utilities > 0)
                        counts = np.add.reduceat(candidate, starts, dtype=np.int64)
                        lone = counts[parts_of] == 1
                    else:  # an infinite runner-up: no other candidate
                        lone = ~(second < np.inf)
                    for i in lone.nonzero()[0].tolist():
                        runner_up[i] = None
                head_cover, head_seller_cov = by_column(tied, parts_of)
                if exact_guard:
                    walk = range(tied.size)
                else:
                    # :meth:`ColumnarState.would_strand` per buyer column,
                    # then per part.
                    need = demand - granted - head_cover
                    short = (need > 0) & (suppliers - head_seller_cov < need)
                    walk = np.logical_or.reduceat(short, col_starts[:-1])
                    walk = walk[parts_of].nonzero()[0].tolist()
                heads, head_parts, ratio = (
                    tied.tolist(), parts_of.tolist(), ratio.tolist()
                )
            else:
                least = np.fmin.reduce(ratios)
                if least < np.inf:
                    tied = (ratios == least).nonzero()[0]
                else:
                    candidate = active & (utilities > 0)
                    ratios = np.where(candidate, ratios, np.inf)
                    tied = candidate.nonzero()[0]
                    if not tied.size:
                        trajectories[runs[0]] = None
                        break
                if tied.size > 1:
                    tied = tied[
                        np.lexsort(
                            (bid_indices[tied], seller_ids[tied], prices[tied])
                        )
                    ]
                    runner_up = [float(least)]
                else:
                    ratios[tied] = np.inf
                    second = float(np.fmin.reduce(ratios))
                    if second < math.inf:
                        runner_up = [second]
                    else:
                        # Without +∞ prices no other candidate is left.
                        if infinite_prices is None:
                            infinite_prices = bool(np.isinf(prices).any())
                        others = infinite_prices and np.count_nonzero(
                            active & (utilities > 0)
                        ) > 1
                        runner_up = [second if others else None]
                heads, head_parts, ratio = [int(tied[0])], [0], [float(least)]
                head_cover = cover[heads[0]]
                walk = (
                    [0]
                    if exact_guard
                    or _strands(
                        demand - granted,
                        suppliers,
                        head_cover,
                        seller_cov[seller_rows[heads[0]]],
                    )
                    else []
                )
            record.steps.append((granted, active, utilities, suppliers, unsat))
            for k in head_parts:
                states[k].unmet.append(left[k])
            if _OBS.enabled:
                scanned += int(np.count_nonzero(active & (utilities > 0)))
            for i in walk:
                k = head_parts[i]
                state = states[k][len(states[k]) - 1]
                order, ordered = _ordered_candidates(state)
                pos = _guarded_choice(state, order, exact_guard=exact_guard)
                heads[i] = row_starts[k] + int(order[pos])
                ratio[i] = float(ordered[pos])
                runner_up[i] = (
                    float(ordered[pos + 1]) if pos + 1 < order.size else None
                )
            if walk:
                walks += len(walk)
                if sharded:
                    head_cover, head_seller_cov = by_column(heads, parts_of)
                else:
                    head_cover = cover[heads[0]]
            head_utilities = utilities[heads].tolist()
            for i, k in enumerate(head_parts):
                run, part, start, cols = books[k]
                row = heads[i] - start
                run.append(
                    GreedyStep(
                        iteration=len(run),
                        bid=part.bids[row],
                        utility=head_utilities[i],
                        ratio=ratio[i],
                        runner_up_ratio=runner_up[i],
                        coverage_before=_Granted(part, granted[cols]),
                    )
                )
                run.rows.append(row)
            # Every head wins: its cover is granted, each newly
            # saturated buyer costs its covering rows a unit of utility,
            # and its seller leaves the market.
            if sharded:
                gained = np.add.reduceat(
                    head_cover & unsat, col_starts[:-1], dtype=np.int64
                )
                for k, units in zip(head_parts, gained[parts_of].tolist()):
                    left[k] -= units
                    if not left[k]:
                        live[k] = False
                        n_live -= 1
                granted = granted + head_cover
                suppliers = suppliers - head_seller_cov
                retired = seller_table[seller_rows[heads]]
            else:
                head_seller = seller_rows[heads[0]]
                left[0] -= int(np.count_nonzero(head_cover & unsat))
                n_live = int(left[0] > 0)
                granted = granted + head_cover
                suppliers = suppliers - seller_cov[head_seller]
                retired = seller_table[head_seller]
            newly = unsat & (granted >= demand)
            saturated = newly.nonzero()[0]
            if saturated.size:
                unsat = unsat ^ newly
                utilities = utilities - cover[:, saturated].sum(axis=1)
            active = active.copy()
            active[retired] = False
            live_prices = live_prices.copy()
            live_prices[retired] = np.inf
    if _OBS.enabled:
        metrics = _OBS.metrics
        metrics.counter("engine.columnar.candidates_scanned").inc(scanned)
        metrics.counter("engine.columnar.selection_walks").inc(walks)
    for k, units in zip(runs, left):
        unmet[k] = units
    return trajectories, unmet


# A lockstep chunk holds at most ``_LOCKSTEP_CELLS // width`` replays
# (``width``: the widest layout's bid count); the same cell budget
# bounds the prefix guard's (step, row) × buyers tensor.
_LOCKSTEP_CELLS = 65_536


def _strands(need, suppliers, cover_rows, seller_cov_rows) -> np.ndarray:
    """:meth:`ColumnarState.would_strand` for the candidate whose cover
    and seller coverage are ``cover_rows`` and ``seller_cov_rows`` (one
    per row when 2-D); ``need`` is the residual demand."""
    need = need - cover_rows
    return ((need > 0) & (suppliers - seller_cov_rows < need)).any(axis=-1)


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

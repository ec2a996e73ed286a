"""The benchmark's three closed-loop workloads.

Each workload keeps one MSOA round in flight at a time, as the round
protocol requires: the next round's input is generated (untimed) only
after the previous round's timed call returned.  Every workload runs
``engine="columnar"`` and makes its inputs from the seed alone.

* ``stream_shard`` — region-sharded streaming MSOA
  (:class:`repro.shard.ShardedOnlineAuction` fed by
  :func:`repro.shard.streaming.stream_rounds`).
* ``wide_market`` — one unsharded
  :class:`repro.core.msoa.MultiStageOnlineAuction` over ~4,000 standing
  bids re-priced every round.
* ``serve_tcp`` — many short :func:`repro.api.serve` sessions over
  loopback TCP on the virtual clock, seller agents on the same loop.

See ``README.md`` beside this file for why each workload exists and for
the noise sources the settings below remove.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import gc
import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.api import serve
from repro.core.bids import Bid
from repro.core.msoa import MultiStageOnlineAuction, run_msoa
from repro.core.wsp import WSPInstance
from repro.dist.scenario import DistScenario, replay_scenario
from repro.dist.workers import agent_worker
from repro.errors import (
    InfeasibleInstanceError,
    SimulationError,
    TransportError,
)
from repro.shard import ShardedOnlineAuction
from repro.shard.streaming import (
    StreamConfig,
    region_plan,
    stream_capacities,
    stream_rounds,
)

# A round that raises one of these is counted as failed; the run goes on.
ROUND_ERRORS = (InfeasibleInstanceError, TransportError, SimulationError)

SETUPS = 3  # constructions per run; setup_s reports their median
BIDS_PER_SELLER = 2  # wide_market
IR_TOLERANCE = 1e-9

# Machine-speed probe.  On a shared 2-vCPU VM the CPU runs ~1.5x slower
# for tens of seconds at a time while neighbours are busy; a run often
# sits in one such phase, which spread wall-clock medians of identical
# code by 30% between runs.  A fixed kernel timed just before
# every round measures the current speed, and each round's time is
# scaled to the speed at which the kernel takes REFERENCE_PROBE_S.
REFERENCE_PROBE_S = 1.6e-3
PROBE_WINDOW_S = 1.0  # probes within this many seconds set a round's speed
_PROBE_ROW = np.arange(256, dtype=float)


def speed_probe() -> float:
    """Time a fixed mix of small-array numpy and interpreter work.

    The garbage collector is off while it runs, so a heap the rounds
    have grown cannot make the probe slower and so be divided out of
    the rounds' times.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        column = _PROBE_ROW.copy()
        total = 0.0
        for i in range(100):
            order = np.lexsort((column, _PROBE_ROW))
            total += float(column[np.flatnonzero(column[order] > i)].sum())
            column[i] += 1.0
            total += sum({j: j * i for j in range(24)}.values())
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Run:
    """Everything one timed loop produced."""

    started_s: list[float] = field(default_factory=list)  # timed calls
    elapsed_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)  # probe before each
    ok: list[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    # Economics over the first ``econ_rounds`` rounds (deterministic
    # per seed however many rounds the time budget allows).
    cost: float = 0.0
    payment: float = 0.0
    covered: int = 0
    demanded: int = 0
    winners: int = 0
    errors: list[str] = field(default_factory=list)  # failed checks
    notes: list[str] = field(default_factory=list)  # failed rounds
    opened: int = 0  # serve_tcp: sellers sent a RoundOpen
    unanswered: int = 0  # serve_tcp: timed out or late among those
    pool: int = 0  # serve_tcp: distinct sessions the run cycles through

    def fail_check(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def note_failure(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)

    def timed(self, started: float, probe: float, ok: bool) -> None:
        self.started_s.append(started)
        self.elapsed_s.append(time.perf_counter() - started)
        self.probe_s.append(probe)
        self.ok.append(ok)

    def scales(self) -> list[float]:
        """Per timed call: the factor taking it to the reference speed.

        The machine's speed during a call is the median probe within
        ``PROBE_WINDOW_S`` of its start — unless the probes on both sides
        of the call (before it, and before the next one) were slower: a
        burst of contention covering the call.
        """
        starts, probes = self.started_s, self.probe_s
        factors = []
        for k, start in enumerate(starts):
            around = statistics.median(probes[
                bisect.bisect_left(starts, start - PROBE_WINDOW_S):
                bisect.bisect_right(starts, start + PROBE_WINDOW_S)
            ])
            after = probes[min(k + 1, len(probes) - 1)]
            factors.append(
                REFERENCE_PROBE_S / max(around, min(probes[k], after))
            )
        return factors

    def scaled_s(self) -> list[float]:
        """Each timed call's duration at the reference machine speed."""
        return [e * f for e, f in zip(self.elapsed_s, self.scales())]

    def round_samples_ms(self) -> list[float]:
        """Scaled durations of the rounds that cleared, in ms."""
        return [s * 1e3 for s, ok in zip(self.scaled_s(), self.ok) if ok]

    @property
    def busy_s(self) -> float:
        return sum(self.scaled_s())

    @property
    def rounds_per_s(self) -> float:
        busy = self.busy_s
        return sum(self.ok) / busy if busy else 0.0

    @property
    def wall_rounds_per_s(self) -> float:
        """``rounds_per_s`` from unscaled wall-clock time."""
        busy = sum(self.elapsed_s)
        return sum(self.ok) / busy if busy else 0.0

    def wall_samples_ms(self) -> list[float]:
        """Unscaled durations of the rounds that cleared, in ms."""
        return [e * 1e3 for e, ok in zip(self.elapsed_s, self.ok) if ok]


def outcome_digest(outcome) -> str:
    """Exact fingerprint of a cleared round (winners, payments, prices)."""
    h = hashlib.blake2b(digest_size=16)
    for w in outcome.winners:
        h.update(
            f"{w.bid.seller},{w.bid.index},{float(w.payment).hex()},"
            f"{float(w.original_price).hex()};".encode()
        )
    return h.hexdigest()


def report_digest(report) -> str:
    """Exact fingerprint of a served platform round."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((
        report.round_index,
        sorted(report.demand_units.items()),
        [(seller, sorted(covered)) for seller, covered in report.transfers],
    )).encode())
    if report.auction is not None:
        h.update(outcome_digest(report.auction.outcome).encode())
    return h.hexdigest()


def account(run: Run, result, demand, *, in_prefix: bool,
            may_skip: bool = False) -> None:
    """Output checks and economics for one cleared MSOA round.

    ``demand`` is the round's input demand (buyer -> units), as handed
    to the program.  Covered units are counted from the winning bids
    themselves, so the check compares the outcome against its input:
    SSAM is complete, so a round that cleared must cover all of it.
    With ``may_skip`` (the platform's ``on_infeasible="skip"``) a round
    whose auction cleared no demand and no winner is no error, but its
    demand still counts as demanded, so skipped rounds lower
    ``coverage``.
    """
    outcome = result.outcome
    demand = {b: u for b, u in demand.items() if u > 0}
    wanted = sum(demand.values())
    granted = Counter(b for w in outcome.winners for b in w.bid.covered)
    covered = sum(min(units, granted[b]) for b, units in demand.items())
    cleared = {b: u for b, u in outcome.instance.demand.items() if u > 0}
    if not (may_skip and not cleared and not outcome.winners):
        if cleared != demand:
            run.fail_check(
                f"round {result.round_index}: the auction cleared "
                f"{sum(cleared.values())} demand units, the input asked "
                f"{wanted}"
            )
        elif covered != wanted or outcome.unmet_units:
            run.fail_check(
                f"round {result.round_index}: winners cover {covered} of "
                f"{wanted} units (outcome reports {outcome.unmet_units} "
                "unmet)"
            )
    for w in outcome.winners:
        if w.payment < w.original_price - IR_TOLERANCE:
            run.fail_check(
                f"round {result.round_index}: IR violated for {w.bid.key}: "
                f"payment {w.payment} < price {w.original_price}"
            )
    run.winners += len(outcome.winners)
    if in_prefix:
        run.cost += result.social_cost
        run.payment += result.total_payment
        run.covered += covered
        run.demanded += wanted


@contextlib.contextmanager
def quiet_heap():
    """Collect garbage, then freeze the survivors for the timed loop.

    Frozen objects — imported modules, the benchmark's own inputs, the
    program's set-up state — are skipped by full collections, so those
    collections only scan what the rounds allocate.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def check_capacities(run: Run, auction, sellers) -> None:
    """Capacity used must stay within Θ for every seller."""
    for seller in sellers:
        remaining = auction.remaining_capacity(seller)
        if remaining is not None and remaining < 0:
            run.fail_check(f"seller {seller} exceeded its capacity")


class Workload:
    """A seeded closed loop over MSOA rounds."""

    name: str
    # Spans that must fire in the traced run (a rename must not
    # silently report zero).
    expected_spans: frozenset[str]
    econ_rounds = 100  # a run measures at least this many rounds
    trace_rounds = 20  # and a traced run at least this many

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run(self, seconds: float, *, min_rounds: int = 0,
            rounds: int | None = None, recorder=None) -> Run:
        """Measure for ``seconds`` (and at least ``min_rounds`` rounds),
        or exactly ``rounds`` rounds when given."""
        raise NotImplementedError

    def verify(self, run: Run) -> None:
        """Untimed oracle checks on a finished run."""

    def layer_extras(self, run: Run) -> dict[str, float]:
        """Per-layer metrics the workload measures itself."""
        return {"dist.timeout_share": 0.0, "dist.session_setup.ms": 0.0}

    def _loop(self, run: Run, next_input, clear, *, seconds, min_rounds,
              rounds, recorder) -> None:
        with quiet_heap():
            self._rounds(run, next_input, clear, seconds=seconds,
                         min_rounds=min_rounds, rounds=rounds,
                         recorder=recorder)

    def _rounds(self, run: Run, next_input, clear, *, seconds, min_rounds,
                rounds, recorder) -> None:
        started = time.perf_counter()
        k = 0
        while True:
            if rounds is not None:
                if k >= rounds:
                    break
            elif k >= min_rounds and time.perf_counter() - started >= seconds:
                break
            instance = next_input()
            probe = speed_probe()
            if recorder is not None:
                recorder.round_id = k
            t0 = time.perf_counter()
            try:
                result = clear(instance)
            except ROUND_ERRORS as error:
                result = None
                run.note_failure(f"round {k} raised {error!r}")
            run.timed(t0, probe, ok=result is not None)
            if recorder is not None:
                recorder.round_id = None
            run.attempted += 1
            if result is None:
                run.failed += 1
                run.digests.append("failed")
            else:
                run.digests.append(outcome_digest(result.outcome))
                account(run, result, instance.demand,
                        in_prefix=k < self.econ_rounds)
            k += 1


class StreamShard(Workload):
    """Region-sharded streaming MSOA with the ``shard_1m`` region shape."""

    name = "stream_shard"
    expected_spans = frozenset({
        "msoa.round", "shard.round", "shard.partition", "columnar.build",
        "columnar.subset", "ssam.selection", "ssam.payments",
    })

    def __init__(self, seed: int, *, regions: int = 8,
                 buyers_per_region: int = 25,
                 sellers_per_region: int = 75) -> None:
        super().__init__(seed)
        # ``rounds`` only bounds the lazy stream and sizes Θ; a run
        # stops on time long before.
        self.config = StreamConfig(
            rounds=10_000,
            regions=regions,
            buyers_per_region=buyers_per_region,
            sellers_per_region=sellers_per_region,
            demand_range=(2, 3),
            cross_region_fraction=0.05,
        )

    def run(self, seconds, *, min_rounds=0, rounds=None, recorder=None):
        run = Run()
        stream = stream_rounds(self.config, np.random.default_rng(self.seed))
        capacities = stream_capacities(self.config)
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            auction = ShardedOnlineAuction(
                capacities,
                plan=region_plan(self.config),
                # "auto" is a GIL-bound thread pool: slower and noisier
                # than serial on a 2-vCPU box.
                shard_workers=1,
                engine="columnar",
                retain_rounds=False,
            )
            run.setup_s.append(time.perf_counter() - t0)
        self._loop(run, lambda: next(stream), auction.process_round,
                   seconds=seconds, min_rounds=min_rounds, rounds=rounds,
                   recorder=recorder)
        check_capacities(run, auction, capacities)
        return run


class WideMarket(Workload):
    """One unsharded MSOA over thousands of standing, re-priced bids."""

    name = "wide_market"
    expected_spans = frozenset({
        "msoa.round", "columnar.build", "columnar.with_bids",
        "ssam.selection", "ssam.payments",
    })
    seller_base = 1_000
    price_range = (10.0, 35.0)
    price_ceiling = 50.0
    spot_rounds = 2  # rounds re-cleared on the reference engine
    econ_rounds = 200

    def __init__(self, seed: int, *, sellers: int = 2_000,
                 buyers: int = 12) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.keys = []
        for s in range(sellers):
            for j in range(BIDS_PER_SELLER):
                k = int(rng.integers(1, 4))
                covered = frozenset(
                    int(b) for b in rng.choice(buyers, size=k, replace=False)
                )
                self.keys.append((self.seller_base + s, j, covered))
        # Fixed demand (1 or 2 units, alternating): drawn demand made the
        # winner count, and with it the round time, differ ~15% by seed.
        self.demand = {b: 1 + b % 2 for b in range(buyers)}
        self.price_seed = int(rng.integers(2**63))
        # Θ so large that admission never excludes a bid: every round
        # keeps the structure, so the columnar cache must hit.
        self.capacities = {self.seller_base + s: 10**9 for s in range(sellers)}

    def instances(self):
        """The horizon: same structure and demand, fresh prices."""
        rng = np.random.default_rng(self.price_seed)
        while True:
            prices = rng.uniform(*self.price_range, size=len(self.keys))
            yield WSPInstance(
                bids=tuple(
                    Bid(seller=s, index=j, covered=c, price=p, true_cost=p)
                    for (s, j, c), p in zip(self.keys, prices.tolist())
                ),
                demand=self.demand,
                price_ceiling=self.price_ceiling,
            )

    def run(self, seconds, *, min_rounds=0, rounds=None, recorder=None):
        run = Run()
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            auction = MultiStageOnlineAuction(
                self.capacities, engine="columnar", retain_rounds=False
            )
            run.setup_s.append(time.perf_counter() - t0)
        stream = self.instances()
        self._loop(run, lambda: next(stream), auction.process_round,
                   seconds=seconds, min_rounds=min_rounds, rounds=rounds,
                   recorder=recorder)
        check_capacities(run, auction, self.capacities)
        return run

    def verify(self, run: Run) -> None:
        stream = self.instances()
        horizon = [next(stream) for _ in range(self.spot_rounds)]
        reference = run_msoa(
            horizon, self.capacities, engine="reference", parallelism=1
        )
        for i, result in enumerate(reference.rounds[: len(run.digests)]):
            if outcome_digest(result.outcome) != run.digests[i]:
                run.fail_check(f"round {i} differs from the reference engine")


class ServeTcp(Workload):
    """Short seeded serving sessions over loopback TCP."""

    name = "serve_tcp"
    # The pool of 100 sessions: one session's economics vary widely.
    econ_rounds = 1000
    trace_rounds = 100
    expected_spans = frozenset({
        "dist.round", "platform.begin", "platform.complete",
        "sim.run_until", "demand.estimate", "dist.write_frame",
        "msoa.round", "columnar.build", "ssam.selection", "ssam.payments",
    })

    def __init__(self, seed: int, *, clouds: int = 4,
                 horizon: int = 10) -> None:
        super().__init__(seed)
        self.clouds = clouds
        self.horizon = horizon

    def scenario(self, session: int) -> DistScenario:
        # The default per-cloud ratio: 4 services (1 overloaded) and 30
        # users per cloud.  Scaling services alone empties the market.
        return DistScenario(
            seed=self.seed * 10_000 + session,
            n_clouds=self.clouds,
            n_services=4 * self.clouds,
            overloaded=tuple(range(1, self.clouds + 1)),
            n_users=30 * self.clouds,
            horizon_rounds=self.horizon,
            engine="columnar",
        )

    def run(self, seconds, *, min_rounds=0, rounds=None, recorder=None):
        """Cycle through a fixed pool of ``min_rounds / horizon`` sessions.

        The pool is played once in full, then again from its start until
        the time is up.  A session's rounds are the same on every pass,
        so ``attempted`` and ``failed`` count distinct rounds of the pool:
        they depend on the seed alone, not on how many passes the time
        allowed.  A round counts as failed if it failed on any pass.
        """
        if rounds is not None and rounds % self.horizon:
            raise ValueError("serve_tcp runs whole sessions")
        run = Run(pool=max(1, -(-min_rounds // self.horizon)))
        failed_at: set[tuple[int, int]] = set()
        with quiet_heap():
            asyncio.run(self._sessions(run, failed_at, seconds, rounds,
                                       recorder))
        run.attempted = min(len(run.digests), run.pool * self.horizon)
        run.failed = len(failed_at)
        if run.winners == 0:
            run.fail_check("no session cleared a winner: the market is empty")
        return run

    async def _sessions(self, run, failed_at, seconds, rounds, recorder):
        started = time.perf_counter()
        session = 0
        while True:
            if rounds is not None:
                if len(run.digests) >= rounds:
                    break
            elif (session >= run.pool
                  and time.perf_counter() - started >= seconds):
                break
            await self._session(run, failed_at, session, recorder)
            session += 1

    async def _session(self, run: Run, failed_at: set[tuple[int, int]],
                       session: int, recorder) -> None:
        member = session % run.pool
        first_pass = session < run.pool
        scenario = self.scenario(member)
        t0 = time.perf_counter()
        service = serve(scenario, listen=("127.0.0.1", 0), agent_processes=0)
        agents: list[asyncio.Task] = []

        def on_listening(address):
            # Sellers run as tasks on this loop over one connection: a
            # spawned agent process made round times spread 47-79/s.
            agents.append(asyncio.get_running_loop().create_task(
                agent_worker(address[0], address[1],
                             scenario.seller_ids(), scenario)
            ))

        service.on_listening = on_listening
        orchestrator = service.orchestrator
        run_round = orchestrator.run_round
        # Timeouts, late bids and dropped sellers surface only as repro.obs
        # events, and repro.obs stays disabled: count them at the
        # orchestrator's collection steps instead (instance attributes,
        # so no other orchestrator is affected).
        collect, gather = orchestrator._collect, orchestrator._gather
        tally = {"contexts": 0, "opened": 0, "accepted": 0}

        async def counted_collect(context):
            tally["contexts"] = len(context.seller_contexts)
            return await collect(context)

        async def counted_gather(round_index, pending, deadline):
            tally["opened"] = len(pending)
            accepted, latest = await gather(round_index, pending, deadline)
            tally["accepted"] = len(accepted)
            return accepted, latest

        orchestrator._collect = counted_collect
        orchestrator._gather = counted_gather
        done = 0
        diverged = False

        async def timed_round():
            nonlocal done, diverged
            if done == 0:
                run.setup_s.append(time.perf_counter() - t0)
            probe = speed_probe()
            if recorder is not None:
                recorder.round_id = len(run.elapsed_s)
            start = time.perf_counter()
            try:
                report = await run_round()
            except ROUND_ERRORS:
                run.timed(start, probe, ok=False)
                diverged = True
                failed_at.add((member, done))
                run.digests.append("failed")
                raise
            finally:
                if recorder is not None:
                    recorder.round_id = None
                done += 1
            run.opened += tally["opened"]
            run.unanswered += tally["opened"] - tally["accepted"]
            if diverged or tally["accepted"] != tally["contexts"]:
                # A dropped, late or timed-out seller: the round cleared
                # without its bids, so it (and the rest of the session,
                # whose state now differs) counts as failed.
                run.timed(start, probe, ok=False)
                diverged = True
                failed_at.add((member, done - 1))
                run.digests.append("failed")
            else:
                run.timed(start, probe, ok=True)
                run.digests.append(report_digest(report))
                if report.auction is not None:
                    # The platform clears with on_infeasible="skip".
                    account(run, report.auction, report.demand_units,
                            in_prefix=first_pass, may_skip=True)
            return report

        orchestrator.run_round = timed_round
        try:
            await service.serve_rounds(self.horizon)
        except ROUND_ERRORS as error:
            run.note_failure(f"session {member} raised {error!r}")
            failed_at.update((member, i) for i in range(done, self.horizon))
            run.digests.extend(["failed"] * (self.horizon - done))
        finally:
            await self._stop(agents)
        check_capacities(run, service.platform.auction, scenario.seller_ids())

    @staticmethod
    async def _stop(agents: list[asyncio.Task]) -> None:
        if not agents:
            return
        done, pending = await asyncio.wait(agents, timeout=10.0)
        for task in pending:
            task.cancel()
        await asyncio.gather(*agents, return_exceptions=True)

    def layer_extras(self, run: Run) -> dict[str, float]:
        later = run.setup_s[1:]  # the first session also warms caches
        return {
            "dist.timeout_share": (
                run.unanswered / run.opened if run.opened else 0.0
            ),
            "dist.session_setup.ms": (
                statistics.median(later) * 1e3 if later else 0.0
            ),
        }

    def verify(self, run: Run) -> None:
        """Served reports must equal the synchronous replay oracle.

        Every pass of a session is compared up to its first failed round:
        the rounds after it are accounted as failed, and the replay would
        fail at the same point.  Each pool session is replayed once.
        """
        replays: dict[tuple[int, int], list[str]] = {}
        for session in range(len(run.digests) // self.horizon):
            member = session % run.pool
            served = run.digests[
                session * self.horizon: (session + 1) * self.horizon
            ]
            cleared = (served + ["failed"]).index("failed")
            if not cleared:
                continue
            if (member, cleared) not in replays:
                replays[member, cleared] = [
                    report_digest(report) for report in
                    replay_scenario(self.scenario(member), cleared)
                ]
            for i, (got, want) in enumerate(
                    zip(served, replays[member, cleared])):
                if got != want:
                    run.fail_check(
                        f"session {member} round {i} differs from "
                        "replay_scenario"
                    )
                    break


WORKLOADS = {w.name: w for w in (StreamShard, WideMarket, ServeTcp)}


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``samples``."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]

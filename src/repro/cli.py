"""Command-line interface: run the paper's experiments from a shell.

Usage::

    repro-edge-auction list                  # show available experiments
    repro-edge-auction fig 3a                # regenerate Figure 3(a)
    repro-edge-auction fig all --quick       # all figures, reduced sweep
    repro-edge-auction bench                 # engine perf harness
    repro-edge-auction quickstart            # a tiny end-to-end demo
    repro-edge-auction mechanisms            # list the mechanism registry
    repro-edge-auction run --mechanism vcg   # one mechanism, one market
    repro-edge-auction serve --rounds 6 --check  # async platform + oracle check
    repro-edge-auction serve --transport tcp --rounds 3  # sockets + worker processes
    repro-edge-auction verify --mechanism ssam   # certify economic claims

(Equivalently: ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from repro.core.ssam import ENGINES
from repro.errors import ReproError
from repro.experiments import FULL, QUICK, fig3a, fig3b, fig4a, fig4b, fig5a, fig6a, fig6b

FIGURES = {
    "3a": fig3a,
    "3b": fig3b,
    "4a": fig4a,
    "4b": fig4b,
    "5a": fig5a,
    "6a": fig6a,
    "6b": fig6b,
}


def _cmd_list(_: argparse.Namespace) -> int:
    print("Available experiments (paper figure panels):")
    for key, fn in FIGURES.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  fig {key:3s} {doc}")
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    import dataclasses

    config = QUICK if args.quick else FULL
    if args.engine != config.engine:
        config = dataclasses.replace(config, engine=args.engine)
    if args.trace or args.metrics:
        from repro.obs import ObservabilityConfig

        # Thread the request through ExperimentConfig too, so the runner's
        # activate() path is exercised exactly as library callers use it.
        config = dataclasses.replace(
            config,
            observability=ObservabilityConfig(
                trace_path=args.trace,
                metrics_path=args.metrics,
                trace_max_records=args.trace_limit,
                trace_sample_every=args.trace_sample,
            ),
        )
    if args.faults:
        from repro.faults import load_fault_plan

        config = dataclasses.replace(
            config, faults=load_fault_plan(args.faults)
        )
    keys = list(FIGURES) if args.panel == "all" else [args.panel]
    for key in keys:
        if key not in FIGURES:
            print(f"unknown figure panel {key!r}; try 'list'", file=sys.stderr)
            return 2
        table = FIGURES[key](config)
        print(table.render())
        print()
    return 0


def _cmd_compare(_: argparse.Namespace) -> int:
    from repro.analysis.reporting import ResultTable
    from repro.baselines import (
        run_pay_as_bid,
        run_posted_price,
        run_random_selection,
        run_vcg,
    )
    from repro import MarketConfig, generate_round, run_ssam

    rng = np.random.default_rng(7)
    instance = generate_round(MarketConfig(), rng)
    table = ResultTable(
        title="Mechanism comparison (one paper-default round)",
        columns=["mechanism", "social_cost", "payment"],
        precision=2,
    )
    ssam = run_ssam(instance)
    vcg = run_vcg(instance)
    pab = run_pay_as_bid(instance)
    rnd = run_random_selection(instance, rng)
    posted = run_posted_price(instance, unit_price=35.0)
    table.add_row(mechanism="VCG (optimal)", social_cost=vcg.social_cost,
                  payment=vcg.total_payment)
    table.add_row(mechanism="SSAM", social_cost=ssam.social_cost,
                  payment=ssam.total_payment)
    table.add_row(mechanism="pay-as-bid", social_cost=pab.social_cost,
                  payment=pab.total_payment)
    table.add_row(mechanism="random", social_cost=rnd.social_cost,
                  payment=rnd.total_payment)
    table.add_row(mechanism="posted@35", social_cost=posted.social_cost,
                  payment=posted.total_payment)
    print(table.render())
    return 0


def _parse_hostport(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` CLI operand."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer port in {text!r}"
        ) from None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.dist import DistScenario, replay_scenario, serve

    faults = None
    if args.faults:
        from repro.faults import load_fault_plan

        faults = load_fault_plan(args.faults)
    scenario = DistScenario(
        seed=args.seed,
        horizon_rounds=args.rounds,
        mechanism=args.mechanism,
        engine=args.engine,
        shards=args.shards,
        shard_strategy=args.shard_strategy,
        faults=faults,
    )
    if args.connect is not None:
        # Agent-worker mode: serve this terminal's share of the seller
        # fleet against an orchestrator listening elsewhere.
        from repro.dist import run_agent_worker

        sellers = tuple(args.sellers or scenario.seller_ids())
        host, port = args.connect
        print(
            f"serving sellers {list(sellers)} against {host}:{port} "
            f"(seed {args.seed})"
        )
        run_agent_worker(host, port, sellers, scenario)
        print("agents shut down")
        return 0
    if args.check and args.clock == "wall":
        print(
            "error: --check asserts the virtual-clock determinism "
            "contract; it cannot be combined with --clock wall "
            "(wall-clock outcomes depend on real peer latency)",
            file=sys.stderr,
        )
        return 2
    options: dict = {"grace_window": args.grace, "clock": args.clock}
    if args.transport == "tcp":
        options["listen"] = args.listen
        options["agent_processes"] = args.processes
    service = serve(scenario, **options)
    if args.transport == "tcp":
        service.on_listening = lambda addr: print(
            f"listening on {addr[0]}:{addr[1]} "
            f"({args.processes} local agent process(es))"
        )
    reports = service.run()
    print(
        f"served {len(reports)} rounds "
        f"(seed {args.seed}, mechanism {args.mechanism or 'msoa'}, "
        f"grace window {service.orchestrator.grace_window})"
    )
    for report in reports:
        demand = sum(report.demand_units.values())
        if report.auction is None:
            print(f"  round {report.round_index}: no demand")
            continue
        winners = len(report.auction.outcome.winners)
        print(
            f"  round {report.round_index}: demand {demand} units, "
            f"{winners} winning bids, social cost "
            f"{report.auction.social_cost:.2f}"
        )
    ledger = service.ledger
    print(
        f"ledger: paid {ledger.total_paid:.2f}, "
        f"charged {ledger.total_charged:.2f}, "
        f"budget balanced: {ledger.is_budget_balanced}"
    )
    if args.check:
        sync_reports = replay_scenario(scenario, args.rounds)
        matches = [
            (a.auction.outcome.to_dict() if a.auction else None)
            == (s.auction.outcome.to_dict() if s.auction else None)
            for a, s in zip(reports, sync_reports)
        ]
        if all(matches) and len(reports) == len(sync_reports):
            print("determinism check: async outcomes bit-identical to "
                  "synchronous replay")
        else:
            bad = [i for i, ok in enumerate(matches) if not ok]
            print(
                f"determinism check FAILED (rounds {bad})", file=sys.stderr
            )
            return 1
    return 0


def _cmd_trace(_: argparse.Namespace) -> int:
    from repro.analysis.visualize import series_panel
    from repro.baselines.offline import run_offline_optimal
    from repro.core.msoa import run_msoa
    from repro.core.ssam import PaymentRule
    from repro.workload.trace_driven import (
        TraceDrivenConfig,
        generate_trace_driven_horizon,
    )

    rng = np.random.default_rng(11)
    rounds, capacities = generate_trace_driven_horizon(
        TraceDrivenConfig(n_microservices=20, rounds=12), rng
    )
    outcome = run_msoa(
        rounds, capacities,
        payment_rule=PaymentRule.ITERATION_RUNNER_UP,
        on_infeasible="best_effort",
    )
    offline = run_offline_optimal(rounds, capacities)
    print("Trace-driven online sharing (12 diurnal rounds)")
    print(series_panel(
        {
            "demand": [float(r.total_demand) for r in rounds],
            "cost": [r.social_cost for r in outcome.rounds],
        },
        x_label="round",
    ))
    if offline.social_cost > 0:
        print(f"online/offline ratio: "
              f"{outcome.social_cost / offline.social_cost:.3f}")
    return 0


def _cmd_explain(_: argparse.Namespace) -> int:
    from repro import MarketConfig, generate_round, run_ssam
    from repro.core.explain import render_explanation

    rng = np.random.default_rng(17)
    instance = generate_round(
        MarketConfig(n_sellers=10, n_buyers=4), rng
    )
    outcome = run_ssam(instance)
    print(render_explanation(outcome))
    return 0


def _cmd_mechanisms(_: argparse.Namespace) -> int:
    from repro.analysis.reporting import ResultTable
    from repro.core.registry import mechanism_specs

    table = ResultTable(
        title="Registered mechanisms",
        columns=[
            "name", "kind", "truthful", "payment_rule", "paper_ref",
        ],
    )
    for spec in mechanism_specs():
        table.add_row(
            name=spec.name,
            kind=spec.kind,
            truthful=spec.truthful,
            payment_rule=spec.payment_rule,
            paper_ref=spec.paper_ref,
        )
    print(table.render())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.registry import get_mechanism, get_spec
    from repro.experiments.storage import save_outcome
    from repro.workload.bidgen import (
        MarketConfig,
        generate_horizon,
        generate_round,
    )

    spec = get_spec(args.mechanism)
    mechanism = get_mechanism(args.mechanism)
    rng = np.random.default_rng(args.seed)
    if args.faults:
        from repro.core.registry import make_online
        from repro.faults import load_fault_plan

        if spec.kind == "horizon":
            print("--faults needs a mechanism that runs online; "
                  f"{spec.name} is a horizon benchmark", file=sys.stderr)
            return 2
        plan = load_fault_plan(args.faults)
        horizon, capacities = generate_horizon(
            MarketConfig(), rng, rounds=args.rounds
        )
        online = make_online(
            args.mechanism, capacities, on_infeasible="skip", faults=plan
        )
        for instance in horizon:
            online.process_round(instance)
        outcome = online.finalize()
        print(f"{spec.name} over {args.rounds} rounds (seed {args.seed}) "
              f"under fault plan {args.faults}:")
        print(f"  social cost   {outcome.social_cost:.2f}")
        print(f"  total payment {outcome.total_payment:.2f}")
        print(f"  fault events  {outcome.fault_events}")
        if outcome.degraded_rounds:
            print(f"  DEGRADED rounds {outcome.degraded_rounds}: "
                  f"{outcome.uncovered_units} units left uncovered")
        else:
            print("  full coverage (every default recovered)")
        if args.out:
            save_outcome(outcome, args.out)
            print(f"wrote {args.out}")
        return 0
    if spec.kind == "single":
        instance = generate_round(MarketConfig(), rng)
        outcome = mechanism(instance)
        print(f"{spec.name} on one paper-default round (seed {args.seed}):")
        print(f"  {len(instance.bids)} bids, demand "
              f"{instance.total_demand} units")
        print(f"  social cost   {outcome.social_cost:.2f}")
        print(f"  total payment {outcome.total_payment:.2f} across "
              f"{len(outcome.winners)} winners")
        if not outcome.satisfied:
            print(f"  UNMET demand: {outcome.unmet_units} units")
    else:
        horizon, capacities = generate_horizon(
            MarketConfig(), rng, rounds=args.rounds
        )
        if spec.kind == "online":
            outcome = mechanism(horizon, capacities, on_infeasible="skip")
            print(f"{spec.name} over {args.rounds} rounds (seed {args.seed}):")
            print(f"  social cost   {outcome.social_cost:.2f}")
            print(f"  total payment {outcome.total_payment:.2f}")
        else:  # horizon benchmark
            outcome = mechanism(horizon, capacities)
            print(f"{spec.name} over {args.rounds} rounds (seed {args.seed}):")
            print(f"  social cost {outcome.social_cost:.2f} "
                  f"(exact={outcome.exact})")
    if args.out:
        if not hasattr(outcome, "to_dict"):
            print(f"--out is not supported for {spec.kind} benchmarks",
                  file=sys.stderr)
            return 2
        save_outcome(outcome, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench_engine import (
        render_engine_bench,
        run_engine_bench,
        write_engine_bench,
    )

    if args.faults:
        from repro.experiments.resilience import evaluate_fault_plan
        from repro.faults import load_fault_plan

        plan = load_fault_plan(args.faults)
        table = evaluate_fault_plan(plan, rounds=4 if args.quick else 8)
        print(table.render())
        return 0

    if args.scale:
        return _run_scale_bench(args)

    payload = run_engine_bench(quick=args.quick)
    print(render_engine_bench(payload))
    target = write_engine_bench(payload, args.out or "BENCH_engine.json")
    print(f"\nwrote {target}")
    if not all(row["equivalent"] for row in payload["cases"]):
        print("ERROR: columnar engine diverged from the reference oracle",
              file=sys.stderr)
        return 1
    return 0


def _run_scale_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench_scale import (
        check_scale_regression,
        default_shard_case,
        load_scale_bench,
        render_scale_bench,
        run_scale_bench,
        write_scale_bench,
    )

    shard_case = default_shard_case(
        quick=args.quick,
        shards=args.shards,
        strategy=args.shard_strategy,
    )
    baseline = load_scale_bench(args.against) if args.against else None
    payload = run_scale_bench(quick=args.quick, shard_case=shard_case)
    print(render_scale_bench(payload, baseline=baseline))
    target = write_scale_bench(payload, args.out or "BENCH_scale.json")
    print(f"\nwrote {target}")
    ok = True
    # shard["equivalent"] is None when the unsharded twin was skipped
    # (full tier); only an explicit False is a divergence.
    if (
        not all(row["equivalent"] for row in payload["cases"])
        or not payload["msoa"]["equivalent"]
        or payload["shard"]["equivalent"] is False
    ):
        print(
            "ERROR: columnar engine diverged from the reference oracle",
            file=sys.stderr,
        )
        ok = False
    if baseline is not None:
        failures = check_scale_regression(payload, baseline)
        if failures:
            print(
                f"ERROR: speedup regression vs {args.against}:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            ok = False
        else:
            print(f"no regression vs {args.against} (tolerance 20%)")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.verify import certify, certify_all

    if args.all:
        reports = certify_all(instances=args.instances, seed=args.seed)
    else:
        reports = [
            certify(
                args.mechanism,
                instances=args.instances,
                seed=args.seed,
                properties=args.properties or None,
                engine=args.engine,
            )
        ]
    for report in reports:
        print(report.render())
        print()
    if args.report:
        payload = (
            [r.to_dict() for r in reports] if args.all
            else reports[0].to_dict()
        )
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.report}")
    nonconforming = [r.mechanism for r in reports if not r.conforms]
    if nonconforming:
        print(
            "certification FAILED (claims regressed): "
            + ", ".join(nonconforming),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_quickstart(_: argparse.Namespace) -> int:
    from repro import MarketConfig, generate_horizon, run_msoa, run_ssam
    from repro.solvers import solve_wsp_optimal

    rng = np.random.default_rng(7)
    horizon, capacities = generate_horizon(MarketConfig(), rng, rounds=5)
    single = horizon[0]
    outcome = run_ssam(single)
    optimum = solve_wsp_optimal(single).objective
    print(f"single round : {len(single.bids)} bids, demand "
          f"{single.total_demand} units")
    print(f"  SSAM social cost {outcome.social_cost:.2f} "
          f"(optimal {optimum:.2f}, bound x{outcome.ratio_bound:.2f})")
    print(f"  payments {outcome.total_payment:.2f} across "
          f"{len(outcome.winners)} winners")
    online = run_msoa(horizon, capacities)
    print(f"online (5 rounds): social cost {online.social_cost:.2f}, "
          f"competitive bound x{online.competitive_bound:.2f}")
    return 0


def _add_faults_flag(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC.json",
        help=help_text,
    )


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a structured JSONL auction trace (repro.obs) here",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the metrics-registry JSON snapshot here on exit",
    )
    parser.add_argument(
        "--trace-limit",
        type=int,
        default=None,
        metavar="N",
        help="roll the trace file after N records per segment "
        "(bounded disk for long runs; default unbounded)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="K",
        help="keep only every K-th top-level span tree in the trace "
        "(default: keep all)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-edge-auction",
        description=(
            "Reproduction of 'Incentivizing Microservices for Online "
            "Resource Sharing in Edge Clouds' (ICDCS 2019)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments").set_defaults(
        fn=_cmd_list
    )
    fig = sub.add_parser("fig", help="regenerate a figure panel")
    fig.add_argument("panel", help="figure id (3a, 3b, 4a, 4b, 5a, 6a, 6b, all)")
    fig.add_argument(
        "--quick", action="store_true", help="reduced sweep (faster)"
    )
    fig.add_argument(
        "--engine",
        choices=ENGINES,
        default="columnar",
        help="engine for every mechanism run (default columnar)",
    )
    _add_faults_flag(
        fig,
        "fault-plan JSON (repro.faults); every online run of the sweep "
        "executes under it",
    )
    _add_observability_flags(fig)
    fig.set_defaults(fn=_cmd_fig)
    run = sub.add_parser(
        "run", help="run one mechanism by registry name on a default market"
    )
    run.add_argument(
        "--mechanism",
        default="ssam",
        metavar="NAME",
        help="registry name (see 'mechanisms'; default ssam)",
    )
    run.add_argument(
        "--seed", type=int, default=7, metavar="N",
        help="market generator seed (default 7)",
    )
    run.add_argument(
        "--rounds", type=int, default=5, metavar="T",
        help="horizon length for online/horizon mechanisms (default 5)",
    )
    run.add_argument(
        "--out", default=None, metavar="PATH",
        help="save the outcome JSON here (single/online mechanisms)",
    )
    _add_faults_flag(
        run,
        "fault-plan JSON (repro.faults); runs the mechanism online over "
        "--rounds with faults injected (single-round mechanisms are "
        "wrapped by the online adapter)",
    )
    _add_observability_flags(run)
    run.set_defaults(fn=_cmd_run)
    sub.add_parser(
        "mechanisms", help="list the mechanism registry"
    ).set_defaults(fn=_cmd_mechanisms)
    serve = sub.add_parser(
        "serve",
        help="serve auction rounds on the distributed async platform "
        "(repro.dist)",
    )
    serve.add_argument(
        "--rounds", type=int, default=6, metavar="T",
        help="number of auction rounds to serve (default 6)",
    )
    serve.add_argument(
        "--seed", type=int, default=5, metavar="N",
        help="scenario seed (default 5)",
    )
    serve.add_argument(
        "--grace", type=float, default=1.0, metavar="W",
        help="grace window per round on the transport clock (default 1.0; "
        "real seconds under --clock wall)",
    )
    serve.add_argument(
        "--transport",
        choices=("memory", "tcp"),
        default="memory",
        help="message fabric: in-process (default) or TCP sockets with "
        "agents in separate OS processes",
    )
    serve.add_argument(
        "--listen",
        type=_parse_hostport,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="with --transport tcp: bind the orchestrator here "
        "(default 127.0.0.1:0 = loopback, ephemeral port)",
    )
    serve.add_argument(
        "--connect",
        type=_parse_hostport,
        default=None,
        metavar="HOST:PORT",
        help="agent-worker mode: instead of orchestrating, dial an "
        "orchestrator at HOST:PORT and serve seller agents "
        "(use --sellers to pick which; seeds must match the server)",
    )
    serve.add_argument(
        "--sellers",
        type=int,
        nargs="+",
        default=None,
        metavar="ID",
        help="with --connect: seller ids this worker serves "
        "(default: every scenario seller)",
    )
    serve.add_argument(
        "--processes",
        type=int,
        default=2,
        metavar="N",
        help="with --transport tcp: local agent worker processes to spawn "
        "(default 2; 0 = wait for external --connect workers)",
    )
    serve.add_argument(
        "--clock",
        choices=("virtual", "wall"),
        default="virtual",
        help="deadline clock: 'virtual' (deterministic, default) or "
        "'wall' (grace window is a real timeout; relaxes the "
        "determinism contract — see docs/serving.md)",
    )
    serve.add_argument(
        "--mechanism", default=None, metavar="NAME",
        help="clearing mechanism registry name (default: the paper's MSOA)",
    )
    serve.add_argument(
        "--engine",
        choices=ENGINES,
        default="columnar",
        help="clearing engine for mechanisms that accept one "
        "(default columnar)",
    )
    serve.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="clear each round through K geographic shards "
        "(repro.shard; MSOA only, default 1 = unsharded)",
    )
    serve.add_argument(
        "--shard-strategy",
        choices=("hash", "region", "locality"),
        default="hash",
        help="with --shards > 1: buyer partitioning strategy "
        "(region maps each microservice to its edge cloud; default hash)",
    )
    serve.add_argument(
        "--check", action="store_true",
        help="after serving, replay the scenario synchronously and verify "
        "the outcomes are bit-identical (virtual clock only)",
    )
    _add_faults_flag(
        serve,
        "fault-plan JSON (repro.faults); every served round clears under it",
    )
    _add_observability_flags(serve)
    serve.set_defaults(fn=_cmd_serve)
    bench = sub.add_parser(
        "bench",
        help="time the columnar engine vs the reference oracle "
        "(writes BENCH_engine.json; --scale for the 10^4+-bid tier)",
    )
    bench.add_argument(
        "--quick", action="store_true", help="CI-sized cases (faster)"
    )
    bench.add_argument(
        "--scale",
        action="store_true",
        help="run the 10^4-10^5-bid columnar tier instead (reference vs "
        "columnar vs batched payments + MSOA incrementality; writes "
        "BENCH_scale.json)",
    )
    bench.add_argument(
        "--against",
        default=None,
        metavar="PATH",
        help="--scale only: compare speedups against this committed "
        "BENCH_scale.json and fail on a >20%% regression",
    )
    bench.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="--scale only: shard count for the streaming shard case "
        "(default: one shard per stream region)",
    )
    bench.add_argument(
        "--shard-strategy",
        choices=("region", "hash", "locality"),
        default="region",
        help="--scale only: shard plan for the streaming shard case "
        "(default region)",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_engine.json, or "
        "BENCH_scale.json with --scale)",
    )
    _add_faults_flag(
        bench,
        "fault-plan JSON (repro.faults); runs the resilience evaluation "
        "(cost/coverage under the plan vs. fault-free) instead of the "
        "engine bench",
    )
    _add_observability_flags(bench)
    bench.set_defaults(fn=_cmd_bench)
    verify = sub.add_parser(
        "verify",
        help="certify a mechanism's economic properties against its "
        "declared claims",
    )
    verify.add_argument(
        "--mechanism",
        default="ssam",
        metavar="NAME",
        help="registry name to certify (see 'mechanisms'; default ssam)",
    )
    verify.add_argument(
        "--all",
        action="store_true",
        help="certify every single/online registry mechanism (the CI sweep)",
    )
    verify.add_argument(
        "--instances", type=int, default=50, metavar="N",
        help="generated market instances per mechanism (default 50)",
    )
    verify.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="root seed for the instance batch (default 0)",
    )
    verify.add_argument(
        "--properties",
        nargs="+",
        default=None,
        metavar="PROP",
        help="restrict to these properties (default: all applicable)",
    )
    verify.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="selection engine for mechanisms that accept one",
    )
    verify.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the certification report JSON here",
    )
    _add_observability_flags(verify)
    verify.set_defaults(fn=_cmd_verify)
    sub.add_parser(
        "quickstart", help="tiny end-to-end demo"
    ).set_defaults(fn=_cmd_quickstart)
    sub.add_parser(
        "compare", help="SSAM vs baseline mechanisms on one round"
    ).set_defaults(fn=_cmd_compare)
    sub.add_parser(
        "trace", help="online sharing under diurnal trace-driven demand"
    ).set_defaults(fn=_cmd_trace)
    sub.add_parser(
        "explain", help="narrate one auction's decisions and payments"
    ).set_defaults(fn=_cmd_explain)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    try:
        if trace or metrics:
            from repro.obs import configure

            configure(
                trace=trace,
                metrics=metrics,
                trace_max_records=getattr(args, "trace_limit", None),
                trace_sample_every=getattr(args, "trace_sample", None),
            )
        try:
            return args.fn(args)
        finally:
            if trace or metrics:
                from repro.obs import disable

                disable()
                for label, target in (("trace", trace), ("metrics", metrics)):
                    if target:
                        print(f"wrote {label} {target}")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""The paper's primary contribution: truthful single-stage and online
multi-stage auction mechanisms for resource sharing among microservices.

* :mod:`repro.core.bids` / :mod:`repro.core.wsp` — the bidding language and
  the NP-hard winner-selection problem (ILP 12–15).
* :mod:`repro.core.ssam` — Algorithm 1, the greedy primal–dual single-stage
  auction with critical payments.
* :mod:`repro.core.columnar` — the production engine: numpy-vectorized
  greedy selection and batched critical payments, bit-identical to the
  reference loops of :mod:`repro.core.ssam` (``ENGINES`` names the two).
* :mod:`repro.core.msoa` — Algorithm 2, the online framework with
  capacity-aware price scaling.
* :mod:`repro.core.variants` — the MSOA-DA / -RC / -OA evaluation variants.
* :mod:`repro.core.duals` / :mod:`repro.core.ratios` — the primal–dual
  certificates and the Theorem-3 / Theorem-7 bounds.
* :mod:`repro.core.mechanism` / :mod:`repro.core.registry` — the shared
  mechanism protocol and the string-keyed registry dispatching SSAM, the
  baselines, and MSOA by name.
"""

from repro.core.bids import Bid, BidderProfile, group_bids_by_seller, validate_bids
from repro.core.budgeted import BudgetedOutcome, run_budgeted_ssam
from repro.core.duals import DualSolution
from repro.core.explain import (
    IterationExplanation,
    explain_outcome,
    render_explanation,
)
from repro.core.mechanism import (
    Mechanism,
    OnlineMechanism,
    SingleRoundOnlineAdapter,
    outcome_from_selection,
)
from repro.core.msoa import MultiStageOnlineAuction, run_msoa
from repro.core.outcomes import AuctionOutcome, OnlineOutcome, RoundResult, WinningBid
from repro.core.ratios import (
    capacity_margin,
    harmonic,
    msoa_competitive_bound,
    price_spread,
    ssam_ratio_bound,
)
from repro.core.registry import (
    MechanismSpec,
    get_mechanism,
    get_spec,
    list_mechanisms,
    make_online,
    mechanism_specs,
    register,
)
from repro.core.ssam import (
    ENGINES,
    GreedyStep,
    PaymentRule,
    greedy_selection,
    resolve_engine,
    run_ssam,
)
from repro.core.variants import (
    VARIANT_RUNNERS,
    HorizonScenario,
    run_msoa_base,
    run_msoa_da,
    run_msoa_oa,
    run_msoa_rc,
)
from repro.core.wsp import CoverageState, WSPInstance

__all__ = [
    "Bid",
    "BidderProfile",
    "group_bids_by_seller",
    "validate_bids",
    "BudgetedOutcome",
    "run_budgeted_ssam",
    "DualSolution",
    "IterationExplanation",
    "explain_outcome",
    "render_explanation",
    "Mechanism",
    "OnlineMechanism",
    "SingleRoundOnlineAdapter",
    "outcome_from_selection",
    "MechanismSpec",
    "get_mechanism",
    "get_spec",
    "list_mechanisms",
    "make_online",
    "mechanism_specs",
    "register",
    "MultiStageOnlineAuction",
    "run_msoa",
    "AuctionOutcome",
    "OnlineOutcome",
    "RoundResult",
    "WinningBid",
    "capacity_margin",
    "harmonic",
    "msoa_competitive_bound",
    "price_spread",
    "ssam_ratio_bound",
    "ENGINES",
    "GreedyStep",
    "PaymentRule",
    "greedy_selection",
    "resolve_engine",
    "run_ssam",
    "VARIANT_RUNNERS",
    "HorizonScenario",
    "run_msoa_base",
    "run_msoa_da",
    "run_msoa_oa",
    "run_msoa_rc",
    "CoverageState",
    "WSPInstance",
]

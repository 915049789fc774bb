"""Private information retrieval with tunable two-sided leakage.

The package covers the whole pipeline: closed-form download-cost bounds
(alpir.bounds), the retrieval scheme itself (alpir.scheme), analytic and
exact GF(2)-rank privacy auditing (alpir.leakage), a wire-level client/server
simulator (alpir.netsim), and a command-line front end (alpir.cli).
"""

from .bits import BitString
from .bounds import (Bounds, SingleServerOutcome, bounds_report,
                     single_server_cost)
from .leakage import (CostAuditResult, OracleResult, QueryAuditResult,
                      StateSpaceError, analytic_db_leakage,
                      analytic_user_ratio, db_leak_budget_bits,
                      empirical_cost_audit, empirical_query_audit,
                      exact_mi_oracle, ratio_audit_from_counts)
from .params import SystemParams
from .scheme import (Answer, MessageStore, PartitionLayout, PathChoice,
                     PathClass, PathDistribution, QueryVector, ResidualView,
                     answer, classify_base, decode, expected_cost,
                     layout_for_key_bits, make_queries, path_distribution,
                     plan_partition, residual_view, sample_path,
                     session_download_bits)
from .seeding import derive_seed, derived_rng

__version__ = "0.1.0"

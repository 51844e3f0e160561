"""pcnsim: payment-channel network failure-time simulator and analysis toolkit."""

__version__ = "0.1.0"

from .graph import (ChannelGraph, SnapshotDocument, giant_component, ingest_snapshot,
                    make_clique, make_ring, parse_snapshot)
from .paths import (BetweennessMap, DagCache, ShortestPathDag, edge_betweenness,
                    edge_selection_probability, sample_shortest_path, sssp_dag, st_dag)
from .analytics import (BoundReport, chernoff_lower, chernoff_upper,
                        clique_failure_window, expected_hitting_time, fit_scale,
                        hitting_tail_bound, reflection_sandwich,
                        ring_edge_probability, ring_edge_probability_exact,
                        xi_and_bounds)
from .planner import (CapacityPlan, apply_plan, redistribute_uniform,
                      redistribute_xi_optimized)
from .results import (Aggregate, LogHistogram, aggregate, log_histogram, write_aggregates_csv,
                      write_histogram_csv, write_outcomes_csv)
from .rng import PRNG_ID, Rng, run_seed
from .sim import (RunOutcome, SimConfig, capacity_sweep, monte_carlo,
                  multi_amount_experiment, run_bdc_process, run_coupled_clique,
                  run_independent_chains, run_payment_process)

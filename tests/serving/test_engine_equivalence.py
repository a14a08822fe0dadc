"""Report equivalence across the PR 6 engine execution modes.

The vectorized engine core has three independent switches that must never
change the simulated result, only how fast it is computed:

* ``fast_path`` — the event-driven steady-state loop vs the general
  per-iteration loop;
* ``debug_checks`` — per-run invariant auditing (KV-leak assertion) on/off;
* the memoized per-device iteration-cost cache (exercised implicitly by
  running the same engine twice).

Every comparison here is *byte-level* on the serialized JSON report: same
floats, same ordering, same preemption counts.  The committed goldens pin
the absolute behavior; these tests pin the cross-mode equivalence on richer
workload mixes than the goldens cover.
"""

import json

import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import EngineConfig, ServingEngine, poisson_workload

WORKLOADS = {
    # Steady decode at moderate load: long compressible stretches.
    "decode_heavy": dict(num_requests=80, qps=4.0, seed=21, mean_new_tokens=96),
    # Bursty arrivals: admission churn, queueing, small spans.
    "bursty": dict(num_requests=120, qps=60.0, seed=22, mean_new_tokens=32),
    # Shared prefixes under reservation: prefix cache on the fast path.
    "prefix_shared": dict(
        num_requests=60, qps=30.0, seed=23, mean_new_tokens=48,
        shared_prefix_tokens=32, prefix_groups=3,
    ),
    # Single-token decodes: finish events collapse onto prefill iterations.
    "single_token": dict(
        num_requests=50, qps=20.0, seed=24, mean_new_tokens=1, length_jitter=0.0,
    ),
}

CONFIGS = {
    "reserve_1dev": dict(),
    "reserve_4dev": dict(devices=4),
    "reserve_reject": dict(admission="reject", max_batch_size=8),
    "reserve_chunked": dict(prefill_chunk=32),
    # Overlap-aware layered cost model: epoch-keyed cost memo, per-layer
    # placements, drift observation interleaved with macro-stepping.
    "overlap_4dev": dict(devices=4, overlap=True),
    "overlap_replace": dict(devices=2, overlap=True, replacement_threshold=0.05),
    # Swap preemption under reservation: reserve never preempts, so the
    # swap machinery must be fully dormant on both loops.
    "swap_reserve_2dev": dict(devices=2, preempt_mode="swap"),
}


def run_report(workload_kwargs, config_kwargs, **overrides) -> str:
    config = EngineConfig(**{**config_kwargs, **overrides})
    engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
    report = engine.run(poisson_workload(**workload_kwargs))
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_fast_path_report_is_byte_identical(workload, config):
    fast = run_report(WORKLOADS[workload], CONFIGS[config], fast_path=True)
    general = run_report(WORKLOADS[workload], CONFIGS[config], fast_path=False)
    assert fast == general


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_debug_checks_off_is_byte_identical(workload):
    """``debug_checks`` gates auditing only — never the simulated result."""
    checked = run_report(WORKLOADS[workload], {}, debug_checks=True)
    unchecked = run_report(WORKLOADS[workload], {}, debug_checks=False)
    assert checked == unchecked


def test_ondemand_falls_back_to_general_loop():
    """Growth/preemption workloads take the general loop under either flag:
    the fast path's no-mid-decode-allocation invariant excludes them, so the
    flag is a no-op there (still byte-identical)."""
    config = dict(kv_policy="ondemand", block_size=8, max_batch_size=1000)
    workload = dict(num_requests=40, qps=50.0, seed=25, mean_new_tokens=64)
    fast = run_report(workload, config, fast_path=True)
    general = run_report(workload, config, fast_path=False)
    assert fast == general


def test_disagg_falls_back_to_general_loop():
    """Disaggregated runs are excluded from the fast path outright (handoff
    stalls land between iterations); the flag must be a byte-level no-op."""
    config = dict(
        devices=3, prefill_devices=1, decode_devices=2,
        kv_policy="ondemand", block_size=8, max_batch_size=1000,
    )
    workload = dict(num_requests=40, qps=50.0, seed=25, mean_new_tokens=64)
    fast = run_report(workload, config, fast_path=True)
    general = run_report(workload, config, fast_path=False)
    assert fast == general


def test_swap_reserve_keeps_fast_path_dormant_equivalence():
    """``preempt_mode='swap'`` with reservation allocation stays eligible for
    the fast path (no preemption can ever fire), and the general loop's swap
    branches never trigger — the two loops agree byte for byte and match the
    recompute-mode report except for the migration section."""
    workload = dict(num_requests=60, qps=30.0, seed=27, mean_new_tokens=48)
    swap_fast = run_report(workload, {"devices": 2}, preempt_mode="swap", fast_path=True)
    swap_general = run_report(workload, {"devices": 2}, preempt_mode="swap", fast_path=False)
    assert swap_fast == swap_general
    recompute = json.loads(run_report(workload, {"devices": 2}))
    swapped = json.loads(swap_fast)
    migration = swapped.pop("migration")
    assert migration["swaps"] == 0 and migration["swap_in_s"] == 0.0
    assert swapped == recompute


def test_disagg_swap_modes_fast_flag_is_inert():
    """Swap-mode disaggregation (the everything-on configuration) also
    ignores ``fast_path`` byte-for-byte."""
    config = dict(
        devices=3, prefill_devices=1, decode_devices=2,
        kv_policy="ondemand", block_size=8, max_batch_size=1000,
        preempt_mode="swap",
    )
    workload = dict(num_requests=40, qps=60.0, seed=28, mean_new_tokens=64)
    fast = run_report(workload, config, fast_path=True)
    general = run_report(workload, config, fast_path=False)
    assert fast == general


@pytest.mark.parametrize(
    "config_kwargs",
    [
        CONFIGS["reserve_1dev"],
        CONFIGS["reserve_4dev"],
        # Re-placement clears the cost memo mid-run, and the next run()
        # resets the layered placement (and the memo) to the profile.
        CONFIGS["overlap_replace"],
        dict(devices=3, prefill_devices=1, decode_devices=2),
    ],
    ids=["reserve_1dev", "reserve_4dev", "overlap_replace", "disagg"],
)
def test_cost_cache_reuse_across_runs_is_byte_identical(config_kwargs):
    """One engine serving the same workload twice (warm latency/cost memo)
    reports byte-identically to a cold engine."""
    workload = poisson_workload(num_requests=60, qps=10.0, seed=26)
    warm_engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", EngineConfig(**config_kwargs))
    warm_engine.run(workload)  # populate the memo
    warm = json.dumps(warm_engine.run(workload).to_dict(), sort_keys=True)
    cold_engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", EngineConfig(**config_kwargs))
    cold = json.dumps(cold_engine.run(workload).to_dict(), sort_keys=True)
    assert warm == cold

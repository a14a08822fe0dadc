"""Bit-exact oracle for the engine's one iteration cost model.

``ServingEngine._iteration_cost`` walks MoE layers in sequence, device
pools concurrently and devices within a pool, so one loop prices the
colocated serial engine (1 layer x 1 pool), disaggregation (1 layer x 2
pools) and overlap (``num_layers`` layers x 1 pool).  Below is a verbatim
reference copy of the three per-mode cost formulas that loop replaced, and
of the telemetry per-device compute formula.  They are a reference
implementation, not live code: Hypothesis draws token loads and home splits
(including idle disaggregation pools and keys whose tokens all sit on one
device) and every field of the one entry point must be ``==`` — never
approximately equal — to the reference, so every golden and report digest
keeps its bytes.

Overlap layouts are checked before and after a re-placement forced through
the engine's own drift path, with the memo warm: an entry priced for the
old layout must not survive it.  CI runs the fast examples on every push
(``-m "not slow"``); the weekly benchmark-smoke workflow runs the long
sweep (``-m slow``).
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.device import A100_80GB
from repro.runtime.backends import MiLoBackend
from repro.serving import EngineConfig, ServingEngine, overlap_step_seconds
from repro.serving.cluster import split_tokens
from repro.serving.engine import DRIFT_WINDOW

MODEL = "mixtral-8x7b"

#: name -> EngineConfig overrides of the unlayered layouts.
LAYOUTS = {
    "single": dict(),
    **{
        f"colocated{n}_{placement}": dict(devices=n, placement=placement)
        for n in (2, 4, 8)
        for placement in ("balanced", "frequency")
    },
    **{
        f"disagg{p}:{d}_{placement}": dict(
            devices=p + d, prefill_devices=p, decode_devices=d, placement=placement
        )
        for p, d in ((1, 1), (1, 3), (2, 2))
        for placement in ("balanced", "frequency")
    },
}


# -- reference formulas (the pre-merge cost functions, verbatim) -------------
def ref_colocated(engine, tokens, home_key):
    if home_key is None:
        compute = engine._latency(tokens)
        return (compute, compute, compute, None)
    step = 0.0
    max_compute = 0.0
    iter_compute_s = 0.0
    iter_loaded = 0
    remote_numer = 0
    experts_per_token = engine.spec.experts_per_token
    alltoall_s = engine._alltoall_s_per_token
    for d, load in enumerate(split_tokens(tokens, engine.placement.device_mass)):
        if load:
            compute = engine._latency(load)
            iter_compute_s += compute
            iter_loaded += 1
        else:
            compute = 0.0
        remote_int = load * experts_per_token * (tokens - home_key[d])
        remote_numer += remote_int
        remote = remote_int / tokens
        max_compute = max(max_compute, compute)
        step = max(step, compute + remote * alltoall_s)
    mean_compute = iter_compute_s / iter_loaded if iter_loaded else 0.0
    remote_tokens = (2 * remote_numer + tokens) // (2 * tokens)
    return (step, max_compute, mean_compute, remote_tokens)


def ref_disagg(engine, tokens, home_key):
    experts_per_token = engine.spec.experts_per_token
    alltoall_s = engine._alltoall_s_per_token
    prefill = engine.config.prefill_devices
    step = 0.0
    max_compute = 0.0
    iter_compute_s = 0.0
    iter_loaded = 0
    remote_tokens = 0
    for placement, pool_home in (
        (engine._prefill_placement, home_key[:prefill]),
        (engine._decode_placement, home_key[prefill:]),
    ):
        pool_tokens = sum(pool_home)
        if not pool_tokens:
            continue
        remote_numer = 0
        for d, load in enumerate(split_tokens(pool_tokens, placement.device_mass)):
            if load:
                compute = engine._latency(load)
                iter_compute_s += compute
                iter_loaded += 1
            else:
                compute = 0.0
            remote_int = load * experts_per_token * (pool_tokens - pool_home[d])
            remote_numer += remote_int
            remote = remote_int / pool_tokens
            max_compute = max(max_compute, compute)
            step = max(step, compute + remote * alltoall_s)
        remote_tokens += (2 * remote_numer + pool_tokens) // (2 * pool_tokens)
    mean_compute = iter_compute_s / iter_loaded if iter_loaded else 0.0
    return (step, max_compute, mean_compute, remote_tokens)


def ref_overlap(engine, tokens, home_key):
    spec = engine.spec
    num_layers = spec.num_layers
    experts_per_token = spec.experts_per_token
    alltoall_layer_s = engine._alltoall_s_per_layer_token
    computes = []
    comms = []
    max_compute_s = 0.0
    mean_compute_s = 0.0
    remote_numer = 0
    for mass in engine.layered_placement.layer_mass:
        layer_max = 0.0
        layer_sum = 0.0
        layer_loaded = 0
        layer_remote = 0.0
        for d, load in enumerate(split_tokens(tokens, mass)):
            if load:
                compute = engine._latency(load) / num_layers
                layer_sum += compute
                layer_loaded += 1
                if compute > layer_max:
                    layer_max = compute
            remote_int = load * experts_per_token * (tokens - home_key[d])
            remote_numer += remote_int
            remote = remote_int / tokens
            if remote > layer_remote:
                layer_remote = remote
        computes.append(layer_max)
        comms.append(layer_remote * alltoall_layer_s)
        max_compute_s += layer_max
        mean_compute_s += layer_sum / layer_loaded if layer_loaded else 0.0
    step, hidden_s = overlap_step_seconds(computes, comms, engine._overlap_efficiency)
    comm_s = 0.0
    for c in comms:
        comm_s += c
    denom = num_layers * tokens
    remote_tokens = (2 * remote_numer + denom) // (2 * denom)
    return (step, max_compute_s, mean_compute_s, remote_tokens, hidden_s, comm_s)


def ref_per_device(engine, tokens, home_key):
    """The telemetry per-device compute formula (its memo left out)."""
    if engine._overlap:
        num_layers = engine.spec.num_layers
        per_device = [0.0] * len(engine.device_group)
        for mass in engine.layered_placement.layer_mass:
            for d, load in enumerate(split_tokens(tokens, mass)):
                if load:
                    per_device[d] += engine._latency(load) / num_layers
        return tuple(per_device)
    if engine._disagg:
        prefill = engine.config.prefill_devices
        pool_tokens = (sum(home_key[:prefill]), sum(home_key[prefill:]))
        computes = []
        for placement, ptokens in zip(
            (engine._prefill_placement, engine._decode_placement), pool_tokens
        ):
            if not ptokens:
                computes.extend([0.0] * len(placement.device_mass))
                continue
            for load in split_tokens(ptokens, placement.device_mass):
                computes.append(engine._latency(load) if load else 0.0)
        return tuple(computes)
    return tuple(
        engine._latency(load) if load else 0.0
        for load in split_tokens(tokens, engine.placement.device_mass)
    )


# -- draws -------------------------------------------------------------------
@lru_cache(maxsize=None)
def layout_engine(layout):
    """The cost model is pure per layout, so one engine serves every draw."""
    return ServingEngine(MiLoBackend(), MODEL, EngineConfig(**LAYOUTS[layout]))


def overlap_engine(devices, placement, efficiency, seed):
    rng = np.random.default_rng(seed)
    rows = rng.random((32, 8)) + 1e-3
    rows = tuple(tuple(row / row.sum()) for row in rows)
    device = dataclasses.replace(A100_80GB, overlap_efficiency=efficiency)
    config = EngineConfig(
        devices=devices, placement=placement, overlap=True,
        layer_frequencies=rows, replacement_threshold=0.01,
    )
    return ServingEngine(MiLoBackend(device=device), MODEL, config)


@st.composite
def home_keys(draw, devices, idle_pool=None):
    """Per-device home token counts with a positive total.

    ``idle_pool`` (a device slice) may be emptied, and the whole batch may
    sit on one device.
    """
    home = draw(st.lists(st.integers(0, 600), min_size=devices, max_size=devices))
    shape = draw(st.sampled_from(["spread", "one_device", "idle_pool"]))
    if shape == "one_device":
        d = draw(st.integers(0, devices - 1))
        home = [0] * devices
        home[d] = draw(st.integers(1, 2000))
    elif shape == "idle_pool" and idle_pool is not None:
        home[idle_pool] = [0] * len(home[idle_pool])
    if not sum(home):
        home[draw(st.integers(0, devices - 1))] = draw(st.integers(1, 600))
    return tuple(home)


# -- properties ----------------------------------------------------------------
def check_unlayered(data, layout):
    engine = layout_engine(layout)
    devices = len(engine.device_group)
    if devices == 1:
        tokens = data.draw(st.integers(1, 4096), label="tokens")
        for _ in range(2):  # cold, then warm latency memo
            entry = engine._iteration_cost(tokens, None)
            ref = ref_colocated(engine, tokens, None)
            assert entry[:3] == ref[:3]
            # The reference's None remote meant "no dispatch": zero tokens.
            assert entry[3] == 0 and ref[3] is None
            assert entry[4:] == (None, None, None)
        return
    prefill = engine.config.prefill_devices
    idle = [slice(0, prefill), slice(prefill, devices)] if prefill else [None]
    home_key = data.draw(
        home_keys(devices, data.draw(st.sampled_from(idle))), label="home"
    )
    tokens = sum(home_key)
    ref = (ref_disagg if prefill else ref_colocated)(engine, tokens, home_key)
    per_device = ref_per_device(engine, tokens, home_key)
    for _ in range(2):  # cold, then memoized
        entry = engine._iteration_cost(tokens, home_key)
        assert entry[:4] == ref
        assert entry[4] is None and entry[5] is None
        assert entry[6] == per_device


def check_overlap(data):
    devices = data.draw(st.sampled_from([2, 4, 8]), label="devices")
    engine = overlap_engine(
        devices,
        data.draw(st.sampled_from(["balanced", "frequency"]), label="placement"),
        data.draw(st.floats(0.0, 1.0, allow_nan=False), label="efficiency"),
        data.draw(st.integers(0, 2**16), label="seed"),
    )
    home_key = data.draw(home_keys(devices), label="home")
    tokens = sum(home_key)

    def agrees():
        ref = ref_overlap(engine, tokens, home_key)
        per_device = ref_per_device(engine, tokens, home_key)
        for _ in range(2):  # (possibly) cold, then memoized
            entry = engine._iteration_cost(tokens, home_key)
            assert entry[:6] == ref
            assert entry[6] == per_device

    agrees()
    # Force a re-placement through the engine's drift path with the memo
    # warm: the random per-layer rows drift far past the threshold from
    # the profile the initial placement was packed for.
    scheduler = engine.make_scheduler()
    stall = 0.0
    for _ in range(DRIFT_WINDOW):
        stall += engine._observe_routing(tokens, scheduler)
    assert engine._placement_epoch == 1 and stall > 0.0
    agrees()


class TestCostModelOracle:
    """Fast examples (every push)."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_unlayered_matches_reference(self, layout, data):
        check_unlayered(data, layout)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_overlap_matches_reference(self, data):
        check_overlap(data)


@pytest.mark.slow
class TestCostModelOracleLong:
    """The long sweep (weekly benchmark-smoke workflow)."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_unlayered_matches_reference(self, layout, data):
        check_unlayered(data, layout)

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_overlap_matches_reference(self, data):
        check_overlap(data)

"""Scalar-vs-vectorised parity for the simulation hot paths.

Each hot path rewritten for raw speed keeps (or re-states here) its
original scalar implementation, and these tests pin the fast paths to it
under fixed seeds:

* the pipeline event simulator's stage-major fixed-point sweeps vs the
  item-major reference loop (:meth:`PipelineSimulator._run_scalar`);
* the batched server's batch-major loop vs the per-batch NumPy-scalar
  reference (:meth:`BatchedServerSim._run_scalar`);
* the routing policies' incremental scan loops vs the original
  ``min(order, key=...)`` virtual-queue loops (restated verbatim below),
  plus a pinned byte-for-byte decision regression;
* the exact-first LRU hit flags vs the per-key ``OrderedDict`` replay,
  with guards pinning which of its paths (O(n) checks or merge count)
  a trace takes;
* the autoscale replay's memoised window plans vs a fresh, cache-cold
  run of equal-valued inputs.

Every comparison is exact (``np.array_equal`` on float64 timelines, not
tolerances): latencies in the fixtures are integer-valued nanoseconds, so
the vectorised offset arithmetic is IEEE-exact and any drift is a bug.
"""

import json

import numpy as np
import pytest

from repro.cluster.routing import (
    CheapestFirstPolicy,
    LeastLoadedPolicy,
    ReplicaView,
    RoundRobinPolicy,
    SlaAwarePolicy,
)
from repro.fpga.eventsim import PipelineSimulator, SimStage
from repro.serving.queueing import BatchedServerSim


# ---------------------------------------------------------------------------
# Pipeline event simulator
# ---------------------------------------------------------------------------


def _jitter(i: int) -> float:
    # Integer-valued per-item latency: exact in float64, so the
    # vectorised and scalar paths must agree bit for bit.
    return float((i * 37) % 19 + 3)


PIPELINES = {
    "serial-only": [
        SimStage("lookup", latency_ns=40.0, ii_ns=40.0, serial=True),
    ],
    "pipelined": [
        SimStage("a", latency_ns=100.0, ii_ns=10.0),
        SimStage("b", latency_ns=80.0, ii_ns=25.0),
        SimStage("c", latency_ns=60.0, ii_ns=5.0),
    ],
    "serial-bottleneck": [
        SimStage("lookup", latency_ns=50.0, ii_ns=50.0, serial=True),
        SimStage("gemm", latency_ns=200.0, ii_ns=8.0),
        SimStage("sigmoid", latency_ns=30.0, ii_ns=8.0),
    ],
    "depth1-backpressure": [
        SimStage("fast", latency_ns=10.0, ii_ns=5.0, fifo_depth=1),
        SimStage("slow", latency_ns=90.0, ii_ns=60.0, fifo_depth=1),
        SimStage("sink", latency_ns=20.0, ii_ns=20.0, fifo_depth=1),
    ],
    "jittered-serial": [
        SimStage("lookup", latency_ns=_jitter, ii_ns=12.0, serial=True,
                 fifo_depth=4),
        SimStage("mlp", latency_ns=120.0, ii_ns=15.0, fifo_depth=4),
    ],
}


class TestEventsimParity:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    @pytest.mark.parametrize("items", [1, 2, 3, 7, 50, 200])
    @pytest.mark.parametrize("arrival_ii", [0.0, 35.0])
    def test_exact_timeline_parity(self, name, items, arrival_ii):
        sim = PipelineSimulator(PIPELINES[name])
        fast = sim.run(items, arrival_ii_ns=arrival_ii)
        slow = sim._run_scalar(items, arrival_ii_ns=arrival_ii)
        assert np.array_equal(fast.enter_ns, slow.enter_ns)
        assert np.array_equal(fast.leave_ns, slow.leave_ns)
        assert fast.stage_names == slow.stage_names


# ---------------------------------------------------------------------------
# Batched server
# ---------------------------------------------------------------------------


class TestBatchedServerParity:
    @pytest.mark.parametrize(
        "n,batch_size,timeout_ms",
        [
            (1, 4, 10.0),
            (100, 1, 10.0),
            (1000, 4, 0.0),
            (1000, 64, 0.5),
            (5000, 256, 5.0),
            (5000, 2048, 10.0),
        ],
    )
    def test_exact_completion_parity(self, n, batch_size, timeout_ms):
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(1500.0, size=n))
        sim = BatchedServerSim(
            lambda b: 3.0 + 0.012 * b,
            batch_size=batch_size,
            batch_timeout_ms=timeout_ms,
        )
        fast = sim.run(arrivals)
        slow = sim._run_scalar(arrivals)
        assert np.array_equal(fast.arrivals_ns, slow.arrivals_ns)
        assert np.array_equal(fast.completions_ns, slow.completions_ns)

    def test_cost_model_called_once_per_batch_count(self):
        calls: list[int] = []

        def latency(b: int) -> float:
            calls.append(b)
            return 2.0

        sim = BatchedServerSim(latency, batch_size=8, batch_timeout_ms=10.0)
        arrivals = np.zeros(64, dtype=np.float64)
        sim.run(arrivals)
        # Saturated stream: every batch is full, so the memoised cost
        # model is evaluated once, not once per batch.
        assert calls == [8]


# ---------------------------------------------------------------------------
# Routing policies
# ---------------------------------------------------------------------------


def _replica(index, backend, serving_ms, ii_ns, usd_hour, usd_million):
    return ReplicaView(
        index=index,
        backend=backend,
        model="small",
        latency_ms=serving_ms / 2,
        serving_latency_ms=serving_ms,
        ii_ns=ii_ns,
        usd_per_hour=usd_hour,
        usd_per_million_queries=usd_million,
    )


#: A heterogeneous three-tier fleet (fast/expensive through slow/cheap).
TIERS = [
    _replica(0, "fpga", 0.02, 300.0, 6.0, 0.4),
    _replica(1, "gpu", 2.0, 900.0, 9.0, 1.2),
    _replica(2, "cpu", 8.0, 4000.0, 2.0, 0.9),
]

#: Equal spacing everywhere: every arrival is a tie, so any tie-break
#: drift between the old and new scan orders shows immediately.
EQUAL_TIERS = [
    _replica(0, "a", 1.0, 500.0, 1.0, 1.0),
    _replica(1, "b", 1.0, 500.0, 1.0, 1.0),
    _replica(2, "c", 1.0, 500.0, 1.0, 1.0),
    _replica(3, "d", 1.0, 500.0, 1.0, 1.0),
]


def _reference_least_loaded(arrivals_ns, replicas):
    """The original per-event ``min(order, key=...)`` loop, verbatim."""
    free = np.zeros(len(replicas), dtype=np.float64)
    ii = np.array([r.ii_ns for r in replicas], dtype=np.float64)
    out = np.empty(arrivals_ns.size, dtype=np.int64)
    order = sorted(range(len(replicas)), key=lambda i: (ii[i], i))
    for k, t in enumerate(arrivals_ns):
        best = min(order, key=lambda i, t=t: max(free[i], t))
        out[k] = best
        free[best] = max(free[best], t) + ii[best]
    return out


def _reference_cheapest_first(arrivals_ns, replicas, max_backlog_ms=5.0):
    free = np.zeros(len(replicas), dtype=np.float64)
    ii = np.array([r.ii_ns for r in replicas], dtype=np.float64)
    order = sorted(
        range(len(replicas)),
        key=lambda i: (replicas[i].usd_per_million_queries, i),
    )
    threshold_ns = max_backlog_ms * 1e6
    out = np.empty(arrivals_ns.size, dtype=np.int64)
    for k, t in enumerate(arrivals_ns):
        for i in order:
            if free[i] - t <= threshold_ns:
                best = i
                break
        else:
            best = min(order, key=lambda i, t=t: max(free[i], t))
        out[k] = best
        free[best] = max(free[best], t) + ii[best]
    return out


def _reference_sla_aware(arrivals_ns, replicas, slo_ms):
    free = np.zeros(len(replicas), dtype=np.float64)
    ii = np.array([r.ii_ns for r in replicas], dtype=np.float64)
    service_ns = np.array(
        [r.serving_latency_ms * 1e6 for r in replicas], dtype=np.float64
    )
    order = sorted(
        range(len(replicas)),
        key=lambda i: (replicas[i].serving_latency_ms, i),
    )
    slo_ns = slo_ms * 1e6
    out = np.empty(arrivals_ns.size, dtype=np.int64)
    for k, t in enumerate(arrivals_ns):
        best = None
        for i in order:
            predicted = max(free[i], t) - t + service_ns[i]
            if predicted <= slo_ns:
                best = i
                break
        if best is None:
            best = min(
                order,
                key=lambda i, t=t: max(free[i], t) - t + service_ns[i],
            )
        out[k] = best
        free[best] = max(free[best], t) + ii[best]
    return out


def _stream(n=5000, gap_ns=450.0, seed=11):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(gap_ns, size=n))


class TestRoutingParity:
    @pytest.mark.parametrize("replicas", [TIERS, EQUAL_TIERS, TIERS[:1]])
    def test_least_loaded_matches_reference(self, replicas):
        arrivals = _stream()
        got = LeastLoadedPolicy().route(arrivals, replicas, slo_ms=30.0)
        assert np.array_equal(
            got, _reference_least_loaded(arrivals, replicas)
        )

    @pytest.mark.parametrize("replicas", [TIERS, EQUAL_TIERS])
    @pytest.mark.parametrize("backlog_ms", [0.001, 5.0])
    def test_cheapest_first_matches_reference(self, replicas, backlog_ms):
        arrivals = _stream()
        got = CheapestFirstPolicy(max_backlog_ms=backlog_ms).route(
            arrivals, replicas, slo_ms=30.0
        )
        assert np.array_equal(
            got,
            _reference_cheapest_first(
                arrivals, replicas, max_backlog_ms=backlog_ms
            ),
        )

    @pytest.mark.parametrize("replicas", [TIERS, EQUAL_TIERS])
    @pytest.mark.parametrize("slo_ms", [0.0002, 0.05, 10.0])
    def test_sla_aware_matches_reference(self, replicas, slo_ms):
        arrivals = _stream()
        got = SlaAwarePolicy().route(arrivals, replicas, slo_ms=slo_ms)
        assert np.array_equal(
            got, _reference_sla_aware(arrivals, replicas, slo_ms)
        )

    def test_round_robin_unchanged(self):
        arrivals = _stream(n=10)
        got = RoundRobinPolicy().route(arrivals, TIERS, slo_ms=30.0)
        assert got.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]


class TestRoutingDecisionRegression:
    """Byte-for-byte pins of the routing decisions under a fixed stream.

    These sequences were produced by the original per-event loops; any
    future optimisation of the policies must keep them identical.
    """

    ARRIVALS = np.arange(1, 25, dtype=np.float64) * 250.0

    def test_pinned_decisions(self):
        expected = {
            "least-loaded": [0, 1, 0, 2, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0,
                             0, 0, 1, 0, 2, 0, 1, 0, 0],
            "cheapest-first": [0] * 24,
            "sla-aware": [0] * 24,
        }
        policies = {
            "least-loaded": LeastLoadedPolicy(),
            "cheapest-first": CheapestFirstPolicy(),
            "sla-aware": SlaAwarePolicy(),
        }
        for name, policy in policies.items():
            got = policy.route(self.ARRIVALS, TIERS, slo_ms=30.0)
            assert got.tolist() == expected[name], name

    def test_pinned_decisions_under_pressure(self):
        # A tight SLO and a tiny backlog threshold force the spill
        # paths; the pins cover the fallback scans too.
        tight = np.arange(1, 17, dtype=np.float64) * 40.0
        got_sla = SlaAwarePolicy().route(tight, TIERS, slo_ms=0.0002)
        got_cheap = CheapestFirstPolicy(max_backlog_ms=1e-6).route(
            tight, TIERS, slo_ms=30.0
        )
        assert got_sla.tolist() == _reference_sla_aware(
            tight, TIERS, 0.0002
        ).tolist()
        assert got_cheap.tolist() == _reference_cheapest_first(
            tight, TIERS, max_backlog_ms=1e-6
        ).tolist()


# ---------------------------------------------------------------------------
# LRU row cache
# ---------------------------------------------------------------------------


class TestLruCacheParity:
    """The stack-distance LRU rewrite vs the per-key ``access`` loop."""

    @pytest.mark.parametrize("capacity", [1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("universe", [1, 3, 50, 2000])
    def test_exact_trace_parity(self, capacity, universe):
        from repro.memory.cache import LruRowCache

        rng = np.random.default_rng(capacity * 1000 + universe)
        keys = rng.integers(0, universe, size=4000)
        fast = LruRowCache(capacity)
        slow = LruRowCache(capacity)
        fast.run_trace(keys)
        slow._run_trace_scalar(keys)
        assert fast.stats == slow.stats
        assert list(fast._lru) == list(slow._lru)

    def test_zipf_trace_parity(self):
        from repro.memory.cache import LruRowCache
        from repro.models.distributions import zipf_indices

        rng = np.random.default_rng(3)
        keys = zipf_indices(rng, 10_000, 20_000, 1.05)
        fast = LruRowCache(256)
        slow = LruRowCache(256)
        assert (
            fast.run_trace(keys).hit_rate
            == slow._run_trace_scalar(keys).hit_rate
        )

    def test_warm_cache_parity(self):
        # run_trace on a non-empty cache must score only the new suffix
        # and leave the same LRU contents as the scalar loop.
        from repro.memory.cache import LruRowCache

        rng = np.random.default_rng(9)
        first = rng.integers(0, 300, size=1500)
        second = rng.integers(0, 300, size=1500)
        fast = LruRowCache(128)
        slow = LruRowCache(128)
        fast.run_trace(first)
        slow._run_trace_scalar(first)
        fast.run_trace(second)
        slow._run_trace_scalar(second)
        assert fast.stats == slow.stats
        assert list(fast._lru) == list(slow._lru)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 17, 64, 129])
    def test_count_smaller_before_matches_naive(self, n):
        from repro.memory.cache import _count_smaller_before

        rng = np.random.default_rng(n)
        values = rng.integers(-50, 50, size=n)
        naive = np.array(
            [np.count_nonzero(values[:i] < values[i]) for i in range(n)],
            dtype=np.int64,
        )
        assert np.array_equal(_count_smaller_before(values), naive)

    @staticmethod
    def _scalar_flags(keys, capacity):
        from repro.memory.cache import LruRowCache

        cache = LruRowCache(capacity)
        return np.array([cache.access(int(k)) for k in keys], dtype=bool)

    def test_drifting_zipf_settles_without_merge_count(self, monkeypatch):
        # Two Zipf bursts whose hot set drifts by `capacity` rows, split
        # by a scan of `capacity` fresh rows.  Each burst is shorter
        # than the cache, so a reuse either falls within `capacity`
        # accesses (a hit) or lies behind the scan (a miss): the O(n)
        # checks settle every access and the merge count never runs.
        import repro.memory.cache as cache
        from repro.serving.popularity import PopularityModel

        def forbidden(values):
            raise AssertionError("merge count reached")

        capacity, burst, rows = 2048, 2000, 100_000
        rng = np.random.default_rng(5)
        popularity = PopularityModel(rows=rows, drift_rows_per_s=capacity)
        keys = np.concatenate([
            popularity.sample(rng, burst, t_s=np.arange(burst) / burst),
            rows + np.arange(capacity),
            popularity.sample(rng, burst, t_s=1 + np.arange(burst) / burst),
        ])
        monkeypatch.setattr(cache, "_count_smaller_before", forbidden)
        got = cache.lru_hit_flags(keys, capacity)
        want = self._scalar_flags(keys, capacity)
        assert np.array_equal(got, want)
        # Both O(n) verdicts occur: near hits, and reuses behind the scan.
        tail = slice(burst + capacity, None)
        assert got[tail].any()
        assert np.isin(keys[tail][~got[tail]], keys[:burst]).any()

    @pytest.mark.parametrize("extra", [1, 2])
    def test_cyclic_trace_reaches_merge_count(self, monkeypatch, extra):
        # Cycling over `capacity + extra` keys puts each reuse just past
        # `capacity` accesses with too few first touches in between to
        # settle it: only the merge count decides.
        import repro.memory.cache as cache

        calls = []
        count = cache._count_smaller_before

        def spy(values):
            calls.append(values.size)
            return count(values)

        capacity = 37
        keys = np.arange(6 * (capacity + extra)) % (capacity + extra)
        monkeypatch.setattr(cache, "_count_smaller_before", spy)
        got = cache.lru_hit_flags(keys, capacity)
        assert calls
        assert np.array_equal(got, self._scalar_flags(keys, capacity))
        assert not got.any()  # LRU thrashes on a cycle one past capacity

    def test_empty_trace_is_a_no_op(self):
        from repro.memory.cache import LruRowCache

        cache = LruRowCache(4)
        stats = cache.run_trace(np.array([], dtype=np.int64))
        assert stats.accesses == 0
        assert stats.hit_rate == 0.0


# ---------------------------------------------------------------------------
# Autoscale window replay
# ---------------------------------------------------------------------------


class TestAutoscaleMemoParity:
    @pytest.fixture(scope="class")
    def surface(self):
        from repro.experiments.common import session

        return session("small", "gpu")

    def _run(self, surface, trace):
        from repro.autoscale import simulate_autoscale

        return simulate_autoscale(
            surface, trace, policy="reactive-utilisation",
            slo_ms=30.0, windows=6, seed=0,
        )

    def _trace(self, surface):
        from repro.serving.arrivals import diurnal_trace

        rate = 4.0 * surface.perf().throughput_items_per_s
        return diurnal_trace(rate, 6 * 0.05, amplitude=0.6)

    def test_warm_plan_cache_is_byte_identical(self, surface):
        trace = self._trace(surface)
        first = self._run(surface, trace)
        # Second run reuses the memoised window plans and engine caches.
        second = self._run(surface, trace)
        assert json.dumps(first.as_dict()) == json.dumps(second.as_dict())

    def test_cold_equal_valued_trace_is_byte_identical(self, surface):
        # A freshly built trace hashes differently (new rate_fn
        # closures), so the lru_cache misses — the replay must not care.
        first = self._run(surface, self._trace(surface))
        second = self._run(surface, self._trace(surface))
        assert json.dumps(first.as_dict()) == json.dumps(second.as_dict())

    def test_window_timeline_statistics_consistent(self, surface):
        result = self._run(surface, self._trace(surface))
        for window in result.windows:
            assert window.p50_ms <= window.p95_ms <= window.p99_ms
            assert 0.0 <= window.sla_attainment <= 1.0

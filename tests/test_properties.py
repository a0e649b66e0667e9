"""Property-based tests (hypothesis) on the core data structures.

These pin down the invariants the whole system rests on:

* Cartesian index translation is a bijection and merged lookups are
  always byte-identical to member lookups;
* the planner always emits capacity-feasible partitions covering every
  table exactly once, never does worse than no merging, and respects the
  product-size cap;
* the heap-based allocator decides exactly as its scalar reference;
* exact-first LRU hit flags equal a per-key ``OrderedDict`` replay, and
  the shared-argsort tier cascade equals one ``policy.hits`` per tier;
* virtual tables are pure functions of (seed, table, row, column);
* fixed-point quantisation is idempotent, monotone, and bounded.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    PlacementError,
    _allocate_to_banks_scalar,
    allocate_to_banks,
)
from repro.core.cartesian import CartesianTable, MergeGroup, product_spec
from repro.core.planner import (
    PlannerConfig,
    _groups_for_candidate_count,
    plan_tables,
)
from repro.core.tables import TableSpec, VirtualTable
from repro.memory.axi import AxiConfig
from repro.memory.cache import LruRowCache, lru_hit_flags
from repro.memory.spec import BankKind, BankSpec, MemorySystemSpec
from repro.memory.tiers import (
    TierHierarchy,
    TierSpec,
    available_cache_policies,
)
from repro.memory.timing import MemoryTimingModel, default_timing_model
from repro.models.mlp import FixedPointFormat

# -- strategies ---------------------------------------------------------------

table_specs = st.builds(
    TableSpec,
    table_id=st.integers(0, 10_000),
    rows=st.integers(1, 5000),
    dim=st.integers(1, 64),
)


@st.composite
def merge_instances(draw):
    """2-4 distinct small tables plus per-member lookup indices."""
    k = draw(st.integers(2, 4))
    rows = [draw(st.integers(1, 40)) for _ in range(k)]
    dims = [draw(st.integers(1, 8)) for _ in range(k)]
    specs = [TableSpec(i, rows=rows[i], dim=dims[i]) for i in range(k)]
    tables = [VirtualTable(s, seed=draw(st.integers(0, 3))) for s in specs]
    n = draw(st.integers(1, 16))
    idx = np.array(
        [[draw(st.integers(0, rows[j] - 1)) for j in range(k)] for _ in range(n)],
        dtype=np.int64,
    )
    return tables, idx


@st.composite
def planner_instances(draw):
    n = draw(st.integers(1, 12))
    specs = [
        TableSpec(
            i,
            rows=draw(st.integers(1, 2000)),
            dim=draw(st.sampled_from([2, 4, 8, 16])),
        )
        for i in range(n)
    ]
    channels = draw(st.integers(1, 6))
    onchip = draw(st.integers(0, 2))
    banks = [BankSpec(i, BankKind.HBM, 1 << 22) for i in range(channels)]
    banks += [
        BankSpec(channels + i, BankKind.ONCHIP, 4 << 10) for i in range(onchip)
    ]
    memory = MemorySystemSpec(banks=tuple(banks), axi=AxiConfig(), name="prop")
    return specs, memory


# -- Cartesian properties -------------------------------------------------------


@given(merge_instances())
@settings(max_examples=150, deadline=None)
def test_merged_index_roundtrip(instance):
    tables, idx = instance
    ct = CartesianTable(
        MergeGroup(tuple(t.spec.table_id for t in tables)), tables
    )
    merged = ct.merged_index(idx)
    assert (merged >= 0).all() and (merged < ct.spec.rows).all()
    np.testing.assert_array_equal(ct.split_index(merged), idx)


@given(merge_instances())
@settings(max_examples=150, deadline=None)
def test_merged_lookup_equals_member_concat(instance):
    """The paper's Figure 5 semantics, universally."""
    tables, idx = instance
    ct = CartesianTable(
        MergeGroup(tuple(t.spec.table_id for t in tables)), tables
    )
    via_product = ct.lookup(ct.merged_index(idx))
    direct = np.concatenate(
        [t.lookup(idx[:, j]) for j, t in enumerate(tables)], axis=1
    )
    np.testing.assert_array_equal(via_product, direct)


@given(merge_instances())
@settings(max_examples=50, deadline=None)
def test_product_spec_accounting(instance):
    tables, _ = instance
    specs = {t.spec.table_id: t.spec for t in tables}
    group = MergeGroup(tuple(specs))
    spec = product_spec(group, specs)
    assert spec.rows == int(np.prod([s.rows for s in specs.values()]))
    assert spec.dim == sum(s.dim for s in specs.values())
    assert spec.nbytes >= sum(s.nbytes for s in specs.values()) or spec.rows < len(
        specs
    )


# -- planner properties ----------------------------------------------------------


@given(planner_instances())
@settings(max_examples=60, deadline=None)
def test_planner_partition_is_exact_cover(instance):
    specs, memory = instance
    timing = default_timing_model()
    try:
        plan = plan_tables(specs, memory, timing)
    except Exception as exc:  # infeasible instances must raise PlacementError
        assert isinstance(exc, PlacementError)
        return
    covered = sorted(
        tid for g in plan.placement.groups for tid in g.member_ids
    )
    assert covered == sorted(s.table_id for s in specs)
    plan.placement.validate()  # capacity-feasible


@given(planner_instances())
@settings(max_examples=40, deadline=None)
def test_planner_never_worse_than_no_merging(instance):
    specs, memory = instance
    timing = default_timing_model()
    try:
        base = plan_tables(
            specs, memory, timing, PlannerConfig(enable_cartesian=False)
        )
    except PlacementError:
        return
    full = plan_tables(specs, memory, timing)
    assert full.lookup_latency_ns <= base.lookup_latency_ns + 1e-6


@given(planner_instances(), st.integers(1_000, 100_000))
@settings(max_examples=40, deadline=None)
def test_planner_respects_product_cap(instance, cap):
    specs, memory = instance
    timing = default_timing_model()
    config = PlannerConfig(max_product_bytes=cap)
    try:
        plan = plan_tables(specs, memory, timing, config)
    except PlacementError:
        return
    by_id = {s.table_id: s for s in specs}
    for group in plan.merge_groups:
        assert product_spec(group, by_id).nbytes <= cap


def _decisions(allocate, groups, specs, memory, timing):
    """Groups and bank choices in ``bank_of`` order, or ``None`` if the
    allocator raised :class:`PlacementError`."""
    try:
        placement = allocate(groups, specs, memory, timing)
    except PlacementError:
        return None
    return placement.groups, list(placement.bank_of.items())


@given(planner_instances())
@settings(max_examples=60, deadline=None)
def test_heap_allocator_matches_scalar_reference(instance):
    """4 KiB on-chip and 4 MiB HBM banks make capacity bind, so the heap
    must pop past full channels exactly where the linear scan skips them."""
    specs, memory = instance
    timing = default_timing_model()
    by_id = {s.table_id: s for s in specs}
    ordered = sorted(specs, key=lambda s: s.size_key)
    for n in range(len(ordered) + 1):
        groups = _groups_for_candidate_count(
            ordered, n, set(by_id), by_id, PlannerConfig()
        )
        assert _decisions(
            allocate_to_banks, groups, by_id, memory, timing
        ) == _decisions(
            _allocate_to_banks_scalar, groups, by_id, memory, timing
        )


# -- LRU and tier cascade properties ------------------------------------------------


@st.composite
def lru_traces(draw, max_capacity=24):
    """A key trace and a capacity.  Half the traces cycle over
    ``capacity + {-1, 0, 1}`` keys with a few random overwrites, which
    puts reuses just past the capacity with too few first touches in
    between: only the merge count decides those."""
    capacity = draw(st.integers(1, max_capacity))
    if draw(st.booleans()):
        period = max(1, capacity + draw(st.integers(-1, 1)))
        n = draw(st.integers(0, 8 * (capacity + 2)))
        keys = np.arange(n, dtype=np.int64) % period
        if n:
            for at, key in draw(
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, 3 * capacity)
                    ),
                    max_size=6,
                )
            ):
                keys[at] = key
    else:
        universe = draw(st.integers(1, 4 * capacity + 4))
        keys = np.array(
            draw(st.lists(st.integers(0, universe - 1), max_size=200)),
            dtype=np.int64,
        )
    return keys, capacity


@given(lru_traces())
@settings(max_examples=150, deadline=None)
def test_lru_hit_flags_match_ordered_dict_replay(trace):
    keys, capacity = trace
    cache = LruRowCache(capacity)
    replay = [cache.access(int(key)) for key in keys]
    assert lru_hit_flags(keys, capacity).tolist() == replay


@given(
    lru_traces(max_capacity=12),
    st.lists(st.integers(1, 30), min_size=1, max_size=2),
    st.sampled_from(available_cache_policies()),
)
@settings(max_examples=100, deadline=None)
def test_assign_tiers_matches_per_tier_cascade(trace, lower, policy):
    keys, hot = trace
    caches = [hot, *lower]
    tiers = tuple(
        TierSpec(f"t{i}", rows, float(i + 1))
        for i, rows in enumerate([*caches, 1])
    )
    hierarchy = TierHierarchy(tiers, row_bytes=1, policy=policy)
    assert (
        hierarchy.assign_tiers(keys).tolist()
        == hierarchy._cascade_per_tier(keys).tolist()
    )


# -- virtual table properties ------------------------------------------------------


@given(table_specs, st.integers(0, 100), st.data())
@settings(max_examples=80, deadline=None)
def test_virtual_table_is_pure(spec, seed, data):
    table = VirtualTable(spec, seed=seed)
    idx = np.array(
        data.draw(
            st.lists(st.integers(0, spec.rows - 1), min_size=1, max_size=32)
        ),
        dtype=np.int64,
    )
    a = table.lookup(idx)
    b = VirtualTable(spec, seed=seed).lookup(idx)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (len(idx), spec.dim)
    assert (a >= -1.0).all() and (a < 1.0).all()


@given(table_specs, st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_virtual_rows_independent_of_batch(spec, seed):
    """Row r's vector must not depend on what else is in the batch."""
    table = VirtualTable(spec, seed=seed)
    r = spec.rows - 1
    alone = table.lookup(np.array([r]))
    batched = table.lookup(np.array([0, r, 0]))
    np.testing.assert_array_equal(alone[0], batched[1])


# -- timing properties ----------------------------------------------------------------


@given(
    st.integers(0, 4096),
    st.integers(0, 4096),
    st.floats(1.0, 1000.0),
    st.sampled_from([32, 64, 128, 256, 512]),
)
@settings(max_examples=80, deadline=None)
def test_dram_access_monotone_and_subadditive(a, b, init, width):
    """One merged access never costs more than two separate ones."""
    t = MemoryTimingModel(
        axi=AxiConfig(data_width_bits=width), dram_init_ns=init
    )
    assert t.dram_access_ns(a + b) <= t.dram_access_ns(a) + t.dram_access_ns(b)
    if a <= b:
        assert t.dram_access_ns(a) <= t.dram_access_ns(b)


# -- fixed point properties ---------------------------------------------------------


@given(
    st.sampled_from([8, 16, 32]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_fixed_point_idempotent_and_bounded(bits, data):
    frac = data.draw(st.integers(0, bits - 1))
    fmt = FixedPointFormat(total_bits=bits, frac_bits=frac)
    x = np.array(
        data.draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, width=32),
                min_size=1,
                max_size=64,
            )
        ),
        dtype=np.float32,
    )
    q = fmt.quantize(x)
    np.testing.assert_array_equal(fmt.quantize(q), q)
    assert (q <= fmt.max_int / fmt.scale + 1e-9).all()
    assert (q >= fmt.min_int / fmt.scale - 1e-9).all()
    inside = (np.abs(x) < fmt.max_int / fmt.scale) & np.isfinite(x)
    if inside.any():
        err = np.abs(q[inside] - x[inside])
        assert (err <= fmt.resolution / 2 + 1e-6).all()

"""Tests for the hardware-model substrate: devices, latency projection,
roofline, cache simulation, kernel counters, transfers."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import tensor as T
from repro.core.profiler import TraceEvent, Trace
from repro.core.taxonomy import OpCategory
from repro.hwsim import (ALL_DEVICES, CacheHierarchy, CacheSpec, DeviceSpec,
                         JETSON_TX2, RTX_2080TI, SetAssociativeCache,
                         XAVIER_NX, XEON_4114, analyze_transfers, get_device,
                         nvsa_table4_kernels, project_trace,
                         roofline_curve, roofline_points, simulate_kernel)


class TestDevices:
    def test_lookup_by_alias(self):
        assert get_device("rtx") is RTX_2080TI
        assert get_device("cpu") is XEON_4114
        assert get_device("TX2") is JETSON_TX2
        assert get_device("Xavier NX") is XAVIER_NX

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            get_device("tpu")

    def test_relative_capabilities(self):
        """The desktop GPU out-muscles the edge SoCs on both roofs."""
        assert RTX_2080TI.peak_flops > XAVIER_NX.peak_flops
        assert RTX_2080TI.peak_flops > JETSON_TX2.peak_flops
        assert RTX_2080TI.dram_bandwidth > JETSON_TX2.dram_bandwidth

    def test_ridge_points_positive(self):
        for device in ALL_DEVICES:
            assert device.ridge_point > 0

    def test_attainable_flops_roofline(self):
        device = RTX_2080TI
        assert device.attainable_flops(1e6) == device.peak_flops
        low_oi = device.attainable_flops(0.1)
        assert low_oi == pytest.approx(0.1 * device.dram_bandwidth)

    def test_compute_efficiency_ramps_with_size(self):
        small = RTX_2080TI.compute_efficiency(OpCategory.MATMUL, 1e3)
        large = RTX_2080TI.compute_efficiency(OpCategory.MATMUL, 1e12)
        assert small < large

    def test_gemm_more_efficient_than_elementwise(self):
        gemm = RTX_2080TI.compute_efficiency(OpCategory.MATMUL, 1e12)
        elem = RTX_2080TI.compute_efficiency(OpCategory.ELEMENTWISE, 1e12)
        other = RTX_2080TI.compute_efficiency(OpCategory.OTHER, 1e12)
        assert gemm > elem > other

    def test_cache_spec_geometry(self):
        spec = CacheSpec(size=65536, line_size=128, associativity=4,
                         bandwidth=1e12)
        assert spec.num_sets == 128
        with pytest.raises(ValueError):
            CacheSpec(size=1000, line_size=128, associativity=4,
                      bandwidth=1e12)


def project_event(event, device):
    """The projection of a one-event trace, as that event's roofs."""
    projected = project_trace(Trace("one", [event]), device)
    return SimpleNamespace(
        compute_time=float(projected.compute[0]),
        memory_time=float(projected.memory[0]),
        total=float(projected.total[0]),
        bound="memory" if projected.memory_bound[0] else "compute")


class TestLatencyProjection:
    def _event(self, category, flops, nbytes):
        return TraceEvent(eid=0, name="x", category=category, flops=flops,
                          bytes_read=nbytes, bytes_written=0)

    def test_compute_bound_gemm(self):
        event = self._event(OpCategory.MATMUL, 1e10, 1e6)
        cost = project_event(event, RTX_2080TI)
        assert cost.bound == "compute"
        assert cost.total > 0

    def test_memory_bound_elementwise(self):
        event = self._event(OpCategory.ELEMENTWISE, 1e6, 1e9)
        cost = project_event(event, RTX_2080TI)
        assert cost.bound == "memory"

    def test_host_transfer_uses_pcie(self):
        event = TraceEvent(eid=0, name="to_gpu",
                           category=OpCategory.MOVEMENT,
                           bytes_read=12_000_000_000, bytes_written=0)
        cost = project_event(event, RTX_2080TI)
        # 12 GB over a 12 GB/s link ~ 1 s
        assert cost.memory_time == pytest.approx(1.0, rel=0.05)

    def test_launch_overhead_added(self):
        event = self._event(OpCategory.ELEMENTWISE, 0, 0)
        cost = project_event(event, RTX_2080TI)
        assert cost.total == pytest.approx(
            RTX_2080TI.kernel_launch_overhead)

    def test_edge_slower_than_desktop(self):
        event = self._event(OpCategory.MATMUL, 1e10, 1e6)
        rtx = project_event(event, RTX_2080TI).total
        tx2 = project_event(event, JETSON_TX2).total
        assert tx2 > rtx

    def test_project_trace_aggregation(self):
        with T.profile("w") as prof:
            with T.phase("neural"):
                T.matmul(T.tensor(np.ones((64, 64), dtype=np.float32)),
                         T.tensor(np.ones((64, 64), dtype=np.float32)))
            with T.phase("symbolic"):
                # large streaming op: decisively memory-bound
                T.add(T.tensor(np.ones(1 << 24, dtype=np.float32)), 1.0)
        projected = project_trace(prof.trace, RTX_2080TI)
        phases = projected.time_by_phase()
        assert set(phases) == {"neural", "symbolic"}
        assert projected.total_time == pytest.approx(
            sum(phases.values()))
        assert projected.memory_bound_fraction("symbolic") > 0.5


class TestRoofline:
    def test_curve_monotone_then_flat(self):
        curve = roofline_curve(RTX_2080TI, (0.01, 1000), points=32)
        values = [v for _, v in curve]
        assert values[0] < values[-1]
        assert values[-1] == pytest.approx(RTX_2080TI.peak_flops)

    def test_points_by_phase(self):
        with T.profile("w") as prof:
            with T.phase("neural"):
                T.matmul(T.tensor(np.ones((128, 128), dtype=np.float32)),
                         T.tensor(np.ones((128, 128), dtype=np.float32)))
            with T.phase("symbolic"):
                T.add(T.tensor(np.ones(1 << 18, dtype=np.float32)), 1.0)
        points = roofline_points(prof.trace, RTX_2080TI)
        labels = {p.label: p for p in points}
        assert labels["neural"].operational_intensity > \
            labels["symbolic"].operational_intensity
        for p in points:
            assert p.achieved_flops <= p.attainable_flops * 1.01


class TestCacheSim:
    def _spec(self, size=1024, line=64, assoc=2):
        return CacheSpec(size=size, line_size=line, associativity=assoc,
                         bandwidth=1e12)

    def test_repeat_access_hits(self):
        cache = SetAssociativeCache(self._spec())
        assert cache.access(0, write=False) is False
        assert cache.access(0, write=False) is True
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        # assoc=2: third distinct line in one set evicts the LRU
        cache = SetAssociativeCache(self._spec())
        sets = cache.num_sets
        cache.access(0, write=False)
        cache.access(sets, write=False)       # same set, second way
        cache.access(0, write=False)          # touch 0 -> LRU is `sets`
        cache.access(2 * sets, write=False)   # evicts `sets`
        assert cache.access(0, write=False) is True
        assert cache.access(sets, write=False) is False

    def test_write_no_allocate(self):
        cache = SetAssociativeCache(self._spec(), write_through=True,
                                    write_allocate=False)
        cache.access(0, write=True)
        assert cache.access(0, write=False) is False  # not installed

    def test_writeback_counted(self):
        cache = SetAssociativeCache(self._spec())
        sets = cache.num_sets
        cache.access(0, write=True)           # dirty
        cache.access(sets, write=False)
        cache.access(2 * sets, write=False)   # evicts dirty line 0
        assert cache.stats.writebacks == 1

    def test_hierarchy_write_through(self):
        h = CacheHierarchy(self._spec(), self._spec(size=8192))
        h.access(0, write=False)   # L1 miss, L2 miss, DRAM read
        h.access(0, write=True)    # L1 hit, write-through reaches L2 (hit)
        stats = h.stats()
        assert stats.l1.read_misses == 1
        assert stats.l1.write_hits == 1
        assert stats.l2.write_hits == 1
        assert stats.dram_read_lines == 1

    def test_hierarchy_warm_preloads_l2(self):
        h = CacheHierarchy(self._spec(size=128, line=64, assoc=2),
                           self._spec(size=8192))
        lines = np.arange(32, dtype=np.int64)
        h.warm(lines)
        stats_before = h.stats()
        assert stats_before.l1.accesses == 0  # warm is stat-free
        h.replay(lines, np.zeros(32, dtype=bool))
        stats = h.stats()
        # tiny L1 misses (32 lines > 2 resident), but L2 holds them all
        assert stats.l2.read_hits + stats.l1.read_hits == 32
        assert stats.dram_read_lines == 0

    def test_replay_shape_mismatch(self):
        h = CacheHierarchy(self._spec(), self._spec(size=8192))
        with pytest.raises(ValueError):
            h.replay(np.arange(4), np.zeros(3, dtype=bool))


class TestTable4Kernels:
    @pytest.fixture(scope="class")
    def counters(self):
        return {c.name: c
                for c in (simulate_kernel(p, RTX_2080TI)
                          for p in nvsa_table4_kernels(RTX_2080TI))}

    def test_all_four_kernels_present(self, counters):
        assert set(counters) == {"sgemm_nn", "relu_nn",
                                 "vectorized_elem", "elementwise"}

    def test_neural_compute_dominant(self, counters):
        assert counters["sgemm_nn"].compute_throughput_pct > 80
        assert counters["relu_nn"].compute_throughput_pct > 80

    def test_symbolic_alu_starved(self, counters):
        assert counters["vectorized_elem"].alu_utilization_pct < 10
        assert counters["elementwise"].alu_utilization_pct < 10

    def test_symbolic_dram_saturated(self, counters):
        assert counters["vectorized_elem"].dram_bw_utilization_pct > 70
        assert counters["elementwise"].dram_bw_utilization_pct > 70
        assert counters["sgemm_nn"].dram_bw_utilization_pct < 40

    def test_gemm_l1_hit_near_zero_l2_high(self, counters):
        gemm = counters["sgemm_nn"]
        assert gemm.l1_hit_rate_pct < 15
        assert gemm.l2_hit_rate_pct > 50

    def test_relu_inplace_l1_hits(self, counters):
        assert counters["relu_nn"].l1_hit_rate_pct == pytest.approx(
            50.0, abs=5)

    def test_elementwise_hit_rates_match_structure(self, counters):
        # read-miss, read-miss, write-hit per element triple = 1/3
        ew = counters["elementwise"]
        assert ew.l1_hit_rate_pct == pytest.approx(33.3, abs=2)
        assert ew.l2_hit_rate_pct == pytest.approx(33.3, abs=2)

    def test_counters_bounded(self, counters):
        for counter in counters.values():
            for value in counter.as_dict().values():
                assert 0.0 <= value <= 100.0


class TestTransfers:
    def test_explicit_movement_counted(self):
        with T.profile("w") as prof:
            with T.phase("neural"):
                T.to_device(T.tensor(np.ones(1000, dtype=np.float32)),
                            "gpu")
                x = T.add(T.tensor(np.ones(10, dtype=np.float32)), 1.0)
            with T.phase("symbolic"):
                T.to_host(x)
        report = analyze_transfers(prof.trace, RTX_2080TI)
        assert report.h2d_bytes >= 4000
        assert report.d2h_bytes >= 40
        assert report.num_transfers >= 2
        assert report.total_time > 0

    def test_h2d_fraction(self):
        with T.profile("w") as prof:
            T.to_device(T.tensor(np.ones(1000, dtype=np.float32)), "gpu")
        report = analyze_transfers(prof.trace, RTX_2080TI)
        assert report.h2d_fraction == pytest.approx(1.0)

"""Tests for the analytic performance model."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import A100_40GB, PerformanceModel
from repro.gpu.stats import (
    ExecutionProfile,
    HostParallelEvent,
    KernelEvent,
    OpCounters,
    TransferEvent,
)
from repro.telemetry.profile import profile_from_execution


def make_counters(ops=0.0, load=0.0, store=0.0, atomics=0.0) -> OpCounters:
    c = OpCounters()
    c.ops = ops
    c.load_bytes = load
    c.store_bytes = store
    c.atomics = atomics
    return c


def kernel(ops=1e6, mem=1e6, atomics=0, threads=4096, block=256, api="cuda",
           limit=None) -> KernelEvent:
    return KernelEvent(
        name="k", total_threads=threads, block_size=block,
        counters=make_counters(ops=ops, load=mem / 2, store=mem / 2,
                               atomics=atomics),
        api=api, parallel_limit=limit,
    )


class TestKernelTime:
    def setup_method(self):
        self.pm = PerformanceModel()

    def test_more_work_takes_longer(self):
        t1, _, _ = self.pm.kernel_time(kernel(ops=1e6))
        t2, _, _ = self.pm.kernel_time(kernel(ops=1e8))
        assert t2 > t1

    def test_serialized_kernel_much_slower(self):
        fast, _, _ = self.pm.kernel_time(kernel(ops=1e6, threads=4096))
        slow, _, _ = self.pm.kernel_time(kernel(ops=1e6, threads=4096, limit=1))
        assert slow > fast * 100

    def test_occupancy_penalty_for_tiny_launches(self):
        wide, _, _ = self.pm.kernel_time(kernel(ops=1e6, threads=4096))
        narrow, _, _ = self.pm.kernel_time(kernel(ops=1e6, threads=64))
        assert narrow > wide

    def test_omp_region_pays_more_overhead_than_cuda_launch(self):
        _, cuda_oh, _ = self.pm.kernel_time(kernel(api="cuda"))
        _, omp_oh, _ = self.pm.kernel_time(kernel(api="omp"))
        assert omp_oh > cuda_oh

    def test_omp_compute_efficiency_below_cuda(self):
        c, _, _ = self.pm.kernel_time(kernel(ops=1e9, mem=0, api="cuda"))
        o, _, _ = self.pm.kernel_time(kernel(ops=1e9, mem=0, api="omp"))
        assert o > c

    def test_atomics_cost_time(self):
        _, _, none = self.pm.kernel_time(kernel(atomics=0))
        _, _, many = self.pm.kernel_time(kernel(atomics=1e6))
        assert none == 0
        assert many == pytest.approx(1e6 / A100_40GB.atomic_rate)

    def test_tiny_block_wastes_warp_lanes(self):
        full, _, _ = self.pm.kernel_time(kernel(ops=1e8, threads=4096, block=256))
        tiny, _, _ = self.pm.kernel_time(kernel(ops=1e8, threads=4096, block=1))
        assert tiny > full * 5

    def test_memory_bound_kernel_uses_bandwidth(self):
        t, _, _ = self.pm.kernel_time(kernel(ops=0, mem=1.3e12, threads=4096))
        # one second of data at effective bandwidth (full occupancy)
        assert t == pytest.approx(1.0, rel=0.01)


class TestTransferTime:
    def test_bytes_over_pcie(self):
        pm = PerformanceModel()
        bw, lat = pm.transfer_time(TransferEvent(bytes=int(2e10), direction="h2d"))
        assert bw == pytest.approx(1.0)
        assert lat == A100_40GB.transfer_latency

    def test_omp_map_transfers_slower(self):
        pm = PerformanceModel()
        cuda_bw, _ = pm.transfer_time(TransferEvent(bytes=10**9, direction="h2d"))
        omp_bw, _ = pm.transfer_time(
            TransferEvent(bytes=10**9, direction="h2d", api="omp")
        )
        assert omp_bw > cuda_bw

    def test_d2d_uses_hbm(self):
        pm = PerformanceModel()
        pcie, _ = pm.transfer_time(TransferEvent(bytes=10**9, direction="h2d"))
        hbm, _ = pm.transfer_time(TransferEvent(bytes=10**9, direction="d2d"))
        assert hbm < pcie


class TestHostTime:
    def test_serial_vs_parallel(self):
        pm = PerformanceModel()
        c = make_counters(ops=1e9)
        serial = pm.host_time(c, 1)
        parallel = pm.host_time(c, 64)
        assert parallel < serial

    def test_parallel_capped_at_core_count(self):
        pm = PerformanceModel()
        c = make_counters(ops=1e9)
        assert pm.host_time(c, 64) == pytest.approx(pm.host_time(c, 1024))


class TestBreakdown:
    def make_profile(self) -> ExecutionProfile:
        p = ExecutionProfile()
        p.host = make_counters(ops=1e6)
        p.events.append(kernel())
        p.events.append(TransferEvent(bytes=10**6, direction="h2d"))
        p.events.append(HostParallelEvent(counters=make_counters(ops=1e6),
                                          num_threads=8))
        return p

    def test_total_is_sum_of_components(self):
        pm = PerformanceModel()
        bd = pm.breakdown(self.make_profile())
        assert bd.total == pytest.approx(
            bd.host + bd.kernel_compute + bd.kernel_overhead + bd.atomic
            + bd.transfer_bandwidth + bd.transfer_latency
        )

    def test_work_scale_scales_throughput_terms(self):
        pm = PerformanceModel()
        p = self.make_profile()
        b1 = pm.breakdown(p, work_scale=1.0, launch_scale=1.0)
        b2 = pm.breakdown(p, work_scale=10.0, launch_scale=1.0)
        assert b2.kernel_compute == pytest.approx(10 * b1.kernel_compute)
        assert b2.kernel_overhead == pytest.approx(b1.kernel_overhead)

    def test_launch_scale_scales_overhead_terms(self):
        pm = PerformanceModel()
        p = self.make_profile()
        b1 = pm.breakdown(p, work_scale=1.0, launch_scale=1.0)
        b2 = pm.breakdown(p, work_scale=1.0, launch_scale=7.0)
        assert b2.kernel_overhead == pytest.approx(7 * b1.kernel_overhead)
        assert b2.transfer_latency == pytest.approx(7 * b1.transfer_latency)
        assert b2.kernel_compute == pytest.approx(b1.kernel_compute)

    def test_launch_scale_defaults_to_work_scale(self):
        pm = PerformanceModel()
        p = self.make_profile()
        assert pm.seconds(p, 5.0) == pytest.approx(pm.seconds(p, 5.0, 5.0))

    def test_invalid_scales_rejected(self):
        pm = PerformanceModel()
        with pytest.raises(ValueError):
            pm.breakdown(ExecutionProfile(), work_scale=0)
        with pytest.raises(ValueError):
            pm.breakdown(ExecutionProfile(), work_scale=1, launch_scale=-1)

    @given(st.floats(min_value=0.1, max_value=1e6),
           st.floats(min_value=0.1, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_time_monotone_in_scales(self, w, lat):
        pm = PerformanceModel()
        p = self.make_profile()
        base = pm.seconds(p, w, lat)
        assert pm.seconds(p, w * 2, lat) > base
        assert pm.seconds(p, w, lat * 2) > base


class TestOpCounters:
    def test_add_and_scaled(self):
        a = make_counters(ops=1, load=2, store=3, atomics=4)
        b = make_counters(ops=10, load=20, store=30, atomics=40)
        a.add(b)
        assert (a.ops, a.load_bytes, a.store_bytes, a.atomics) == (11, 22, 33, 44)
        s = a.scaled(2.0)
        assert s.ops == 22 and s.atomics == 88

    def test_mem_bytes(self):
        c = make_counters(load=5, store=7)
        assert c.mem_bytes == 12

    def test_profile_summary(self):
        p = ExecutionProfile()
        p.events.append(kernel(atomics=5))
        p.events.append(TransferEvent(bytes=100, direction="d2h"))
        s = profile_from_execution(
            SimpleNamespace(profile=p, steps_used=0, runtime_seconds=0.0)
        )
        assert s.kernel_launches == 1
        assert s.atomics == 5
        assert s.transfer_bytes == 100

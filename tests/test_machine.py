"""Tests for the simulated machine substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_task
from repro.core.resources import Resource
from repro.errors import ValidationError
from repro.machine import (
    MachineSpec,
    SimulatedMachine,
    cpu_share,
    cpu_slowdown,
    disk_slowdown,
    memory_pressure,
)


class TestSpecs:
    def test_dell_gx270_matches_figure7(self):
        spec = MachineSpec.dell_gx270()
        assert spec.memory_mb == 512
        assert spec.disk_gb == 80
        assert spec.cpu_speed == 1.0
        assert "quake3" in spec.installed

    def test_validation(self):
        with pytest.raises(ValidationError):
            MachineSpec(name="x", cpu_speed=0.0)
        with pytest.raises(ValidationError):
            MachineSpec(name="x", memory_mb=0)
        with pytest.raises(ValidationError):
            MachineSpec(name="x", os_resident_fraction=1.0)

    def test_random_host_deterministic(self):
        a = MachineSpec.random_internet_host(seed=3)
        b = MachineSpec.random_internet_host(seed=3)
        assert a == b

    def test_random_hosts_heterogeneous(self):
        speeds = {
            MachineSpec.random_internet_host(seed=i).cpu_speed
            for i in range(20)
        }
        assert len(speeds) > 10

    def test_snapshot_stringly(self):
        snap = MachineSpec.dell_gx270().snapshot()
        assert all(isinstance(v, str) for v in snap.values())
        assert snap["memory_mb"] == "512"

    def test_scaled(self):
        spec = MachineSpec.dell_gx270().scaled(cpu_speed=2.0)
        assert spec.cpu_speed == 2.0
        assert spec.memory_mb == 512


class TestCpuScheduler:
    def test_paper_example(self):
        # §2.2: contention 1.5 -> busy thread runs at 1/(1.5+1) = 40 %.
        assert cpu_share(1.5) == pytest.approx(0.4)
        assert cpu_slowdown(1.0, 1.5) == pytest.approx(2.5)

    def test_no_slowdown_in_spare_cycles(self):
        # A 10 %-demand task is untouched until its share drops below 10 %.
        assert cpu_slowdown(0.1, 1.0) == 1.0
        assert cpu_slowdown(0.1, 8.0) == 1.0
        assert cpu_slowdown(0.1, 9.5) == pytest.approx(1.05)

    def test_faster_host_tolerates_more(self):
        slow = cpu_slowdown(0.8, 2.0, cpu_speed=0.5)
        fast = cpu_slowdown(0.8, 2.0, cpu_speed=2.0)
        assert slow > fast

    def test_validation(self):
        with pytest.raises(ValidationError):
            cpu_slowdown(0.0, 1.0)
        with pytest.raises(ValidationError):
            cpu_slowdown(0.5, -1.0)
        with pytest.raises(ValidationError):
            cpu_share(-0.1)


class TestMemoryModel:
    def test_no_pressure_below_capacity(self):
        spec = MachineSpec.dell_gx270()
        p = memory_pressure(spec, working_set=0.2, dynamism=0.5, borrowed=0.3)
        assert p.slowdown == 1.0
        assert p.overflow == 0.0

    def test_pressure_grows_with_borrowing(self):
        spec = MachineSpec.dell_gx270()
        low = memory_pressure(spec, 0.4, 0.5, 0.5)
        high = memory_pressure(spec, 0.4, 0.5, 0.9)
        assert high.slowdown > low.slowdown > 1.0

    def test_static_working_set_barely_hurt(self):
        # The paper's §3.3.3 observation: formed office working sets
        # tolerate borrowing; dynamic working sets (IE/Quake) do not.
        spec = MachineSpec.dell_gx270()
        static = memory_pressure(spec, 0.3, 0.04, 0.9)
        dynamic = memory_pressure(spec, 0.3, 0.5, 0.9)
        assert dynamic.slowdown > static.slowdown
        assert static.slowdown < 1.7

    def test_small_host_pages_sooner(self):
        big = MachineSpec.dell_gx270()
        small = MachineSpec(name="small", memory_mb=128)
        assert (
            memory_pressure(small, 0.3, 0.3, 0.3).slowdown
            > memory_pressure(big, 0.3, 0.3, 0.3).slowdown
        )

    def test_validation(self):
        spec = MachineSpec.dell_gx270()
        with pytest.raises(ValidationError):
            memory_pressure(spec, 0.3, 0.3, 1.5)
        with pytest.raises(ValidationError):
            memory_pressure(spec, 0.0, 0.3, 0.5)


class TestDiskModel:
    def test_io_free_task_untouched(self):
        assert disk_slowdown(0.0, 7.0) == 1.0

    def test_io_bound_task_full_inflation(self):
        assert disk_slowdown(1.0, 3.0) == pytest.approx(4.0)

    def test_partial(self):
        # 30 % I/O at contention 4: 0.7 + 0.3*5 = 2.2.
        assert disk_slowdown(0.3, 4.0) == pytest.approx(2.2)

    def test_validation(self):
        with pytest.raises(ValidationError):
            disk_slowdown(1.5, 1.0)
        with pytest.raises(ValidationError):
            disk_slowdown(0.5, -1.0)


class TestSimulatedMachine:
    def test_interactivity_unloaded(self, machine, word_task):
        model = machine.interactivity_model(word_task)
        sample = model.interactivity({})
        assert sample.slowdown == 1.0
        assert sample.jitter <= 0.1

    def test_quake_more_sensitive_than_word(self, machine):
        levels = {Resource.CPU: 1.0}
        word = machine.interactivity_model(get_task("word")).interactivity(levels)
        quake = machine.interactivity_model(get_task("quake")).interactivity(levels)
        assert quake.slowdown > word.slowdown
        assert quake.jitter > word.jitter

    def test_memory_borrowing_multiplies(self, machine, quake_task):
        model = machine.interactivity_model(quake_task)
        without = model.interactivity({Resource.CPU: 1.0})
        with_mem = model.interactivity(
            {Resource.CPU: 1.0, Resource.MEMORY: 0.9}
        )
        assert with_mem.slowdown > without.slowdown

    def test_sample_load_saturation(self, machine, quake_task):
        load = machine.sample_load(quake_task, {Resource.CPU: 5.0})
        assert load.cpu_utilization == 1.0
        idle = machine.sample_load(None, {})
        assert idle.cpu_utilization == 0.0

    def test_sample_load_memory_adds_up(self, machine, word_task):
        load = machine.sample_load(word_task, {Resource.MEMORY: 0.5})
        spec = machine.spec
        expected = spec.os_resident_fraction + word_task.working_set + 0.5
        assert load.memory_used == pytest.approx(min(1.0, expected))

    def test_repr(self, machine):
        assert "dell-gx270" in repr(machine)


@settings(max_examples=60)
@given(
    demand=st.floats(min_value=0.01, max_value=1.0),
    c1=st.floats(min_value=0.0, max_value=10.0),
    c2=st.floats(min_value=0.0, max_value=10.0),
)
def test_property_cpu_slowdown_monotone(demand, c1, c2):
    lo, hi = sorted([c1, c2])
    assert cpu_slowdown(demand, lo) <= cpu_slowdown(demand, hi)
    assert cpu_slowdown(demand, lo) >= 1.0


@settings(max_examples=60)
@given(
    ws=st.floats(min_value=0.05, max_value=1.0),
    dyn=st.floats(min_value=0.0, max_value=1.0),
    b1=st.floats(min_value=0.0, max_value=1.0),
    b2=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_memory_pressure_monotone_in_borrowing(ws, dyn, b1, b2):
    spec = MachineSpec.dell_gx270()
    lo, hi = sorted([b1, b2])
    p_lo = memory_pressure(spec, ws, dyn, lo)
    p_hi = memory_pressure(spec, ws, dyn, hi)
    assert p_lo.slowdown <= p_hi.slowdown + 1e-9
    assert p_lo.overflow <= p_hi.overflow + 1e-9

"""Unit tests for one-shot and periodic timers."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.timers import OneShotTimer, PeriodicTimer


class TestOneShotTimer:
    def test_fires_once_after_delay(self):
        sim = Simulator()
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(sim.now))
        timer.start(2.5)
        sim.run()
        assert fired == [2.5]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_restart_reschedules(self):
        sim = Simulator()
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(5.0)  # restart before the first deadline
        sim.run()
        assert fired == [5.0]

    def test_armed_reflects_state(self):
        sim = Simulator()
        timer = OneShotTimer(sim, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        sim.run()
        assert not timer.armed

    def test_can_rearm_from_callback(self):
        sim = Simulator()
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = OneShotTimer(sim, on_fire)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestPeriodicTimer:
    def test_fires_every_period(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 0.2, lambda: fired.append(round(sim.now, 6)))
        timer.start()
        sim.run(until=1.0)
        assert fired == [0.2, 0.4, 0.6, 0.8, 1.0]
        timer.stop()

    def test_phase_offsets_first_tick(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start(phase=0.25)
        sim.run(until=2.5)
        assert fired == [0.25, 1.25, 2.25]
        timer.stop()

    def test_stop_halts_ticks(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run(until=2.5)
        timer.stop()
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_callback_may_stop_timer(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 3:
                timer.stop()

        timer = PeriodicTimer(sim, 1.0, tick)
        timer.start()
        sim.run(until=100.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_tick_counter(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 0.5, lambda: None)
        timer.start()
        sim.run(until=5.0)
        assert timer.ticks == 10
        timer.stop()

    def test_zero_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_keeps_one_event_handle_across_ticks(self):
        sim = Simulator()
        handles = []
        timer = PeriodicTimer(sim, 0.5, lambda: handles.append(timer._handle))
        timer.start()
        sim.run(until=3.0)
        assert len(handles) == 6
        assert all(handle is handles[0] for handle in handles)
        assert handles[0].pending and sim.pending_count == 1
        timer.stop()
        assert sim.pending_count == 0

    def test_double_start_rejected(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        with pytest.raises(SimulationError):
            timer.start()

"""Reference-second arithmetic of the host-speed probe."""

import pytest

from speed import MIN_PROBES, REF_S, Speed, Timed


def test_a_step_is_scaled_by_the_median_probe_around_it():
    speed = Speed()
    speed.probes = [(1.0, 2 * REF_S), (1.1, 3 * REF_S), (1.2, 2 * REF_S), (9.0, 100 * REF_S)]
    # The machine ran at half the reference speed around the step.
    assert speed.scaled(Timed(1.0, 1.2, 4.0)) == pytest.approx(2.0)


def test_the_nearest_probes_stand_in_when_none_lie_close():
    speed = Speed()
    speed.probes = [(0.0, REF_S), (5.0, REF_S / 2), (6.0, REF_S / 2), (7.0, REF_S / 2)]
    assert len(speed.probes) > MIN_PROBES
    assert speed.scaled(Timed(10.0, 10.1, 1.0)) == pytest.approx(2.0)


def test_a_clock_leaves_out_the_probes_run_inside_it():
    speed = Speed()
    clock = speed.start()
    speed.probe()
    step = clock.stop()
    assert len(speed.probes) == 1
    assert 0.0 <= step.seconds < speed.probes[0][1]
    assert step.end - step.start >= speed.probes[0][1]


def test_a_disabled_speed_probes_nothing():
    speed = Speed()
    speed.enabled = False
    speed.warm_up()
    speed.maybe_probe()
    assert speed.probes == [] and speed.probe_total_s == 0.0
    with pytest.raises(RuntimeError):
        speed.scaled(Timed(0.0, 1.0, 1.0))

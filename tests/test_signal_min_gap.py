"""The defended minimum-gap claim at signal fidelity, on the paper seed.

ROADMAP open item "The defended follower stops 0.3 m behind the leader
at signal fidelity, on the paper's own panels": the dead-reckoning
anchor integrates the gap with the follower speed at the step's end,
so while the follower brakes the gap estimate drifts the unsafe way and
the defended fig2a/fig2b runs close to 0.41 m / 0.32 m of the leader.
The bound they should keep is the standstill margin the defenses
defend, ``DefenseConfig.filter_minimum_gap``.  Strict xfail: the fix
must remove the marker.
"""

import pytest

import repro
from repro import fig2_scenario


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP: the defended follower stops 0.3 m behind the leader at "
        "signal fidelity (dead-reckoning anchor uses the step-end speed)"
    ),
)
@pytest.mark.parametrize("attack", ["dos", "delay"])
def test_defended_signal_run_keeps_minimum_gap(attack):
    scenario = fig2_scenario(attack, fidelity="signal")
    result = repro.run(scenario, defended=True)
    assert not result.collided
    assert result.min_gap() >= scenario.defense.filter_minimum_gap

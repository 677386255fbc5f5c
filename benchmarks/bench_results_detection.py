"""Results ¶ (detection) — detection times and confusion counts.

The paper reports: "we were able to detect both the attacks at
k = 182 sec" and "Our detection method did not produce any false
positives or false negatives for both the attack scenarios."

This bench regenerates that table over all four figure scenarios, plus
a *stealthy ramped* delay variant (the offset grows over 60 s instead of
stepping), and contrasts CRA with a χ²-residual detector (the
PyCRA-style baseline the paper positions against).  The residual
detector fires on abrupt corruption — the DoS spikes and the +6 m step —
but misses the ramp, whose per-sample increments hide inside the noise
floor; CRA catches every variant at the first challenge with zero false
positives.
"""

from conftest import emit
from repro import AttackWindow, DelayInjectionAttack, fig2_scenario, run
from repro.analysis import detection_confusion, detection_latency, render_table
from repro.core import ChiSquareDetector


def _chi_square_detection(data):
    """Run the residual baseline over the attacked raw distance stream."""
    detector = ChiSquareDetector(threshold=6.63, persistence=2)
    attacked = data.attacked
    times = attacked.times
    measured = attacked.array("measured_distance")
    onset = data.scenario.attack.window.start
    for t, value in zip(times, measured):
        if value == 0.0:  # challenge instants carry no information
            continue
        detector.process(float(t), float(value))
    in_window = [t for t in detector.alarms if t >= onset]
    false_alarms = [t for t in detector.alarms if t < onset]
    return (in_window[0] if in_window else None), len(false_alarms)


def _stealthy_ramp_data():
    """Figure 2b with the offset ramped over 60 s instead of stepped."""
    attack = DelayInjectionAttack(
        AttackWindow(start=180.0, end=300.0), distance_offset=6.0, ramp_time=60.0
    )
    scenario = fig2_scenario("delay").with_overrides(
        name="fig2b-stealth-ramp", attack=attack
    )
    return run(scenario, mode="figure")


def bench_results_detection(benchmark, figure_data):
    def build_table():
        rows = []
        panels = [
            ("fig2a", "DoS, constant decel"),
            ("fig2b", "Delay, constant decel"),
            ("fig3a", "DoS, decel+accel"),
            ("fig3b", "Delay, decel+accel"),
        ]
        datasets = [(figure_data(panel), label) for panel, label in panels]
        datasets.append((_stealthy_ramp_data(), "Delay, stealthy 60 s ramp"))
        for data, label in datasets:
            attack = data.scenario.attack
            confusion = detection_confusion(
                data.defended.detection_events, attack
            )
            chi_time, chi_false = _chi_square_detection(data)
            rows.append(
                {
                    "scenario": label,
                    "attack_onset_s": attack.window.start,
                    "cra_detection_s": data.detection_time(),
                    "cra_latency_s": detection_latency(data.defended, attack),
                    "cra_FP": confusion.false_positives,
                    "cra_FN": confusion.false_negatives,
                    "chi2_detection_s": chi_time,
                    "chi2_false_alarms": chi_false,
                }
            )
        return rows

    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)

    # Paper claims: both attacks detected at k = 182, zero FP / zero FN.
    assert all(row["cra_detection_s"] == 182.0 for row in rows)
    assert all(row["cra_FP"] == 0 and row["cra_FN"] == 0 for row in rows)
    # Contrast claim: the residual baseline misses (or badly lags) the
    # stealthy ramp, while CRA catches it at the first challenge.
    stealth = next(r for r in rows if "ramp" in r["scenario"])
    assert (
        stealth["chi2_detection_s"] is None
        or stealth["chi2_detection_s"] > stealth["cra_detection_s"] + 10.0
    )

    emit(
        "results_detection",
        render_table(
            rows,
            title=(
                "Detection results (paper: both attacks detected at k = 182 s, "
                "zero FP / zero FN)"
            ),
            precision=1,
        ),
    )

"""Closed-loop car-following simulation (paper §6).

* :mod:`repro.simulation.scenario` — declarative description of one
  experiment (vehicles, radar, challenge schedule, attack, defense
  configuration), with factories for the paper's Figure 2/3 scenarios.
* :mod:`repro.simulation.engine` — the step loop that wires leader,
  follower, radar, attack, defense pipeline and ACC together.
* :mod:`repro.simulation.results` — trace containers and summaries,
  including the (baseline / attacked / defended) triple each figure
  plots.
* :mod:`repro.simulation.batch` — parallel batch execution of
  independent runs (the substrate behind every ``workers=`` kwarg).
* :mod:`repro.simulation.vectorized` — the lock-step batch engine
  behind ``backend="vectorized"`` / ``"auto"`` (bit-identical to the
  scalar engine, one numpy pass per step for a homogeneous group).
* :mod:`repro.simulation.knobs` — shared validation of the
  ``workers=`` / ``cache=`` / ``backend=`` execution knobs.
* :mod:`repro.simulation.sweep` — adaptive variance-aware Monte-Carlo
  sweeps over scenario grids (early-stops converged cells, allocates
  seeds where the metric variance is highest).
"""

from repro.simulation.scenario import (
    Scenario,
    DefenseConfig,
    paper_challenge_times,
    fig2_scenario,
    fig3_scenario,
    PANELS,
    panel_scenario,
)
from repro.simulation.engine import CarFollowingSimulation
from repro.simulation.results import FigureData, SimulationResult, ResultSummary
from repro.simulation.platoon import (
    PlatoonScenario,
    PlatoonResult,
    PlatoonSimulation,
)
from repro.simulation.batch import (
    BatchResult,
    RunRecord,
    RunSpec,
    derive_seeds,
    execute_batch,
    run_many,
)
from repro.simulation.knobs import BACKENDS, resolve_backend
from repro.simulation.vectorized import (
    group_key,
    run_group_vectorized,
    vectorization_blocker,
)
from repro.simulation.io import (
    export_csv,
    export_json,
    load_json,
    result_from_dict,
    result_to_dict,
)
from repro.simulation.spec import (
    SPEC_VERSION,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.simulation.monte_carlo import (
    MonteCarloSummary,
    SeedOutcome,
    run_monte_carlo,
)
from repro.simulation.sweep import (
    SWEEP_METRICS,
    SWEEP_SCHEDULES,
    CellResult,
    SweepCell,
    SweepResult,
    run_sweep,
)

__all__ = [
    "Scenario",
    "DefenseConfig",
    "paper_challenge_times",
    "fig2_scenario",
    "fig3_scenario",
    "PANELS",
    "panel_scenario",
    "CarFollowingSimulation",
    "SimulationResult",
    "ResultSummary",
    "FigureData",
    "PlatoonScenario",
    "PlatoonResult",
    "PlatoonSimulation",
    "RunSpec",
    "RunRecord",
    "BatchResult",
    "execute_batch",
    "run_many",
    "derive_seeds",
    "BACKENDS",
    "resolve_backend",
    "vectorization_blocker",
    "group_key",
    "run_group_vectorized",
    "export_csv",
    "export_json",
    "load_json",
    "result_to_dict",
    "result_from_dict",
    "run_monte_carlo",
    "MonteCarloSummary",
    "SeedOutcome",
    "SweepCell",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "SWEEP_METRICS",
    "SWEEP_SCHEDULES",
    "SPEC_VERSION",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
]

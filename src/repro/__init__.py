"""Reproduction of *Estimation of Safe Sensor Measurements of Autonomous
System Under Attack* (Dutta et al., DAC 2017).

The library implements, from scratch:

* the paper's defense — challenge-response authentication (CRA) for
  attack detection on active sensors, and recursive least-squares (RLS)
  estimation of safe measurements during an attack (``repro.core``);
* every substrate the evaluation relies on — a 77 GHz FMCW radar chain
  with root-MUSIC beat extraction (``repro.radar``), DoS-jamming and
  delay-injection attack models (``repro.attacks``), the hierarchical
  ACC controller with the IDM-style car-following dynamics
  (``repro.vehicle``), the discrete LTI framework (``repro.lti``), and
  the closed-loop simulation engine (``repro.simulation``);
* metrics and reporting used by the benchmark harness
  (``repro.analysis``), and a content-addressed persistent run store
  (``repro.store``) that memoizes deterministic runs behind the
  ``cache=`` knob of :func:`repro.run`;
* a long-running asyncio HTTP/JSON service (``repro.service``,
  ``python -m repro serve``) that fronts the store and the batch
  engine — cache hits stream back instantly, misses execute on a
  bounded process pool, and concurrent identical requests coalesce
  into a single execution.

Quickstart
----------
>>> from repro import fig2_scenario, run
>>> data = run(fig2_scenario("dos"), mode="figure")
>>> data.detection_time()
182.0
>>> data.defended.collided
False

:func:`repro.run` is the unified experiment facade (single runs,
figure triples, Monte-Carlo sweeps, platoons) with a ``workers=``
kwarg that fans independent runs out over a process pool.
"""

from repro.core import (
    ARBasis,
    ChallengeSchedule,
    ChannelPredictor,
    ChiSquareDetector,
    CRADetector,
    CUSUMDetector,
    SafetyEnvelopeDetector,
    DeadReckoningEstimator,
    Forecaster,
    MeasurementEstimator,
    HoldLastValuePredictor,
    KalmanChannelPredictor,
    PolynomialBasis,
    PRBSGenerator,
    RadarChannelEstimator,
    RLSEstimator,
    SafeMeasurement,
    SafeMeasurementPipeline,
    rls_estimate,
)
from repro.attacks import (
    Attack,
    AttackSchedule,
    AttackWindow,
    DelayInjectionAttack,
    DoSJammingAttack,
    NoAttack,
    PhantomTargetAttack,
)
from repro.radar import (
    BOSCH_LRR2,
    AttackEffect,
    FMCWParameters,
    FMCWRadarSensor,
    JammerParameters,
    beat_frequencies,
    bosch_lrr2,
    invert_beat_frequencies,
    jamming_power_ratio,
    jamming_succeeds,
    received_power,
    root_music,
)
from repro.vehicle import (
    ACCParameters,
    ACCSystem,
    ConstantAccelerationProfile,
    IDMFollowerController,
    IDMParameters,
    IntelligentDriverModel,
    PiecewiseAccelerationProfile,
    StopAndGoProfile,
    VehicleState,
)
from repro.simulation import (
    BatchResult,
    CarFollowingSimulation,
    DefenseConfig,
    FigureData,
    MonteCarloSummary,
    PANELS,
    PlatoonResult,
    PlatoonScenario,
    PlatoonSimulation,
    RunRecord,
    RunSpec,
    Scenario,
    SeedOutcome,
    SimulationResult,
    derive_seeds,
    execute_batch,
    fig2_scenario,
    fig3_scenario,
    panel_scenario,
    paper_challenge_times,
    run_many,
)

# The unified experiment facade (see repro.facade).
from repro.facade import run

# Content-addressed experiment store (persistent run memoization
# behind the cache= knob of run()/execute_batch; see repro.store).
from repro.store import (
    CacheBinding,
    RunStore,
    StoreStats,
    default_store_path,
    run_fingerprint,
)

# Async simulation service (HTTP/JSON frontend over the run store
# with single-flight request coalescing; see repro.service).
from repro.service import ServiceApp, serve
from repro.analysis import (
    ascii_plot,
    detection_confusion,
    detection_latency,
    estimation_rmse,
    render_table,
    safety_metrics,
)
from repro.types import (
    AttackLabel,
    DetectionEvent,
    RadarMeasurement,
    SensorStatus,
    TimeSeries,
)
from repro.exceptions import (
    ConfigurationError,
    EstimatorNotTrainedError,
    RadarRangeError,
    ReproError,
    SimulationError,
    SpectralEstimationError,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "RLSEstimator",
    "rls_estimate",
    "PolynomialBasis",
    "ARBasis",
    "ChannelPredictor",
    "Forecaster",
    "MeasurementEstimator",
    "RadarChannelEstimator",
    "DeadReckoningEstimator",
    "ChallengeSchedule",
    "PRBSGenerator",
    "CRADetector",
    "SafeMeasurementPipeline",
    "SafeMeasurement",
    "HoldLastValuePredictor",
    "KalmanChannelPredictor",
    "ChiSquareDetector",
    "CUSUMDetector",
    "SafetyEnvelopeDetector",
    # attacks
    "Attack",
    "AttackWindow",
    "AttackSchedule",
    "NoAttack",
    "DoSJammingAttack",
    "DelayInjectionAttack",
    "PhantomTargetAttack",
    # radar
    "FMCWParameters",
    "BOSCH_LRR2",
    "bosch_lrr2",
    "FMCWRadarSensor",
    "AttackEffect",
    "JammerParameters",
    "beat_frequencies",
    "invert_beat_frequencies",
    "received_power",
    "jamming_power_ratio",
    "jamming_succeeds",
    "root_music",
    # vehicle
    "ACCParameters",
    "ACCSystem",
    "VehicleState",
    "IDMParameters",
    "IntelligentDriverModel",
    "IDMFollowerController",
    "ConstantAccelerationProfile",
    "PiecewiseAccelerationProfile",
    "StopAndGoProfile",
    # simulation
    "Scenario",
    "DefenseConfig",
    "CarFollowingSimulation",
    "SimulationResult",
    "FigureData",
    "fig2_scenario",
    "fig3_scenario",
    "PANELS",
    "panel_scenario",
    "paper_challenge_times",
    "run",
    "MonteCarloSummary",
    "SeedOutcome",
    "PlatoonScenario",
    "PlatoonResult",
    "PlatoonSimulation",
    # batch execution
    "RunSpec",
    "RunRecord",
    "BatchResult",
    "execute_batch",
    "run_many",
    "derive_seeds",
    # run store
    "RunStore",
    "StoreStats",
    "CacheBinding",
    "run_fingerprint",
    "default_store_path",
    # service
    "ServiceApp",
    "serve",
    # analysis
    "detection_latency",
    "detection_confusion",
    "estimation_rmse",
    "safety_metrics",
    "render_table",
    "ascii_plot",
    # types
    "RadarMeasurement",
    "SensorStatus",
    "AttackLabel",
    "DetectionEvent",
    "TimeSeries",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "RadarRangeError",
    "EstimatorNotTrainedError",
    "SimulationError",
    "SpectralEstimationError",
    "__version__",
]

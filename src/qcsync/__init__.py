"""qcsync: a desk-scale sandbox for asymmetric delay attacks on
photon-pair clock synchronization.

The package simulates correlated photon-pair timestamp streams over an
attacked bidirectional fiber link, recovers the clock difference between
the two ends from second-order coincidence histograms, quantifies the
stability damage of tunable jump / spike / gradual delay attacks with the
time deviation (TDEV), and scores baseline countermeasures.
"""

__version__ = "0.13.0"

from .attacks import (
    AttackEvent,
    AttackPattern,
    CoordinationMode,
    CoordinationRule,
    DelayTrajectory,
    ExponentialBehavior,
    LinearBehavior,
    LogarithmicBehavior,
    PolynomialBehavior,
    SchemeKind,
    derive_n_from_m,
    eval_event,
    eval_trajectory,
    tampered_clock_difference,
)
from .detection import (
    Alarm,
    AlarmKind,
    CusumConfig,
    DetectionScore,
    ThresholdConfig,
    collect_alarms,
    cusum_drift,
    score,
    threshold_monitor,
)
from .errors import (
    AcquisitionError,
    ConfigurationError,
    ContractViolation,
    EmptySeriesError,
    GapError,
    GapRateError,
    NoPeakError,
    QcsyncError,
    SchemaError,
)
from .estimator import (
    AcquisitionResult,
    ClockDifferencePoint,
    ClockDifferenceSeries,
    CorrelationHistogram,
    EstimatorConfig,
    PeakEstimate,
    build_histogram,
    clock_difference,
    coarse_acquire,
    estimate_peak,
    per_epoch_series,
)
from .runner import CampaignResult, load_scenario, reproduce, run_scenario, write_campaign
from .scenario import (
    AnalyticConfig,
    AttackScenario,
    RunConfig,
    RunMode,
    ScenarioDetection,
    builtin_names,
    builtin_scenario,
    figure_bundle,
    validate_scenario,
    validate_scenario_dict,
)
from .simulation import (
    ChannelConfig,
    ClockConfig,
    DetectorConfig,
    DetectorId,
    SourceConfig,
    TdcConfig,
    TimestampStream,
    generate_pairs,
    propagate_and_detect,
    run_round_trip_sim,
)
from .stability import TdevCurve, TdevPoint, default_m_grid, estimate_step_shift, tdev
from .streamio import read_stream, read_stream_csv, write_stream, write_stream_csv

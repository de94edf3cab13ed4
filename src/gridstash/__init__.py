"""Storage-backed purchase policies: fit price laws, run the online threshold
policy against offline oracles, bound its regret, and size the storage."""

from .data_io import (
    LoadTrace,
    PriceTrace,
    TraceSplit,
    ensure_aligned,
    load_load_trace,
    load_price_trace,
    load_trace_from_values,
    price_trace_from_values,
    save_load_trace,
    save_price_trace,
    split_train_test,
)
from .decomposition import (
    DispatchSchedule,
    Pieces,
    decompose,
    schedule_from_assignments,
    verify_feasible,
)
from .distributions import (
    DiscreteDistribution,
    GmmDistribution,
    PriceDistribution,
    UniformDistribution,
)
from .evaluation import (
    ExperimentReport,
    RegretParams,
    WindowMinima,
    brute_force_expected_cost,
    daily_cost_ratios,
    general_serving_study,
    offline_optimal_general,
    one_shot_regret_study,
    regret_params,
    shape_bound,
    uniform_bound,
)
from .gmm import EmConfig, FitReport, GmmModel, em_fit, select_model
from .heuristics import (
    PeriodLabeling,
    PriceEstimator,
    Variant,
    detect_periods,
    fit_estimator,
)
from .policy import (
    ConstantSource,
    DistributionSource,
    SimulationResult,
    ThresholdSchedule,
    compute_thresholds_iid,
    compute_thresholds_timevarying,
    run_policy,
)
from .sizing import SizingCurve, SizingResult, min_cost_curve, optimal_capacity
from .synth import synth_load, synth_prices

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

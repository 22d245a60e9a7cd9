"""Simulation and statistical auditing of binary sequential decision devices."""

__version__ = "0.1.0"

from .core import (
    ErrorSpec,
    RecordBatch,
    Thresholds,
    read_records_csv,
    thresholds_from_alphas,
    write_records_csv,
)
from .models import (
    ContinuousLLRParams, DriftDiffusionModel, GaussianIIDModel, LatticeBernoulliModel,
    MarkovGaussianModel, continuous_llr_params,
)
from .simulate import ExperimentConfig, ExperimentResult, empirical_error_probs, run_experiment
from .analytic import (
    decision_time_density,
    error_probs_continuous,
    mean_decision_times,
    mutual_info_continuous,
    mutual_info_discretized,
    sample_inverse_gaussian,
)
from .stats import (
    Binning,
    MIEstimate,
    TestReport,
    chi2_two_sample,
    conditional_mi_plugin,
    ks_two_sample,
    mi_plugin,
    optimality_test_known_h,
    optimality_test_unknown_h,
)
from .oracle import enumerate_exact_law, verify_fluctuation_relation
from .overshoot import OvershootSeries, condition51_flatness, overshoot_profile

"""Certified machine unlearning on fixed decentralized networks.

A deterministic simulator and library for token random-walk training, a
network-private baseline, and a localized-noise unlearning walk, together
with a Renyi-DP accountant, noise calibrators, deletion-capacity
calculators, and a retraining certifier for desk-scale convex tasks.
"""

__version__ = "0.1.0"

from .accountant import (
    DEFAULT_ALPHA_GRID,
    AccountantReport,
    CalibrationError,
    CalibrationResult,
    DpGuarantee,
    RdpCurve,
    SensitiveVisitCount,
    baseline_group_sigma,
    baseline_view_guarantee,
    calibrate_baseline_sigma,
    calibrate_unlearning_sigma,
    group_privacy,
    rdp_to_dp,
    sensitive_visit_bound,
    token_view_rdp,
    unlearning_view_guarantee,
)
from .capacity import (
    CapacityInputs,
    baseline_capacity,
    capacity_sweep_rows,
    nonbias_term,
    unlearning_capacity,
    utility_bound,
    write_capacity_csv,
)
from .core import (
    ClientDataset,
    ConfigError,
    CorrectionMode,
    FeasibleRegion,
    Graph,
    ModelState,
    RunConfig,
    config_from_file,
    config_from_text,
    config_to_text,
    config_violations,
    params_hash,
    substream,
    validate_config,
)
from .evaluation import (
    EXPERIMENT_CSV_HEADER,
    ExperimentSpec,
    Metrics,
    alignment_bias_sweep,
    evaluate,
    expected_update_direction,
    make_task,
    monte_carlo_update_direction,
    rows_to_csv,
    run_point,
    run_unlearning_experiment,
)
from .network import (
    Message,
    Transcript,
    route_restart,
    route_restart_many,
    route_uniform,
)
from .objectives import (
    GradientReport,
    LogisticObjective,
    QuadraticObjective,
    SyntheticTask,
    closed_form_optimum,
    corrective_gradient,
    dataset_from_lines,
    dataset_to_lines,
    decompose_gradient,
    global_loss,
    grad_local,
    loss_panel,
    make_logistic_task,
    make_quadratic_task,
    retained_global_grad,
)
from .optimizer import (
    StepSpec,
    averaged_gradient,
    clip_gradient,
    effective_variance_bound,
    noisy_projected_step,
    project,
    stepsize,
)
from .protocols import (
    PARAMS_MAGIC,
    PrivacyRecord,
    RunResult,
    load_params,
    run_certifier,
    run_private_baseline,
    run_token_training,
    run_unlearning,
    save_result,
)

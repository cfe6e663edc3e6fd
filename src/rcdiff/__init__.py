"""Reward-directed conditional generation on synthetic subspace data.

The library builds the five-stage pipeline — labeled/unlabeled data on a
hidden linear subspace, ridge reward estimation, pseudo-labeling,
conditional denoising score training, and backward-SDE generation at a
target reward value — together with the closed-form Gaussian-design
references that every learned component is tested against.
"""

from .errors import (
    ConfigError,
    RcdiffError,
    SamplerDivergedError,
    TrainingDivergedError,
    ValidationError,
)
from .oracle import (
    AnalyticScore,
    DiffusionSchedule,
    GaussianDesignOracle,
    analytic_score,
    b_matrix,
    conditional_latent_law,
    distro_shift_surrogate,
    latent_second_moment,
    noised_conditional_law,
)
from .regression import (
    RidgeEstimate,
    coverage_trace,
    coverage_trace_factored,
    default_nu,
    fit_ridge,
    pseudo_label,
    target_covariance,
)
from .sampler import run_backward
from .score_model import (
    CoveringScore,
    MlpScore,
    TrainConfig,
    TrainResult,
    ZeroScore,
    denoising_objective,
    exact_objective,
    extract_subspace,
    train,
)
from .metrics import (
    build_metrics_report,
    moment_discrepancy,
    off_support_deviation,
    subspace_angle,
    suboptimality,
)
from .config import RunConfig, load_config
from .pipeline import run_pipeline
from .figures import emit_figures
from .world import (
    LabeledDataset,
    SubspaceWorld,
    decompose,
    generate_datasets,
    make_world,
    sample_orthonormal,
    true_reward,
)

__version__ = "0.1.0"

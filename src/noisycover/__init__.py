"""Noisy sigmoid networks, covering-number bounds, and NVAC estimation."""

from .bounds import (
    METHODS,
    AffineLnCover,
    BoundError,
    BoundOverflowError,
    BoundPreconditionError,
    BoundQuery,
    LnCover,
    ln_cover,
    ln_cover_fn,
    pdim_capacity,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import Dataset, input_frobenius, load_idx, load_mnist_dir, save_idx, split
from .genbound import (
    DudleyResult,
    GbResult,
    NvacResult,
    dudley_integral,
    full_gb,
    invert_nvac,
    solve_nvac,
)
from .mlp import (
    LossReport,
    NetworkArch,
    ParamSet,
    TrainConfig,
    activation,
    evaluate,
    expected_output,
    forward_deterministic,
    forward_noisy,
    init_params,
    margin,
    ramp,
    train_sgd,
    zero_one_loss,
)
from .norms import (
    ArchQuantifiers,
    one_inf_norm,
    quantifiers,
    spectral_norm,
    two_one_norm,
)
from .oracle import (
    Density1D,
    GaussianMixture1D,
    dpi_check,
    exact_min_cover,
    gmm_estimate_1d,
    greedy_cover,
    tv_gaussians_1d,
)

__version__ = "0.1.0"

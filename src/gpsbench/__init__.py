"""Grid-based patch sampling for memory-constrained online replay.

A pixel budget that would hold K full images instead holds K*f*f compact
surrogates, each formed by keeping one random pixel per f x f patch of the
source image.  Replay tiles f*f same-class surrogates back into a
full-resolution training image; inference can upsample a single surrogate
by pixel repetition.
"""

__version__ = "0.1.0"

from .assembly import draw_replay_batch, grid_concat, upsample
from .bench import (
    AccuracyMatrix,
    Dataset,
    OnlineConfig,
    RunResult,
    SyntheticSpec,
    TaskStream,
    average_end_accuracy,
    generate_synthetic,
    load_cifar100,
    load_cifar100_dataset,
    run_online,
    split_tasks,
)
from .buffer import MODE_FULL, MODE_GPS, PixelBudget, ReplayBuffer
from .config import ExperimentConfig, load_config, parse_config, serialize_config
from .errors import (
    ConfigError,
    EmptyStateError,
    FormatError,
    GpsError,
    NumericalError,
    StateError,
)
from .imaging import GridSpec, Rng, as_pixels, load_gpsi, load_ppm, save_gpsi, save_ppm
from .learner import (
    ModelParams,
    Prototype,
    TrainStepReport,
    init_params,
    load_params,
    ncm_prototypes,
    save_params,
    train_step,
)
from .sampler import expected_surrogate, gps_sample

__all__ = [
    "AccuracyMatrix",
    "ConfigError",
    "Dataset",
    "EmptyStateError",
    "ExperimentConfig",
    "FormatError",
    "GpsError",
    "GridSpec",
    "MODE_FULL",
    "MODE_GPS",
    "ModelParams",
    "NumericalError",
    "OnlineConfig",
    "PixelBudget",
    "Prototype",
    "ReplayBuffer",
    "Rng",
    "RunResult",
    "StateError",
    "SyntheticSpec",
    "TaskStream",
    "TrainStepReport",
    "as_pixels",
    "average_end_accuracy",
    "draw_replay_batch",
    "expected_surrogate",
    "generate_synthetic",
    "gps_sample",
    "grid_concat",
    "init_params",
    "load_cifar100",
    "load_cifar100_dataset",
    "load_config",
    "load_gpsi",
    "load_params",
    "load_ppm",
    "ncm_prototypes",
    "parse_config",
    "run_online",
    "save_gpsi",
    "save_params",
    "save_ppm",
    "serialize_config",
    "split_tasks",
    "train_step",
    "upsample",
    "__version__",
]

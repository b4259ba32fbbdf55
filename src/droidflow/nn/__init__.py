from .model import (
    Hyperparams,
    ModelMismatchError,
    ModelParams,
    RowLengthMismatchError,
    TrainConfig,
    init_model,
    load_model,
    probabilities,
    save_model,
    score,
)
from .train import Adam, DivergedLossError, TrainResult, train

__all__ = [
    "Adam",
    "DivergedLossError",
    "Hyperparams",
    "ModelMismatchError",
    "ModelParams",
    "RowLengthMismatchError",
    "TrainConfig",
    "TrainResult",
    "init_model",
    "load_model",
    "probabilities",
    "save_model",
    "score",
    "train",
]

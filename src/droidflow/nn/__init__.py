from .gradcheck import grad_check
from .model import (
    BiLstmParams,
    FusionParams,
    GnnParams,
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
    "BiLstmParams",
    "DivergedLossError",
    "FusionParams",
    "GnnParams",
    "Hyperparams",
    "ModelMismatchError",
    "ModelParams",
    "RowLengthMismatchError",
    "TrainConfig",
    "TrainResult",
    "grad_check",
    "init_model",
    "load_model",
    "probabilities",
    "save_model",
    "score",
    "train",
]

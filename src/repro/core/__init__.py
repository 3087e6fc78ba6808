"""BlindFL core: federated source layers, models, optimizer, trainer."""

from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.federated import FederatedModule, FederatedParameter, SourceLayer
from repro.core.federated_top import (
    IdealSSTop,
    matmul_backward_from_shares,
    train_lr_with_ss_top,
)
from repro.core.matmul_layer import MatMulSource
from repro.core.models import (
    FederatedDLRM,
    FederatedLR,
    FederatedMLP,
    FederatedMLR,
    FederatedWDL,
    MultiPartyLR,
)
from repro.core.optimizer import FederatedSGD
from repro.core.trainer import (
    History,
    TrainConfig,
    batch_of,
    evaluate_federated,
    predict,
    train_federated,
)

__all__ = [
    "EmbedMatMulSource",
    "MatMulSource",
    "IdealSSTop",
    "matmul_backward_from_shares",
    "train_lr_with_ss_top",
    "FederatedModule",
    "FederatedParameter",
    "SourceLayer",
    "FederatedLR",
    "FederatedMLR",
    "FederatedMLP",
    "FederatedWDL",
    "FederatedDLRM",
    "MultiPartyLR",
    "FederatedSGD",
    "History",
    "TrainConfig",
    "batch_of",
    "evaluate_federated",
    "predict",
    "train_federated",
]

"""Public-API sanity: every documented entry point imports and is exported.

Downstream users consume the package through the subpackage ``__init__``
re-exports; these tests pin that surface so refactors cannot silently
remove documented names.
"""

import importlib

import numpy as np
import pytest

SURFACES = {
    "repro.crypto": [
        "generate_paillier_keypair", "PaillierPublicKey", "PaillierPrivateKey",
        "EncryptedNumber", "EncodedNumber", "CryptoTensor",
        "additive_share", "reconstruct", "he2ss_split", "he2ss_receive",
        "ss2he_send", "ss2he_combine", "BeaverTriple", "ClientAidedDealer",
        "PaillierTripleGenerator", "beaver_matmul",
    ],
    "repro.tensor": [
        "Tensor", "no_grad", "CSRMatrix", "Module", "Linear", "Embedding",
        "Sequential", "SGD", "Adam", "bce_with_logits", "softmax_cross_entropy",
        "embedding", "sparse_linear", "mlp",
    ],
    "repro.comm": [
        "Channel", "Message", "MessageKind", "Party", "VFLConfig", "VFLContext",
        "FabricChannel", "FabricTopology", "run_federation",
    ],
    "repro.core": [
        "MatMulSource", "EmbedMatMulSource", "MultiPartyLR",
        "FederatedModule", "FederatedParameter", "FederatedSGD",
        "FederatedLR", "FederatedMLR", "FederatedMLP", "FederatedWDL",
        "FederatedDLRM", "TrainConfig", "train_federated", "evaluate_federated",
        "predict", "IdealSSTop", "train_lr_with_ss_top",
    ],
    "repro.baselines": [
        "PlainLR", "PlainMLR", "PlainMLP", "PlainWDL", "PlainDLRM",
        "SplitLinear", "SplitWDL", "SecureMLMatMul", "SecureMLCostModel",
        "outsource", "collocated_view", "party_b_view", "train_plain",
    ],
    "repro.attacks": [
        "activation_attack_score", "cosine_direction_attack",
        "attack_accuracy_over_batches", "pairwise_distance_correlation",
        "piece_vs_weight_stats",
    ],
    "repro.data": [
        "load_dataset", "CATALOG", "BatchLoader", "split_vertical",
        "hashed_psi", "asymmetric_psi", "union_alignment",
        "make_dense_classification", "make_sparse_classification",
        "make_categorical_classification", "make_mixed_classification",
        "make_image_like",
    ],
    "repro.utils": ["roc_auc", "accuracy", "format_table", "Timer", "new_rng"],
}


@pytest.mark.parametrize("module_name", sorted(SURFACES))
def test_exports_present(module_name):
    module = importlib.import_module(module_name)
    for name in SURFACES[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"
        assert name in module.__all__, f"{module_name}.{name} not in __all__"


def test_package_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_multiparty_lr_wrapper_trains():
    from repro.comm import VFLConfig, VFLContext
    from repro.core import MultiPartyLR
    from repro.data import make_dense_classification, split_vertical

    full = make_dense_classification(96, 9, seed=66, flip=0.02, nonlinear=False)
    vd = split_vertical(full, party_names=("A1", "A2", "B"))
    ctx = VFLContext(VFLConfig(key_bits=128), seed=25, n_a_parties=2)
    model = MultiPartyLR(ctx, {"A1": 3, "A2": 3}, in_b=3)
    x = {n: vd.party(n).numeric_block() for n in ("A1", "A2", "B")}
    losses = [model.train_step(x, vd.y, lr=0.2) for _ in range(6)]
    assert losses[-1] < losses[0]
    logits = model.forward(x, train=False)
    assert logits.shape == (96, 1)

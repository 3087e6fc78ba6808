"""Figure 9: predicting labels from forward activations.

Per-epoch attack quality when Party A predicts the test labels from the
values it can compute alone, across the paper's five curves:

* split learning (``X_A W_A``) — leaks (paper: ~0.9 AUC on w8a);
* ModelSS without GradSS at ``||V_A|| in {1x, 5x, 10x}`` — still leaks
  (the V_A offset is constant, so X_A U_A is a biased predictor);
* BlindFL (``X_A U_A``) — a coin flip (paper: ~0.5 AUC);
* NonFed-collocated — the reference model quality.

Left panel: w8a-like LR (AUC).  Right panel: news20-like MLR (accuracy),
scaled down (5 of 20 classes, 600 of 62k dims) to keep the crypto cheap.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.activation_attack import activation_attack_score
from repro.baselines.nonfed import PlainLR, PlainMLR, collocated_view, evaluate_plain, train_plain
from repro.baselines.split_learning import SplitLinear, train_split_linear
from repro.comm.party import VFLConfig, VFLContext
from repro.core.models import FederatedLR, FederatedMLR
from repro.core.optimizer import FederatedSGD
from repro.core.trainer import TrainConfig
from repro.data.loader import BatchLoader
from repro.data.partition import split_vertical
from repro.data.synthetic import make_sparse_classification
from repro.tensor.losses import bce_with_logits, softmax_cross_entropy
from repro.utils.tabulate import format_table

EPOCHS = 3
KEY_BITS = 128


def _federated_attack_curve(model_cls, vd_train, vd_test, n_classes, out_dim, cfg):
    """Train BlindFL, recording A's attack score (X_A U_A) per epoch."""
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS, share_refresh="delta"), seed=9)
    in_a = vd_train.party("A").dense_dim
    in_b = vd_train.party("B").dense_dim
    if n_classes == 2:
        model = model_cls(ctx, in_a, in_b)
        criterion = bce_with_logits
    else:
        model = model_cls(ctx, in_a, in_b, n_classes)
        criterion = softmax_cross_entropy
    opt = FederatedSGD(model, lr=cfg.lr, momentum=cfg.momentum)
    rng = np.random.default_rng(cfg.seed)
    x_a_test = vd_test.party("A").numeric_block()
    scores = []
    for _ in range(cfg.epochs):
        for batch in BatchLoader(vd_train, cfg.batch_size, rng=rng):
            out = model.forward(batch, train=True)
            opt.zero_grad()
            loss = criterion(out, batch.y)
            loss.backward()
            model.backward_sources()
            opt.step()
        za = x_a_test.matmul_dense(model.source._a["A"].u)
        scores.append(activation_attack_score(za, vd_test.y, n_classes))
    return scores


def _run_panel(n_classes, dim, nnz, n_train, n_test, out_dim, cfg, seed):
    full = make_sparse_classification(
        n_train + n_test, dim, nnz, n_classes=n_classes, seed=seed, flip=0.03
    )
    train = full.subset(np.arange(n_train))
    test = full.subset(np.arange(n_train, n_train + n_test))
    vd_train, vd_test = split_vertical(train), split_vertical(test)
    half = dim // 2

    curves = {}
    # Split learning and the ModelSS ablations.
    variants = [("split (W_A at A)", False, 1.0)] + [
        (f"ModelSS, ||V||={s:g}x", True, s) for s in (1.0, 5.0, 10.0)
    ]
    for label, model_ss, v_scale in variants:
        sl = SplitLinear(
            half, dim - half, out_dim, model_ss=model_ss, v_scale=v_scale, seed=0
        )
        record = train_split_linear(sl, vd_train, vd_test, cfg)
        curves[label] = [
            activation_attack_score(za, vd_test.y, n_classes)
            for za in record.za_per_epoch
        ]
    # BlindFL.
    cls = FederatedLR if n_classes == 2 else FederatedMLR
    curves["BlindFL (X_A U_A)"] = _federated_attack_curve(
        cls, vd_train, vd_test, n_classes, out_dim, cfg
    )
    # Non-federated reference (model quality, not an attack).
    plain = PlainLR(dim) if n_classes == 2 else PlainMLR(dim, n_classes)
    ref = train_plain(plain, collocated_view(train), cfg, collocated_view(test))
    curves["NonFed-collocated"] = list(ref.epoch_metrics)
    return curves


def test_fig9_w8a_lr_panel(benchmark, report):
    cfg = TrainConfig(epochs=EPOCHS, batch_size=32, lr=0.1, momentum=0.9)
    result = {}

    def run():
        result["curves"] = _run_panel(
            n_classes=2, dim=300, nnz=12, n_train=320, n_test=160,
            out_dim=1, cfg=cfg, seed=60,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    curves = result["curves"]
    rows = [
        [label] + [round(v, 3) for v in values] for label, values in curves.items()
    ]
    report(
        "Figure 9 (left) — w8a-like LR: Party A's label-attack AUC per epoch "
        "(split/ModelSS should stay high, BlindFL ~0.5)",
        format_table(["curve"] + [f"epoch {i+1}" for i in range(EPOCHS)], rows),
    )
    assert curves["split (W_A at A)"][-1] > 0.75
    assert all(c[-1] > 0.6 for k, c in curves.items() if k.startswith("ModelSS"))
    assert abs(curves["BlindFL (X_A U_A)"][-1] - 0.5) < 0.15


def test_fig9_news20_mlr_panel(benchmark, report):
    cfg = TrainConfig(epochs=2, batch_size=32, lr=0.1, momentum=0.9)
    result = {}

    def run():
        result["curves"] = _run_panel(
            n_classes=5, dim=600, nnz=40, n_train=192, n_test=96,
            out_dim=5, cfg=cfg, seed=61,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    curves = result["curves"]
    rows = [
        [label] + [round(v, 3) for v in values] for label, values in curves.items()
    ]
    report(
        "Figure 9 (right) — news20-like MLR (scaled: 5 classes, 600 dims): "
        "Party A's label-attack accuracy per epoch (chance = 0.2)",
        format_table(["curve"] + [f"epoch {i+1}" for i in range(2)], rows),
    )
    # The attack recovers ~2x chance accuracy (0.2 chance, ~0.4 observed),
    # tracking the collocated model's own accuracy — the leak is real.
    assert curves["split (W_A at A)"][-1] > 0.33
    assert abs(curves["BlindFL (X_A U_A)"][-1] - 0.2) < 0.15  # ~chance

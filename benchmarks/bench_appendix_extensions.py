"""Appendix B and C benches: SS-based top models and multi-party MatMul.

* Appendix B (Figures 13/14): training LR with a federated (SS) top model
  — not even Party B sees Z or grad_Z — must converge like the
  plaintext-top variant.
* Appendix C (Algorithm 3): the M-party MatMul layer is lossless and its
  per-batch cost grows ~linearly with the number of A parties (one
  pairwise round each).
"""

from __future__ import annotations

import numpy as np

from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.core.federated_top import train_lr_with_ss_top
from repro.core.matmul_layer import MatMulSource
from repro.core.models import FederatedLR
from repro.core.trainer import TrainConfig, train_federated
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification
from repro.utils.tabulate import format_table
from repro.utils.timer import Timer

KEY_BITS = 128


def test_appendix_b_ss_top(benchmark, report):
    full = make_dense_classification(320, 16, seed=120, flip=0.03, nonlinear=False)
    train = split_vertical(full.subset(np.arange(224)))
    test = split_vertical(full.subset(np.arange(224, 320)))
    cfg = TrainConfig(epochs=2, batch_size=32, lr=0.1, momentum=0.9)
    result = {}

    def run():
        ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=21)
        _, result["ss"] = train_lr_with_ss_top(ctx, train, cfg, test_data=test)
        result["ss_ctx"] = ctx
        ctx2 = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=21)
        model = FederatedLR(ctx2, 8, 8)
        result["plain_top"] = train_federated(model, train, cfg, test_data=test)

    benchmark.pedantic(run, rounds=1, iterations=1)
    ss, plain_top = result["ss"], result["plain_top"]
    kinds = {m.kind for m in result["ss_ctx"].channel.transcript}
    report(
        "Appendix B — LR with a federated (SS) top model vs plaintext top",
        format_table(
            ["variant", "test AUC", "train loss", "B ever sees Z?"],
            [
                ["SS top (Fig. 13)", round(ss.epoch_metrics[-1], 3),
                 f"{ss.losses[0]:.3f}->{ss.losses[-1]:.3f}",
                 "no (no OUTPUT_SHARE msgs)" if MessageKind.OUTPUT_SHARE not in kinds
                 else "yes (bug)"],
                ["plaintext top", round(plain_top.final_metric, 3),
                 f"{plain_top.losses[0]:.3f}->{plain_top.losses[-1]:.3f}", "yes (by design)"],
            ],
        ),
    )
    assert MessageKind.OUTPUT_SHARE not in kinds
    assert abs(ss.epoch_metrics[-1] - plain_top.final_metric) < 0.08
    assert ss.losses[-1] < ss.losses[0]


def test_appendix_c_multiparty(benchmark, report):
    rng = np.random.default_rng(0)
    rows = []
    timings = {}

    def run():
        for m in (2, 3):
            ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=22, n_a_parties=m)
            dims = {name: 6 for name in ctx.a_names}
            layer = MatMulSource(ctx, dims, in_b=6, out_dim=1)
            x = {name: rng.normal(size=(16, 6)) for name in ctx.a_names}
            x["B"] = rng.normal(size=(16, 6))
            w0 = layer.reveal_weights()  # pre-update weights (test observer)
            timer = Timer()
            with timer:
                z = layer.forward(x, x["B"])
                layer.backward(rng.normal(size=(16, 1)) * 0.01)
                layer.apply_updates(lr=0.05, momentum=0.9)
            expected = sum(x[n] @ w0[f"W_{n}"] for n in ctx.a_names)
            expected = expected + x["B"] @ w0["W_B"]
            lossless = np.allclose(z, expected, atol=1e-3)
            timings[m] = timer.elapsed
            rows.append([
                f"M={m} Party A's", round(timer.elapsed, 3),
                "lossless" if lossless else "MISMATCH",
            ])
            assert lossless

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Appendix C / Algorithm 3 — multi-party MatMul, one training "
        "iteration (batch 16)",
        format_table(["configuration", "time/batch (s)", "correctness"], rows),
    )
    # One extra pairwise round per added party: cost grows, but sub-linearly
    # vs 2x (B's share of work is amortised).
    assert timings[3] > timings[2] * 1.1
    assert timings[3] < timings[2] * 2.5

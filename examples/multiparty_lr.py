"""Multi-party vertical federated learning (Appendix C, Algorithm 3).

Three data providers (two Party A's and the label-holding Party B) train a
single logistic-regression model: each A(i) shares its weights with B
pairwise, and B's weights are broken into M+1 pieces so no subset of
parties can reconstruct them.

Run:  python examples/multiparty_lr.py
"""

import numpy as np

from repro.comm import VFLConfig, VFLContext
from repro.core import MatMulSource
from repro.data import BatchLoader, make_dense_classification, split_vertical
from repro.utils import roc_auc


def main() -> None:
    full = make_dense_classification(300, 18, seed=41, flip=0.03, nonlinear=False)
    train = full.subset(np.arange(220))
    test = full.subset(np.arange(220, 300))
    names = ("A1", "A2", "B")
    train_vd = split_vertical(train, party_names=names)
    test_vd = split_vertical(test, party_names=names)

    ctx = VFLContext(VFLConfig(key_bits=128), seed=4, n_a_parties=2)
    layer = MatMulSource(ctx, {"A1": 6, "A2": 6}, in_b=6, out_dim=1, name="mp-lr")

    lr, momentum, epochs, batch_size = 0.1, 0.9, 3, 32
    rng = np.random.default_rng(0)
    for epoch in range(epochs):
        losses = []
        for batch in BatchLoader(train_vd, batch_size, rng=rng):
            x = {n: batch.party(n).numeric_block() for n in names}
            z = layer.forward(x, x["B"])
            probs = 1.0 / (1.0 + np.exp(-z))
            y = batch.y.reshape(z.shape).astype(float)
            losses.append(
                float(np.mean(-(y * np.log(probs + 1e-12)
                                + (1 - y) * np.log(1 - probs + 1e-12))))
            )
            layer.backward((probs - y) / y.shape[0])
            layer.apply_updates(lr, momentum)
        x_test = {n: test_vd.party(n).numeric_block() for n in names}
        z_test = layer.forward(x_test, x_test["B"], train=False)
        auc = roc_auc(test_vd.y, z_test.ravel())
        print(f"epoch {epoch + 1}: train loss {np.mean(losses):.4f}, test AUC {auc:.3f}")

    print(
        f"\n3-party federation done — {len(ctx.channel.transcript)} protocol "
        f"messages, {ctx.channel.total_bytes() / 2**20:.1f} MiB, no plaintext."
    )


if __name__ == "__main__":
    main()

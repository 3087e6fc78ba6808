"""The federated models evaluated in the paper (§7.1): LR, MLR, MLP, WDL,
DLRM.

Every model follows the BlindFL architecture of Figure 4: one or more
*federated source layers* unite the two parties' features into aggregated
activations ``Z``, and a *plaintext top model at Party B* maps ``Z`` to
predictions.  The backward path hands ``grad_Z`` (computed by the top
model's autograd) to each source layer's federated backward protocol.

The ``forward(batch)`` / ``loss.backward()`` / ``backward_sources()`` /
``optimizer.step()`` cadence mirrors the Figure 8 listing.
"""

from __future__ import annotations

import numpy as np

from repro.comm.party import VFLContext
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.federated import FederatedModule
from repro.core.matmul_layer import MatMulSource
from repro.data.loader import Batch
from repro.tensor.nn import Bias, ReLU, Sequential, mlp
from repro.tensor.tensor import Tensor

__all__ = [
    "FederatedLR",
    "FederatedMLR",
    "FederatedMLP",
    "FederatedWDL",
    "FederatedDLRM",
    "MultiPartyLR",
]


class _SourceBacked(FederatedModule):
    """Common forward/backward plumbing for source-layer models."""

    def __init__(self) -> None:
        super().__init__()
        self._leaves: list[tuple[object, Tensor]] = []

    def _leaf(self, source: object, z: np.ndarray, train: bool) -> Tensor:
        """Wrap a source-layer output as an autograd leaf at Party B."""
        leaf = Tensor(z, requires_grad=train)
        if train:
            self._leaves.append((source, leaf))
        return leaf

    def backward_sources(self) -> None:
        """After ``loss.backward()``: run each source layer's backward."""
        if not self._leaves:
            raise RuntimeError("no cached activations; run a training forward first")
        for source, leaf in self._leaves:
            if leaf.grad is None:
                raise RuntimeError("top model backward did not reach the source output")
            source.backward(leaf.grad)
        self._leaves = []


class FederatedLR(_SourceBacked):
    """Logistic regression: MatMul source (OUT=1) + bias + sigmoid at B.

    ``y_hat = sigmoid((X_A W_A + X_B W_B) + bias)`` — the worked example of
    §4.1 and Figure 8 (the sigmoid lives in the loss for stability).
    """

    def __init__(self, ctx: VFLContext, in_a: int, in_b: int):
        super().__init__()
        self.source = MatMulSource(ctx, in_a, in_b, 1, name="lr")
        self.top = Bias(1)

    def forward(self, batch: Batch, train: bool = True) -> Tensor:
        z = self.source.forward(
            batch.party("A").numeric_block(),
            batch.party("B").numeric_block(),
            train=train,
        )
        return self.top(self._leaf(self.source, z, train))


class FederatedMLR(_SourceBacked):
    """Multinomial LR: MatMul source with OUT = n_classes."""

    def __init__(self, ctx: VFLContext, in_a: int, in_b: int, n_classes: int):
        super().__init__()
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self.source = MatMulSource(ctx, in_a, in_b, n_classes, name="mlr")
        self.top = Bias(n_classes)

    def forward(self, batch: Batch, train: bool = True) -> Tensor:
        z = self.source.forward(
            batch.party("A").numeric_block(),
            batch.party("B").numeric_block(),
            train=train,
        )
        return self.top(self._leaf(self.source, z, train))


class FederatedMLP(_SourceBacked):
    """MLP: the first (widest) layer is the MatMul source; the rest run at B.

    This is the architecture behind Tables 7/8: the source layer's output
    dimensionality dominates cost, extra top layers are nearly free.
    """

    def __init__(
        self,
        ctx: VFLContext,
        in_a: int,
        in_b: int,
        hidden: list[int],
        n_out: int,
        seed: int = 0,
    ):
        super().__init__()
        if not hidden:
            raise ValueError("an MLP needs at least one hidden layer")
        self.source = MatMulSource(ctx, in_a, in_b, hidden[0], name="mlp")
        rng = np.random.default_rng(seed)
        self.top = Sequential(ReLU(), mlp([*hidden, n_out], rng=rng))

    def forward(self, batch: Batch, train: bool = True) -> Tensor:
        z = self.source.forward(
            batch.party("A").numeric_block(),
            batch.party("B").numeric_block(),
            train=train,
        )
        return self.top(self._leaf(self.source, z, train))


class FederatedWDL(_SourceBacked):
    """Wide & Deep (Figure 5): MatMul wide part + Embed-MatMul deep part.

    ``logit = (X W)_wide + MLP(E W)_deep + bias`` — the wide source handles
    the sparse numerical features, the deep source the categorical fields.
    """

    def __init__(
        self,
        ctx: VFLContext,
        in_a: int,
        in_b: int,
        vocab_a: list[int],
        vocab_b: list[int],
        emb_dim: int = 8,
        deep_hidden: list[int] | None = None,
        seed: int = 0,
    ):
        super().__init__()
        deep_hidden = deep_hidden or [16]
        self.wide = MatMulSource(ctx, in_a, in_b, 1, name="wdl.wide")
        self.deep = EmbedMatMulSource(
            ctx, vocab_a, vocab_b, emb_dim, deep_hidden[0], name="wdl.deep"
        )
        rng = np.random.default_rng(seed)
        self.deep_top = Sequential(ReLU(), mlp([*deep_hidden, 1], rng=rng))
        self.bias = Bias(1)

    def forward(self, batch: Batch, train: bool = True) -> Tensor:
        pa, pb = batch.party("A"), batch.party("B")
        z_wide = self.wide.forward(pa.numeric_block(), pb.numeric_block(), train=train)
        z_deep = self.deep.forward(pa.x_cat, pb.x_cat, train=train)
        wide_leaf = self._leaf(self.wide, z_wide, train)
        deep_leaf = self._leaf(self.deep, z_deep, train)
        return self.bias(wide_leaf + self.deep_top(deep_leaf))


class FederatedDLRM(_SourceBacked):
    """DLRM-style model: dense-feature arm, embedding arm, interactions.

    The dense arm is a MatMul source (the "bottom MLP" first layer); the
    categorical arm an Embed-MatMul source projecting to the same width;
    the top model at B computes their elementwise interaction (the dot-
    product feature of DLRM) and an MLP over ``[dense, emb, dense*emb]``.
    """

    def __init__(
        self,
        ctx: VFLContext,
        in_a: int,
        in_b: int,
        vocab_a: list[int],
        vocab_b: list[int],
        emb_dim: int = 8,
        arm_dim: int = 16,
        top_hidden: list[int] | None = None,
        seed: int = 0,
    ):
        super().__init__()
        top_hidden = top_hidden or [16]
        self.dense_arm = MatMulSource(ctx, in_a, in_b, arm_dim, name="dlrm.dense")
        self.emb_arm = EmbedMatMulSource(
            ctx, vocab_a, vocab_b, emb_dim, arm_dim, name="dlrm.emb"
        )
        rng = np.random.default_rng(seed)
        self.top = Sequential(ReLU(), mlp([3 * arm_dim, *top_hidden, 1], rng=rng))

    def forward(self, batch: Batch, train: bool = True) -> Tensor:
        pa, pb = batch.party("A"), batch.party("B")
        z_dense = self.dense_arm.forward(
            pa.numeric_block(), pb.numeric_block(), train=train
        )
        z_emb = self.emb_arm.forward(pa.x_cat, pb.x_cat, train=train)
        dense_leaf = self._leaf(self.dense_arm, z_dense, train)
        emb_leaf = self._leaf(self.emb_arm, z_emb, train)
        interaction = dense_leaf * emb_leaf
        return self.top(Tensor.concat([dense_leaf, emb_leaf, interaction], axis=1))


class MultiPartyLR:
    """Logistic regression over M Party A's + Party B (Appendix C).

    A thin wrapper around a :class:`MatMulSource` with one input dim per A
    party and a bias term at Party B, run with :meth:`train_step` (see
    ``examples/multiparty_lr.py``).  Loss, labels and bias live at Party B
    only: on endpoints where B is remote, :meth:`forward` and
    :meth:`train_step` return ``None``.
    """

    def __init__(self, ctx: VFLContext, in_dims: dict[str, int], in_b: int):
        self.ctx = ctx
        self.source = MatMulSource(ctx, in_dims, in_b, 1, name="mp-lr")
        self.bias = 0.0
        self._vel_bias = 0.0

    def checkpoint_state(self) -> tuple:
        """Bias term (Party B state, but a float travels harmlessly) plus
        the source layer's per-endpoint snapshot."""
        return (
            float(self.bias),
            float(self._vel_bias),
            self.source.checkpoint_state(),
        )

    def load_checkpoint_state(self, state: tuple) -> None:
        bias, vel_bias, source_state = state
        self.source.load_checkpoint_state(source_state)
        self.bias = float(bias)
        self._vel_bias = float(vel_bias)

    def forward(
        self, x_by_party: dict[str, object], train: bool = True
    ) -> np.ndarray | None:
        """Logits at Party B for an aligned batch keyed by party name."""
        z = self.source.forward(x_by_party, x_by_party.get("B"), train=train)
        if z is None:  # non-B endpoint: logits only materialise at B
            return None
        return z + self.bias

    def train_step(
        self,
        x_by_party: dict[str, object],
        labels: np.ndarray | None,
        lr: float,
        momentum: float = 0.9,
    ) -> float | None:
        """One BCE step; returns the training loss (``None`` off Party B)."""
        logits = self.forward(x_by_party, train=True)
        loss = None
        grad_z = None
        if logits is not None:
            y = np.asarray(labels, dtype=np.float64).reshape(logits.shape)
            probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
            loss = float(
                np.mean(
                    np.maximum(logits, 0)
                    - logits * y
                    + np.log1p(np.exp(-np.abs(logits)))
                )
            )
            grad_z = (probs - y) / y.shape[0]
        self.source.backward(grad_z)
        self.source.apply_updates(lr, momentum)
        if grad_z is not None:
            self._vel_bias = momentum * self._vel_bias + float(grad_z.sum())
            self.bias -= lr * self._vel_bias
        return loss

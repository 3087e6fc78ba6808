"""Training and evaluation driver for federated models.

Implements the Figure 8 training routine once, for every model:

    for X, y in loader:
        output = model(X)            # federated forward
        fed_optimizer.zero_grad()
        loss = criterion(output, y)
        loss.backward()              # top-model autograd
        model.backward_sources()     # federated backward
        fed_optimizer.step()         # update shares + top model

plus the metric bookkeeping the Figure 12 / Figure 9 benchmarks need
(per-iteration training loss, per-epoch test metric).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.crypto.parallel import ParallelContext, use_parallel
from repro.core.federated import FederatedModule
from repro.obs.sinks import make_sink
from repro.obs.tracer import Tracer, use_tracer
from repro.obs import tracer as _obs
from repro.core.optimizer import FederatedSGD
from repro.data.loader import Batch, BatchLoader
from repro.data.partition import VerticalDataset
from repro.tensor.losses import bce_with_logits, softmax_cross_entropy
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.metrics import accuracy, roc_auc

__all__ = [
    "TrainConfig",
    "History",
    "train_federated",
    "train_multiparty",
    "evaluate_federated",
    "predict",
]


@dataclass
class TrainConfig:
    """Hyper-parameters (paper defaults: lr 0.05, batch 128, momentum 0.9).

    ``parallel_workers >= 2`` installs a
    :class:`~repro.crypto.parallel.ParallelContext` as the process default
    for the duration of training, so every homomorphic kernel in the source
    layers shards its exponentiations across that many processes.
    ``blinding_pool_per_epoch`` pre-computes that many ``r^n`` obfuscation
    blinders per party key at each epoch boundary (off the hot path), so
    in-epoch encryptions only pay a mulmod for re-randomisation.
    ``packing`` overrides every source layer's
    :attr:`~repro.comm.party.VFLConfig.packing` knob for this run (``None``
    leaves the federation config as built): SIMD-slot ciphertext batching
    cuts ciphertext count, blinding exponentiations and wire bytes by the
    slot factor on forward transfers and share refreshes.
    ``channel`` swaps every federation context onto a different in-process
    channel tier before the first batch (``"memory"`` object passing or
    ``"serializing"`` honest bytes with measured sizes; ``None`` keeps the
    channel the contexts were built with).  The swap starts transcript and
    byte counters fresh, so a training run's accounting excludes the
    layers' initialisation traffic.
    ``blinding_lambda`` overrides every party key's obfuscation mode for
    this run (``None`` keeps the keys as built): λ > 0 switches to the
    λ-exponent blinding shortcut (blinders ``h^x`` for random λ-bit ``x``
    instead of a fresh ``key_bits``-bit ``r^n`` pow each — the blinding
    pool refills ~``key_bits``/λ times faster), 0 restores the classic
    mode.
    ``checkpoint_path`` + ``checkpoint_every`` persist the full training
    state (see :mod:`repro.core.checkpoint`) every N batches as codec
    frames on disk; resuming via ``train_federated(resume_from=...)`` is
    bit-identical to never having stopped.  ``crash_after_batches`` is the
    fault-injection knob for testing that property: the trainer raises
    :class:`~repro.core.checkpoint.TrainingInterrupted` after that many
    batches have run in this process.
    ``telemetry`` turns on the phase tracer (see :mod:`repro.obs`) for the
    run: ``"memory"`` keeps the trace on ``History.trace`` only, ``"null"``
    additionally streams spans to a no-op sink (plumbing check),
    ``"jsonl"``/``"chrome"`` also export to ``telemetry_path``.  ``None``
    (or ``"off"``) is the default: no tracer is installed and every
    instrumentation site short-circuits on one ``is None`` check.
    ``pipeline`` enables async sends on fabric channels for the run (see
    :meth:`~repro.comm.fabric.FabricChannel.set_pipeline`): batch ``k``'s
    outbound frames are still in flight while batch ``k + 1`` encrypts
    and packs.  Determinism contract: pipelining reorders *wall-clock*
    only — frame order and content are untouched, so seeded trajectories
    (losses, weights, transcripts) stay bit-identical with the knob on or
    off; it defaults off so the blocking tier remains the reference.  On
    channels without a pipeline (the in-process tiers, the mirrored
    socket tier) the knob is a no-op.
    """

    epochs: int = 10
    batch_size: int = 128
    lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    parallel_workers: int = 0
    blinding_pool_per_epoch: int = 0
    packing: bool | None = None
    channel: str | None = None
    blinding_lambda: int | None = None
    checkpoint_path: str | None = None
    checkpoint_every: int = 0
    crash_after_batches: int | None = None
    telemetry: str | None = None
    telemetry_path: str | None = None
    pipeline: bool = False


@dataclass
class History:
    """Convergence record: loss per iteration, metric per epoch."""

    losses: list[float] = field(default_factory=list)
    epoch_metrics: list[float] = field(default_factory=list)
    metric_name: str = ""
    # Span dicts from the run's tracer (``TrainConfig.telemetry``); None
    # when telemetry was off.  Not checkpointed — a resumed run records
    # only its own process's trace.
    trace: list[dict] | None = None

    @property
    def final_metric(self) -> float:
        return self.epoch_metrics[-1]


def _criterion(n_classes: int) -> Callable[[Tensor, np.ndarray], Tensor]:
    if n_classes == 2:
        return bce_with_logits
    return softmax_cross_entropy


def train_federated(
    model: FederatedModule,
    train_data: VerticalDataset,
    config: TrainConfig,
    test_data: VerticalDataset | None = None,
    max_batches_per_epoch: int | None = None,
    resume_from: str | None = None,
) -> History:
    """Train with FederatedSGD; returns the convergence history.

    ``resume_from`` restores a checkpoint written by an earlier run onto
    this (freshly rebuilt, identically seeded) model and continues from
    the exact batch after it — RNG streams, blinding pools, momentum
    buffers and the mini-batch order all resume bit-identically, so the
    final trajectory matches an uninterrupted run.  The checkpoint never
    holds private keys; rebuilding the model from its seeds is what
    brings the key owner's private key back.
    """
    from repro.core.checkpoint import (
        TrainingInterrupted,
        load_checkpoint,
        model_key_ring,
        restore_checkpoint,
        save_checkpoint,
    )

    optimizer = FederatedSGD(model, lr=config.lr, momentum=config.momentum)
    criterion = _criterion(train_data.n_classes)
    rng = np.random.default_rng(config.seed)
    metric_name = "auc" if train_data.n_classes == 2 else "accuracy"
    history = History(metric_name=metric_name)
    if config.packing is not None:
        _set_packing(model, config.packing)
    if config.channel is not None:
        _set_channel(model, config.channel)
    if config.blinding_lambda is not None:
        _set_blinding_lambda(model, config.blinding_lambda)
    if config.pipeline:
        _set_pipeline(model, True)
    start_epoch, resume_order, resume_batch = 0, None, 0
    if resume_from is not None:
        sections = load_checkpoint(resume_from, key_ring=model_key_ring(model))
        resume = restore_checkpoint(model, optimizer, rng, sections)
        start_epoch = resume.epoch
        resume_order = resume.order
        resume_batch = resume.next_batch
        history = resume.history
    if config.parallel_workers >= 2:
        engine = use_parallel(ParallelContext(workers=config.parallel_workers))
    else:
        engine = contextlib.nullcontext(None)
    tracer: Tracer | None = None
    if config.telemetry is not None and config.telemetry != "off":
        tracer = Tracer(sink=make_sink(config.telemetry, config.telemetry_path))
        scope = use_tracer(tracer)
    else:
        scope = contextlib.nullcontext(None)
    batches_run = 0
    with engine as parallel, scope:
        for epoch in range(start_epoch, config.epochs):
            with _obs.span("epoch", epoch=epoch):
                resuming = epoch == start_epoch and resume_order is not None
                if resuming:
                    # Mid-epoch re-entry: the prefill and the order shuffle
                    # already happened before the checkpoint was written —
                    # their effects live in the restored RNG/pool states.
                    order, first_batch = resume_order, resume_batch
                else:
                    if config.blinding_pool_per_epoch > 0:
                        with _obs.span("blinding_refill", epoch=epoch):
                            _prefill_blinding(
                                model, config.blinding_pool_per_epoch, parallel
                            )
                    order, first_batch = None, 0
                loader = BatchLoader(train_data, config.batch_size, rng=rng)
                if order is None:
                    order = loader.draw_order()
                for batch_no, batch in loader.batches(order, start=first_batch):
                    if (
                        max_batches_per_epoch is not None
                        and batch_no >= max_batches_per_epoch
                    ):
                        break
                    with _obs.span("batch", epoch=epoch, batch=batch_no):
                        output = model.forward(batch, train=True)
                        optimizer.zero_grad()
                        loss = criterion(output, batch.y)
                        loss.backward()
                        model.backward_sources()
                        optimizer.step()
                        history.losses.append(loss.item())
                        batches_run += 1
                        if (
                            config.checkpoint_path is not None
                            and config.checkpoint_every > 0
                            and batches_run % config.checkpoint_every == 0
                        ):
                            with _obs.span("checkpoint", epoch=epoch, batch=batch_no):
                                save_checkpoint(
                                    config.checkpoint_path, model, optimizer,
                                    epoch=epoch, next_batch=batch_no + 1,
                                    order=order, loader_rng=rng, history=history,
                                )
                    if (
                        config.crash_after_batches is not None
                        and batches_run >= config.crash_after_batches
                    ):
                        raise TrainingInterrupted(
                            f"injected crash after {batches_run} batches "
                            f"(epoch {epoch}, batch {batch_no})",
                            checkpoint_path=config.checkpoint_path,
                        )
                if test_data is not None:
                    history.epoch_metrics.append(
                        evaluate_federated(
                            model, test_data, config.batch_size
                        )[metric_name]
                    )
    if tracer is not None:
        # use_tracer closed the tracer on scope exit (root span included),
        # so the dict view below is the complete trace.
        history.trace = tracer.to_dicts()
    return history


def train_multiparty(
    model,
    x_by_party: dict[str, object],
    labels: np.ndarray | None,
    config: TrainConfig,
    *,
    steps: int,
    resume_from: str | None = None,
) -> list[float | None]:
    """Fixed-batch SGD loop for :class:`~repro.core.models.MultiPartyLR`.

    Runs ``steps`` calls to ``model.train_step`` on one aligned batch and
    returns the per-step losses (``None`` entries on endpoints where Party B
    is remote — loss only materialises at B).  Honours the same
    checkpointing knobs as :func:`train_federated`, adapted to the
    per-endpoint fabric layout: when ``config.checkpoint_path`` +
    ``config.checkpoint_every`` are set, each endpoint writes its *own*
    local-parties checkpoint (see
    :func:`repro.core.checkpoint.save_endpoint_checkpoint`) every N steps,
    and ``resume_from`` restores such a file onto a freshly built,
    identically seeded model so the continued trajectory is bit-identical
    to an uninterrupted run.  ``config.crash_after_batches`` injects a
    :class:`~repro.core.checkpoint.TrainingInterrupted` after that many
    steps have run in this process (checkpoint-then-crash ordering, as in
    :func:`train_federated`).
    """
    from repro.core.checkpoint import (
        TrainingInterrupted,
        restore_endpoint_checkpoint,
        save_endpoint_checkpoint,
    )

    start = 0
    losses: list[float | None] = []
    if resume_from is not None:
        start, saved = restore_endpoint_checkpoint(resume_from, model)
        if model.ctx.is_local("B"):
            losses = list(saved)
        else:
            # Non-B endpoints never see losses; keep index parity with B.
            losses = [None] * start
    ran = 0
    for k in range(start, steps):
        losses.append(
            model.train_step(
                x_by_party, labels, lr=config.lr, momentum=config.momentum
            )
        )
        ran += 1
        if (
            config.checkpoint_path is not None
            and config.checkpoint_every > 0
            and (k + 1) % config.checkpoint_every == 0
        ):
            save_endpoint_checkpoint(
                config.checkpoint_path, model, step=k + 1, losses=losses
            )
        if (
            config.crash_after_batches is not None
            and ran >= config.crash_after_batches
        ):
            raise TrainingInterrupted(
                f"injected crash after {ran} fabric steps (step {k + 1})",
                checkpoint_path=config.checkpoint_path,
            )
    return losses


def _set_packing(model: FederatedModule, enabled: bool) -> None:
    """Flip the packing knob on every federation config the model uses.

    Layers consult their ``VFLConfig`` at transfer/refresh time, so the
    switch takes effect from the next message on — encrypted weight copies
    upgrade to packed form at their next share refresh.
    """
    seen: set[int] = set()
    for ctx in model.federation_contexts():
        cfg = getattr(ctx, "config", None)
        if cfg is not None and id(cfg) not in seen and hasattr(cfg, "packing"):
            seen.add(id(cfg))
            cfg.packing = enabled


def _set_channel(model: FederatedModule, kind: str) -> None:
    """Swap every federation context onto a fresh channel of ``kind``.

    Layer construction already drained its init traffic, so the swap is a
    quiescence-point operation; :meth:`VFLContext.set_channel` re-registers
    the party keys with the new channel's codec ring.
    """
    from repro.comm.channel import make_channel

    for ctx in model.federation_contexts():
        ctx.set_channel(
            make_channel(kind, record_transcript=ctx.config.record_transcript)
        )


def _set_pipeline(model: FederatedModule, on: bool) -> None:
    """Toggle async sends on every fabric channel the model trains over.

    Channels without a pipeline (the in-process tiers, the mirrored
    socket tier) are left untouched — the knob only changes *when* frames
    hit the wire, never their order or content, so it is safe to apply
    blindly across heterogeneous contexts.
    """
    for ctx in model.federation_contexts():
        set_pipeline = getattr(ctx.channel, "set_pipeline", None)
        if set_pipeline is not None:
            set_pipeline(on)


def _set_blinding_lambda(model: FederatedModule, blinding_lambda: int) -> None:
    """Flip every party key's blinding mode for this run.

    Pooled blinders stay valid across the flip (both modes produce n-th
    powers) and drain FIFO before the new mode computes anything.
    """
    seen: set[int] = set()
    for ctx in model.federation_contexts():
        parties = getattr(ctx, "parties", None)
        if not parties:
            continue
        for party in parties.values():
            if id(party.public_key) not in seen:
                seen.add(id(party.public_key))
                party.public_key.set_blinding_lambda(blinding_lambda)


def _prefill_blinding(
    model: FederatedModule, count: int, parallel: ParallelContext | None
) -> None:
    """Refill every party key's obfuscation pool at an epoch boundary."""
    seen: set[int] = set()
    for ctx in model.federation_contexts():
        parties = getattr(ctx, "parties", None)
        if not parties:
            continue
        for party in parties.values():
            if id(party.public_key) not in seen:
                seen.add(id(party.public_key))
                party.public_key.prefill_blinding(count, parallel=parallel)


def predict(
    model: FederatedModule, data: VerticalDataset, batch_size: int = 256
) -> np.ndarray:
    """Inference-mode forward over a dataset; returns raw model outputs."""
    outputs = []
    loader = BatchLoader(data, min(batch_size, data.n), shuffle=False, drop_last=False)
    with no_grad():
        for batch in loader:
            outputs.append(model.forward(batch, train=False).numpy())
    return np.vstack(outputs)


def evaluate_federated(
    model: FederatedModule, data: VerticalDataset, batch_size: int = 256
) -> dict[str, float]:
    """Test AUC (binary) or accuracy (multi-class), as in Figure 12."""
    scores = predict(model, data, batch_size)
    if data.n_classes == 2:
        return {"auc": roc_auc(data.y, scores.ravel())}
    return {"accuracy": accuracy(data.y, scores.argmax(axis=1))}


def batch_of(data: VerticalDataset, size: int, seed: int = 0) -> Batch:
    """Convenience: one random aligned batch (used by benches and tests)."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.n, size=min(size, data.n), replace=False)
    sliced = data.take_rows(idx)
    return Batch(parties=sliced.parties, y=sliced.y, indices=idx)

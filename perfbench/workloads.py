"""The benchmark's workloads: seeded inputs, the federation each builds,
its closed step loop and the checks on its outputs.

Every workload is a closed loop with one caller: the next step starts only
after the previous one returned.  Inputs, keys and model initialisation
all derive from the workload seed; the program sees only the generated
inputs.  Keys are 256 bits, the smallest size packing supports.
"""

from __future__ import annotations

import hashlib
import random
import resource
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from repro.baselines import PlainDLRM, PlainLR, PlainWDL, collocated_view, train_plain
from repro.comm import VFLConfig, VFLContext
from repro.comm.transport import run_two_party
from repro.core import (
    EmbedMatMulSource,
    FederatedDLRM,
    FederatedLR,
    FederatedSGD,
    FederatedWDL,
    TrainConfig,
    predict,
)
from repro.data import BatchLoader, make_mixed_classification, make_sparse_classification, split_vertical
from repro.tensor.losses import bce_with_logits
from repro.tensor.sparse import CSRMatrix
from repro.tensor.tensor import no_grad

from spans import STEP, Patch, SpanRecorder

KEY_BITS = 256
WARMUP_STEPS = 1
MIN_STEPS = 3
# Held-out rows the source-layer check reconstructs in plaintext.
CHECK_ROWS = 16
# Fixed-point tolerance of the source-layer check.  MatMul layers match a
# plaintext X @ W to about 1e-11 (40 fractional bits on encrypted pieces,
# 32 on plaintext multiplicands); Embed-MatMul layers, packed or not, to
# 0.9e-7..2.3e-7 over seeds 1-5.  2**-20 (9.5e-7) bounds both with a 4x
# margin and is far below the |Z| of 0.02..0.5 these models produce.
Z_TOL = 2.0 ** -20
# On a shared host the same step takes 20-35% longer in some minutes than
# in others, which would swamp any bound a regression check could use.  So
# a fixed kernel -- modular exponentiations mod a 512-bit modulus, the
# operation and operand size (n**2 at 256-bit keys) that dominate every
# step -- is timed before the first and after every timed step, and run.py
# reports times scaled to the kernel's nominal duration, its median on a
# 2-vCPU 2.0 GHz Xeon host.  Raw times are reported next to them.
REF_NOMINAL_S = 0.025
# Nominal two-process LR step on a 2-CPU host.  Both endpoints replay one
# deterministic program in lockstep, so they cannot stop on a clock: the
# step count is fixed up front from the run length.
LR_STEP_S = 0.65


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "wdl", "lr" or "dlrm"
    batch: int
    packing: bool
    train: bool
    two_process: bool
    # Span names that must record calls in the traced run: a rename that
    # silently unhooks a layer fails the benchmark instead of zeroing it.
    exercised: tuple[str, ...]


_COMMON = (
    "core.matmul_layer.forward",
    "crypto.secret_sharing.he2ss_split",
    "crypto.secret_sharing.he2ss_receive",
    "crypto.paillier.blinding_factors",
    "comm.codec.encode_message",
    "comm.codec.decode_message",
    "comm.channel.send",
    "comm.channel.recv",
    "data.loader.batches",
    "tensor.top",
)
_TRAIN = (
    "core.matmul_layer.backward",
    "core.matmul_layer.apply_updates",
    "core.optimizer.step",
    "crypto.crypto_tensor.encrypt",
    "crypto.crypto_tensor.sparse_matmul_cipher",
    "crypto.crypto_tensor.sparse_t_matmul_cipher",
)
_EMBED = (
    "core.embed_matmul_layer.forward",
    "crypto.crypto_tensor.matmul_plain_cipher",
)
_PACKED = (
    "crypto.packing.PackedCryptoTensor.pack",
    "crypto.packing.PackedCryptoTensor.decrypt",
)

# wdl-train runs unpacked: packed Embed-MatMul training overflows its lane
# guard band after 10 to 20 steps (the weight pieces random-walk past the
# layout's 8 magnitude bits), so packing is measured on dlrm-infer, whose
# pieces never change.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wdl-train", "wdl", 32, packing=False, train=True, two_process=False,
            exercised=_COMMON + _TRAIN + _EMBED + (
                "core.embed_matmul_layer.backward",
                "core.embed_matmul_layer.apply_updates",
                "crypto.crypto_tensor.matmul_cipher_plain",
            ),
        ),
        Workload(
            "lr-sparse-2proc", "lr", 64, packing=False, train=True, two_process=True,
            exercised=_COMMON + _TRAIN,
        ),
        Workload(
            "dlrm-infer", "dlrm", 64, packing=True, train=False, two_process=False,
            exercised=_COMMON + _EMBED + _PACKED + ("crypto.crypto_tensor.sparse_matmul_cipher",),
        ),
    )
}


@dataclass
class Inputs:
    """One workload's generated data: federated views and collocated twins."""

    train: object  # VerticalDataset
    heldout: object  # VerticalDataset
    plain_train: object  # PlainInputs
    plain_heldout: object  # PlainInputs


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Seeded synthetic data for ``w``: the same seed, the same inputs."""
    if w.model == "lr":
        n_train, n_heldout = 40 * w.batch, w.batch
        full = make_sparse_classification(
            n=n_train + n_heldout, dim=2000, nnz_per_row=20, seed=seed
        )
    else:
        # WDL trains over 32 batches; DLRM scores a held-out set of 8.
        n_train, n_heldout = (32 * w.batch, 2 * w.batch) if w.train else (w.batch, 8 * w.batch)
        full = make_mixed_classification(
            n=n_train + n_heldout, sparse_dim=60, nnz_per_row=8, n_fields=4,
            vocab_size=16, seed=seed,
        )
    train = full.subset(np.arange(n_train))
    heldout = full.subset(np.arange(n_train, n_train + n_heldout))
    return Inputs(
        train=split_vertical(train),
        heldout=split_vertical(heldout),
        plain_train=collocated_view(train),
        plain_heldout=collocated_view(heldout),
    )


def train_config(w: Workload, seed: int) -> TrainConfig:
    return TrainConfig(batch_size=w.batch, lr=0.1, momentum=0.9, seed=seed, parallel_workers=0)


def build_model(w: Workload, inputs: Inputs, seed: int, channel=None):
    """Keygen plus source-layer initialisation (the encrypted pieces)."""
    config = VFLConfig(
        key_bits=KEY_BITS, packing=w.packing, share_refresh="delta",
        record_transcript=False, channel="serializing",
    )
    ctx = VFLContext(config, seed=seed, channel=channel)
    pa, pb = inputs.train.party("A"), inputs.train.party("B")
    if w.model == "lr":
        return FederatedLR(ctx, pa.dense_dim, pb.dense_dim)
    if w.model == "wdl":
        return FederatedWDL(
            ctx, pa.dense_dim, pb.dense_dim, pa.vocab_sizes, pb.vocab_sizes,
            emb_dim=4, deep_hidden=[4], seed=seed,
        )
    return FederatedDLRM(
        ctx, pa.dense_dim, pb.dense_dim, pa.vocab_sizes, pb.vocab_sizes,
        emb_dim=4, arm_dim=2, top_hidden=[8], seed=seed,
    )


class Federation:
    """One built federation and the step its workload repeats."""

    def __init__(self, w: Workload, inputs: Inputs, seed: int, channel=None):
        self.w = w
        self.inputs = inputs
        self.config = train_config(w, seed)
        self.model = build_model(w, inputs, seed, channel)
        self.channel = next(iter(self.model.federation_contexts())).channel
        if w.train:
            self.optimizer = FederatedSGD(
                self.model, lr=self.config.lr, momentum=self.config.momentum
            )
            self.loader = BatchLoader(inputs.train, w.batch, rng=np.random.default_rng(seed))
            self._batches = iter(())
        else:
            n = inputs.heldout.n
            self._scored = [
                inputs.heldout.take_rows(np.arange(lo, lo + w.batch))
                for lo in range(0, n - w.batch + 1, w.batch)
            ]
            self._next = 0

    def step(self) -> np.ndarray:
        """One training step (returns the loss) or one scored batch."""
        if not self.w.train:
            data = self._scored[self._next % len(self._scored)]
            self._next += 1
            return predict(self.model, data, batch_size=self.w.batch)
        item = next(self._batches, None)
        if item is None:
            self._batches = self.loader.batches(self.loader.draw_order())
            item = next(self._batches)
        batch = item[1]
        output = self.model.forward(batch, train=True)
        self.optimizer.zero_grad()
        loss = bce_with_logits(output, batch.y)
        loss.backward()
        self.model.backward_sources()
        self.optimizer.step()
        return np.array([loss.item()])

    def source_z(self) -> tuple[list[np.ndarray], float]:
        """Each source layer's ``Z`` on held-out rows, and the largest gap
        to a plaintext ``X @ W`` rebuilt from ``reveal_weights()``."""
        rows = self.inputs.heldout.take_rows(np.arange(CHECK_ROWS))
        pa, pb = rows.party("A"), rows.party("B")
        zs, worst = [], 0.0
        for layer in self.model.source_layers():
            w = layer.reveal_weights()
            if isinstance(layer, EmbedMatMulSource):
                z = layer.forward(pa.x_cat, pb.x_cat, train=False)
                expect = _lookup(w["Q_A"], pa) @ w["W_A"] + _lookup(w["Q_B"], pb) @ w["W_B"]
            else:
                z = layer.forward(pa.numeric_block(), pb.numeric_block(), train=False)
                expect = _dense(pa.numeric_block()) @ w["W_A"] + _dense(pb.numeric_block()) @ w["W_B"]
            zs.append(z)
            worst = max(worst, float(np.max(np.abs(z - expect))))
        return zs, worst


def _dense(x) -> np.ndarray:
    return x.to_dense() if isinstance(x, CSRMatrix) else np.asarray(x, dtype=np.float64)


def _lookup(table: np.ndarray, party) -> np.ndarray:
    """Concatenated embedding rows of each sample's categorical fields."""
    offsets = np.cumsum([0, *party.vocab_sizes[:-1]])
    flat = party.x_cat + offsets[None, :]
    return table[flat].reshape(flat.shape[0], -1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_ref_rng = random.Random(0)
_REF_MODULUS = _ref_rng.getrandbits(512) | (1 << 511) | 1
_REF_EXPONENT = _ref_rng.getrandbits(256)
_REF_BASES = [_ref_rng.getrandbits(510) for _ in range(40)]


def reference_pass() -> tuple[float, float]:
    """Wall and CPU seconds of one pass over the fixed host-speed kernel
    (see :data:`REF_NOMINAL_S`)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for base in _REF_BASES:
        pow(base, _REF_EXPONENT, _REF_MODULUS)
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Timed:
    """A federation under the timed loop: its step times, CPU time, wire
    bytes and outputs.

    With a ``recorder``, the layer functions are wrapped only while this
    federation runs (warm-up included, so generators it creates are
    wrapped too), and spans are kept only for its timed steps.  A second,
    unwrapped federation stepping in alternation on the same machine is
    the reference for the tracing overhead.
    """

    def __init__(self, fed: Federation, recorder: SpanRecorder | None = None):
        self.fed = fed
        self.recorder = recorder
        self.step_s: list[float] = []
        self.cpu_s: list[float] = []
        # Reference passes: one before the first timed step, one after each.
        self.refs: list[tuple[float, float]] = []
        self.wire_bytes = 0
        self.losses: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self._digest = hashlib.sha256()

    def _wrapped(self):
        return Patch(self.recorder) if self.recorder is not None else nullcontext()

    def _span(self):
        return self.recorder.span(STEP) if self.recorder is not None else nullcontext()

    def warm_up(self) -> None:
        with self._wrapped():
            for _ in range(WARMUP_STEPS):
                self.fed.step()

    def step(self) -> bool:
        """One timed step; False if it failed (the loop then stops)."""
        channel = self.fed.channel
        with self._wrapped():
            if self.recorder is not None:
                self.recorder.active = True
            try:
                with self._span():
                    cpu0, bytes0 = time.process_time(), channel.total_bytes()
                    start = time.perf_counter()
                    y = self.fed.step()
                    self.step_s.append(time.perf_counter() - start)
                    self.cpu_s.append(time.process_time() - cpu0)
                    self.wire_bytes += channel.total_bytes() - bytes0
            except Exception:
                self.failed += 1
                self.errors.append(traceback.format_exc())
                return False
            finally:
                if self.recorder is not None:
                    self.recorder.active = False
        self.refs.append(reference_pass())
        if not np.all(np.isfinite(y)):
            self.failed += 1
            self.errors.append(f"step {len(self.step_s)} produced non-finite outputs")
            return False
        self._digest.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
        if self.fed.w.train:
            self.losses.append(float(y[0]))
        return True

    def result(self) -> dict:
        """Timings and outputs, after the source-layer check."""
        z_error = None
        if self.failed == 0:
            try:
                zs, z_error = self.fed.source_z()
                for z in zs:
                    self._digest.update(np.ascontiguousarray(z, dtype=np.float64).tobytes())
            except Exception:
                self.errors.append(traceback.format_exc())
        return {
            "step_s": self.step_s,
            "cpu_s": self.cpu_s,
            "refs": self.refs,
            "wire_bytes": self.wire_bytes,
            "losses": self.losses,
            "failed": self.failed,
            "errors": self.errors,
            "z_error": z_error,
            "digest": self._digest.hexdigest(),
            "peak_rss_mb": peak_rss_mb(),
            "spans": None if self.recorder is None else self.recorder.spans,
        }


def run_pass(
    w: Workload,
    inputs: Inputs,
    seed: int,
    *,
    seconds: float | None = None,
    steps: int | None = None,
    traced: bool = False,
    channel=None,
    t0: float | None = None,
) -> dict:
    """Set up, then run timed steps and check the outputs.

    The loop stops after ``steps`` steps, or else once ``seconds`` have
    passed (and at least :data:`MIN_STEPS` ran); ``steps=0`` stops after
    set-up.  Set-up runs from ``t0`` (default: now) to the first timed step
    and covers keygen, source-layer initialisation and warm-up.  Returns
    ``{"setup_s": ..., "plain": result}``; ``traced`` builds a second,
    identically seeded federation that alternates steps with the first
    under wrapped layer functions, and adds its result as ``"traced"``.
    """
    t0 = time.perf_counter() if t0 is None else t0
    runs = {"plain": Timed(Federation(w, inputs, seed, channel))}
    if traced:
        runs["traced"] = Timed(Federation(w, inputs, seed, channel), SpanRecorder())
    for run in runs.values():
        run.warm_up()
    t_first = time.perf_counter()
    for run in runs.values():
        run.refs.append(reference_pass())
    out: dict = {"setup_s": t_first - t0, "setup_ref": runs["plain"].refs[0]}
    if steps == 0:
        return out
    plain = runs["plain"]
    while (len(plain.step_s) < steps) if steps is not None else (
        len(plain.step_s) < MIN_STEPS or time.perf_counter() - t_first < seconds
    ):
        if not all(run.step() for run in runs.values()):
            break
    out.update((name, run.result()) for name, run in runs.items())
    return out


def endpoint_program(channel, name, inputs, seed, steps, traced, t_call):
    """One endpoint of the two-process workload (runs in a child process).

    Both endpoints replay the same seeded program in lockstep; ``t_call``
    is the parent's clock reading when it asked for the processes, so
    set-up here includes spawn and connect (the clock is system-wide).
    """
    t_enter = time.perf_counter()
    out = run_pass(
        WORKLOADS[name], inputs, seed, steps=steps, traced=traced,
        channel=channel, t0=t_call,
    )
    out["spawn_connect_s"] = t_enter - t_call
    return out


def run_two_process(w: Workload, inputs: Inputs, seed: int, steps: int, traced: bool) -> dict:
    """Guest (Party A) and host (Party B) in two OS processes over loopback
    TCP.  Returns ``{"roles": {role: run_pass result}, "link_stats": ...}``."""
    t_call = time.perf_counter()
    out = run_two_party(
        endpoint_program, (w.name, inputs, seed, steps, traced, t_call),
        timeout=150.0, record_transcript=False,
    )
    return {"roles": dict(out["results"]), "link_stats": dict(out["link_stats"])}


def two_process_steps(seconds: float) -> int:
    return max(MIN_STEPS, round(seconds / LR_STEP_S))


def plain_samples_per_s(w: Workload, inputs: Inputs, seed: int, seconds: float = 0.5) -> float:
    """Throughput of the plaintext twin on the same data (information only)."""
    train, heldout = inputs.plain_train, inputs.plain_heldout
    if w.model == "lr":
        model = PlainLR(train.numeric_dim, seed=seed)
    elif w.model == "wdl":
        model = PlainWDL(train.numeric_dim, train.vocab_sizes, emb_dim=4, deep_hidden=[4], seed=seed)
    else:
        model = PlainDLRM(train.numeric_dim, train.vocab_sizes, emb_dim=4, arm_dim=2, top_hidden=[8], seed=seed)
    config = replace(train_config(w, seed), epochs=1)
    samples, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds:
        if w.train:
            train_plain(model, train, config)
            samples += (train.n // w.batch) * w.batch
        else:
            with no_grad():
                for lo in range(0, heldout.n - w.batch + 1, w.batch):
                    model(heldout.take_rows(np.arange(lo, lo + w.batch))).numpy()
                    samples += w.batch
    return samples / (time.perf_counter() - start)

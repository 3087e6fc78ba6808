"""Per-layer spans recorded from outside the program.

The benchmark wraps the public functions of each ``repro`` layer (the
table :data:`LAYER_FUNCTIONS`) and records one span per call: name, start,
end and the span that was open when it started.  Spans stay in memory and
are folded at the end into per-layer statistics (calls, self time, bytes),
a folded-stack table and a Chrome trace.  Nothing under ``src/`` knows it
is being measured.

A wrapped function may be bound under several names: ``from x import f``
copies the function object into the importing module.  :class:`Patch`
replaces every binding it can find in loaded modules and puts the
originals back on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

# (span name, module, attribute).  Several entries may share a span name:
# ``comm.channel.recv`` is overridden by the socket tier, and ``tensor.top``
# gathers the plaintext top model (forward, loss, autograd, SGD) at Party B.
LAYER_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("core.matmul_layer.forward", "repro.core.matmul_layer", "MatMulSource.forward"),
    ("core.matmul_layer.backward", "repro.core.matmul_layer", "MatMulSource.backward"),
    ("core.matmul_layer.apply_updates", "repro.core.matmul_layer", "MatMulSource.apply_updates"),
    ("core.embed_matmul_layer.forward", "repro.core.embed_matmul_layer", "EmbedMatMulSource.forward"),
    ("core.embed_matmul_layer.backward", "repro.core.embed_matmul_layer", "EmbedMatMulSource.backward"),
    ("core.embed_matmul_layer.apply_updates", "repro.core.embed_matmul_layer", "EmbedMatMulSource.apply_updates"),
    ("core.optimizer.step", "repro.core.optimizer", "FederatedSGD.step"),
    ("crypto.crypto_tensor.matmul_plain_cipher", "repro.crypto.crypto_tensor", "matmul_plain_cipher"),
    ("crypto.crypto_tensor.sparse_matmul_cipher", "repro.crypto.crypto_tensor", "sparse_matmul_cipher"),
    ("crypto.crypto_tensor.sparse_t_matmul_cipher", "repro.crypto.crypto_tensor", "sparse_t_matmul_cipher"),
    ("crypto.crypto_tensor.matmul_cipher_plain", "repro.crypto.crypto_tensor", "matmul_cipher_plain"),
    ("crypto.crypto_tensor.encrypt", "repro.crypto.crypto_tensor", "CryptoTensor.encrypt"),
    ("crypto.packing.PackedCryptoTensor.pack", "repro.crypto.packing", "PackedCryptoTensor.pack"),
    ("crypto.packing.PackedCryptoTensor.encrypt", "repro.crypto.packing", "PackedCryptoTensor.encrypt"),
    ("crypto.packing.PackedCryptoTensor.decrypt", "repro.crypto.packing", "PackedCryptoTensor.decrypt"),
    ("crypto.secret_sharing.he2ss_split", "repro.crypto.secret_sharing", "he2ss_split"),
    ("crypto.secret_sharing.he2ss_receive", "repro.crypto.secret_sharing", "he2ss_receive"),
    ("crypto.paillier.blinding_factors", "repro.crypto.paillier", "PaillierPublicKey.blinding_factors"),
    ("comm.codec.encode_message", "repro.comm.codec", "encode_message"),
    ("comm.codec.decode_message", "repro.comm.codec", "decode_message"),
    ("comm.channel.send", "repro.comm.channel", "Channel.send"),
    ("comm.channel.recv", "repro.comm.channel", "Channel.recv"),
    ("comm.channel.recv", "repro.comm.transport", "NetworkChannel.recv"),
    ("data.loader.batches", "repro.data.loader", "BatchLoader.batches"),
    ("tensor.top", "repro.tensor.nn", "Module.__call__"),
    ("tensor.top", "repro.tensor.losses", "bce_with_logits"),
    ("tensor.top", "repro.tensor.tensor", "Tensor.backward"),
    ("tensor.top", "repro.tensor.optim", "SGD.step"),
)

# The root span the benchmark opens around each timed step.
STEP = "step"


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _frame_arg_len(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs["frame"])


# Work counted at a boundary, stored on the span: (stat, measure).
_AMOUNTS = {
    "comm.codec.encode_message": ("bytes", _result_len),
    "comm.codec.decode_message": ("bytes", _frame_arg_len),
    "crypto.paillier.blinding_factors": ("blinders", _result_len),
}


class SpanRecorder:
    """In-memory span store for one thread.

    A span is ``[name, start, end, parent, amount]`` with ``parent`` the
    index of the enclosing span (-1 for a root).  Calls from other threads
    and calls while :attr:`active` is false pass through unrecorded, so
    set-up and output checks stay out of the per-layer numbers.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def recording(self) -> bool:
        return self.active and threading.get_ident() == self._thread

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, amount: int | None = None) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = amount

    @contextmanager
    def span(self, name: str):
        if not self.recording():
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)


def _wrap_call(rec: SpanRecorder, name: str, fn):
    stat = _AMOUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.recording():
            return fn(*args, **kwargs)
        index = rec.open(name)
        amount = None
        try:
            result = fn(*args, **kwargs)
            if stat is not None:
                amount = stat[1](args, kwargs, result)
            return result
        finally:
            rec.close(index, amount)

    return wrapper


def _wrap_generator(rec: SpanRecorder, name: str, fn):
    """One span per item produced, so the consumer's work between items is
    not charged to the generator."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            index = rec.open(name) if rec.recording() else None
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                if index is not None:
                    rec.close(index)
            yield item

    return wrapper


class Patch:
    """Context manager: wrap every binding of :data:`LAYER_FUNCTIONS`.

    Methods are replaced on their class (subclasses that inherit them see
    the wrapper).  Module-level functions are replaced in their defining
    module and in every loaded module that bound the same object under a
    ``from`` import.  On exit each binding gets its original object back.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.bindings: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        try:
            for name, module_name, attr in LAYER_FUNCTIONS:
                self._patch(name, importlib.import_module(module_name), attr)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, name: str, module, attr: str) -> None:
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        # Only an attribute the owner defines itself: patching an inherited
        # one would leave a shadowing copy behind on restore.
        static = vars(owner).get(leaf)
        if isinstance(static, (classmethod, staticmethod)):
            fn = static.__func__
        elif callable(static):
            fn = static
        else:
            raise AttributeError(f"{module.__name__}.{attr} is not a function it defines")
        wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap_call
        wrapped = wrap(self.recorder, name, fn)
        if isinstance(static, (classmethod, staticmethod)):
            wrapped = type(static)(wrapped)
        if owner_name:
            self._bind(owner, leaf, static, wrapped)
            return
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    self._bind(mod, key, fn, wrapped)

    def _bind(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self.bindings.append((owner, key, original))

    def restore(self) -> None:
        while self.bindings:
            owner, key, original = self.bindings.pop()
            setattr(owner, key, original)


# --------------------------------------------------------------------- folding


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children of one span are merged as intervals (clipped to the parent),
    so overlapping or out-of-bounds children are never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def fold(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and counted amounts.

    ``comm.channel.send`` also gets ``bytes``: the lengths of the frames
    encoded inside it, which must equal the channel's own byte ledger.
    """
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, amount) in enumerate(spans):
        row = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if amount is None:
            continue
        stat = _AMOUNTS[name][0]
        row[stat] = row.get(stat, 0) + amount
        if name == "comm.codec.encode_message":
            while parent >= 0 and spans[parent][0] != "comm.channel.send":
                parent = spans[parent][3]
            if parent >= 0:
                send = stats.setdefault("comm.channel.send", {"calls": 0, "self_s": 0.0})
                send["bytes"] = send.get("bytes", 0) + amount
    return stats


def unattributed(spans: list[list]) -> tuple[float, float]:
    """``(self time of the root step spans, their total duration)``."""
    selfs = self_times(spans)
    own = total = 0.0
    for i, span in enumerate(spans):
        if span[0] == STEP and span[3] < 0:
            own += selfs[i]
            total += span[2] - span[1]
    return own, total


def folded_lines(spans: list[list], prefix: str = "") -> list[str]:
    """Folded-stack table: ``root;child;leaf <self microseconds>``."""
    selfs = self_times(spans)
    paths: list[str] = []
    totals: dict[str, float] = {}
    for i, span in enumerate(spans):
        parent = span[3]
        path = span[0] if parent < 0 else paths[parent] + ";" + span[0]
        paths.append(path)
        key = prefix + path
        totals[key] = totals.get(key, 0.0) + selfs[i]
    return [f"{k} {round(v * 1e6)}" for k, v in sorted(totals.items())]


def chrome_events(spans: list[list], pid: int, label: str) -> list[dict]:
    """Chrome trace "complete" events (``chrome://tracing``, Perfetto)."""
    events = [{"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}}]
    for name, start, end, parent, amount in spans:
        event = {
            "name": name, "ph": "X", "pid": pid, "tid": 0,
            "ts": start * 1e6, "dur": (end - start) * 1e6,
        }
        if amount is not None:
            event["args"] = {_AMOUNTS[name][0]: amount}
        events.append(event)
    return events

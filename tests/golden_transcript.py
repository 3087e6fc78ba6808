"""Seeded protocol transcripts for the golden conformance tests.

Each scenario runs one training step (forward + backward + update) of a
source layer on fixed seeds and summarises every transcript message with
:func:`repro.comm.codec.message_summary` — tags, kinds, sender/receiver
order, frame sizes and payload headers (shapes, exponents, slot layouts),
but never ciphertext bytes, so the records are reproducible across
machines while still pinning everything a refactor could silently change
about the wire protocol.

Regenerate the checked-in golden file after an *intentional* protocol
change::

    PYTHONPATH=src python tests/golden_transcript.py

and review the diff of ``tests/data/protocol_golden.json`` like any other
protocol-design decision.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.comm.codec import message_summary
from repro.comm.party import VFLConfig, VFLContext
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.matmul_layer import MatMulSource

GOLDEN_PATH = Path(__file__).parent / "data" / "protocol_golden.json"


def _matmul_step(key_bits: int, packing: bool, share_refresh: str) -> VFLContext:
    cfg = VFLConfig(
        key_bits=key_bits,
        packing=packing,
        share_refresh=share_refresh,
        channel="serializing",
    )
    ctx = VFLContext(cfg, seed=123)
    layer = MatMulSource(ctx, in_a=4, in_b=3, out_dim=2, name="g")
    rng = np.random.default_rng(9)
    layer.forward(rng.normal(size=(3, 4)), rng.normal(size=(3, 3)))
    layer.backward(rng.normal(size=(3, 2)) * 0.1)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return ctx


def _embed_step(key_bits: int, packing: bool, share_refresh: str) -> VFLContext:
    cfg = VFLConfig(
        key_bits=key_bits,
        packing=packing,
        share_refresh=share_refresh,
        channel="serializing",
    )
    ctx = VFLContext(cfg, seed=321)
    layer = EmbedMatMulSource(
        ctx, vocab_a=[4, 3], vocab_b=[5], emb_dim=2, out_dim=1, name="ge"
    )
    rng = np.random.default_rng(11)
    x_a = rng.integers(0, [4, 3], size=(3, 2))
    x_b = rng.integers(0, 5, size=(3, 1))
    layer.forward(x_a, x_b)
    layer.backward(rng.normal(size=(3, 1)) * 0.1)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return ctx


def _multiparty_step(key_bits: int) -> VFLContext:
    """One step of the MatMul layer with two Party A's (Appendix C).

    Recorded all-local on the serializing tier, which produces the exact
    per-(sender, receiver) message schedule every fabric endpoint must
    reproduce: a fabric run's transcripts are compared against this
    golden *per pair* (cross-sender arrival order at the key owner is
    scheduling-dependent; per-pair FIFO order is part of the protocol).
    """
    cfg = VFLConfig(key_bits=key_bits, channel="serializing")
    ctx = VFLContext(cfg, seed=77, n_a_parties=2)
    layer = MatMulSource(ctx, {"A1": 3, "A2": 2}, in_b=2, out_dim=2, name="gm")
    rng = np.random.default_rng(13)
    x = {
        "A1": rng.normal(size=(3, 3)),
        "A2": rng.normal(size=(3, 2)),
        "B": rng.normal(size=(3, 2)),
    }
    layer.forward(x, x["B"])
    layer.backward(rng.normal(size=(3, 2)) * 0.1)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return ctx


# Packed scenarios need a key that fits at least two product slots
# (protocol_layout falls back to per-element below ~224 bits).
SCENARIOS = {
    "matmul": lambda: _matmul_step(128, packing=False, share_refresh="reencrypt"),
    "matmul_packed": lambda: _matmul_step(256, packing=True, share_refresh="reencrypt"),
    "embed": lambda: _embed_step(128, packing=False, share_refresh="reencrypt"),
    "embed_packed": lambda: _embed_step(256, packing=True, share_refresh="reencrypt"),
    "embed_delta": lambda: _embed_step(128, packing=False, share_refresh="delta"),
    "multiparty": lambda: _multiparty_step(128),
}


def build_transcript(scenario: str) -> list[dict]:
    """The conformance records of one seeded scenario's full transcript."""
    ctx = SCENARIOS[scenario]()
    return [message_summary(msg) for msg in ctx.channel.transcript]


def build_all() -> dict[str, list[dict]]:
    return {name: build_transcript(name) for name in SCENARIOS}


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(build_all(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()

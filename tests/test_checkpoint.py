"""Checkpoint/resume: bit-identity, key custody, and corruption detection.

The contract under test (see :mod:`repro.core.checkpoint`):

* a run that crashes mid-epoch and resumes from its checkpoint finishes
  **bit-identical** to a run that was never interrupted — same losses,
  same revealed weights, because every RNG/blinding/momentum stream was
  captured;
* a checkpoint file **never** contains private-key material — the codec's
  structural refusal guards the disk boundary, and a byte-level scan of a
  real checkpoint confirms the primes are absent (while public moduli are
  demonstrably present, so the scan is looking at real key material);
* a corrupted/truncated/foreign checkpoint fails loudly at load time.
"""

import numpy as np
import pytest

from repro.comm import codec
from repro.comm.party import VFLConfig, VFLContext
from repro.core.checkpoint import (
    CheckpointError,
    TrainingInterrupted,
    load_checkpoint,
    model_key_ring,
    save_checkpoint,
)
from repro.core.models import FederatedLR
from repro.core.trainer import TrainConfig, train_federated
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification

KEY_BITS = 128


@pytest.fixture(scope="module")
def train_vd():
    full = make_dense_classification(48, 6, seed=50, flip=0.02, nonlinear=False)
    return split_vertical(full)


def _make_model():
    """Rebuild the *same* model every call: identical seeds, identical keys.

    This reconstruction is also the custody story: the key owner's private
    key comes back from the federation seed, never from the checkpoint.
    """
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=3)
    return FederatedLR(ctx, 3, 3)


def _config(**overrides):
    base = dict(epochs=2, batch_size=16, lr=0.1, momentum=0.9, seed=0,
                blinding_pool_per_epoch=4)
    base.update(overrides)
    return TrainConfig(**base)


def _weights(model):
    return {
        f"{layer.name}.{name}": value
        for layer in model.source_layers()
        for name, value in layer.reveal_weights().items()
    }


def _train_to_checkpoint(train_vd, path, crash_after=4):
    """Run until the injected crash; returns the interrupted model."""
    model = _make_model()
    with pytest.raises(TrainingInterrupted) as excinfo:
        train_federated(
            model, train_vd,
            _config(checkpoint_path=path, checkpoint_every=1,
                    crash_after_batches=crash_after),
        )
    assert excinfo.value.checkpoint_path == path
    return model


# --------------------------------------------------------------------------
# bit-identity


def test_crash_and_resume_is_bit_identical(train_vd, tmp_path):
    """Kill after 4 of 6 batches (mid-epoch 1), resume, match exactly."""
    reference_model = _make_model()
    reference = train_federated(reference_model, train_vd, _config())
    assert len(reference.losses) == 6  # 2 epochs x 3 batches

    path = str(tmp_path / "lr.ckpt")
    _train_to_checkpoint(train_vd, path, crash_after=4)

    resumed_model = _make_model()
    resumed = train_federated(resumed_model, train_vd, _config(),
                              resume_from=path)
    assert resumed.losses == reference.losses  # float-exact, all 6
    ref_w, res_w = _weights(reference_model), _weights(resumed_model)
    assert set(ref_w) == set(res_w)
    for name, value in ref_w.items():
        np.testing.assert_array_equal(res_w[name], value)


def test_resume_at_epoch_boundary(train_vd, tmp_path):
    """Crash exactly at the end of epoch 0; epoch 1 must replay exactly."""
    reference = train_federated(_make_model(), train_vd, _config())
    path = str(tmp_path / "boundary.ckpt")
    _train_to_checkpoint(train_vd, path, crash_after=3)
    resumed = train_federated(_make_model(), train_vd, _config(),
                              resume_from=path)
    assert resumed.losses == reference.losses


def test_checkpoint_interval_respected(train_vd, tmp_path):
    """``checkpoint_every=3`` writes at batches 3 and 6 only."""
    path = str(tmp_path / "sparse.ckpt")
    model = _make_model()
    train_federated(model, train_vd,
                    _config(checkpoint_path=path, checkpoint_every=3))
    sections = load_checkpoint(path, key_ring=model_key_ring(model))
    epoch, next_batch, order, _ = sections["trainer"]
    assert (epoch, next_batch) == (1, 3)  # written after the final batch
    assert sorted(order.tolist()) == list(range(48))
    losses, _, metric = sections["history"]
    assert len(losses) == 6 and metric == "auc"


# --------------------------------------------------------------------------
# key custody


def _prime_bytes(private_key):
    return [
        v.to_bytes((v.bit_length() + 7) // 8, "big")
        for v in (private_key.p, private_key.q)
    ]


def test_checkpoint_file_contains_no_private_key_material(train_vd, tmp_path):
    """Byte-level scan: the primes never reach disk, the public modulus does.

    The modulus check keeps the scan honest — ciphertext frames embed
    ``n``, so key material *of the permitted kind* is visibly present and
    an absent prime is a real absence, not a scan that matches nothing.
    """
    path = str(tmp_path / "custody.ckpt")
    _train_to_checkpoint(train_vd, path)
    blob = open(path, "rb").read()

    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=3)  # same seeds
    for party in ctx.parties.values():
        n = party.public_key.n
        assert n.to_bytes((n.bit_length() + 7) // 8, "big") in blob
        for secret in _prime_bytes(party.private_key):
            assert secret not in blob
    # Scan machinery sanity: a deliberately leaked prime *is* found.
    leaked = blob + _prime_bytes(ctx.B.private_key)[0]
    assert _prime_bytes(ctx.B.private_key)[0] in leaked


def _int_bytes(x: int) -> bytes:
    return x.to_bytes((x.bit_length() + 7) // 8, "big")


def test_comb_table_is_derived_not_checkpointed(train_vd, tmp_path):
    """The λ base ``h`` is on disk; its comb table is rebuilt, never stored."""
    path = str(tmp_path / "comb.ckpt")
    model = _train_to_checkpoint(train_vd, path)
    blob = open(path, "rb").read()
    keys = [k for k in model_key_ring(model).values() if k._comb is not None]
    assert keys, "training drew no λ blinders"
    for key in keys:
        assert _int_bytes(key._h) in blob
        for row in key._comb.rows[1:3]:
            assert _int_bytes(row[3]) not in blob


def test_checkpoint_frame_encoder_refuses_private_keys():
    """The disk format is codec frames, so the codec's refusal IS the
    custody guard: a private key (or carrier) cannot be framed at all."""
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=7)
    with pytest.raises(codec.UnsupportedWireType, match="private-key material"):
        codec.encode_payload_frame(ctx.B.private_key)
    with pytest.raises(codec.UnsupportedWireType, match="key owner's"):
        codec.encode_payload_frame(("ckpt", ctx.B))


def test_resend_buffer_never_holds_private_key_material():
    """The reliability layer buffers *frames*; since no frame can encode a
    private key, the resend buffer inherits the custody guarantee.  Scan
    a live buffer holding ciphertext traffic to confirm."""
    import socket

    from repro.comm.transport import ReliableLink
    from repro.crypto.crypto_tensor import CryptoTensor

    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=8)
    ct = CryptoTensor.encrypt(ctx.A.public_key, np.arange(6.0).reshape(2, 3))
    raw_a, raw_b = socket.socketpair()
    raw_a.settimeout(0.5)
    link = ReliableLink(raw_a)
    try:
        for i in range(3):
            link.send_frame(codec.encode_payload_frame((f"ct{i}", ct)))
        assert len(link._resend) == 3  # nothing acked yet: all buffered
        buffered = b"".join(link._resend.values())
        n = ctx.A.public_key.n
        assert n.to_bytes((n.bit_length() + 7) // 8, "big") in buffered
        for secret in _prime_bytes(ctx.A.private_key):
            assert secret not in buffered
    finally:
        raw_a.close()
        raw_b.close()


# --------------------------------------------------------------------------
# corruption / mismatch detection at load time


def _checkpoint_on_disk(train_vd, tmp_path):
    path = str(tmp_path / "victim.ckpt")
    model = _train_to_checkpoint(train_vd, path)
    return path, model


def test_truncated_checkpoint_raises(train_vd, tmp_path):
    path, model = _checkpoint_on_disk(train_vd, tmp_path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 7])
    with pytest.raises(codec.WireFormatError, match="truncated frame stream"):
        load_checkpoint(path, key_ring=model_key_ring(model))


def test_bit_flipped_checkpoint_raises_integrity_error(train_vd, tmp_path):
    path, model = _checkpoint_on_disk(train_vd, tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0x08  # one flipped bit, anywhere in a body
    open(path, "wb").write(bytes(blob))
    with pytest.raises(codec.FrameIntegrityError, match="CRC32"):
        load_checkpoint(path, key_ring=model_key_ring(model))


def test_foreign_file_raises_checkpoint_error(tmp_path):
    path = str(tmp_path / "not-a-checkpoint.ckpt")
    open(path, "wb").write(codec.encode_payload_frame(("something", "else")))
    with pytest.raises(CheckpointError, match="not a BlindFL checkpoint"):
        load_checkpoint(path)
    open(path, "wb").write(
        codec.encode_payload_frame(("blindfl-checkpoint", 999))
    )
    with pytest.raises(CheckpointError, match="version 999 not supported"):
        load_checkpoint(path)
    open(path, "wb").write(b"")
    with pytest.raises(CheckpointError, match="is empty"):
        load_checkpoint(path)


def test_missing_section_raises(train_vd, tmp_path):
    path, model = _checkpoint_on_disk(train_vd, tmp_path)
    ring = model_key_ring(model)
    blob = open(path, "rb").read()
    # Walk the frame stream, dropping the layers section byte-identically.
    offset, out = 0, []
    for _, body in codec.iter_frames(blob):
        size = codec.PREAMBLE_SIZE + len(body) + codec.CRC_SIZE
        frame = blob[offset : offset + size]
        offset += size
        payload = codec.decode_payload(body, ring)
        if not (isinstance(payload, tuple) and payload and payload[0] == "layers"):
            out.append(frame)
    open(path, "wb").write(b"".join(out))
    with pytest.raises(CheckpointError, match="missing sections.*layers"):
        load_checkpoint(path, key_ring=model_key_ring(model))


def test_resume_onto_mismatched_model_raises(train_vd, tmp_path):
    path, _ = _checkpoint_on_disk(train_vd, tmp_path)
    wrong = FederatedLR(VFLContext(VFLConfig(key_bits=KEY_BITS), seed=3), 4, 2)
    with pytest.raises(CheckpointError):
        train_federated(wrong, train_vd, _config(), resume_from=path)

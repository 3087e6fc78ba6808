"""Protocol tests for the Embed-MatMul federated source layer (Figure 7)."""

import numpy as np
import pytest

from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.core.embed_matmul_layer import EmbedMatMulSource

KEY_BITS = 128


def make_ctx(**kwargs) -> VFLContext:
    return VFLContext(VFLConfig(key_bits=KEY_BITS, **kwargs), seed=6)


def reference_forward(layer, x_a, x_b):
    """Plaintext E_A W_A + E_B W_B from the revealed tables/weights."""
    w = layer.reveal_weights()
    e_a = lookup(w["Q_A"], x_a, layer._a.offsets)
    e_b = lookup(w["Q_B"], x_b, layer._b.offsets)
    return e_a @ w["W_A"] + e_b @ w["W_B"], (e_a, e_b)


def lookup(table, x_cat, offsets):
    flat = (np.asarray(x_cat, dtype=np.int64) + offsets[None, :]).ravel()
    batch = x_cat.shape[0]
    return table[flat].reshape(batch, -1)


@pytest.fixture()
def layer_and_data(rng):
    ctx = make_ctx()
    layer = EmbedMatMulSource(
        ctx, vocab_a=[5, 7], vocab_b=[6], emb_dim=3, out_dim=2, name="e"
    )
    x_a = rng.integers(0, 5, size=(4, 2))
    x_a[:, 1] = rng.integers(0, 7, size=4)
    x_b = rng.integers(0, 6, size=(4, 1))
    return ctx, layer, x_a, x_b


def test_forward_is_lossless(layer_and_data):
    ctx, layer, x_a, x_b = layer_and_data
    expected, _ = reference_forward(layer, x_a, x_b)
    z = layer.forward(x_a, x_b)
    np.testing.assert_allclose(z, expected, atol=1e-4)


def test_forward_shares_sum_to_z(layer_and_data):
    ctx, layer, x_a, x_b = layer_and_data
    expected, _ = reference_forward(layer, x_a, x_b)
    z_a, z_b = layer.forward_shares(x_a, x_b)
    np.testing.assert_allclose(z_a + z_b, expected, atol=1e-4)
    # Each share alone must be far from Z (it contains the random masks).
    assert not np.allclose(z_b, expected, atol=1e-2)


def test_backward_weight_gradients_match_plaintext(layer_and_data, rng):
    ctx, layer, x_a, x_b = layer_and_data
    w0 = layer.reveal_weights()
    expected, (e_a, e_b) = reference_forward(layer, x_a, x_b)
    layer.forward(x_a, x_b)
    grad_z = rng.normal(size=(4, 2)) * 0.1
    layer.backward(grad_z)
    layer.apply_updates(lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    np.testing.assert_allclose(w1["W_A"], w0["W_A"] - 0.1 * e_a.T @ grad_z, atol=1e-4)
    np.testing.assert_allclose(w1["W_B"], w0["W_B"] - 0.1 * e_b.T @ grad_z, atol=1e-4)


def test_backward_table_gradients_match_plaintext(layer_and_data, rng):
    ctx, layer, x_a, x_b = layer_and_data
    w0 = layer.reveal_weights()
    _, _ = reference_forward(layer, x_a, x_b)
    layer.forward(x_a, x_b)
    grad_z = rng.normal(size=(4, 2)) * 0.1
    layer.backward(grad_z)
    layer.apply_updates(lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    # Reference lkup_bw: grad_E = grad_Z W^T, scattered into the table.
    for who, x_cat in (("A", x_a), ("B", x_b)):
        state = layer._a if who == "A" else layer._b
        total = layer.total_a if who == "A" else layer.total_b
        grad_e = grad_z @ w0[f"W_{who}"].T  # (batch, F*D)
        flat = (x_cat + state.offsets[None, :]).ravel()
        grad_q = np.zeros((total, layer.emb_dim))
        np.add.at(grad_q, flat, grad_e.reshape(-1, layer.emb_dim))
        np.testing.assert_allclose(
            w1[f"Q_{who}"], w0[f"Q_{who}"] - 0.1 * grad_q, atol=1e-4
        )


def test_momentum_training_step_is_exact(layer_and_data, rng):
    ctx, layer, x_a, x_b = layer_and_data
    w0 = layer.reveal_weights()
    ref = {k: v.copy() for k, v in w0.items()}
    vel = {k: np.zeros_like(v) for k, v in w0.items()}
    for _ in range(2):
        _, (e_a, e_b) = reference_forward(layer, x_a, x_b)
        layer.forward(x_a, x_b)
        grad_z = rng.normal(size=(4, 2)) * 0.1
        layer.backward(grad_z)
        layer.apply_updates(lr=0.05, momentum=0.9)
        grads = {
            "W_A": e_a.T @ grad_z,
            "W_B": e_b.T @ grad_z,
        }
        for who, x_cat in (("A", x_a), ("B", x_b)):
            state = layer._a if who == "A" else layer._b
            total = layer.total_a if who == "A" else layer.total_b
            grad_e = grad_z @ ref[f"W_{who}"].T
            flat = (x_cat + state.offsets[None, :]).ravel()
            grad_q = np.zeros((total, layer.emb_dim))
            np.add.at(grad_q, flat, grad_e.reshape(-1, layer.emb_dim))
            grads[f"Q_{who}"] = grad_q
        for key in ref:
            vel[key] = 0.9 * vel[key] + grads[key]
            ref[key] -= 0.05 * vel[key]
    w1 = layer.reveal_weights()
    for key in ref:
        np.testing.assert_allclose(w1[key], ref[key], atol=1e-3)


def test_delta_mode_is_exact(rng):
    ctx = make_ctx(share_refresh="delta")
    layer = EmbedMatMulSource(ctx, [8], [6], emb_dim=2, out_dim=1, name="ed")
    w0 = layer.reveal_weights()
    x_a = rng.integers(0, 8, size=(3, 1))
    x_b = rng.integers(0, 6, size=(3, 1))
    grad_z = rng.normal(size=(3, 1)) * 0.1
    layer.forward(x_a, x_b)
    layer.backward(grad_z)
    layer.apply_updates(lr=0.1, momentum=0.0)
    # Second forward must see the refreshed encrypted rows.
    z2 = layer.forward(x_a, x_b)
    e_a0 = w0["Q_A"][x_a.ravel()]
    grad_e_a = (grad_z @ w0["W_A"].T).reshape(-1, 2)
    grad_q_a = np.zeros_like(w0["Q_A"])
    np.add.at(grad_q_a, x_a.ravel(), grad_e_a)
    q_a1 = w0["Q_A"] - 0.1 * grad_q_a
    w_a1 = w0["W_A"] - 0.1 * e_a0.reshape(3, -1).T @ grad_z
    w1 = layer.reveal_weights()
    np.testing.assert_allclose(w1["Q_A"], q_a1, atol=1e-4)
    np.testing.assert_allclose(w1["W_A"], w_a1, atol=1e-4)
    # And z2 must reflect updated tables & weights.
    e_b0 = w0["Q_B"][x_b.ravel()]
    grad_e_b = (grad_z @ w0["W_B"].T).reshape(-1, 2)
    grad_q_b = np.zeros_like(w0["Q_B"])
    np.add.at(grad_q_b, x_b.ravel(), grad_e_b)
    q_b1 = w0["Q_B"] - 0.1 * grad_q_b
    w_b1 = w0["W_B"] - 0.1 * e_b0.reshape(3, -1).T @ grad_z
    expected_z2 = (
        q_a1[x_a.ravel()].reshape(3, -1) @ w_a1
        + q_b1[x_b.ravel()].reshape(3, -1) @ w_b1
    )
    np.testing.assert_allclose(z2, expected_z2, atol=1e-3)


def test_no_plaintext_messages(layer_and_data, rng):
    ctx, layer, x_a, x_b = layer_and_data
    layer.forward(x_a, x_b)
    layer.backward(rng.normal(size=(4, 2)))
    layer.apply_updates(lr=0.05, momentum=0.9)
    assert MessageKind.PLAINTEXT not in {m.kind for m in ctx.channel.transcript}


def test_embedding_entries_never_on_wire_in_clear(layer_and_data):
    """Req: E_A and E_B exist only as shares — check A's and B's views."""
    ctx, layer, x_a, x_b = layer_and_data
    w = layer.reveal_weights()
    e_a = lookup(w["Q_A"], x_a, layer._a.offsets)
    e_b = lookup(w["Q_B"], x_b, layer._b.offsets)
    layer.forward(x_a, x_b)
    for msg in ctx.channel.transcript:
        if isinstance(msg.payload, np.ndarray):
            for target in (e_a, e_b):
                if msg.payload.shape == target.shape:
                    assert not np.allclose(msg.payload, target, atol=1e-3)


def test_backward_before_forward_rejected(rng):
    ctx = make_ctx()
    layer = EmbedMatMulSource(ctx, [4], [4], 2, 1)
    with pytest.raises(RuntimeError, match="backward before forward"):
        layer.backward(rng.normal(size=(2, 1)))


def test_batch_size_mismatch_rejected(layer_and_data):
    ctx, layer, x_a, x_b = layer_and_data
    with pytest.raises(ValueError, match="differently sized"):
        layer.forward(x_a, x_b[:2])


def test_field_count_validation(layer_and_data, rng):
    ctx, layer, x_a, x_b = layer_and_data
    with pytest.raises(ValueError, match="categorical"):
        layer.forward(x_a[:, :1], x_b)


def test_federated_parameters_catalogued(layer_and_data):
    ctx, layer, _, _ = layer_and_data
    names = {p.name for p in layer.federated_parameters()}
    assert names == {"e.Q_A", "e.Q_B", "e.W_A", "e.W_B"}
    q_a = next(p for p in layer.federated_parameters() if p.name == "e.Q_A")
    assert q_a.shape == (12, 3)  # vocab 5+7 packed
    assert q_a.holders == {"S": "A", "T": "B"}


def test_dimension_validation():
    ctx = make_ctx()
    with pytest.raises(ValueError):
        EmbedMatMulSource(ctx, [], [4], 2, 1)
    with pytest.raises(ValueError):
        EmbedMatMulSource(ctx, [4], [4], 0, 1)


def test_several_a_parties_rejected_before_any_encryption():
    """Embed-MatMul is two-party: a multi-A federation fails at once, naming
    the multi-A layer, before a single piece is encrypted or sent."""
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=6, n_a_parties=2)
    with pytest.raises(ValueError, match="MatMulSource"):
        EmbedMatMulSource(ctx, [4], [4], 2, 1)
    assert ctx.channel.transcript == []
    assert ctx.channel.total_bytes() == 0

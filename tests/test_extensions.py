"""Tests for the appendix extensions: several Party A's (Alg. 3) and SS tops (App. B)."""

import numpy as np
import pytest

from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.core.federated_top import (
    IdealSSTop,
    matmul_backward_from_shares,
    train_lr_with_ss_top,
)
from repro.core.checkpoint import restore_endpoint_checkpoint, save_endpoint_checkpoint
from repro.core.matmul_layer import MatMulSource
from repro.core.models import MultiPartyLR
from repro.core.trainer import TrainConfig
from repro.crypto.packing import PackedCryptoTensor
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification
from repro.tensor.sparse import CSRMatrix

KEY_BITS = 128


def mp_ctx(m=2, seed=8):
    return VFLContext(VFLConfig(key_bits=KEY_BITS), seed=seed, n_a_parties=m)


def two_ctx(seed=8):
    return VFLContext(VFLConfig(key_bits=KEY_BITS), seed=seed)


# ---------- Algorithm 3: MatMulSource with several Party A's ----------


def test_multiparty_forward_lossless(rng):
    ctx = mp_ctx(m=2)
    layer = MatMulSource(ctx, {"A1": 4, "A2": 3}, in_b=5, out_dim=2)
    w = layer.reveal_weights()
    x = {
        "A1": rng.normal(size=(6, 4)),
        "A2": rng.normal(size=(6, 3)),
        "B": rng.normal(size=(6, 5)),
    }
    z = layer.forward(x, x["B"])
    expected = x["A1"] @ w["W_A1"] + x["A2"] @ w["W_A2"] + x["B"] @ w["W_B"]
    np.testing.assert_allclose(z, expected, atol=1e-4)


def test_multiparty_three_a_parties(rng):
    ctx = mp_ctx(m=3)
    dims = {"A1": 3, "A2": 3, "A3": 2}
    layer = MatMulSource(ctx, dims, in_b=4, out_dim=1)
    w = layer.reveal_weights()
    x = {name: rng.normal(size=(5, d)) for name, d in dims.items()}
    x["B"] = rng.normal(size=(5, 4))
    z = layer.forward(x, x["B"])
    expected = sum(x[n] @ w[f"W_{n}"] for n in dims) + x["B"] @ w["W_B"]
    np.testing.assert_allclose(z, expected, atol=1e-4)


def test_multiparty_backward_matches_plaintext(rng):
    ctx = mp_ctx(m=2)
    layer = MatMulSource(ctx, {"A1": 4, "A2": 3}, in_b=5, out_dim=1)
    w0 = layer.reveal_weights()
    x = {
        "A1": rng.normal(size=(6, 4)),
        "A2": rng.normal(size=(6, 3)),
        "B": rng.normal(size=(6, 5)),
    }
    layer.forward(x, x["B"])
    grad_z = rng.normal(size=(6, 1)) * 0.1
    layer.backward(grad_z)
    layer.apply_updates(lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    for name in ("A1", "A2", "B"):
        np.testing.assert_allclose(
            w1[f"W_{name}"],
            w0[f"W_{name}"] - 0.1 * (x[name].T @ grad_z),
            atol=1e-4,
        )


@pytest.mark.parametrize("share_refresh", ["reencrypt", "delta"])
@pytest.mark.parametrize("packing", [False, True])
def test_multiparty_lossless_over_packing_and_refresh(packing, share_refresh):
    """M = 2 runs Figure 6's one code path per pair, so packed pieces and
    the sparse delta refresh hold for several A's too: two momentum steps
    track plaintext SGD, and the refreshed [[V_A(i)]] forward stays exact."""
    cfg = VFLConfig(key_bits=256, packing=packing, share_refresh=share_refresh)
    ctx = VFLContext(cfg, seed=9, n_a_parties=2)
    dims, in_b, out = {"A1": 5, "A2": 4}, 3, 4
    layer = MatMulSource(ctx, dims, in_b=in_b, out_dim=out)
    if packing:  # wide rows pay: the resident pieces travel packed
        assert isinstance(layer._a["A1"].enc_v_own, PackedCryptoTensor)
    rng = np.random.default_rng(4)
    ref = layer.reveal_weights()
    vel = {k: np.zeros_like(v) for k, v in ref.items()}
    for _ in range(2):
        dense = {n: (rng.random((6, d)) < 0.4).astype(np.float64) for n, d in dims.items()}
        dense["B"] = rng.normal(size=(6, in_b))
        x = {n: CSRMatrix.from_dense(v) for n, v in dense.items() if n != "B"}
        z = layer.forward(x, dense["B"])
        expected = sum(dense[n] @ ref[f"W_{n}"] for n in ("A1", "A2", "B"))
        np.testing.assert_allclose(z, expected, atol=1e-6)
        gz = rng.normal(size=(6, out)) * 0.1
        layer.backward(gz)
        layer.apply_updates(lr=0.05, momentum=0.9)
        for n in ("A1", "A2", "B"):
            k, rows = f"W_{n}", slice(None)
            if share_refresh == "delta" and n != "B":
                # Delta mode's momentum is lazy: only the batch's support moves.
                rows = np.flatnonzero(dense[n].any(axis=0))
            vel[k][rows] = 0.9 * vel[k][rows] + (dense[n].T @ gz)[rows]
            ref[k][rows] -= 0.05 * vel[k][rows]
        w = layer.reveal_weights()
        for k in ref:
            np.testing.assert_allclose(w[k], ref[k], atol=1e-6, err_msg=k)
    tags = {m.tag for m in ctx.channel.transcript}
    assert any(".bwd.support_A" in t for t in tags) == (share_refresh == "delta")
    x_b = rng.normal(size=(3, in_b))
    x_eval = {n: rng.normal(size=(3, d)) for n, d in dims.items()}
    np.testing.assert_allclose(
        layer.forward(x_eval, x_b, train=False),
        sum(x_eval[n] @ ref[f"W_{n}"] for n in dims) + x_b @ ref["W_B"],
        atol=1e-6,
    )


def test_multiparty_no_plaintext_messages(rng):
    ctx = mp_ctx(m=2)
    layer = MatMulSource(ctx, {"A1": 3, "A2": 3}, in_b=3, out_dim=1)
    x = {n: rng.normal(size=(4, 3)) for n in ("A1", "A2", "B")}
    layer.forward(x, x["B"])
    layer.backward(rng.normal(size=(4, 1)))
    layer.apply_updates(lr=0.05, momentum=0.9)
    assert MessageKind.PLAINTEXT not in {m.kind for m in ctx.channel.transcript}


def test_multiparty_validation():
    ctx = two_ctx()
    with pytest.raises(ValueError, match="int for one Party A"):
        MatMulSource(ctx, {"A": 3}, in_b=3, out_dim=1)
    mctx = mp_ctx(m=2)
    with pytest.raises(ValueError, match="covering"):
        MatMulSource(mctx, {"A1": 3}, in_b=3, out_dim=1)
    with pytest.raises(ValueError, match="covering"):
        MatMulSource(mctx, 3, in_b=3, out_dim=1)
    with pytest.raises(ValueError, match="positive"):
        MatMulSource(mctx, {"A1": 3, "A2": 0}, in_b=3, out_dim=1)
    layer = MatMulSource(mctx, {"A1": 2, "A2": 2}, in_b=2, out_dim=1)
    with pytest.raises(ValueError, match="one Party A"):
        layer.forward_shares({"A1": np.ones((1, 2)), "A2": np.ones((1, 2))}, np.ones((1, 2)))


def test_multiparty_delta_needs_b_colocated():
    """B reads A(i)'s batch type to know whether a column-support message
    follows, so a split placement in delta mode is refused before any
    piece is encrypted."""
    cfg = VFLConfig(key_bits=KEY_BITS, share_refresh="delta")
    ctx = VFLContext(cfg, seed=8, n_a_parties=2, local_parties={"B"})
    with pytest.raises(ValueError, match="co-located"):
        MatMulSource(ctx, {"A1": 3, "A2": 3}, in_b=3, out_dim=1)
    assert ctx.channel.transcript == []


def test_multiparty_federated_parameters():
    ctx = mp_ctx(m=2)
    layer = MatMulSource(ctx, {"A1": 3, "A2": 4}, in_b=5, out_dim=1)
    params = {p.name: p for p in layer.federated_parameters()}
    assert set(params) == {"matmul.W_A1", "matmul.W_A2", "matmul.W_B"}
    assert params["matmul.W_B"].holders == {"U": "B", "V(A1)": "A1", "V(A2)": "A2"}
    assert params["matmul.W_A2"].shape == (4, 1)


def test_multiparty_momentum_training_steps(rng):
    ctx = mp_ctx(m=2)
    layer = MatMulSource(ctx, {"A1": 3, "A2": 3}, in_b=3, out_dim=1)
    w = layer.reveal_weights()
    ref = {k: v.copy() for k, v in w.items()}
    vel = {k: np.zeros_like(v) for k, v in w.items()}
    for _ in range(2):
        x = {n: rng.normal(size=(4, 3)) for n in ("A1", "A2", "B")}
        layer.forward(x, x["B"])
        gz = rng.normal(size=(4, 1)) * 0.1
        layer.backward(gz)
        layer.apply_updates(lr=0.05, momentum=0.9)
        for n in ("A1", "A2", "B"):
            vel[f"W_{n}"] = 0.9 * vel[f"W_{n}"] + x[n].T @ gz
            ref[f"W_{n}"] -= 0.05 * vel[f"W_{n}"]
    w1 = layer.reveal_weights()
    for k in ref:
        np.testing.assert_allclose(w1[k], ref[k], atol=1e-4)


# ---------- one checkpoint format for every placement ----------


def _trained_mp_model(path=None, steps=2):
    ctx = mp_ctx(m=2, seed=31)
    model = MultiPartyLR(ctx, {"A1": 3, "A2": 2}, in_b=2)
    rng = np.random.default_rng(3)
    x = {"A1": rng.normal(size=(8, 3)), "A2": rng.normal(size=(8, 2)), "B": rng.normal(size=(8, 2))}
    y = (rng.random(8) < 0.5).astype(np.float64)
    losses = [model.train_step(x, y, lr=0.1) for _ in range(steps)]
    if path is not None:
        save_endpoint_checkpoint(path, model, step=steps, losses=losses)
    return model, x, y, losses


def test_all_local_checkpoint_round_trip_is_bit_identical(tmp_path):
    """The all-local layer is one endpoint hosting every party: its state
    goes through the same format and resumes bit-identically."""
    path = str(tmp_path / "mp.ckpt")
    _trained_mp_model(path, steps=2)
    straight, x, y, losses = _trained_mp_model(steps=4)
    resumed, _, _, _ = _trained_mp_model(steps=0)
    step, saved = restore_endpoint_checkpoint(path, resumed)
    assert step == 2 and saved == losses[:2]
    tail = [resumed.train_step(x, y, lr=0.1) for _ in range(2)]
    assert saved + tail == losses
    for name, arr in straight.source.piece_views().items():
        np.testing.assert_array_equal(resumed.source.piece_views()[name], arr)


def test_checkpoint_state_is_the_local_slice():
    layer = _trained_mp_model(steps=1)[0].source
    kind, step, a_section, b_section = layer.checkpoint_state()
    assert (kind, step) == ("matmul", 1)
    assert [entry[0] for entry in a_section] == ["A1", "A2"]
    assert [entry[0] for entry in b_section[2]] == ["A1", "A2"]
    # A slice another endpoint wrote is refused: wrong actor sets.
    state = (kind, step, a_section[:1], b_section)
    with pytest.raises(ValueError, match="covers A parties"):
        layer.load_checkpoint_state(state)
    with pytest.raises(ValueError, match="hosting Party B"):
        layer.load_checkpoint_state((kind, step, a_section, None))
    u_b, vel_u_b, pairs = b_section
    with pytest.raises(ValueError, match="V_A pieces cover"):
        layer.load_checkpoint_state((kind, step, a_section, (u_b, vel_u_b, pairs[1:])))
    # Piece shapes from a differently sized model are refused.
    other = MatMulSource(mp_ctx(m=2, seed=31), {"A1": 4, "A2": 2}, in_b=2, out_dim=1)
    with pytest.raises(ValueError, match="shape"):
        other.load_checkpoint_state(layer.checkpoint_state())
    with pytest.raises(ValueError, match="MatMul source"):
        layer.load_checkpoint_state(("embed",) + (step, a_section, b_section))
    assert layer.checkpoint_state()[1] == 1  # rejected loads changed nothing


# ---------- Appendix B: SS-based top model ----------


def test_ss_top_backward_matches_plaintext(rng):
    """Figure 13 backward must equal the plaintext update exactly."""
    ctx = two_ctx()
    layer = MatMulSource(ctx, 4, 3, 1, name="sst")
    w0 = layer.reveal_weights()
    x_a = rng.normal(size=(6, 4))
    x_b = rng.normal(size=(6, 3))
    z_a, z_b = layer.forward_shares(x_a, x_b)
    w = layer.reveal_weights()
    np.testing.assert_allclose(
        z_a + z_b, x_a @ w["W_A"] + x_b @ w["W_B"], atol=1e-5
    )
    grad_z = rng.normal(size=(6, 1)) * 0.1
    eps = rng.uniform(-100, 100, size=(6, 1))
    matmul_backward_from_shares(layer, eps, grad_z - eps, lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    np.testing.assert_allclose(w1["W_A"], w0["W_A"] - 0.1 * x_a.T @ grad_z, atol=1e-4)
    np.testing.assert_allclose(w1["W_B"], w0["W_B"] - 0.1 * x_b.T @ grad_z, atol=1e-4)


def test_ss_top_second_iteration_consistent(rng):
    """After the dual refresh, the next forward uses the updated weights."""
    ctx = two_ctx()
    layer = MatMulSource(ctx, 3, 3, 1, name="sst2")
    x_a, x_b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    layer.forward_shares(x_a, x_b)
    grad_z = rng.normal(size=(4, 1)) * 0.1
    eps = rng.uniform(-10, 10, size=(4, 1))
    matmul_backward_from_shares(layer, eps, grad_z - eps, lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    z_a, z_b = layer.forward_shares(x_a, x_b)
    np.testing.assert_allclose(
        z_a + z_b, x_a @ w1["W_A"] + x_b @ w1["W_B"], atol=1e-4
    )


def test_ideal_ss_top_grad_is_bce_grad(rng):
    top = IdealSSTop(rng)
    z_a = rng.normal(size=(8, 1))
    z_b = rng.normal(size=(8, 1))
    y = rng.integers(0, 2, size=(8, 1)).astype(float)
    eps, rest, loss = top.backward_shares(z_a, z_b, y)
    z = z_a + z_b
    probs = 1 / (1 + np.exp(-z))
    np.testing.assert_allclose(eps + rest, (probs - y) / 8, atol=1e-9)
    assert loss > 0


def test_train_lr_with_ss_top_converges():
    full = make_dense_classification(160, 8, seed=40, flip=0.02, nonlinear=False)
    train = split_vertical(full.subset(np.arange(120)))
    test = split_vertical(full.subset(np.arange(120, 160)))
    ctx = two_ctx()
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.9)
    layer, history = train_lr_with_ss_top(ctx, train, cfg, test_data=test)
    assert history.losses[-1] < history.losses[0]
    assert history.epoch_metrics[-1] > 0.6
    # Party B never received the aggregated Z: no OUTPUT_SHARE messages.
    kinds = {m.kind for m in ctx.channel.transcript}
    assert MessageKind.OUTPUT_SHARE not in kinds
    assert MessageKind.PLAINTEXT not in kinds

"""Self-tests for the benchmark's own logic (span arithmetic, wrapping,
percentile rule, seeded inputs, metric names).

Run:  python3 -m pytest -q perfbench
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=-1, amount=None):
    return [name, start, end, parent, amount]


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span("step", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_clips_and_merges_children():
    # Overlapping children count once; a child running past its parent's
    # end is clipped to the parent.
    trace = [
        _span("p", 0.0, 10.0),
        _span("c1", 2.0, 6.0, 0),
        _span("c2", 4.0, 7.0, 0),
        _span("c3", 9.0, 12.0, 0),
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_fold_counts_calls_self_time_and_send_bytes():
    trace = [
        _span("step", 0.0, 10.0),
        _span("comm.channel.send", 1.0, 3.0, 0),
        _span("comm.codec.encode_message", 1.5, 2.5, 1, 100),
        _span("comm.channel.send", 4.0, 5.0, 0),
        _span("comm.codec.encode_message", 4.0, 4.5, 3, 40),
        # Encoded outside any send: counted by the codec, not the channel.
        _span("comm.codec.encode_message", 6.0, 6.5, 0, 7),
    ]
    stats = spans.fold(trace)
    assert stats["comm.channel.send"]["calls"] == 2
    assert stats["comm.channel.send"]["self_s"] == pytest.approx(1.5)
    assert stats["comm.channel.send"]["bytes"] == 140
    assert stats["comm.codec.encode_message"]["bytes"] == 147
    assert stats["step"]["self_s"] == pytest.approx(10.0 - 2.0 - 1.0 - 0.5)
    own, total = spans.unattributed(trace)
    assert (own, total) == pytest.approx((6.5, 10.0))


def test_folded_lines_key_by_stack_path():
    trace = [_span("step", 0.0, 2.0), _span("x", 0.5, 1.0, 0), _span("x", 1.0, 1.5, 0)]
    assert spans.folded_lines(trace, prefix="r;") == ["r;step 1000000", "r;step;x 1000000"]


def test_percentile_rule_needs_ten_samples_beyond():
    assert run.reportable_percentiles(1) == [50]
    assert run.reportable_percentiles(99) == [50]
    assert run.reportable_percentiles(100) == [50, 90]
    assert run.reportable_percentiles(999) == [50, 90]
    assert run.reportable_percentiles(1000) == [50, 90, 99]
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_scaled_times_use_the_reference_passes_either_side():
    nominal = workloads.REF_NOMINAL_S
    refs = [(nominal, 1.0), (2 * nominal, 1.0), (nominal, 3.0)]
    assert run.scaled([3.0, 3.0], refs) == pytest.approx([2.0, 2.0])
    assert run.scaled([3.0, 3.0], refs, clock=1) == pytest.approx([3.0 * nominal, 1.5 * nominal])


def test_recorder_ignores_calls_while_inactive_and_on_other_threads():
    rec = spans.SpanRecorder()
    with rec.span("step"):
        pass
    assert rec.spans == []
    rec.active = True
    other = threading.Thread(target=lambda: rec.span("step").__enter__())
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()
    assert rec.spans == []
    with rec.span("step"):
        pass
    assert [s[0] for s in rec.spans] == ["step"]


def test_patch_wraps_every_binding_and_restores_it():
    import repro.core.embed_matmul_layer as embed
    import repro.core.matmul_layer as matmul
    import repro.crypto.crypto_tensor as ct
    import repro.crypto.secret_sharing as ss
    from repro.crypto.paillier import PaillierPublicKey

    before = {
        "ct": ct.matmul_plain_cipher,
        "matmul": matmul.matmul_plain_cipher,
        "embed": embed.matmul_plain_cipher,
        "recv": matmul.he2ss_receive,
        "blind": PaillierPublicKey.__dict__["blinding_factors"],
        "encrypt": ct.CryptoTensor.__dict__["encrypt"],
    }
    assert before["ct"] is before["matmul"] is before["embed"]
    rec = spans.SpanRecorder()
    with spans.Patch(rec):
        assert ct.matmul_plain_cipher is matmul.matmul_plain_cipher is embed.matmul_plain_cipher
        assert ct.matmul_plain_cipher is not before["ct"]
        assert ss.he2ss_receive is matmul.he2ss_receive is embed.he2ss_receive
        assert matmul.he2ss_receive is not before["recv"]
        assert isinstance(ct.CryptoTensor.__dict__["encrypt"], classmethod)
        assert ct.CryptoTensor.__dict__["encrypt"] is not before["encrypt"]
    assert ct.matmul_plain_cipher is before["ct"]
    assert matmul.matmul_plain_cipher is before["matmul"]
    assert embed.matmul_plain_cipher is before["embed"]
    assert matmul.he2ss_receive is before["recv"]
    assert PaillierPublicKey.__dict__["blinding_factors"] is before["blind"]
    assert ct.CryptoTensor.__dict__["encrypt"] is before["encrypt"]


def test_patch_records_generator_items_and_blinders():
    from repro.crypto.paillier import generate_paillier_keypair
    from repro.data import BatchLoader

    inputs = workloads.make_inputs(workloads.WORKLOADS["dlrm-infer"], seed=0)
    public_key, _ = generate_paillier_keypair(256, seed=0)
    rec = spans.SpanRecorder()
    with spans.Patch(rec):
        rec.active = True
        with rec.span("step"):
            batches = list(BatchLoader(inputs.heldout, 64, shuffle=False))
            public_key.blinding_factors(3)
        rec.active = False
    stats = spans.fold(rec.spans)
    # One span per resumption: each batch, plus the one that ends the loop.
    assert len(batches) == inputs.heldout.n // 64
    assert stats["data.loader.batches"]["calls"] == len(batches) + 1
    assert stats["crypto.paillier.blinding_factors"]["blinders"] == 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]

    def fingerprint(seed):
        inputs = workloads.make_inputs(w, seed)
        parts = [inputs.train.y, inputs.heldout.y]
        for data in (inputs.train, inputs.heldout):
            for party in ("A", "B"):
                block = data.party(party).numeric_block()
                parts.append(workloads._dense(block))
                if data.party(party).x_cat is not None:
                    parts.append(data.party(party).x_cat)
        return parts

    first, again, other = fingerprint(3), fingerprint(3), fingerprint(4)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    wrapped = {name for name, _, _ in spans.LAYER_FUNCTIONS}
    for w in workloads.WORKLOADS.values():
        assert set(w.exercised) <= wrapped

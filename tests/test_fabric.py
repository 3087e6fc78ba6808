"""N-party fabric tests: non-mirrored endpoints over the link grid.

The tier-1 core runs one 3-endpoint federation (two Party A processes
plus the key owner) under a hard timeout and checks it is bit-identical
to the all-local in-memory tier — losses float-exact, weight pieces
array-equal — plus a golden-transcript conformance check of the
non-mirrored protocol and the cross-endpoint trace collector.  The wider
grids (4+ endpoint processes) carry the ``nparty`` marker.

Program functions live at module scope so the runner works under both
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import golden_transcript
from repro.comm.codec import message_summary
from repro.comm.fabric import FabricTopology, run_federation
from repro.comm.party import VFLConfig, VFLContext
from repro.comm.transport import FatalTransportError
from repro.core.matmul_layer import MatMulSource
from repro.core.models import MultiPartyLR
from repro.obs import JsonlSink, Tracer, use_tracer
from repro.obs import span as obs_span
from repro.obs.collect import (
    chrome_timeline,
    cross_role_overlap,
    merge_traces,
    read_jsonl_trace,
)

FABRIC_TIMEOUT = 90.0
TRAIN_STEPS = 3
TRAIN_LR = 0.1

GRID3 = {"ep_a1": ("A1",), "ep_a2": ("A2",), "ep_b": ("B",)}
IN_DIMS = {"A1": 3, "A2": 2}
IN_B = 2

# Counters that must stay zero on a clean loopback run: the reliability
# layer may only contribute the fixed envelope, never recovery traffic.
CLEAN_ZERO = (
    "retransmits",
    "naks_sent",
    "naks_received",
    "duplicates_dropped",
    "corrupt_dropped",
    "timeouts",
    "reconnects",
    "resumes",
)


def _batches():
    rng = np.random.default_rng(42)
    x = {
        "A1": rng.normal(size=(12, 3)),
        "A2": rng.normal(size=(12, 2)),
        "B": rng.normal(size=(12, 2)),
    }
    y = (rng.random(12) < 0.5).astype(np.float64)
    return x, y


def _make_ctx(channel=None, n_a=2, channel_kind=None):
    local = getattr(channel, "local_parties", None)
    cfg_kwargs = {} if channel_kind is None else {"channel": channel_kind}
    return VFLContext(
        VFLConfig(key_bits=128, **cfg_kwargs),
        seed=5,
        n_a_parties=n_a,
        channel=channel,
        local_parties=local,
    )


def train_program(channel, in_dims, steps=TRAIN_STEPS, traced_dir=None):
    """Per-endpoint training: each process runs only its parties' side."""
    ctx = _make_ctx(channel, n_a=len(in_dims))
    model = MultiPartyLR(ctx, dict(in_dims), IN_B)
    x_full, y = _batches()
    if len(in_dims) != 2:  # wider grids re-slice the A features
        rng = np.random.default_rng(42)
        x_full = {
            name: rng.normal(size=(12, dim)) for name, dim in in_dims.items()
        }
        x_full["B"] = rng.normal(size=(12, IN_B))
    x = {k: v for k, v in x_full.items() if ctx.is_local(k)}
    labels = y if ctx.is_local("B") else None

    tracer = None
    if traced_dir is not None:
        tracer = Tracer(
            sink=JsonlSink(os.path.join(traced_dir, f"{channel.role}.jsonl"))
        )
    losses = []
    with use_tracer(tracer):
        for k in range(steps):
            with obs_span("batch", batch=k):
                losses.append(model.train_step(x, labels, lr=TRAIN_LR))
    return {
        "losses": losses,
        "pieces": model.source.piece_views(),
        "bytes_by_sender": dict(channel.bytes_by_sender),
    }


def _memory_reference(in_dims=IN_DIMS, steps=TRAIN_STEPS, channel_kind=None):
    """The all-local run every fabric trajectory must reproduce exactly."""
    ctx = _make_ctx(n_a=len(in_dims), channel_kind=channel_kind)
    model = MultiPartyLR(ctx, dict(in_dims), IN_B)
    x, y = _batches()
    if len(in_dims) != 2:
        rng = np.random.default_rng(42)
        x = {name: rng.normal(size=(12, dim)) for name, dim in in_dims.items()}
        x["B"] = rng.normal(size=(12, IN_B))
    losses = [model.train_step(x, y, lr=TRAIN_LR) for _ in range(steps)]
    return losses, model.source.piece_views(), ctx.channel


def _assert_clean(stats: dict) -> None:
    for key in CLEAN_ZERO:
        assert stats[key] == 0, f"link counter {key} nonzero: {stats}"


# ---------------------------------------------------------------------------
# Topology and driver validation (no processes spawned).


def test_topology_validation():
    topo = FabricTopology(GRID3)
    assert set(topo.parties) == {"A1", "A2", "B"}
    assert topo.home_of("A2") == "ep_a2"
    with pytest.raises(LookupError, match="not placed"):
        topo.home_of("A9")
    with pytest.raises(ValueError, match="at least two"):
        FabricTopology({"solo": ("A1", "A2", "B")})
    with pytest.raises(ValueError, match="hosts no parties"):
        FabricTopology({"x": (), "y": ("B",)})
    with pytest.raises(ValueError, match="claimed by both"):
        FabricTopology({"x": ("A1", "B"), "y": ("B",)})


def test_run_federation_mode_validation():
    from repro.comm.faults import FaultPlan

    plan = FaultPlan.seeded(1, frames=10, drop_rate=0.5)
    with pytest.raises(ValueError, match="exactly two endpoints"):
        run_federation(train_program, roles=GRID3, mirror=True)
    with pytest.raises(ValueError, match="fabric-mode only"):
        run_federation(
            train_program,
            roles={"guest": ("A1", "A2"), "host": ("B",)},
            resume_from="ckpt",
        )
    with pytest.raises(ValueError, match="must be a FaultPlan"):
        run_federation(
            train_program, roles=GRID3, fault_plans={"ep_b": object()}
        )
    with pytest.raises(ValueError, match="unknown fabric role"):
        run_federation(
            train_program, roles=GRID3, fault_plans={("ep_zz", "ep_b"): plan}
        )
    with pytest.raises(ValueError, match="two distinct roles"):
        run_federation(
            train_program, roles=GRID3, fault_plans={("ep_b", "B"): plan}
        )
    with pytest.raises(ValueError, match="role name or a"):
        run_federation(
            train_program,
            roles=GRID3,
            fault_plans={("ep_a1", "ep_a2", "ep_b"): plan},
        )
    with pytest.raises(ValueError, match="sock_timeout must be positive"):
        run_federation(train_program, roles=GRID3, sock_timeout=0.0)


def test_per_link_plan_addressing():
    """Directed pairs, party-name aliases, and role shorthand normalise."""
    from repro.comm.faults import FaultPlan, per_link_plans

    a = FaultPlan.seeded(1, frames=5, drop_rate=0.5)
    b = FaultPlan.seeded(2, frames=5, corrupt_rate=0.5)
    aliases = {p: r for r, ps in GRID3.items() for p in ps}
    plans = per_link_plans(
        {("A1", "B"): a, "ep_b": b}, GRID3, aliases
    )
    # The pair key targets one direction; the shorthand fans out to every
    # outbound link of the key owner.
    assert plans["ep_a1"] == {"ep_b": a}
    assert plans["ep_b"] == {"ep_a1": b, "ep_a2": b}
    assert "ep_a2" not in plans
    # An explicit pair overrides the shorthand for the same link.
    plans = per_link_plans(
        {"ep_b": b, ("ep_b", "ep_a2"): a}, GRID3, aliases
    )
    assert plans["ep_b"] == {"ep_a1": b, "ep_a2": a}


def test_fabric_endpoint_rejects_remote_actors():
    """No mirroring: acting for a party homed elsewhere is fatal."""
    import socket

    from repro.comm.fabric import FabricChannel
    from repro.comm.message import MessageKind

    listener = socket.create_server(("127.0.0.1", 0))
    ch = FabricChannel("ep_a1", FabricTopology(GRID3), {}, listener)
    try:
        with pytest.raises(FatalTransportError, match="do not mirror"):
            ch.send("B", "A1", "t", 1.0, MessageKind.PUBLIC)
        with pytest.raises(FatalTransportError, match="do not mirror"):
            ch.recv("B")
    finally:
        ch.shutdown()


# ---------------------------------------------------------------------------
# The core 3-endpoint run: bit-identical, clean links, structured result.


def test_three_endpoints_bit_identical():
    ref_losses, ref_pieces, _ = _memory_reference()
    out = run_federation(
        train_program,
        (IN_DIMS,),
        roles=GRID3,
        timeout=FABRIC_TIMEOUT,
    )
    # Structured shape: role results never share a namespace with stats.
    assert set(out) == {"results", "link_stats"}
    results = out["results"]
    assert set(results) == set(GRID3)

    # Losses materialise at the key owner only and are float-exact.
    assert results["ep_b"]["losses"] == ref_losses
    assert results["ep_a1"]["losses"] == [None] * TRAIN_STEPS
    assert results["ep_a2"]["losses"] == [None] * TRAIN_STEPS

    # Pooled per-endpoint weight pieces == the all-local model's pieces,
    # array-equal: blinders and HE2SS masks cancelled exactly.
    pooled = {}
    for role in GRID3:
        pieces = results[role]["pieces"]
        assert not set(pieces) & set(pooled), "piece owned by two endpoints"
        pooled.update(pieces)
    assert set(pooled) == set(ref_pieces)
    for name, arr in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], arr, err_msg=name)

    # Every protocol message touches the key owner, so its two links
    # carry everything; A1<->A2 never talk and must never have dialled.
    stats = out["link_stats"]
    assert set(stats["ep_b"]) == {"ep_a1", "ep_a2"}
    assert set(stats["ep_a1"]) == {"ep_b"}
    assert set(stats["ep_a2"]) == {"ep_b"}
    for role, per_peer in stats.items():
        for peer, ledger in per_peer.items():
            _assert_clean(ledger)
            mirror = stats[peer][role]
            assert ledger["data_sent"] == mirror["data_received"]
            assert ledger["data_received"] == mirror["data_sent"]
            assert ledger["data_sent"] > 0


def test_fabric_byte_ledger_reconciles_with_serializing_tier():
    """The key owner's ledger (every message touches B) equals the
    all-local serializing run's per-sender byte ledger exactly."""
    _, _, channel = _memory_reference(channel_kind="serializing")
    out = run_federation(
        train_program, (IN_DIMS,), roles=GRID3, timeout=FABRIC_TIMEOUT
    )
    assert out["results"]["ep_b"]["bytes_by_sender"] == dict(
        channel.bytes_by_sender
    )


def test_colocated_parties_short_circuit():
    """A role hosting two parties keeps their hops in-process (codec
    round-trip, no socket) and still matches the reference trajectory."""
    ref_losses, ref_pieces, _ = _memory_reference()
    out = run_federation(
        train_program,
        (IN_DIMS,),
        roles={"edge": ("A1",), "hub": ("A2", "B")},
        mirror=False,  # two endpoints default to the mirrored tier
        timeout=FABRIC_TIMEOUT,
    )
    results = out["results"]
    assert results["hub"]["losses"] == ref_losses
    pooled = {**results["edge"]["pieces"], **results["hub"]["pieces"]}
    for name, arr in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], arr, err_msg=name)
    # A2<->B ran co-located: the only link in the grid is edge<->hub.
    assert set(out["link_stats"]["edge"]) == {"hub"}
    assert set(out["link_stats"]["hub"]) == {"edge"}


def test_pipelined_run_bit_identical_and_overlapping(tmp_path):
    """Pipelining reorders wall-clock only: the trajectory is unchanged,
    and the merged timeline shows batch k+1 compute over batch k frames."""
    ref_losses, ref_pieces, _ = _memory_reference(steps=4)
    trace_dir = str(tmp_path)
    out = run_federation(
        train_program,
        (IN_DIMS, 4, trace_dir),
        roles=GRID3,
        timeout=FABRIC_TIMEOUT,
        pipeline=True,
    )
    results = out["results"]
    assert results["ep_b"]["losses"] == ref_losses
    pooled = {}
    for role in GRID3:
        pooled.update(results[role]["pieces"])
    for name, arr in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], arr, err_msg=name)
    for per_peer in out["link_stats"].values():
        for ledger in per_peer.values():
            _assert_clean(ledger)

    # --- the collector on real per-endpoint traces -----------------------
    traces = {
        role: read_jsonl_trace(os.path.join(trace_dir, f"{role}.jsonl"))
        for role in GRID3
    }
    merged = merge_traces(traces)
    ids = [s["id"] for s in merged]
    assert len(ids) == len(set(ids)), "merged span ids must be unique"
    assert all(s["id"].startswith(f"{s['role']}:") for s in merged)

    timeline = chrome_timeline(merged)
    lanes = {
        e["args"]["name"]: e["pid"]
        for e in timeline["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert set(lanes) == set(GRID3), "one process lane per endpoint"
    assert len(set(lanes.values())) == len(GRID3)

    # Pipelining evidence: some endpoint's batch k+1 span overlaps
    # another endpoint's still-running batch k span — async sends mean
    # batch k's frames are still in flight (transfer + decode at the
    # peer) while the next batch's compute has already started.
    # perf_counter is CLOCK_MONOTONIC on Linux: one axis across the
    # local endpoint processes.
    def batch_intervals(role):
        spans = [
            s for s in merged if s["role"] == role and s.get("phase") == "batch"
        ]
        return {
            s["attrs"]["batch"]: (s["t_start"], s["t_start"] + s["dur_s"])
            for s in spans
        }

    intervals = {role: batch_intervals(role) for role in GRID3}
    assert all(set(iv) == {0, 1, 2, 3} for iv in intervals.values())
    overlapped = [
        (ahead, behind, k)
        for ahead in GRID3
        for behind in GRID3
        if ahead != behind
        for k in (0, 1, 2)
        if max(intervals[ahead][k + 1][0], intervals[behind][k][0])
        < min(intervals[ahead][k + 1][1], intervals[behind][k][1])
    ]
    assert overlapped, "no batch k+1 span overlapped a peer's batch k"
    assert cross_role_overlap(merged, phase="batch") > 0.0


# ---------------------------------------------------------------------------
# Golden conformance: the non-mirrored protocol on the wire.


def transcript_program(channel):
    """The golden ``multiparty`` scenario, executed non-mirrored."""
    local = getattr(channel, "local_parties", None)
    ctx = VFLContext(
        VFLConfig(key_bits=128),
        seed=77,
        n_a_parties=2,
        channel=channel,
        local_parties=local,
    )
    layer = MatMulSource(ctx, {"A1": 3, "A2": 2}, in_b=2, out_dim=2, name="gm")
    # Every endpoint replays the full draw sequence so B's grad matches
    # the golden stream; only local slices are ever fed to the layer.
    rng = np.random.default_rng(13)
    x_full = {
        "A1": rng.normal(size=(3, 3)),
        "A2": rng.normal(size=(3, 2)),
        "B": rng.normal(size=(3, 2)),
    }
    grad = rng.normal(size=(3, 2)) * 0.1
    x = {k: v for k, v in x_full.items() if ctx.is_local(k)}
    layer.forward(x, x.get("B"))
    layer.backward(grad if ctx.is_local("B") else None)
    layer.apply_updates(lr=0.05, momentum=0.9)
    return [message_summary(m) for m in channel.transcript]


def _by_pair(records):
    """Group summaries by directed (sender, receiver) pair, seq dropped.

    Cross-sender arrival order is scheduling-dependent and per-endpoint
    ``seq`` counters differ from the all-local global counter; per-pair
    FIFO order, tags, kinds, frame sizes and payload headers are the
    protocol and must match the golden exactly.
    """
    pairs: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        rec = {k: v for k, v in rec.items() if k != "seq"}
        pairs.setdefault((rec["sender"], rec["receiver"]), []).append(rec)
    return pairs


def test_fabric_transcript_matches_multiparty_golden():
    golden = json.loads(golden_transcript.GOLDEN_PATH.read_text())
    expected = _by_pair(golden["multiparty"])
    out = run_federation(
        transcript_program, roles=GRID3, timeout=FABRIC_TIMEOUT
    )
    locals_of = {role: set(parties) for role, parties in GRID3.items()}
    for role, records in out["results"].items():
        actual = _by_pair(records)
        # An endpoint's transcript covers exactly the directed pairs that
        # touch its local parties — outbound at send, inbound at decode.
        touching = {
            pair
            for pair in expected
            if set(pair) & locals_of[role]
        }
        assert set(actual) == touching, f"{role}: unexpected pair set"
        for pair, msgs in actual.items():
            assert msgs == expected[pair], f"{role}: pair {pair} diverged"
    # The key owner saw every protocol message (no A<->A traffic exists).
    assert set(_by_pair(out["results"]["ep_b"])) == set(expected)


# ---------------------------------------------------------------------------
# Collector unit tests (synthetic traces).


def _span(sid, t0, dur, phase="batch", parent=None, party=None, **attrs):
    return {
        "id": sid,
        "parent": parent,
        "phase": phase,
        "party": party,
        "t_start": t0,
        "dur_s": dur,
        "attrs": attrs,
        "counters": {},
    }


def test_merge_traces_namespaces_and_orders():
    merged = merge_traces(
        {
            "b": [_span("s0", 1.0, 0.5), _span("s1", 2.0, 0.5, parent="s0")],
            "a": [_span("s0", 0.0, 0.5)],  # raw id collides across roles
        }
    )
    assert [s["id"] for s in merged] == ["a:s0", "b:s0", "b:s1"]
    assert merged[2]["parent"] == "b:s0"
    assert merged[0]["parent"] is None
    assert [s["role"] for s in merged] == ["a", "b", "b"]


def test_merge_traces_rejects_duplicate_id_within_role():
    with pytest.raises(ValueError, match="duplicate span id"):
        merge_traces({"a": [_span("s0", 0.0, 1.0), _span("s0", 2.0, 1.0)]})


def test_read_jsonl_trace_validates(tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text(
        json.dumps(_span("s0", 0.0, 1.0)) + "\n\n"  # blank lines skipped
        + json.dumps(_span("s1", 1.0, 1.0)) + "\n"
    )
    assert [s["id"] for s in read_jsonl_trace(str(good))] == ["s0", "s1"]
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text("{not json\n")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        read_jsonl_trace(str(bad_json))
    no_id = tmp_path / "noid.jsonl"
    no_id.write_text('{"phase": "batch"}\n')
    with pytest.raises(ValueError, match="no 'id' field"):
        read_jsonl_trace(str(no_id))


def test_chrome_timeline_one_lane_per_role():
    merged = merge_traces(
        {
            "a": [_span("s0", 0.0, 1.0, party="A1", batch=0)],
            "b": [
                _span("s0", 0.2, 1.0, party="B", batch=0),
                _span("s1", 1.4, 1.0, party="B", batch=1),
            ],
        }
    )
    timeline = chrome_timeline(merged)
    names = {
        e["args"]["name"]: e["pid"]
        for e in timeline["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert set(names) == {"a", "b"}
    assert len(set(names.values())) == 2
    events = [e for e in timeline["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in events} == set(names.values())
    assert all(e["args"]["span_id"].count(":") == 1 for e in events)
    by_id = {e["args"]["span_id"]: e for e in events}
    assert by_id["a:s0"]["ts"] == 0.0 and by_id["a:s0"]["dur"] == 1e6
    assert by_id["b:s0"]["args"]["batch"] == 0


def test_cross_role_overlap_sweep():
    merged = merge_traces(
        {
            "a": [_span("s0", 0.0, 1.0)],
            "b": [_span("s0", 0.5, 1.0)],  # overlaps a:s0 on [0.5, 1.0]
        }
    )
    assert cross_role_overlap(merged) == pytest.approx(0.5)
    # Same-role concurrency is not cross-role overlap.
    solo = merge_traces(
        {"a": [_span("s0", 0.0, 1.0), _span("s1", 0.2, 1.0)]}
    )
    assert cross_role_overlap(solo) == 0.0
    assert cross_role_overlap(merged, phase="other") == 0.0


# ---------------------------------------------------------------------------
# Wider grids (4+ endpoint processes) — opt in with ``pytest -m nparty``.


@pytest.mark.nparty
def test_four_endpoint_grid_bit_identical():
    in_dims = {"A1": 3, "A2": 2, "A3": 2}
    ref_losses, ref_pieces, _ = _memory_reference(in_dims=in_dims)
    out = run_federation(
        train_program,
        (in_dims,),
        roles={
            "ep_a1": ("A1",),
            "ep_a2": ("A2",),
            "ep_a3": ("A3",),
            "ep_b": ("B",),
        },
        timeout=FABRIC_TIMEOUT * 2,
    )
    results = out["results"]
    assert results["ep_b"]["losses"] == ref_losses
    pooled = {}
    for role in results:
        pooled.update(results[role]["pieces"])
    assert set(pooled) == set(ref_pieces)
    for name, arr in ref_pieces.items():
        np.testing.assert_array_equal(pooled[name], arr, err_msg=name)
    # Star topology: every link touches the key owner, A's never connect.
    stats = out["link_stats"]
    assert set(stats["ep_b"]) == {"ep_a1", "ep_a2", "ep_a3"}
    for role in ("ep_a1", "ep_a2", "ep_a3"):
        assert set(stats[role]) == {"ep_b"}
        _assert_clean(stats[role]["ep_b"])


@pytest.mark.nparty
def test_four_endpoint_grid_pipelined_bit_identical():
    in_dims = {"A1": 3, "A2": 2, "A3": 2}
    ref_losses, _, _ = _memory_reference(in_dims=in_dims)
    out = run_federation(
        train_program,
        (in_dims,),
        roles={
            "ep_a1": ("A1",),
            "ep_a2": ("A2",),
            "ep_a3": ("A3",),
            "ep_b": ("B",),
        },
        timeout=FABRIC_TIMEOUT * 2,
        pipeline=True,
    )
    assert out["results"]["ep_b"]["losses"] == ref_losses

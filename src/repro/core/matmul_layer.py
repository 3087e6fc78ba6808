"""The MatMul federated source layer — Figure 6 and Algorithm 3 of the paper.

Computes ``Z = sum_i X_A(i) @ W_A(i) + X_B @ W_B`` for ``M >= 1`` Party
A's.  ``M = 1`` is the two-party Figure 6; ``M >= 2`` is Appendix C's
Algorithm 3, which is Figure 6 run once per A(i).  Neither party ever sees
a weight matrix, an unaggregated activation (``X_A W_A`` / ``X_B W_B``) or
a model gradient, satisfying every restriction of Table 2:

* weights are secretly shared at initialisation: ``W_A(i) = U_A(i) +
  V_A(i)`` with ``U_A(i)`` at A(i) and ``V_A(i)`` at B, and ``W_B = U_B +
  sum_i V_B(i)`` with ``V_B(i)`` at A(i).  Each party caches the
  *encrypted* piece of its own weights that the peer holds (``[[V_A(i)]]``
  at A(i), ``[[V_B(i)]]`` at B) under the peer's key;
* the forward pass turns ``X [[V]]`` into shares via HE2SS (Alg. 1) so the
  obfuscation terms cancel exactly — the layer is lossless;
* the backward pass ships ``[[grad_Z]]`` to each A(i), produces the
  secretly shared gradient ``<phi, grad_W_A(i) - phi>``, and updates both
  pieces in the complementary way ``(U - lr*phi) + (V - lr*(grad_W -
  phi))``, so ``grad_W_A(i)`` is never reconstructed anywhere.

Two refresh modes keep A(i)'s cached ``[[V_A(i)]]`` consistent after Party
B updates its plaintext ``V_A(i)`` (see ``VFLConfig.share_refresh``):
``"reencrypt"`` resends the full tensor (faithful to Figure 6);
``"delta"`` exploits sparsity — only coordinates touched by the batch are
masked, shared and refreshed, making per-iteration crypto cost O(nnz)
(the Table 5 scaling; the column support becomes visible to Party B,
a tradeoff documented in ROADMAP.md, *Source layers and Appendix C*).

Every statement belongs to one actor (some A(i) or B) and is guarded by
``ctx.is_local(actor)``.  In the single-process simulation every party is
local and the layer runs the whole interleaved schedule.  On a fabric
endpoint (:mod:`repro.comm.fabric`) only the local parties' statements
run: remote state is never built, remote RNG streams are never drawn, and
every cross-party value arrives through the channel.  Per-party draw order
does not depend on placement, and that is all bit-identity of losses and
weights needs — obfuscation blinders never survive decryption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.message import MessageKind
from repro.comm.party import VFLContext
from repro.crypto.crypto_tensor import (
    CryptoTensor,
    matmul_plain_cipher,
    sparse_matmul_cipher,
    sparse_t_matmul_cipher,
)
from repro.crypto.packing import PackedCryptoTensor
from repro.crypto.parallel import ParallelContext
from repro.crypto.secret_sharing import he2ss_receive
from repro.core.federated import FederatedParameter, SourceLayer
from repro.obs import tracer as _obs
from repro.tensor.sparse import CSRMatrix

__all__ = ["MatMulSource", "matmul_any"]


def _batch_rows(x: object) -> int:
    """Row count of a dense or CSR batch (tolerates plain sequences)."""
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0])
    return int(np.asarray(x).shape[0])


def matmul_any(x: np.ndarray | CSRMatrix, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for dense or CSR ``x`` (plaintext, local to one party)."""
    if isinstance(x, CSRMatrix):
        return x.matmul_dense(w)
    return np.asarray(x, dtype=np.float64) @ w


def t_matmul_any(x: np.ndarray | CSRMatrix, g: np.ndarray) -> np.ndarray:
    """``x.T @ g`` for dense or CSR ``x``."""
    if isinstance(x, CSRMatrix):
        return x.t_matmul_dense(g)
    return np.asarray(x, dtype=np.float64).T @ g


def _matmul_cipher(
    x: np.ndarray | CSRMatrix,
    ct: CryptoTensor | PackedCryptoTensor,
    parallel: ParallelContext | None = None,
) -> CryptoTensor | PackedCryptoTensor:
    """``x @ [[v]]`` for dense or CSR ``x`` (homomorphic).

    A packed ``[[v]]`` (lanes along the output dimension) yields a packed
    product: each plaintext entry scales a whole row segment with one
    exponentiation, the slot-count saving of the packing subsystem.
    """
    if isinstance(x, CSRMatrix):
        return sparse_matmul_cipher(x, ct, parallel=parallel)
    return matmul_plain_cipher(np.asarray(x, dtype=np.float64), ct, parallel=parallel)


def _t_matmul_cipher(
    x: np.ndarray | CSRMatrix,
    ct: CryptoTensor,
    columns: np.ndarray | None = None,
    parallel: ParallelContext | None = None,
) -> CryptoTensor:
    """``x.T @ [[g]]`` for dense or CSR ``x`` (homomorphic)."""
    if isinstance(x, CSRMatrix):
        return sparse_t_matmul_cipher(x, ct, columns=columns, parallel=parallel)
    if columns is not None:
        x = np.asarray(x)[:, columns]
    return matmul_plain_cipher(np.asarray(x, dtype=np.float64).T, ct, parallel=parallel)


@dataclass
class _AState:
    """Party A(i)'s holdings for this layer."""

    u: np.ndarray  # U_A(i): own piece of own weights
    v_b: np.ndarray  # V_B(i): A(i)'s piece of Party B's weights
    enc_v_own: CryptoTensor | PackedCryptoTensor  # [[V_A(i)]] under B's key
    # Velocity buffers are derived from the pieces in __post_init__; they
    # are never constructor arguments and never None after construction.
    vel_u: np.ndarray = field(init=False)
    vel_v_b: np.ndarray = field(init=False)
    x_cache: object = None
    pending: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vel_u = np.zeros_like(self.u)
        self.vel_v_b = np.zeros_like(self.v_b)


@dataclass
class _BState:
    """Party B's holdings: ``U_B`` plus one entry per A(i) in each dict."""

    u: np.ndarray  # U_B
    v_a: dict[str, np.ndarray] = field(default_factory=dict)  # V_A(i)
    vel_v_a: dict[str, np.ndarray] = field(default_factory=dict)
    enc_v_b: dict = field(default_factory=dict)  # [[V_B(i)]] under A(i)'s key
    vel_u: np.ndarray = field(init=False)
    x_cache: object = None
    pending: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vel_u = np.zeros_like(self.u)


class MatMulSource(SourceLayer):
    """Federated ``Z = sum_i X_A(i) W_A(i) + X_B W_B`` for numerical features.

    ``in_a`` is an ``int`` with one Party A, and a ``{A name: dim}`` dict
    covering ``ctx.a_names`` with several.  The A inputs of :meth:`forward`
    take the same form: one array, or a dict of this endpoint's local A
    parties (entries for remote parties are ignored).
    """

    def __init__(
        self,
        ctx: VFLContext,
        in_a: int | dict[str, int],
        in_b: int,
        out_dim: int,
        init_scale: float = 0.05,
        name: str = "matmul",
        parallel: ParallelContext | None = None,
    ):
        m = len(ctx.a_names)
        multi = isinstance(in_a, dict)
        if multi != (m > 1) or (multi and set(in_a) != set(ctx.a_names)):
            raise ValueError(
                f"in_a must be an int for one Party A and a dict covering "
                f"{ctx.a_names} for several"
            )
        in_dims = dict(in_a) if multi else {ctx.a_names[0]: in_a}
        if min(*in_dims.values(), in_b, out_dim) <= 0:
            raise ValueError("dimensions must be positive")
        local = ctx.is_local
        if ctx.config.share_refresh == "delta" and any(
            local(a_name) != local("B") for a_name in ctx.a_names
        ):
            # B learns whether a column-support message follows from
            # A(i)'s batch type, which it can only see when co-located.
            raise ValueError(
                "share_refresh='delta' needs every Party A co-located with "
                "Party B; use 'reencrypt' when they run on different endpoints"
            )
        self.ctx = ctx
        self.name = name
        # Multicore execution engine for this layer's kernels; None falls
        # back to the process default (see repro.crypto.parallel).
        self.parallel = parallel
        self.in_dims, self.in_b, self.out_dim = in_dims, in_b, out_dim
        self._step = 0
        cfg = ctx.config
        self._cfg = cfg
        b, ch = ctx.B, ctx.channel
        # Tags that would repeat across pairs carry the A party's name once
        # several A's share a tag-addressed mailbox (Appendix C naming).
        self._sfx = {a_name: "" if m == 1 else f"_{a_name}" for a_name in ctx.a_names}
        self._vb = {a_name: "_B" if m == 1 else f"B_{a_name}" for a_name in ctx.a_names}
        piece_std = init_scale / np.sqrt(2.0)
        # Figure 6 lines 1-4, once per A(i): A(i) draws U_A(i) and V_B(i);
        # B draws U_B once and V_A(i) per pair; each encrypts the V piece it
        # drew under its *own* key and ships it.  V_B(i) has std
        # piece_std / sqrt(M), so W_B = U_B + sum_i V_B(i) keeps the
        # two-party variance.  With packing on, the V pieces travel (and
        # are later consumed by the forward matmul) with ``slots`` lanes per
        # ciphertext.  Remote parties' state is never built here.
        self._a: dict[str, _AState] = {}
        self._b = (
            _BState(u=b.rng.normal(0.0, piece_std, size=(in_b, out_dim)))
            if local("B")
            else None
        )
        for a_name in ctx.a_names:
            a, vb, dim = ctx.parties[a_name], self._vb[a_name], in_dims[a_name]
            if local(a_name):
                u_a = a.rng.normal(0.0, piece_std, size=(dim, out_dim))
                v_b = a.rng.normal(0.0, piece_std / np.sqrt(m), size=(in_b, out_dim))
                ch.send(
                    a_name, b.name, f"{name}.init.encV{vb}",
                    self._encrypt_piece(a.public_key, v_b),
                    MessageKind.CIPHERTEXT,
                )
            if local("B"):
                v_a = b.rng.normal(0.0, piece_std, size=(dim, out_dim))
                enc_v_a = self._encrypt_piece(b.public_key, v_a)
                ch.send(
                    b.name, a_name, f"{name}.init.encV_{a_name}", enc_v_a,
                    MessageKind.CIPHERTEXT,
                )
                self._b.v_a[a_name] = v_a
                self._b.vel_v_a[a_name] = np.zeros_like(v_a)
            if local(a_name):
                self._a[a_name] = _AState(
                    u=u_a,
                    v_b=v_b,
                    enc_v_own=ch.recv(a_name, f"{name}.init.encV_{a_name}"),
                )
            if local("B"):
                self._b.enc_v_b[a_name] = ch.recv(b.name, f"{name}.init.encV{vb}")

    # ------------------------------------------------------------------ helpers

    def _packing_contraction(self) -> int:
        return max(*self.in_dims.values(), self.in_b, 2)

    def _local_states(self) -> list[_AState | _BState]:
        return [*self._a.values(), *([self._b] if self._b is not None else [])]

    def _sparse_delta(self, a_name: str) -> bool:
        """Whether A(i)'s cached batch takes the sparse delta refresh."""
        return self._cfg.share_refresh == "delta" and isinstance(
            self._a[a_name].x_cache, CSRMatrix
        )

    # ------------------------------------------------------------------ forward

    def _shares(self, x_a, x_b, train: bool, tag: str) -> tuple[dict, dict]:
        """Figure 6 lines 5-7 per A(i): ``({A(i): Z_A(i)}, {A(i): Z_B(i)})``.

        Each pair's shares sum to ``X_A(i) W_A(i) + X_B U_B / M + X_B
        V_B(i)``; only local actors' entries are present.
        """
        ctx, cfg = self.ctx, self._cfg
        b, ch, local = ctx.B, ctx.channel, ctx.is_local
        by_party = {ctx.a_names[0]: x_a} if len(ctx.a_names) == 1 else x_a
        xs = {a_name: by_party[a_name] for a_name in self._a}
        if local("B"):
            xs["B"] = x_b
        # The backward transfer contracts over the batch dimension; a
        # batch deeper than the packed layouts budgeted for must fail
        # loudly now.  Inference passes never run that contraction, so
        # they are exempt.
        if train:
            self._check_packing_depth(_batch_rows(next(iter(xs.values()))))
            for name, st in self._a.items():
                st.x_cache = xs[name]
            if local("B"):
                self._b.x_cache = x_b
        z_a, z_b = {}, {}
        if local("B"):
            # Algorithm 3 splits B's own term evenly over the pair rounds.
            xu_b = matmul_any(x_b, self._b.u / len(ctx.a_names))
        for a_name in ctx.a_names:
            a, vb = ctx.parties[a_name], self._vb[a_name]
            if local(a_name):
                st = self._a[a_name]
                # Lines 5-6 at A(i): [[X_A V_A]] -> <eps_A, X_A V_A - eps_A>.
                ct_a = _matmul_cipher(xs[a_name], st.enc_v_own, parallel=self.parallel)
                eps_a = self._he2ss(
                    ct_a, a, "B", f"{tag}.fwd.XV_{a_name}", cfg.mask_scale
                )
            if local("B"):
                # Symmetric at B, on the piece V_B(i) that A(i) holds.
                ct_b = _matmul_cipher(
                    x_b, self._b.enc_v_b[a_name], parallel=self.parallel
                )
                eps_b = self._he2ss(
                    ct_b, b, a_name, f"{tag}.fwd.XV{vb}", cfg.mask_scale
                )
            if local(a_name):
                # Line 7: A(i)'s output share, with X_B V_B - eps_B.
                xv_b_share = he2ss_receive(a, ch, f"{tag}.fwd.XV{vb}")
                z_a[a_name] = matmul_any(xs[a_name], st.u) + eps_a + xv_b_share
            if local("B"):
                xv_a_share = he2ss_receive(b, ch, f"{tag}.fwd.XV_{a_name}")
                z_b[a_name] = xu_b + eps_b + xv_a_share
        return z_a, z_b

    def forward(
        self,
        x_a: np.ndarray | CSRMatrix | dict | None,
        x_b: np.ndarray | CSRMatrix | None,
        train: bool = True,
    ) -> np.ndarray | None:
        """Figure 6 lines 5-8 (Algorithm 3 for M >= 2).

        Returns Z at Party B; ``None`` on endpoints where B is remote (the
        activations only ever materialise at B).
        """
        self._step += 1
        tag = f"{self.name}.{self._step}"
        with _obs.span("fw_transfer", tag=tag):
            z_a, z_b = self._shares(x_a, x_b, train, tag)
            b, ch, local = self.ctx.B, self.ctx.channel, self.ctx.is_local
            z = None
            # Line 8: each A(i) releases its share (B is entitled to Z).
            for a_name in self.ctx.a_names:
                if local(a_name):
                    ch.send(
                        a_name, b.name, f"{tag}.fwd.Z_{a_name}", z_a[a_name],
                        MessageKind.OUTPUT_SHARE,
                    )
                if local("B"):
                    z_i = ch.recv(b.name, f"{tag}.fwd.Z_{a_name}") + z_b[a_name]
                    z = z_i if z is None else z + z_i
            return z

    def forward_shares(
        self,
        x_a: np.ndarray | CSRMatrix,
        x_b: np.ndarray | CSRMatrix,
        train: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Appendix B variant: keep <Z'_A, Z'_B> secret-shared (no release).

        Used when a *federated* top model follows the source layer, so not
        even Party B sees Z.  Appendix B is a two-party protocol.
        """
        if len(self.ctx.a_names) != 1:
            raise ValueError(
                "forward_shares (Appendix B) needs exactly one Party A; use "
                "forward with several"
            )
        self._step += 1
        tag = f"{self.name}.{self._step}"
        with _obs.span("fw_transfer", tag=tag):
            z_a, z_b = self._shares(x_a, x_b, train, tag)
        a_name = self.ctx.a_names[0]
        return z_a.get(a_name), z_b.get(a_name)

    # ----------------------------------------------------------------- backward

    def backward(self, grad_z: np.ndarray | None) -> None:
        """Figure 6 lines 9-11: share each grad_W_A(i); compute grad_W_B.

        ``grad_z`` only exists where Party B is local; A-only endpoints
        pass ``None``.
        """
        states = self._local_states()
        if any(st.x_cache is None for st in states):
            raise RuntimeError("backward before forward (or inference-only forward)")
        if any(st.pending for st in states):
            raise RuntimeError("pending updates not applied; call apply_updates")
        tag = f"{self.name}.{self._step}"
        with _obs.span("bw_transfer", tag=tag):
            ctx, cfg = self.ctx, self._cfg
            b, ch, local = ctx.B, ctx.channel, ctx.is_local
            if local("B"):
                grad_z = np.asarray(grad_z, dtype=np.float64).reshape(-1, self.out_dim)
                # Line 9: B encrypts the derivatives (label protection, Req 3).
                with _obs.span("encrypt", party=b.name, tag=f"{tag}.bwd.gZ"):
                    enc_gz = CryptoTensor.encrypt(
                        b.public_key, grad_z, obfuscate=True, parallel=self.parallel
                    )
                # Line 11, local at B: its own gradient in the clear.
                self._b.pending = {
                    "gw_b": t_matmul_any(self._b.x_cache, grad_z),
                    "gw_a_share": {},
                    "support": {},
                }
            for a_name in ctx.a_names:
                a, sfx = ctx.parties[a_name], self._sfx[a_name]
                if local("B"):
                    ch.send(
                        b.name, a_name, f"{tag}.bwd.gZ{sfx}", enc_gz,
                        MessageKind.CIPHERTEXT,
                    )
                if local(a_name):
                    st = self._a[a_name]
                    enc_gz_at_a = ch.recv(a_name, f"{tag}.bwd.gZ{sfx}")
                    support = None
                    if self._sparse_delta(a_name):
                        # Sparse-aware: only the column support of this
                        # batch carries gradient; restrict the crypto to
                        # those coordinates.
                        support = st.x_cache.column_support()
                        ch.send(
                            a_name, b.name, f"{tag}.bwd.support{sfx}", support,
                            MessageKind.PUBLIC,
                        )
                    enc_gw = _t_matmul_cipher(
                        st.x_cache, enc_gz_at_a, columns=support, parallel=self.parallel
                    )
                    # Line 10: <phi, grad_W_A - phi>.
                    phi = self._he2ss(
                        enc_gw, a, "B", f"{tag}.bwd.gW_{a_name}", cfg.grad_mask_scale
                    )
                    st.pending = {"phi": phi, "support": support}
                if local("B"):
                    pb = self._b.pending
                    pb["support"][a_name] = (
                        ch.recv(b.name, f"{tag}.bwd.support{sfx}")
                        if self._sparse_delta(a_name)
                        else None
                    )
                    pb["gw_a_share"][a_name] = he2ss_receive(
                        b, ch, f"{tag}.bwd.gW_{a_name}"
                    )

    # --------------------------------------------------------------------- step

    def apply_updates(self, lr: float, momentum: float) -> None:
        """Figure 6 lines 11-12 plus the [[V_A(i)]] refreshes."""
        if not any(st.pending for st in self._local_states()):
            return
        tag = f"{self.name}.{self._step}"
        ctx = self.ctx
        local = ctx.is_local
        layout = self._piece_layout(ctx.B.public_key)
        for a_name in ctx.a_names:
            if local(a_name):
                # A(i): U_A(i) update with its gradient piece phi.
                st = self._a[a_name]
                _momentum_update(
                    st.u, st.vel_u, st.pending["phi"], lr, momentum,
                    st.pending["support"],
                )
            if local("B"):
                # B: V_A(i) update with the complementary piece.
                pb = self._b.pending
                support = pb["support"][a_name]
                v_a = self._b.v_a[a_name]
                v_a_before = v_a.copy() if support is not None else None
                _momentum_update(
                    v_a, self._b.vel_v_a[a_name], pb["gw_a_share"][a_name], lr,
                    momentum, support,
                )
                self._send_refresh(a_name, tag, layout, support, v_a_before)
            if local(a_name):
                self._recv_refresh(a_name, tag, layout)
        if local("B"):
            # B: its own weights take the full (plaintext) gradient.
            _momentum_update(
                self._b.u, self._b.vel_u, self._b.pending["gw_b"], lr, momentum, None
            )
        self.zero_pending()

    def _send_refresh(self, a_name, tag, layout, support, v_a_before) -> None:
        """B's half of the refresh of A(i)'s cached [[V_A(i)]]."""
        b, ch = self.ctx.B, self.ctx.channel
        v_a = self._b.v_a[a_name]
        # A non-None support means delta refresh, which needs A(i) local.
        packed = support is not None and isinstance(
            self._a[a_name].enc_v_own, PackedCryptoTensor
        )
        if support is None or (layout is not None) != packed:
            # Full re-encrypt: the faithful Figure 6 refresh — and the one
            # step that migrates the cached copy between packed and
            # per-element forms when the packing knob flips mid-run
            # (either direction).
            ch.send(
                b.name, a_name, f"{tag}.upd.encV_{a_name}",
                self._encrypt_piece(b.public_key, v_a),
                MessageKind.CIPHERTEXT,
            )
        elif packed:
            # Packed delta mode: lanes cannot be patched additively without
            # spending guard bits every step, so B re-encrypts just the
            # touched rows (same wire cost as an encrypted delta) and A(i)
            # swaps them into the packed copy.
            payload = PackedCryptoTensor.encrypt(
                b.public_key, v_a[support], layout, obfuscate=True,
                parallel=self.parallel,
            )
            ch.send(
                b.name, a_name, f"{tag}.upd.dV_{a_name}", payload,
                MessageKind.CIPHERTEXT,
            )
        else:
            enc_delta = CryptoTensor.encrypt(
                b.public_key, v_a[support] - v_a_before[support], obfuscate=True,
                parallel=self.parallel,
            )
            ch.send(
                b.name, a_name, f"{tag}.upd.dV_{a_name}", enc_delta,
                MessageKind.CIPHERTEXT,
            )

    def _recv_refresh(self, a_name, tag, layout) -> None:
        """A(i)'s half: swap in or patch its cached [[V_A(i)]]."""
        st, ch = self._a[a_name], self.ctx.channel
        support = st.pending["support"]
        packed = isinstance(st.enc_v_own, PackedCryptoTensor)
        if support is None or (layout is not None) != packed:
            st.enc_v_own = ch.recv(a_name, f"{tag}.upd.encV_{a_name}")
        elif packed:
            st.enc_v_own.set_rows(support, ch.recv(a_name, f"{tag}.upd.dV_{a_name}"))
        else:
            updated = st.enc_v_own[support] + ch.recv(a_name, f"{tag}.upd.dV_{a_name}")
            st.enc_v_own.data[support] = updated.data

    def zero_pending(self) -> None:
        for st in self._local_states():
            st.pending = {}

    # --------------------------------------------------------------- checkpoint

    def checkpoint_state(self) -> tuple:
        """Codec-serialisable snapshot of this endpoint's slice of the layer.

        Only *local* actors are captured: each local A(i) its pieces,
        velocities and cached ``[[V_A(i)]]``; a local B its ``U_B`` and,
        per A(i), ``V_A(i)``, its velocity and ``[[V_B(i)]]``.  The step counter the protocol tags derive
        from comes along.  An all-local layer is the endpoint that hosts
        every party, so trainer and fabric checkpoints share this format.
        Batch-transient state (``x_cache``, ``pending``) is provably stale
        between batches and is *not* captured;
        :meth:`load_checkpoint_state` resets it.
        """
        a_section = [
            (name, st.u, st.v_b, st.vel_u, st.vel_v_b, st.enc_v_own)
            for name, st in sorted(self._a.items())
        ]
        b_section = None
        if self._b is not None:
            st = self._b
            b_section = (
                st.u,
                st.vel_u,
                [
                    (n, st.v_a[n], st.vel_v_a[n], st.enc_v_b[n])
                    for n in sorted(st.v_a)
                ],
            )
        return ("matmul", self._step, a_section, b_section)

    def load_checkpoint_state(self, state: tuple) -> None:
        kind, step, a_section, b_section = state
        if kind != "matmul":
            raise ValueError(
                f"layer {self.name!r} is a MatMul source but the checkpoint "
                f"holds a {kind!r} layer"
            )
        saved_a = {str(name): rest for name, *rest in a_section}
        if set(saved_a) != set(self._a):
            raise ValueError(
                f"layer {self.name!r}: checkpoint covers A parties "
                f"{sorted(saved_a)} but this endpoint hosts {sorted(self._a)}"
            )
        if (self._b is None) != (b_section is None):
            raise ValueError(
                f"layer {self.name!r}: checkpoint and endpoint disagree on "
                f"hosting Party B"
            )

        saved_b = {}
        if b_section is not None:
            u_b, vel_u_b, pairs = b_section
            saved_b = {str(name): rest for name, *rest in pairs}
            if set(saved_b) != set(self._b.v_a):
                raise ValueError(
                    f"layer {self.name!r}: checkpoint V_A pieces cover "
                    f"{sorted(saved_b)} but the model manages {sorted(self._b.v_a)}"
                )
        # Validate every piece shape before touching any state.
        checks = [(saved_a[name][0], st.u) for name, st in self._a.items()]
        if self._b is not None:
            checks.append((u_b, self._b.u))
        for saved, live in checks:
            if np.shape(saved) != live.shape:
                raise ValueError(
                    f"layer {self.name!r}: checkpoint piece shape "
                    f"{np.shape(saved)} does not match the model's {live.shape}"
                )
        self._step = int(step)
        for name, st in self._a.items():
            u, v_b, vel_u, vel_v_b, st.enc_v_own = saved_a[name]
            st.u, st.v_b, st.vel_u, st.vel_v_b = _floats(u, v_b, vel_u, vel_v_b)
            st.x_cache = None
        if self._b is not None:
            st = self._b
            st.u, st.vel_u = _floats(u_b, vel_u_b)
            for name, (v_a, vel_v_a, enc_v_b) in saved_b.items():
                st.v_a[name], st.vel_v_a[name] = _floats(v_a, vel_v_a)
                st.enc_v_b[name] = enc_v_b
            st.x_cache = None
        self.zero_pending()

    # -------------------------------------------------------------- introspection

    def federated_parameters(self) -> list[FederatedParameter]:
        params = [
            FederatedParameter(
                name=f"{self.name}.W_{a_name}",
                owner=a_name,
                shape=(self.in_dims[a_name], self.out_dim),
                holders={"U": a_name, "V": "B"},
            )
            for a_name in self.ctx.a_names
        ]
        holders = {"U": "B"}
        for a_name, sfx in self._sfx.items():
            holders[f"V({a_name})" if sfx else "V"] = a_name
        params.append(
            FederatedParameter(
                name=f"{self.name}.W_B",
                owner="B",
                shape=(self.in_b, self.out_dim),
                holders=holders,
            )
        )
        return params

    def reveal_weights(self) -> dict[str, np.ndarray]:
        """TEST/DEBUG ONLY: reconstruct every weight as a global observer.

        This deliberately violates the trust model (no real party can do
        it); the test-suite uses it to verify losslessness against the
        plaintext reference implementation.  Needs every party local; on
        a fabric endpoint pool :meth:`piece_views` across endpoints.
        """
        if self._b is None or len(self._a) != len(self.ctx.a_names):
            raise RuntimeError(
                "reveal_weights needs every party local; on a fabric "
                "endpoint pool piece_views() across endpoints"
            )
        out = {
            f"W_{a_name}": st.u + self._b.v_a[a_name] for a_name, st in self._a.items()
        }
        w_b = self._b.u
        for st in self._a.values():
            w_b = w_b + st.v_b
        out["W_B"] = w_b
        return out

    def piece_views(self) -> dict[str, np.ndarray]:
        """Copies of the plaintext pieces this endpoint holds.

        Keyed ``holder.piece`` — the pieces each party can see (the Figure
        11 analysis).  Pooling the views of every endpoint lets a
        test-side global observer reassemble ``W_A(i) = U_A(i) + V_A(i)``
        and ``W_B = U_B + sum_i V_B(i)``; no single party ever holds both
        pieces of a weight.
        """
        out: dict[str, np.ndarray] = {}
        for a_name, st in self._a.items():
            out[f"{a_name}.U_{a_name}"] = st.u.copy()
            out[f"{a_name}.V_B"] = st.v_b.copy()
        if self._b is not None:
            out["B.U_B"] = self._b.u.copy()
            for a_name, v_a in self._b.v_a.items():
                out[f"B.V_{a_name}"] = v_a.copy()
        return out


def _floats(*arrays) -> list[np.ndarray]:
    return [np.asarray(x, dtype=np.float64) for x in arrays]


def _momentum_update(
    weights: np.ndarray,
    velocity: np.ndarray,
    grad: np.ndarray,
    lr: float,
    momentum: float,
    support: np.ndarray | None,
) -> None:
    """Classical momentum on a piece; ``support`` enables lazy sparse mode."""
    if support is None:
        if momentum:
            velocity *= momentum
            velocity += grad
            weights -= lr * velocity
        else:
            weights -= lr * grad
        return
    if momentum:
        velocity[support] *= momentum
        velocity[support] += grad
        weights[support] -= lr * velocity[support]
    else:
        weights[support] -= lr * grad

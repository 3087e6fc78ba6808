"""The Embed-MatMul federated source layer — Figure 7 of the paper.

Computes ``Z = E_A @ W_A + E_B @ W_B`` where ``E_x = lkup(Q_x, X_x)`` is an
embedding lookup over categorical fields, satisfying every restriction of
Table 3.  Beyond the MatMul layer's sharing of the weights, the embedding
tables themselves are secretly shared — ``Q_x = S_x + T_x`` with ``S_x`` at
the owner and ``T_x`` at the peer — so *neither party can even perform its
own lookup in the clear*:

* the forward lookup runs against the local plaintext piece ``S`` and the
  *encrypted* peer piece ``[[T]]`` (categorical indices stay local, which is
  exactly why data outsourcing cannot do this, §3), then HE2SS splits the
  result so the embedding entries exist only as shares ``<psi, E - psi>``;
* the backward pass computes ``[[grad_E]]`` homomorphically, performs the
  scatter-add ``lkup_bw`` *inside the ciphertext*, and shares the table
  gradient ``<rho, grad_Q - rho>``, updating ``S``/``T`` complementarily.

Each party owns a bank of categorical fields; per-field vocabularies are
packed into one offset-indexed table per party, matching how WDL/DLRM
implementations lay out embedding storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.message import MessageKind
from repro.comm.party import Party, VFLContext
from repro.crypto.crypto_tensor import (
    CryptoTensor,
    matmul_cipher_plain,
    matmul_plain_cipher,
)
from repro.crypto.packing import PackedCryptoTensor
from repro.crypto.parallel import ParallelContext
from repro.crypto.secret_sharing import he2ss_receive
from repro.core.federated import FederatedParameter, SourceLayer
from repro.obs import tracer as _obs

__all__ = ["EmbedMatMulSource"]


@dataclass
class _EmbedState:
    """One party's holdings for this layer (see module docstring)."""

    s: np.ndarray  # own piece of own table Q
    t_peer: np.ndarray  # piece of the *peer's* table
    u: np.ndarray  # own piece of own weights W
    v_peer: np.ndarray  # piece of the peer's weights
    enc_t_own: CryptoTensor | PackedCryptoTensor  # [[T_own]] under the peer's key
    enc_u_peer: CryptoTensor | PackedCryptoTensor  # [[U_peer]] under the peer's key
    enc_v_own: CryptoTensor  # [[V_own]] under the peer's key
    offsets: np.ndarray  # per-field offsets into the packed table
    # Velocity buffers are derived from the pieces in __post_init__; they
    # are never constructor arguments and never None after construction.
    vel_s: np.ndarray = field(init=False)
    vel_t_peer: np.ndarray = field(init=False)
    vel_u: np.ndarray = field(init=False)
    vel_v_peer: np.ndarray = field(init=False)
    flat_idx: np.ndarray | None = None
    psi: np.ndarray | None = None
    e_minus_psi_peer: np.ndarray | None = None  # share of the PEER's E
    pending: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vel_s = np.zeros_like(self.s)
        self.vel_t_peer = np.zeros_like(self.t_peer)
        self.vel_u = np.zeros_like(self.u)
        self.vel_v_peer = np.zeros_like(self.v_peer)


def _pack_offsets(vocab_sizes: list[int]) -> tuple[np.ndarray, int]:
    offsets = np.zeros(len(vocab_sizes), dtype=np.int64)
    total = 0
    for i, v in enumerate(vocab_sizes):
        offsets[i] = total
        total += int(v)
    return offsets, total


class EmbedMatMulSource(SourceLayer):
    """Federated ``Z = lkup(Q_A, X_A) W_A + lkup(Q_B, X_B) W_B``."""

    def __init__(
        self,
        ctx: VFLContext,
        vocab_a: list[int],
        vocab_b: list[int],
        emb_dim: int,
        out_dim: int,
        init_scale: float = 0.05,
        name: str = "embed",
        parallel: ParallelContext | None = None,
    ):
        if emb_dim <= 0 or out_dim <= 0 or not vocab_a or not vocab_b:
            raise ValueError("invalid Embed-MatMul dimensions")
        if len(ctx.a_names) != 1:
            raise ValueError(
                f"Embed-MatMul is a two-party layer but the federation has "
                f"{len(ctx.a_names)} Party A's; MatMulSource is the "
                f"multi-A source layer"
            )
        self.ctx = ctx
        self.name = name
        # Multicore execution engine for this layer's kernels; None falls
        # back to the process default (see repro.crypto.parallel).
        self.parallel = parallel
        self.emb_dim, self.out_dim = emb_dim, out_dim
        self.vocab_a, self.vocab_b = list(vocab_a), list(vocab_b)
        self._step = 0
        self._cfg = ctx.config
        a, b = ctx.A, ctx.B
        off_a, total_a = _pack_offsets(self.vocab_a)
        off_b, total_b = _pack_offsets(self.vocab_b)
        self.total_a, self.total_b = total_a, total_b
        self.flat_in_a = len(vocab_a) * emb_dim
        self.flat_in_b = len(vocab_b) * emb_dim
        piece = init_scale / np.sqrt(2.0)
        # Figure 7 lines 1-4.  A draws S_A, T_B, U_A, V_B; B draws the
        # symmetric set; encrypted pieces [[T_B]]_A, [[U_A]]_A, [[V_B]]_A go
        # to B (and vice versa).
        s_a = a.rng.normal(0.0, piece, size=(total_a, emb_dim))
        t_b = a.rng.normal(0.0, piece, size=(total_b, emb_dim))
        u_a = a.rng.normal(0.0, piece, size=(self.flat_in_a, out_dim))
        v_b = a.rng.normal(0.0, piece, size=(self.flat_in_b, out_dim))
        s_b = b.rng.normal(0.0, piece, size=(total_b, emb_dim))
        t_a = b.rng.normal(0.0, piece, size=(total_a, emb_dim))
        u_b = b.rng.normal(0.0, piece, size=(self.flat_in_b, out_dim))
        v_a = b.rng.normal(0.0, piece, size=(self.flat_in_a, out_dim))
        # With packing on, the U pieces — only ever consumed as
        # ``plain @ cipher`` right operands — travel and live packed along
        # the output dimension, and the T pieces live packed along the
        # embedding dimension: lanes never span table rows, and the
        # segment-aware reshape regroups whole row segments, so the
        # ``take_rows -> reshape`` lookup pipeline is pure ciphertext-slice
        # bookkeeping on the packed form.  V stays per-element (the
        # backward pass uses its transpose).
        packed_widths = {
            "U_A": self.out_dim, "U_B": self.out_dim,
            "T_A": self.emb_dim, "T_B": self.emb_dim,
        }
        self._send_init(
            a, b, {"T_B": t_b, "U_A": u_a, "V_B": v_b}, packed=packed_widths
        )
        self._send_init(
            b, a, {"T_A": t_a, "U_B": u_b, "V_A": v_a}, packed=packed_widths
        )
        enc_at_a = self._recv_init(a, ["T_A", "U_B", "V_A"])
        enc_at_b = self._recv_init(b, ["T_B", "U_A", "V_B"])
        self._a = _EmbedState(
            s=s_a, t_peer=t_b, u=u_a, v_peer=v_b,
            enc_t_own=enc_at_a["T_A"], enc_u_peer=enc_at_a["U_B"],
            enc_v_own=enc_at_a["V_A"], offsets=off_a,
        )
        self._b = _EmbedState(
            s=s_b, t_peer=t_a, u=u_b, v_peer=v_a,
            enc_t_own=enc_at_b["T_B"], enc_u_peer=enc_at_b["U_A"],
            enc_v_own=enc_at_b["V_B"], offsets=off_b,
        )

    def _send_init(
        self, sender: Party, receiver: Party, pieces: dict, packed: dict | None = None
    ) -> None:
        packed = packed or {}
        for key, arr in pieces.items():
            if key in packed:
                tensor: object = self._encrypt_piece(
                    sender.public_key, arr, width=packed[key]
                )
            else:
                tensor = CryptoTensor.encrypt(
                    sender.public_key, arr, obfuscate=True, parallel=self.parallel
                )
            self.ctx.channel.send(
                sender.name,
                receiver.name,
                f"{self.name}.init.{key}",
                tensor,
                MessageKind.CIPHERTEXT,
            )

    def _packing_contraction(self) -> int:
        return max(self.flat_in_a, self.flat_in_b, 2)

    def _packing_depth(self) -> int:
        # The backward scatter accumulates batch rows that are themselves
        # (out_dim + 1)-deep contractions (gZ @ U^T plus the gZ V^T term);
        # out_dim is known at init, so budget the compound fan-in up front
        # — costing ~log2(out_dim) extra guard bits per slot — and
        # PACKING_DEPTH_FLOOR keeps its meaning of a batch-row floor.  The
        # budget is the exact power of two the step-time bit check sums to,
        # so a batch at the floor always passes even when the floor itself
        # is not a power of two.
        from repro.crypto.packing import _acc_bits

        return max(
            self._packing_contraction(),
            1 << (_acc_bits(self.out_dim + 1) + _acc_bits(self.PACKING_DEPTH_FLOOR)),
        )

    def _recv_init(self, receiver: Party, keys: list[str]) -> dict:
        return {
            key: self.ctx.channel.recv(receiver.name, f"{self.name}.init.{key}")
            for key in keys
        }

    # ------------------------------------------------------------------ helpers

    def _flat_indices(self, state: _EmbedState, x_cat: np.ndarray) -> np.ndarray:
        x_cat = np.asarray(x_cat, dtype=np.int64)
        if x_cat.ndim != 2 or x_cat.shape[1] != state.offsets.shape[0]:
            raise ValueError(
                f"{self.name}: expected (batch, {state.offsets.shape[0]}) categorical"
            )
        return (x_cat + state.offsets[None, :]).ravel()

    def _party_pair(self, who: str) -> tuple[_EmbedState, Party, Party]:
        if who == "A":
            return self._a, self.ctx.A, self.ctx.B
        return self._b, self.ctx.B, self.ctx.A

    # ------------------------------------------------------------------ forward

    def forward(
        self, x_cat_a: np.ndarray, x_cat_b: np.ndarray, train: bool = True
    ) -> np.ndarray:
        """Figure 7 lines 5-11; returns Z at Party B."""
        z_a, z_b = self.forward_shares(x_cat_a, x_cat_b, train=train)
        ch = self.ctx.channel
        tag = f"{self.name}.{self._step}"
        ch.send(
            self.ctx.A.name, self.ctx.B.name, f"{tag}.fwd.Z_A", z_a,
            MessageKind.OUTPUT_SHARE,
        )
        return ch.recv(self.ctx.B.name, f"{tag}.fwd.Z_A") + z_b

    def forward_shares(
        self, x_cat_a: np.ndarray, x_cat_b: np.ndarray, train: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lines 5-10 only: output stays secret-shared (Appendix B tops)."""
        self._step += 1
        tag = f"{self.name}.{self._step}"
        with _obs.span("fw_transfer", tag=tag):
            cfg, ch = self._cfg, self.ctx.channel
            batch = np.asarray(x_cat_a).shape[0]
            if np.asarray(x_cat_b).shape[0] != batch:
                raise ValueError("parties received differently sized batches")
            # The backward scatter-add accumulates up to ``batch`` gradient
            # rows per lane, each itself a contraction over ``out_dim``
            # products plus the gZ V^T term — the compound fan-in must fit
            # the layouts' designed accumulation depth or lanes would
            # overflow the slot guard band.  Fail loudly now, before any
            # ciphertext is produced.  Inference passes never run that
            # backward, so they are exempt.
            if train:
                self._check_packing_depth(batch, row_terms=self.out_dim + 1)
            contributions = {"A": [], "B": []}

            # ---- Embed stage (lines 5-7), once per party.
            shares = {}
            for who, x_cat in (("A", x_cat_a), ("B", x_cat_b)):
                state, me, peer = self._party_pair(who)
                flat = self._flat_indices(state, x_cat)
                lk_enc = state.enc_t_own.take_rows(flat).reshape(batch, -1)
                eps = self._he2ss(
                    lk_enc, me, peer.name, f"{tag}.fwd.lkT_{who}", cfg.mask_scale
                )
                lk_t_share = he2ss_receive(peer, ch, f"{tag}.fwd.lkT_{who}")
                psi = eps + state.s[flat].reshape(batch, -1)
                shares[who] = (psi, lk_t_share)  # psi at `who`, E-psi at peer
                if train:
                    state.flat_idx = flat
                    state.psi = psi
                else:
                    state.flat_idx = None
                    state.psi = None
            self._a.e_minus_psi_peer = shares["B"][1] if train else None
            self._b.e_minus_psi_peer = shares["A"][1] if train else None

            # ---- MatMul stage, line 8: Z'_1 contributions from psi pieces.
            for who in ("A", "B"):
                state, me, peer = self._party_pair(who)
                psi = shares[who][0]
                ct = matmul_plain_cipher(psi, state.enc_v_own, parallel=self.parallel)
                eps1 = self._he2ss(
                    ct, me, peer.name, f"{tag}.fwd.psiV_{who}", cfg.mask_scale
                )
                peer_share = he2ss_receive(peer, ch, f"{tag}.fwd.psiV_{who}")
                contributions[who].append(psi @ state.u + eps1)
                contributions[peer.name].append(peer_share)

            # ---- MatMul stage, line 9: Z'_2 contributions from (E-psi) pieces.
            for who in ("A", "B"):
                # The peer holds (E_who - psi_who), V_who, and [[U_who]]_who.
                state, me, peer = self._party_pair(who)
                peer_state = self._b if who == "A" else self._a
                e_share = shares[who][1]  # at peer
                # [[ (E-psi) U_who ]]_who
                ct = matmul_plain_cipher(
                    e_share, peer_state.enc_u_peer, parallel=self.parallel
                )
                eps2 = self._he2ss(
                    ct, peer, me.name, f"{tag}.fwd.eU_{who}", cfg.mask_scale
                )
                my_share = he2ss_receive(me, ch, f"{tag}.fwd.eU_{who}")
                contributions[peer.name].append(e_share @ peer_state.v_peer + eps2)
                contributions[who].append(my_share)

            z_a = sum(contributions["A"])
            z_b = sum(contributions["B"])
            return z_a, z_b

    # ----------------------------------------------------------------- backward

    def backward(self, grad_z: np.ndarray) -> None:
        """Figure 7 lines 12-16 and 21-23: share every gradient."""
        if self._a.psi is None:
            raise RuntimeError("backward before forward (or inference-only forward)")
        if self._a.pending or self._b.pending:
            raise RuntimeError("pending updates not applied; call apply_updates")
        tag = f"{self.name}.{self._step}"
        with _obs.span("bw_transfer", tag=tag):
            cfg, ch = self._cfg, self.ctx.channel
            a, b = self.ctx.A, self.ctx.B
            grad_z = np.asarray(grad_z, dtype=np.float64).reshape(-1, self.out_dim)

            # Line 12: B encrypts grad_Z and grad_Z V_A^T (it holds V_A).
            with _obs.span("encrypt", party=b.name, tag=f"{tag}.bwd.gZ"):
                enc_gz = CryptoTensor.encrypt(
                    b.public_key, grad_z, obfuscate=True, parallel=self.parallel
                )
                enc_gzva = CryptoTensor.encrypt(
                    b.public_key, grad_z @ self._b.v_peer.T, obfuscate=True,
                    parallel=self.parallel,
                )
            ch.send(b.name, a.name, f"{tag}.bwd.gZ", enc_gz, MessageKind.CIPHERTEXT)
            ch.send(b.name, a.name, f"{tag}.bwd.gZVA", enc_gzva, MessageKind.CIPHERTEXT)
            enc_gz_at_a = ch.recv(a.name, f"{tag}.bwd.gZ")
            enc_gzva_at_a = ch.recv(a.name, f"{tag}.bwd.gZVA")

            # Line 13-14: <phi, grad_W_A - phi>.
            ct = matmul_plain_cipher(self._a.psi.T, enc_gz_at_a, parallel=self.parallel)
            phi = self._he2ss(ct, a, "B", f"{tag}.bwd.psiTgZ", cfg.grad_mask_scale)
            psi_t_gz_share = he2ss_receive(b, ch, f"{tag}.bwd.psiTgZ")
            gw_a_minus_phi = self._b.e_minus_psi_peer.T @ grad_z + psi_t_gz_share

            # Line 15-16: <xi, grad_W_B - xi>.
            ct = matmul_plain_cipher(
                self._a.e_minus_psi_peer.T, enc_gz_at_a, parallel=self.parallel
            )
            xi = self._he2ss(ct, a, "B", f"{tag}.bwd.eTgZ", cfg.grad_mask_scale)
            e_t_gz_share = he2ss_receive(b, ch, f"{tag}.bwd.eTgZ")
            gw_b_minus_xi = self._b.psi.T @ grad_z + e_t_gz_share

            # Line 21 at A: [[grad_E_A]]_B = [[gZ]] U_A^T + [[gZ V_A^T]].
            enc_ge_a = (
                matmul_cipher_plain(enc_gz_at_a, self._a.u.T, parallel=self.parallel)
                + enc_gzva_at_a
            )
            # Line 21 at B: [[grad_E_B]]_A = gZ U_B^T + gZ [[V_B^T]]_A.
            enc_ge_b = matmul_plain_cipher(
                grad_z, self._b.enc_v_own.T, parallel=self.parallel
            ) + (grad_z @ self._b.u.T)

            # Lines 22-23: encrypted lkup_bw, then <rho, grad_Q - rho>.
            use_delta = cfg.share_refresh == "delta"
            rho, gq_share, touched = {}, {}, {}
            for who, enc_ge in (("A", enc_ge_a), ("B", enc_ge_b)):
                state, me, peer = self._party_pair(who)
                total = self.total_a if who == "A" else self.total_b
                with _obs.span("lkup_bw", party=me.name, tag=f"{tag}.bwd.gQ_{who}"):
                    rows: CryptoTensor | PackedCryptoTensor = CryptoTensor(
                        enc_ge.public_key,
                        enc_ge.data.reshape(-1, self.emb_dim),
                    )
                    # Packed lkup_bw: lift the (batch * fields) gradient rows
                    # into lanes once — far fewer elements than the table the
                    # scatter lands in — then scatter-add with lane-wise
                    # mulmods.  The table gradient stays packed all the way
                    # through HE2SS, so the transfer ships (and the key owner
                    # decrypts/blinds) ``slots``-fold fewer ciphertexts.  The
                    # pack promises the layout's pre-accumulation operand
                    # budget widened by the rows' own out_dim-deep
                    # contraction (gZ @ U^T plus the gZ V^T term), so a batch
                    # whose compound fan-in exceeds the designed depth raises
                    # before the scatter executes.
                    layout = self._piece_layout(enc_ge.public_key, width=self.emb_dim)
                    if layout is not None:
                        rows = rows.pack(
                            layout,
                            value_bits=layout.acc_operand_bits_for(self.out_dim + 1),
                            parallel=self.parallel,
                        )
                    # ``obfuscate_empty=False``: the scatter result goes
                    # straight into ``_he2ss`` below, which homomorphically
                    # adds a *freshly blinded* mask encryption to every
                    # ciphertext — untouched rows are re-randomised at the
                    # party boundary anyway, so paying a blinder per
                    # untouched table cell here would be pure waste on large
                    # vocabularies.
                    if use_delta:
                        uniq, remap = np.unique(state.flat_idx, return_inverse=True)
                        touched[who] = uniq
                        ch.send(
                            me.name, peer.name, f"{tag}.bwd.touched_{who}", uniq,
                            MessageKind.PUBLIC,
                        )
                        enc_gq = rows.scatter_add_rows(
                            remap, num_rows=uniq.shape[0], parallel=self.parallel,
                            obfuscate_empty=False,
                        )
                    else:
                        touched[who] = None
                        enc_gq = rows.scatter_add_rows(
                            state.flat_idx, num_rows=total, parallel=self.parallel,
                            obfuscate_empty=False,
                        )
                    rho[who] = self._he2ss(
                        enc_gq, me, peer.name, f"{tag}.bwd.gQ_{who}",
                        cfg.grad_mask_scale,
                    )
                    if use_delta:
                        touched[who + "_peer"] = ch.recv(
                            peer.name, f"{tag}.bwd.touched_{who}"
                        )
                    gq_share[who] = he2ss_receive(peer, ch, f"{tag}.bwd.gQ_{who}")

            self._a.pending = {
                "phi": phi,  # piece of grad_W_A
                "xi": xi,  # piece of grad_W_B (updates V_B at A)
                "rho": rho["A"],  # piece of grad_Q_A (updates S_A at A)
                "gq_peer": gq_share["B"],  # grad_Q_B - rho_B (updates T_B at A)
                "touched_own": touched["A"],
                "touched_peer": touched.get("B_peer"),
            }
            self._b.pending = {
                "gw_a_share": gw_a_minus_phi,  # updates V_A at B
                "gw_b_share": gw_b_minus_xi,  # updates U_B at B
                "rho": rho["B"],  # updates S_B at B
                "gq_peer": gq_share["A"],  # grad_Q_A - rho_A (updates T_A at B)
                "touched_own": touched["B"],
                "touched_peer": touched.get("A_peer"),
            }

    # --------------------------------------------------------------------- step

    def apply_updates(self, lr: float, momentum: float) -> None:
        """Figure 7 lines 17-20 and 24-26, plus all encrypted-copy refreshes."""
        if not self._a.pending:
            return
        from repro.core.matmul_layer import _momentum_update

        tag = f"{self.name}.{self._step}"
        a, b, ch = self.ctx.A, self.ctx.B, self.ctx.channel
        pa, pb = self._a.pending, self._b.pending

        # -- weight pieces (always dense; the W matrices are small).
        _momentum_update(self._a.u, self._a.vel_u, pa["phi"], lr, momentum, None)
        _momentum_update(
            self._b.v_peer, self._b.vel_v_peer, pb["gw_a_share"], lr, momentum, None
        )
        _momentum_update(self._b.u, self._b.vel_u, pb["gw_b_share"], lr, momentum, None)
        _momentum_update(
            self._a.v_peer, self._a.vel_v_peer, pa["xi"], lr, momentum, None
        )

        # -- table pieces (possibly restricted to touched rows).
        _momentum_update(
            self._a.s, self._a.vel_s, pa["rho"], lr, momentum, pa["touched_own"]
        )
        _momentum_update(
            self._b.t_peer, self._b.vel_t_peer, pb["gq_peer"], lr, momentum,
            pb["touched_peer"],
        )
        _momentum_update(
            self._b.s, self._b.vel_s, pb["rho"], lr, momentum, pb["touched_own"]
        )
        _momentum_update(
            self._a.t_peer, self._a.vel_t_peer, pa["gq_peer"], lr, momentum,
            pa["touched_peer"],
        )

        # -- refresh every encrypted copy that went stale.
        use_delta = pa["touched_own"] is not None
        self._refresh(b, a, f"{tag}.upd.V_A", self._b.v_peer, "enc_v_own", self._a)
        self._refresh(a, b, f"{tag}.upd.V_B", self._a.v_peer, "enc_v_own", self._b)
        self._refresh(
            a, b, f"{tag}.upd.U_A", self._a.u, "enc_u_peer", self._b,
            width=self.out_dim,
        )
        self._refresh(
            b, a, f"{tag}.upd.U_B", self._b.u, "enc_u_peer", self._a,
            width=self.out_dim,
        )
        # A delta refresh must match the resident tensor's form; when the
        # packing knob flipped mid-run, fall back to a full re-encrypt —
        # the one step that migrates [[T]] between packed and per-element.
        t_migrates = any(
            (self._piece_layout(sender.public_key, width=self.emb_dim) is not None)
            != isinstance(state.enc_t_own, PackedCryptoTensor)
            for sender, state in ((b, self._a), (a, self._b))
        )
        if not use_delta or t_migrates:
            self._refresh(
                b, a, f"{tag}.upd.T_A", self._b.t_peer, "enc_t_own", self._a,
                width=self.emb_dim,
            )
            self._refresh(
                a, b, f"{tag}.upd.T_B", self._a.t_peer, "enc_t_own", self._b,
                width=self.emb_dim,
            )
        else:
            # Only touched table rows changed; re-encrypt just those rows.
            self._refresh_rows(
                b, a, f"{tag}.upd.dT_A", self._b.t_peer, pb["touched_peer"],
                self._a, "enc_t_own",
            )
            self._refresh_rows(
                a, b, f"{tag}.upd.dT_B", self._a.t_peer, pa["touched_peer"],
                self._b, "enc_t_own",
            )
        self.zero_pending()

    def _refresh(
        self,
        sender: Party,
        receiver: Party,
        tag: str,
        plain: np.ndarray,
        attr: str,
        target_state: _EmbedState,
        width: int | None = None,
    ) -> None:
        """Full re-encrypt of a piece; ``width`` opts into the packing policy."""
        if width is not None:
            fresh: object = self._encrypt_piece(sender.public_key, plain, width=width)
        else:
            fresh = CryptoTensor.encrypt(
                sender.public_key, plain, obfuscate=True, parallel=self.parallel
            )
        self.ctx.channel.send(
            sender.name, receiver.name, tag, fresh, MessageKind.CIPHERTEXT
        )
        setattr(target_state, attr, self.ctx.channel.recv(receiver.name, tag))

    def _refresh_rows(
        self,
        sender: Party,
        receiver: Party,
        tag: str,
        plain: np.ndarray,
        rows: np.ndarray,
        target_state: _EmbedState,
        attr: str,
    ) -> None:
        """Re-encrypt and replace only the given rows of an encrypted copy.

        A packed resident copy takes packed replacement rows under its own
        layout (lane-additive patches would spend a guard bit per step, so
        packed delta refreshes *replace* rows — see the wire-format spec).
        """
        enc = getattr(target_state, attr)
        if isinstance(enc, PackedCryptoTensor):
            payload: object = PackedCryptoTensor.encrypt(
                sender.public_key, plain[rows], enc.layout,
                obfuscate=True, parallel=self.parallel,
            )
        else:
            payload = CryptoTensor.encrypt(
                sender.public_key, plain[rows], obfuscate=True, parallel=self.parallel
            )
        self.ctx.channel.send(
            sender.name, receiver.name, tag, payload, MessageKind.CIPHERTEXT
        )
        received = self.ctx.channel.recv(receiver.name, tag)
        if isinstance(enc, PackedCryptoTensor):
            enc.set_rows(rows, received)
        else:
            enc.data[rows] = received.data

    def zero_pending(self) -> None:
        self._a.pending = {}
        self._b.pending = {}

    # --------------------------------------------------------------- checkpoint

    def checkpoint_state(self) -> tuple:
        """Codec-serialisable snapshot of this layer at a batch boundary.

        Table and weight pieces, all four velocity buffers, the cached
        encrypted peer pieces and the step counter.  Batch-transient
        lookup state (``flat_idx``, ``psi``, ``e_minus_psi_peer``,
        ``pending``) is stale between batches and is reset on load; the
        static ``offsets`` come back with the rebuilt layer.
        """

        def side(st: _EmbedState) -> tuple:
            return (
                st.s, st.t_peer, st.u, st.v_peer,
                st.vel_s, st.vel_t_peer, st.vel_u, st.vel_v_peer,
                st.enc_t_own, st.enc_u_peer, st.enc_v_own,
            )

        return ("embed", self._step, side(self._a), side(self._b))

    def load_checkpoint_state(self, state: tuple) -> None:
        kind, step, a, b = state
        if kind != "embed":
            raise ValueError(
                f"layer {self.name!r} is an Embed-MatMul source but the "
                f"checkpoint holds a {kind!r} layer"
            )
        self._step = int(step)
        for st, vals in ((self._a, a), (self._b, b)):
            (s, t_peer, u, v_peer, vel_s, vel_t_peer, vel_u, vel_v_peer,
             enc_t_own, enc_u_peer, enc_v_own) = vals
            s = np.asarray(s, dtype=np.float64)
            if s.shape != st.s.shape:
                raise ValueError(
                    f"layer {self.name!r}: checkpoint piece shape {s.shape} "
                    f"does not match the model's {st.s.shape}"
                )
            st.s = s
            st.t_peer = np.asarray(t_peer, dtype=np.float64)
            st.u = np.asarray(u, dtype=np.float64)
            st.v_peer = np.asarray(v_peer, dtype=np.float64)
            st.vel_s = np.asarray(vel_s, dtype=np.float64)
            st.vel_t_peer = np.asarray(vel_t_peer, dtype=np.float64)
            st.vel_u = np.asarray(vel_u, dtype=np.float64)
            st.vel_v_peer = np.asarray(vel_v_peer, dtype=np.float64)
            st.enc_t_own = enc_t_own
            st.enc_u_peer = enc_u_peer
            st.enc_v_own = enc_v_own
            st.flat_idx = None
            st.psi = None
            st.e_minus_psi_peer = None
            st.pending = {}

    # -------------------------------------------------------------- introspection

    def federated_parameters(self) -> list[FederatedParameter]:
        return [
            FederatedParameter(
                f"{self.name}.Q_A", "A", (self.total_a, self.emb_dim),
                {"S": "A", "T": "B"},
            ),
            FederatedParameter(
                f"{self.name}.Q_B", "B", (self.total_b, self.emb_dim),
                {"S": "B", "T": "A"},
            ),
            FederatedParameter(
                f"{self.name}.W_A", "A", (self.flat_in_a, self.out_dim),
                {"U": "A", "V": "B"},
            ),
            FederatedParameter(
                f"{self.name}.W_B", "B", (self.flat_in_b, self.out_dim),
                {"U": "B", "V": "A"},
            ),
        ]

    def reveal_weights(self) -> dict[str, np.ndarray]:
        """TEST/DEBUG ONLY — global-observer reconstruction (see MatMul)."""
        return {
            "Q_A": self._a.s + self._b.t_peer,
            "Q_B": self._b.s + self._a.t_peer,
            "W_A": self._a.u + self._b.v_peer,
            "W_B": self._b.u + self._a.v_peer,
        }

    def piece_views(self) -> dict[str, np.ndarray]:
        """Per-party visible pieces (Figure 11 analysis)."""
        return {
            "A.S_A": self._a.s,
            "A.U_A": self._a.u,
            "B.T_A": self._b.t_peer,
            "B.S_B": self._b.s,
        }

"""Multicore execution engine for the flat ciphertext kernels.

The expensive step of every CryptoTensor primitive is modular arithmetic
over ``Z_{n^2}`` — multi-exponentiations for contractions, ``pow(c, m,
n^2)`` for elementwise products, comb-evaluated ``h^x`` and ``pow(r, n,
n^2)`` for obfuscation blinders.  That work is embarrassingly parallel
across outputs and carries no shared state beyond the public modulus, so
:class:`ParallelContext` shards it across a ``multiprocessing`` pool:

* workers receive ``(n, n^2)`` **once**, through the pool initializer, and
  thereafter only chunks of integer limbs travel over the pipe;
* dispatch is threshold-gated (``min_jobs``): small tensors never pay the
  pickling/IPC tax and run serial, bit-identically to the parallel path;
* the pool is lazily created on first use and rebuilt if a different public
  key shows up, so one context can serve a whole training run.

Private worker tier (key custody)
---------------------------------
Decryption is just as embarrassingly parallel — two half-size CRT
exponentiations per ciphertext — but its shared state is the private key's
CRT constants ``(p, q, hp, hq, p_inverse)``.  Those are catastrophic to
leak: any party holding ``(p, q)`` can decrypt every ciphertext under the
key, so the BlindFL trust model confines them to the key-owning party.  The
*private* pool tier (:meth:`ParallelContext.crt_decrypt_many`) keeps that
custody boundary intact by construction:

* private workers are direct OS children of the calling process — which, to
  possess a :class:`~repro.crypto.paillier.PaillierPrivateKey` at all, must
  *be* the key owner;
* the CRT constants travel exactly once, through the pool initializer's
  ``initargs`` (a fork inheritance or a spawn pipe between a process and
  its own child — never a protocol :class:`~repro.comm.channel.Channel`,
  never the wire codec, which refuses to serialise private-key material
  outright);
* thereafter only ciphertext residue chunks cross the pipe, and only
  plaintext residues come back.

Private pools live in a separate dict from the public ones, keyed by the
public modulus, so a context serving both parties of an in-process
simulation still keeps each key's primes inside the pool that owns them.

A process-wide default context can be installed with
:func:`set_default_context` (or scoped with the :func:`use_parallel` context
manager, which the trainer uses); every kernel resolves ``parallel=None`` to
that default, so enabling multicore execution is a one-line config change.

The paper's CryptoTensor runs its GMP loops under OpenMP (§7.1); a process
pool is the CPython equivalent — the GIL never sees the inner loops because
each worker is its own interpreter.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from typing import Iterator, Sequence

from repro.crypto.math_utils import FixedBaseComb, invmod, multiexp_blocks, powmod
from repro.obs import tracer as _obs

__all__ = [
    "ParallelContext",
    "get_default_context",
    "set_default_context",
    "use_parallel",
]

# ---------------------------------------------------------------------------
# Worker-side state and chunk kernels.
#
# Workers are initialised once per pool with the public modulus; every task
# afterwards is a plain list of integers.  The functions must live at module
# top level so the "spawn" start method can import them.

_W_N: int = 0
_W_NSQ: int = 0
_W_HALF: int = 0


def _init_worker(n: int, nsquare: int) -> None:
    global _W_N, _W_NSQ, _W_HALF
    _W_N = n
    _W_NSQ = nsquare
    _W_HALF = n // 2


def _raw_mul_chunk(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Chunk kernel: ``[(c, mantissa), ...] -> [c^mantissa mod n^2, ...]``.

    Mirrors ``PaillierPublicKey.raw_mul`` exactly (including the
    negative-mantissa ciphertext-inversion trick) so serial and parallel
    execution produce bit-identical ciphertexts.  Returns the results plus
    the chunk's modpow count (the 0/±1 shortcuts make it data-dependent)
    so the worker's counter delta rides the result pipe back to the
    parent, which attributes it to the span in flight there — worker
    processes never see the tracer.
    """
    n, nsq, half = _W_N, _W_NSQ, _W_HALF
    out = []
    append = out.append
    pows = 0
    for c, m in pairs:
        if m >= half:
            c = invmod(c, nsq)
            m = n - m
        if m == 0:
            append(1)
        elif m == 1:
            append(c)
        else:
            append(powmod(c, m, nsq))
            pows += 1
    return out, pows


def _pow_n_chunk(bases: Sequence[int]) -> list[int]:
    """Chunk kernel: obfuscation blinders ``r -> r^n mod n^2``."""
    n, nsq = _W_N, _W_NSQ
    return [powmod(r, n, nsq) for r in bases]


def _multiexp_chunk(
    args: tuple[Sequence[int], Sequence, int, int, int],
) -> tuple[list[int], int]:
    """Chunk kernel: a shard of multiexp blocks (see ``kernels.multiexp``).

    Returns the products plus the shard's squarings and window multiplies;
    those add up across shards to the serial count.
    """
    bases, blocks, width, w, shift = args
    return multiexp_blocks(bases, blocks, width, w, _W_N, shift, _W_NSQ)


# Comb tables for λ-blinding bases, built once per worker and reused by
# every later refill chunk under the same base.
_W_COMBS: dict[tuple[int, int], FixedBaseComb] = {}


def _comb_chunk(args: tuple[int, int, Sequence[int]]) -> list[int]:
    """Chunk kernel: fixed-base powers ``base^x mod n^2`` (λ blinders).

    The base ``h = r0^n`` crosses the pipe once per chunk; its comb table
    is built on the worker's first chunk and cached for the next.
    """
    base, bits, exps = args
    comb = _W_COMBS.get((base, bits))
    if comb is None:
        _W_COMBS.clear()
        comb = _W_COMBS[(base, bits)] = FixedBaseComb(base, bits, _W_NSQ)
    return comb.pow_many(exps)


# ---------------------------------------------------------------------------
# Private worker tier: CRT decryption.
#
# These workers hold the key owner's CRT constants.  They are initialised
# exactly once per pool via initargs (an OS pipe between this process and
# its own children — never a protocol Channel) and afterwards see only
# ciphertext residues.

_W_P: int = 0
_W_Q: int = 0
_W_PSQ: int = 0
_W_QSQ: int = 0
_W_HP: int = 0
_W_HQ: int = 0
_W_PINV: int = 0


def _init_private_worker(p: int, q: int, hp: int, hq: int, p_inverse: int) -> None:
    global _W_P, _W_Q, _W_PSQ, _W_QSQ, _W_HP, _W_HQ, _W_PINV
    _W_P = p
    _W_Q = q
    _W_PSQ = p * p
    _W_QSQ = q * q
    _W_HP = hp
    _W_HQ = hq
    _W_PINV = p_inverse


def _crt_decrypt_chunk(cts: Sequence[int]) -> tuple[list[int], int]:
    """Chunk kernel: raw CRT decryptions ``c -> m`` with ``m in [0, p*q)``.

    Mirrors ``PaillierPrivateKey.raw_decrypt`` exactly (same Paillier-CRT
    recombination) so serial and parallel decryption produce bit-identical
    plaintext residues.  The second element is the chunk's half-size
    modpow count (two per ciphertext), reported like ``_raw_mul_chunk``'s.
    """
    p, q = _W_P, _W_Q
    psq, qsq = _W_PSQ, _W_QSQ
    hp, hq, p_inv = _W_HP, _W_HQ, _W_PINV
    pm1, qm1 = p - 1, q - 1
    out = []
    append = out.append
    for c in cts:
        mp = ((powmod(c, pm1, psq) - 1) // p * hp) % p
        mq = ((powmod(c, qm1, qsq) - 1) // q * hq) % q
        append(mp + ((mq - mp) * p_inv % q) * p)
    return out, 2 * len(out)


class ParallelContext:
    """A threshold-gated multiprocessing pool for kernel exponentiations.

    Args:
        workers: process count; defaults to the CPU count.
        min_jobs: below this many exponentiations a call stays serial
            (IPC would dominate); tuned for ~256-bit keys, conservative for
            longer ones where each pow is worth far more than its pickle.
        start_method: multiprocessing start method; defaults to ``fork``
            where available (cheap, inherits the interpreter) else
            ``spawn``.
    """

    def __init__(
        self,
        workers: int | None = None,
        min_jobs: int = 512,
        start_method: str | None = None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.min_jobs = min_jobs
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._start_method = start_method
        # One warm pool per modulus: two-party protocols interleave kernels
        # under both parties' keys every batch, and rebuilding a pool on each
        # key switch would cost more than the exponentiations it shards.
        # Federations have a handful of keys, so the dict stays tiny.
        self._pools: dict[int, object] = {}
        # Private decrypt pools, keyed by public modulus.  Kept apart from
        # the public pools: their workers were initialised with the key
        # owner's CRT primes and must never be handed public-key work under
        # a different key (nor vice versa).
        self._private_pools: dict[int, object] = {}

    # -- pool plumbing -------------------------------------------------------

    def should_parallelize(self, n_jobs: int) -> bool:
        return self.workers >= 2 and n_jobs >= self.min_jobs

    def _ensure_pool(self, n: int, nsquare: int):
        pool = self._pools.get(n)
        if pool is None:
            ctx = multiprocessing.get_context(self._start_method)
            pool = ctx.Pool(
                self.workers, initializer=_init_worker, initargs=(n, nsquare)
            )
            self._pools[n] = pool
        return pool

    def _ensure_private_pool(self, private_key):
        """A decrypt pool whose workers hold ``private_key``'s CRT constants.

        The constants ship exactly once, via ``initargs`` — a fork
        inheritance or spawn pipe from this process to its own OS children.
        A process can only reach this code while holding the private-key
        *object*, i.e. while being the key-owning party; the wire codec
        refuses to serialise that object, so the primes cannot have crossed
        a protocol channel to get here.
        """
        n = private_key.public_key.n
        pool = self._private_pools.get(n)
        if pool is None:
            ctx = multiprocessing.get_context(self._start_method)
            pool = ctx.Pool(
                self.workers,
                initializer=_init_private_worker,
                initargs=private_key.crt_params,
            )
            self._private_pools[n] = pool
        return pool

    def _chunks(self, items: Sequence, n_chunks: int) -> list[Sequence]:
        size = max(1, (len(items) + n_chunks - 1) // n_chunks)
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _map(self, fn, public_key, items: Sequence) -> list[int]:
        pool = self._ensure_pool(public_key.n, public_key.nsquare)
        chunks = self._chunks(items, self.workers * 4)
        out: list[int] = []
        for part in pool.map(fn, chunks):
            out.extend(part)
        return out

    # -- kernel entry points -------------------------------------------------

    def raw_mul_many(self, public_key, pairs: Sequence[tuple[int, int]]) -> list[int]:
        """Parallel ``c^m mod n^2`` over ``(ciphertext, mantissa)`` pairs.

        Each worker returns its chunk's modpow count alongside the
        residues; the aggregated delta is attributed to the current span
        *here*, in the parent, so serial and parallel runs count
        identically.
        """
        pool = self._ensure_pool(public_key.n, public_key.nsquare)
        chunks = self._chunks(pairs, self.workers * 4)
        out: list[int] = []
        pows = 0
        for part, chunk_pows in pool.map(_raw_mul_chunk, chunks):
            out.extend(part)
            pows += chunk_pows
        if pows:
            trc = _obs.get_tracer()
            if trc is not None:
                trc.add("pow.mul", pows)
        return out

    def pow_n_many(self, public_key, bases: Sequence[int]) -> list[int]:
        """Parallel obfuscation blinders ``r^n mod n^2``."""
        return self._map(_pow_n_chunk, public_key, bases)

    def multiexp(
        self,
        public_key,
        bases: Sequence[int],
        blocks: Sequence,
        width: int,
        w: int,
        shift: int,
    ) -> tuple[list[int], int]:
        """Parallel multiexp: blocks (whole outputs) shard across workers.

        Each task carries the base list and its blocks; a worker builds the
        window tables its blocks need.  Returns the products and the summed
        squaring/multiply count; the caller counts tables and inversions
        once, as the serial path would.
        """
        pool = self._ensure_pool(public_key.n, public_key.nsquare)
        tasks = [
            (bases, chunk, width, w, shift)
            for chunk in self._chunks(blocks, self.workers * 2)
        ]
        out: list[int] = []
        ops = 0
        for part, chunk_ops in pool.map(_multiexp_chunk, tasks):
            out.extend(part)
            ops += chunk_ops
        return out, ops

    def comb_pow_many(
        self, public_key, base: int, bits: int, exps: Sequence[int]
    ) -> list[int]:
        """Parallel fixed-base ``base^x mod n^2`` (λ-shortcut blinders)."""
        pool = self._ensure_pool(public_key.n, public_key.nsquare)
        out: list[int] = []
        for part in pool.map(
            _comb_chunk,
            [(base, bits, chunk) for chunk in self._chunks(exps, self.workers * 4)],
        ):
            out.extend(part)
        return out

    def crt_decrypt_many(self, private_key, cts: Sequence[int]) -> list[int]:
        """Parallel raw CRT decryptions over the *private* worker tier.

        Returns plaintext residues in ``[0, n)``, bit-identical to a serial
        ``raw_decrypt`` loop.  Only the key-owning process can call this —
        it requires the live private-key object — and the primes never
        leave that process except to its own pool children.
        """
        pool = self._ensure_private_pool(private_key)
        chunks = self._chunks(cts, self.workers * 4)
        out: list[int] = []
        pows = 0
        for part, chunk_pows in pool.map(_crt_decrypt_chunk, chunks):
            out.extend(part)
            pows += chunk_pows
        if out:
            trc = _obs.get_tracer()
            if trc is not None:
                trc.add("pow.crt", pows)
                trc.add("ct.decrypted", len(out))
        return out

    def close(self) -> None:
        for pools in (self._pools, self._private_pools):
            for pool in pools.values():
                pool.terminate()
                pool.join()
            pools.clear()

    def __enter__(self) -> "ParallelContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ParallelContext(workers={self.workers}, min_jobs={self.min_jobs})"


# ---------------------------------------------------------------------------
# Process-wide default context.

_DEFAULT_CONTEXT: ParallelContext | None = None


def get_default_context() -> ParallelContext | None:
    """The context kernels fall back to when called with ``parallel=None``."""
    return _DEFAULT_CONTEXT


def set_default_context(ctx: ParallelContext | None) -> ParallelContext | None:
    """Install (or clear) the process-wide default; returns the previous one."""
    global _DEFAULT_CONTEXT
    previous = _DEFAULT_CONTEXT
    _DEFAULT_CONTEXT = ctx
    return previous


@contextlib.contextmanager
def use_parallel(ctx: ParallelContext | None) -> Iterator[ParallelContext | None]:
    """Scope a default context: installed on entry, restored (and the pool
    closed) on exit.  ``use_parallel(None)`` forces serial execution inside."""
    previous = set_default_context(ctx)
    try:
        yield ctx
    finally:
        set_default_context(previous)
        if ctx is not None:
            ctx.close()

"""Flat integer kernels for batched Paillier tensor arithmetic.

The paper's CryptoTensor library (§7.1) keeps ciphertext batches as
contiguous GMP big-int arrays and runs every primitive as a tight loop over
raw residues.  This module is the CPython analogue: a uniform-exponent
ciphertext batch travels as a flat ``list[int]`` (row-major, plus shape and
exponent metadata kept by the caller) and every primitive — encrypt, CRT
decrypt, elementwise add/sub/mul, both matmul orientations, sparse
``X.T @ cipher``, scatter-add and obfuscation — loops over those integers
directly.  No ``EncryptedNumber`` or ``EncodedNumber`` is allocated in any
inner loop; object wrappers exist only at the :class:`CryptoTensor`
boundary.

Three algorithmic optimisations are fused into the kernels:

1. **Multi-exponentiation** — every output of a ``plain @ cipher`` or
   ``cipher @ plain`` contraction (dense, CSR and packed, plus packing's
   lane shifts) is a product of powers ``prod_t c_t^(m_t) mod n^2``, built
   by :func:`multiexp` as one Straus product: the output's terms share a
   single squaring chain, each ciphertext gets one small window table that
   every output using it shares, and negative mantissas cost one batched
   inversion per distinct ciphertext instead of one per term.  Blinders
   ``h^x`` come from the public key's fixed-base comb table (about ``λ/w``
   mulmods each, no squarings).  Both return exactly the residues a
   pow-per-term loop would.
2. **Blinding pool** — obfuscation draws ``r^n mod n^2`` factors from the
   public key's precomputed pool (see ``PaillierPublicKey.prefill_blinding``)
   and computes any shortfall as one batch, optionally in parallel.
3. **Multicore dispatch** — every exponentiation-heavy kernel hands its
   work to a :class:`~repro.crypto.parallel.ParallelContext` when one is
   configured and the work clears the gate (multiexp shards whole
   outputs); results are bit-identical to serial execution.

All kernels mirror the legacy object path's arithmetic exactly (same
mantissa encodings, same signed reading of negative plaintexts, same
exponent bookkeeping), which the equivalence test-suite pins down.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

from repro.crypto.encoding import EncodedNumber
from repro.crypto.math_utils import invmod, multiexp_blocks, powmod, straus_window
from repro.crypto.parallel import ParallelContext, get_default_context
from repro.obs import tracer as _obs

__all__ = [
    "TENSOR_EXPONENT",
    "PLAIN_EXPONENT",
    "encode_flat",
    "encrypt_flat",
    "crt_decrypt_many",
    "decrypt_flat",
    "align_flat",
    "add_cipher_flat",
    "sub_cipher_flat",
    "add_plain_flat",
    "mul_plain_flat",
    "matmul_plain_cipher_flat",
    "matmul_cipher_plain_flat",
    "sparse_matmul_cipher_flat",
    "sparse_t_matmul_flat",
    "scatter_add_flat",
    "obfuscate_flat",
    "raw_mul_many",
    "multiexp",
]

# Uniform fixed-point exponents (shared with crypto_tensor, which re-exports
# them): encrypted tensors carry ~2**-40 resolution, plaintext multipliers
# ~2**-32; products land at 2**-72, far inside the plaintext bound of even
# the shortest supported keys.
TENSOR_EXPONENT = -40
PLAIN_EXPONENT = -32

_FLOAT_MANT_BITS = EncodedNumber.FLOAT_MANTISSA_BITS
_MIN_DEFAULT_EXPONENT = EncodedNumber.MIN_DEFAULT_EXPONENT


def _resolve(parallel: ParallelContext | None) -> ParallelContext | None:
    return parallel if parallel is not None else get_default_context()


# ---------------------------------------------------------------------------
# Exponentiation execution (the one place serial/parallel diverge).


def raw_mul_many(
    public_key,
    pairs: Sequence[tuple[int, int]],
    parallel: ParallelContext | None = None,
) -> list[int]:
    """``c^m mod n^2`` for every ``(ciphertext, mantissa)`` pair.

    Mirrors ``PaillierPublicKey.raw_mul``; dispatches to the parallel
    context when one is active and the batch clears its gate.  Serves the
    products that are not contractions — elementwise and scalar ones, and
    ``X.T @ cipher``, where one powered batch row feeds many outputs;
    contractions use :func:`multiexp`.
    """
    ctx = _resolve(parallel)
    if ctx is not None and ctx.should_parallelize(len(pairs)):
        return ctx.raw_mul_many(public_key, pairs)
    n = public_key.n
    nsq = public_key.nsquare
    half = n // 2
    out: list[int] = []
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
    if pows:
        trc = _obs.get_tracer()
        if trc is not None:
            trc.add("pow.mul", pows)
    return out


def multiexp(
    public_key,
    bases: Sequence[int],
    blocks: Sequence[tuple[Sequence[int], Sequence[Sequence[int]]]],
    width: int,
    parallel: ParallelContext | None = None,
) -> list[int]:
    """Products of powers ``prod_t bases[rows[t][l]] ^ m_t mod n^2``.

    Each block ``(mantissas, rows)`` yields ``width`` outputs that share
    the plaintext mantissas (residues mod n, read as signed like
    ``raw_mul``) and raise one base per output: ``rows[t][l]`` indexes the
    base term ``t`` contributes to output ``l``.  Outputs come back block by
    block, bit-identical to multiplying ``raw_mul`` terms together.  The
    work is Straus's interleaved windowed product
    (:func:`~repro.crypto.math_utils.multiexp_blocks`) with the window
    chosen from the term count; a configured parallel context shards the
    blocks.  ``mulmod.multiexp`` counts squarings, window multiplies,
    table entries and inversions here, so serial and parallel runs count
    the same.
    """
    n = public_key.n
    nsq = public_key.nsquare
    half = n // 2
    counts: Counter[int] = Counter()
    for mants, _ in blocks:
        counts.update(mants)
    counts.pop(0, None)
    if not counts:
        return [1] * (len(blocks) * width)
    mags = [(n - m if m >= half else m, c) for m, c in counts.items()]
    uses = sum(c for _, c in mags)
    bits = sum(e.bit_length() * c for e, c in mags)
    weight = sum(e.bit_count() * c for e, c in mags)
    # The largest 2^z dividing every exponent.
    shift = min((e & -e).bit_length() - 1 for e, _ in mags)
    ops = 0
    if shift and len(bases) < len(blocks) * width:
        # Binary features encode as 2^32: square each base z times rather
        # than each output.
        bases = [pow(c, 1 << shift, nsq) for c in bases]
        bits -= shift * uses
        ops = shift * len(bases)
    else:
        shift = 0
    w = straus_window(
        uses * width, min(len(bases), uses * width), bits / uses, weight / uses
    )
    ctx = _resolve(parallel)
    if ctx is not None and ctx.should_parallelize(uses * width):
        out, chain_ops = ctx.multiexp(public_key, bases, blocks, width, w, shift)
    else:
        out, chain_ops = multiexp_blocks(bases, blocks, width, w, n, shift, nsq)
    ops += chain_ops
    trc = _obs.get_tracer()
    if trc is not None:
        nb = len(bases)
        keys = {
            b + nb if m >= half else b
            for mants, rows in blocks
            for m, row in zip(mants, rows)
            if m
            for b in row
        }
        inverted = sum(1 for key in keys if key >= nb)
        trc.add("mulmod.multiexp", ops + len(keys) * ((1 << w) - 2) + inverted)
    return out


# ---------------------------------------------------------------------------
# Encoding.


def _encode_mantissa(public_key, value: float, exponent: int) -> int:
    """Fixed-point mantissa residue of ``value`` at ``exponent`` (mod n)."""
    if not math.isfinite(value):
        raise ValueError(f"cannot encode non-finite value {value!r}")
    try:
        mantissa = int(round(math.ldexp(value, -exponent)))
    except OverflowError:
        raise OverflowError(
            f"scalar {value} at exponent {exponent} exceeds plaintext bound"
        ) from None
    if abs(mantissa) > public_key.max_int:
        raise OverflowError(
            f"scalar {value} at exponent {exponent} exceeds plaintext bound"
        )
    return mantissa % public_key.n


def encode_flat(public_key, values: np.ndarray, exponent: int) -> list[int]:
    """Encode a flat float64 array at a uniform exponent, caching repeats."""
    cache: dict[float, int] = {}
    out: list[int] = []
    append = out.append
    for v in np.asarray(values, dtype=np.float64).ravel().tolist():
        m = cache.get(v)
        if m is None:
            m = _encode_mantissa(public_key, v, exponent)
            cache[v] = m
        append(m)
    return out


# ---------------------------------------------------------------------------
# Encrypt / decrypt.


def encrypt_flat(
    public_key,
    values: np.ndarray,
    exponent: int = TENSOR_EXPONENT,
    obfuscate: bool = True,
    parallel: ParallelContext | None = None,
) -> list[int]:
    """Encrypt a flat float array at a uniform exponent.

    ``g = n + 1`` makes the deterministic part a single mulmod; the
    obfuscation factors come from the key's blinding pool (batch-computed,
    optionally parallel, when the pool runs dry).
    """
    n = public_key.n
    nsq = public_key.nsquare
    cts = [(1 + m * n) % nsq for m in encode_flat(public_key, values, exponent)]
    if obfuscate:
        blinders = public_key.blinding_factors(len(cts), parallel=_resolve(parallel))
        cts = [(c * b) % nsq for c, b in zip(cts, blinders)]
    trc = _obs.get_tracer()
    if trc is not None:
        trc.add("ct.encrypted", len(cts))
    return cts


def crt_decrypt_many(
    private_key,
    cts: Sequence[int],
    parallel: ParallelContext | None = None,
) -> list[int]:
    """Raw CRT decryptions ``c -> m`` with ``m in [0, n)`` for a batch.

    The serial path mirrors ``PaillierPrivateKey.raw_decrypt`` exactly;
    when a :class:`~repro.crypto.parallel.ParallelContext` is active and
    the batch clears its gate, the work shards across the context's
    *private* worker tier (CRT constants shipped once to the key owner's
    own OS children — see the custody notes in ``repro.crypto.parallel``),
    bit-identical to serial.
    """
    ctx = _resolve(parallel)
    if ctx is not None and ctx.should_parallelize(len(cts)):
        return ctx.crt_decrypt_many(private_key, cts)
    raw_decrypt = private_key.raw_decrypt
    out = [raw_decrypt(c) for c in cts]
    if out:
        trc = _obs.get_tracer()
        if trc is not None:
            trc.add("pow.crt", 2 * len(out))
            trc.add("ct.decrypted", len(out))
    return out


def decrypt_flat(
    private_key,
    cts: Sequence[int],
    exponents: int | Sequence[int],
    parallel: ParallelContext | None = None,
) -> np.ndarray:
    """CRT-decrypt a flat ciphertext batch to float64.

    ``exponents`` is either one uniform exponent or a per-element sequence
    (ragged tensors appear after the mul-by-one shortcut or mixed adds).
    The CRT exponentiations go through :func:`crt_decrypt_many`, so a
    configured parallel context shards them across the private worker tier.
    """
    pk = private_key.public_key
    n, max_int = pk.n, pk.max_int
    uniform = isinstance(exponents, int)
    out = np.empty(len(cts), dtype=np.float64)
    for i, m in enumerate(crt_decrypt_many(private_key, cts, parallel)):
        if m <= max_int:
            mantissa = m
        elif m >= n - max_int:
            mantissa = m - n
        else:
            raise OverflowError(
                "encoding fell in the overflow guard band; increase the key "
                "size or reduce tensor magnitudes"
            )
        e = exponents if uniform else exponents[i]
        # Keep huge-mantissa/negative-exponent pairs inside float range.
        while abs(mantissa) > 2**1000:
            mantissa >>= 64
            e += 64
        out[i] = math.ldexp(float(mantissa), e)
    return out


# ---------------------------------------------------------------------------
# Exponent alignment.


def _shift_ct(public_key, c: int, shift: int) -> int:
    """Re-express a ciphertext at a ``shift``-bit finer exponent."""
    if shift > public_key.key_bits:
        raise OverflowError(
            f"aligning exponents needs a {shift}-bit shift, beyond the "
            f"{public_key.key_bits}-bit key"
        )
    return public_key.raw_mul(c, 1 << shift)


def align_flat(
    public_key, cts: Sequence[int], exponents: Sequence[int]
) -> tuple[list[int], int]:
    """Bring a ragged batch to its minimum (finest) common exponent."""
    target = min(exponents)
    out = [
        c if e == target else _shift_ct(public_key, c, e - target)
        for c, e in zip(cts, exponents)
    ]
    shifted = sum(1 for e in exponents if e != target)
    if shifted:
        trc = _obs.get_tracer()
        if trc is not None:
            trc.add("pow.shift", shifted)
    return out, target


# ---------------------------------------------------------------------------
# Elementwise kernels.  These mirror EncryptedNumber's per-element exponent
# bookkeeping exactly (pairwise alignment, result at the pairwise minimum),
# so rewiring CryptoTensor onto them is behaviour-preserving.


def add_cipher_flat(
    public_key,
    a_cts: Sequence[int],
    a_exps: Sequence[int],
    b_cts: Sequence[int],
    b_exps: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Elementwise homomorphic ``a + b`` with pairwise exponent alignment."""
    nsq = public_key.nsquare
    out_cts: list[int] = []
    out_exps: list[int] = []
    shifts = 0
    for ca, ea, cb, eb in zip(a_cts, a_exps, b_cts, b_exps):
        if ea > eb:
            ca = _shift_ct(public_key, ca, ea - eb)
            e = eb
            shifts += 1
        elif eb > ea:
            cb = _shift_ct(public_key, cb, eb - ea)
            e = ea
            shifts += 1
        else:
            e = ea
        out_cts.append((ca * cb) % nsq)
        out_exps.append(e)
    if shifts:
        trc = _obs.get_tracer()
        if trc is not None:
            trc.add("pow.shift", shifts)
    return out_cts, out_exps


def sub_cipher_flat(
    public_key,
    a_cts: Sequence[int],
    a_exps: Sequence[int],
    b_cts: Sequence[int],
    b_exps: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Elementwise ``a - b`` (adds the modular inverse of ``b``)."""
    nsq = public_key.nsquare
    inv_b = [invmod(c, nsq) for c in b_cts]
    return add_cipher_flat(public_key, a_cts, a_exps, inv_b, b_exps)


def _default_float_exponent(value: float) -> int:
    """The exponent ``EncodedNumber.encode(..., exponent=None)`` would pick."""
    return max(math.frexp(value)[1] - _FLOAT_MANT_BITS, _MIN_DEFAULT_EXPONENT)


def add_plain_flat(
    public_key,
    cts: Sequence[int],
    exps: Sequence[int],
    values: np.ndarray,
) -> tuple[list[int], list[int]]:
    """Elementwise ``cipher + plain`` at each value's natural precision."""
    n = public_key.n
    nsq = public_key.nsquare
    out_cts: list[int] = []
    out_exps: list[int] = []
    enc_cache: dict[float, tuple[int, int]] = {}
    shifts = 0
    for c, e, v in zip(cts, exps, np.asarray(values, dtype=np.float64).ravel().tolist()):
        cached = enc_cache.get(v)
        if cached is None:
            ev = _default_float_exponent(v)
            cached = (_encode_mantissa(public_key, v, ev), ev)
            enc_cache[v] = cached
        m, ev = cached
        if ev > e:
            m = (m << (ev - e)) % n
            te = e
        elif ev < e:
            c = _shift_ct(public_key, c, e - ev)
            te = ev
            shifts += 1
        else:
            te = e
        out_cts.append((c * (1 + m * n)) % nsq)
        out_exps.append(te)
    if shifts:
        trc = _obs.get_tracer()
        if trc is not None:
            trc.add("pow.shift", shifts)
    return out_cts, out_exps


def mul_plain_flat(
    public_key,
    cts: Sequence[int],
    exps: Sequence[int],
    values: np.ndarray,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], list[int]]:
    """Elementwise ``cipher * plain`` at ``PLAIN_EXPONENT``.

    Multiplying by exactly ``1.0`` returns the ciphertext untouched (the
    value is ``1 * 2^0``, so the exponent is unchanged) and by exactly
    ``0.0`` returns the trivial encryption of zero — neither pays a
    ``pow()``.  Everything else goes through one batched ``raw_mul``.
    """
    flat_vals = np.asarray(values, dtype=np.float64).ravel().tolist()
    out_cts: list[int] = [0] * len(flat_vals)
    out_exps: list[int] = [0] * len(flat_vals)
    jobs: list[tuple[int, int]] = []
    job_slots: list[int] = []
    enc_cache: dict[float, int] = {}
    for i, (c, e, v) in enumerate(zip(cts, exps, flat_vals)):
        if v == 1.0:
            out_cts[i] = c
            out_exps[i] = e
            continue
        if v == 0.0:
            out_cts[i] = 1
            out_exps[i] = e
            continue
        m = enc_cache.get(v)
        if m is None:
            m = _encode_mantissa(public_key, v, PLAIN_EXPONENT)
            enc_cache[v] = m
        jobs.append((c, m))
        job_slots.append(i)
        out_exps[i] = e + PLAIN_EXPONENT
    if jobs:
        for slot, powered in zip(job_slots, raw_mul_many(public_key, jobs, parallel)):
            out_cts[slot] = powered
    return out_cts, out_exps


# ---------------------------------------------------------------------------
# Matrix products.  Dense and CSR ``plain @ cipher`` and ``cipher @ plain``
# are contractions: every output is a product of powers, built by
# :func:`multiexp`.  ``X.T @ cipher`` powers each batch row once and
# scatters it into many outputs, so it keeps the shared-pow job list.


def _mantissa(public_key, enc_cache: dict[float, int], v: float) -> int:
    m = enc_cache.get(v)
    if m is None:
        m = enc_cache[v] = _encode_mantissa(public_key, v, PLAIN_EXPONENT)
    return m


def matmul_plain_cipher_flat(
    public_key,
    plain: np.ndarray,
    cts: Sequence[int],
    k: int,
    exponent: int,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int]:
    """Dense ``plain (s x m) @ cipher (m x k)`` over flat residues.

    Zero entries are skipped; output row ``i`` is one multiexp block whose
    ``k`` outputs share row ``i``'s mantissas.  Returns the flat ``s*k``
    product batch and its uniform exponent.
    """
    plain = np.asarray(plain, dtype=np.float64)
    enc_cache: dict[float, int] = {}
    cipher_rows = [range(t * k, t * k + k) for t in range(plain.shape[1])]
    blocks = []
    for row in plain.tolist():
        nz = [(t, v) for t, v in enumerate(row) if v != 0.0]
        blocks.append((
            [_mantissa(public_key, enc_cache, v) for _, v in nz],
            [cipher_rows[t] for t, _ in nz],
        ))
    return multiexp(public_key, cts, blocks, k, parallel), exponent + PLAIN_EXPONENT


def matmul_cipher_plain_flat(
    public_key,
    cts: Sequence[int],
    plain: np.ndarray,
    s: int,
    exponent: int,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int]:
    """Dense ``cipher (s x m) @ plain (m x k)`` over flat residues.

    Output column ``j`` is one multiexp block: its ``s`` outputs share
    plain column ``j``'s mantissas.
    """
    plain = np.asarray(plain, dtype=np.float64)
    m, k = plain.shape
    enc_cache: dict[float, int] = {}
    cipher_cols = [range(t, t + s * m, m) for t in range(m)]
    blocks = []
    for col in plain.T.tolist():
        nz = [(t, v) for t, v in enumerate(col) if v != 0.0]
        blocks.append((
            [_mantissa(public_key, enc_cache, v) for _, v in nz],
            [cipher_cols[t] for t, _ in nz],
        ))
    by_col = multiexp(public_key, cts, blocks, s, parallel)
    out = [by_col[j * s + i] for i in range(s) for j in range(k)]
    return out, exponent + PLAIN_EXPONENT


def sparse_matmul_cipher_flat(
    public_key,
    rows: Sequence[tuple[Sequence[int], Sequence[float]]],
    m: int,
    cts: Sequence[int],
    k: int,
    exponent: int,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int]:
    """CSR ``plain @ cipher``: cost proportional to nnz.

    Batch row ``i`` is one multiexp block over its stored entries.  Binary
    features all encode as ``2^32``, so the rows become plain products of
    cipher rows raised to ``2^32`` once — per output or per ciphertext,
    whichever is fewer.
    """
    enc_cache: dict[float, int] = {}
    cipher_rows: dict[int, range] = {}
    blocks = []
    for cols, vals in rows:
        mants: list[int] = []
        bases: list[range] = []
        for col, v in zip(cols, vals):
            col = int(col)
            if col >= m:
                raise IndexError("sparse column index out of range")
            fv = float(v)
            if fv == 0.0:
                continue
            mants.append(_mantissa(public_key, enc_cache, fv))
            row = cipher_rows.get(col)
            if row is None:
                row = cipher_rows[col] = range(col * k, col * k + k)
            bases.append(row)
        blocks.append((mants, bases))
    return multiexp(public_key, cts, blocks, k, parallel), exponent + PLAIN_EXPONENT


def sparse_t_matmul_flat(
    public_key,
    rows: Sequence[tuple[Sequence[int], Sequence[float]]],
    cts: Sequence[int],
    k: int,
    exponent: int,
    out_rows: int,
    col_to_out: dict[int, int] | None,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int]:
    """CSR ``X.T (m x batch) @ cipher (batch x k)`` in O(nnz * k) mulmods.

    Exponentiations are deduplicated per batch row: all columns of the row
    holding the same value (ubiquitous for binary features) share one
    powered cipher-row block.
    """
    nsq = public_key.nsquare
    prod_exp = exponent + PLAIN_EXPONENT
    enc_cache: dict[float, int] = {}
    jobs: list[tuple[int, int]] = []
    groups: list[list[int]] = []  # target output rows per k-sized job block
    for i, (cols, vals) in enumerate(rows):
        by_value: dict[float, list[int]] = {}
        for col, v in zip(cols, vals):
            col = int(col)
            if col_to_out is None:
                target = col
                if target >= out_rows:
                    raise IndexError("sparse column index out of range")
            else:
                if col not in col_to_out:
                    raise IndexError("batch touches a column outside `columns`")
                target = col_to_out[col]
            fv = float(v)
            if fv == 0.0:
                continue
            by_value.setdefault(fv, []).append(target)
        base = i * k
        for v, targets in by_value.items():
            mant = _mantissa(public_key, enc_cache, v)
            for j in range(k):
                jobs.append((cts[base + j], mant))
            groups.append(targets)
    powered = raw_mul_many(public_key, jobs, parallel)
    out = [1] * (out_rows * k)
    pos = 0
    for targets in groups:
        block = powered[pos : pos + k]
        pos += k
        for target in targets:
            ob = target * k
            for j in range(k):
                out[ob + j] = (out[ob + j] * block[j]) % nsq
    return out, prod_exp


# ---------------------------------------------------------------------------
# Scatter-add and obfuscation (no exponentiation — pure mulmod loops).


def scatter_add_flat(
    public_key,
    cts: Sequence[int],
    indices: Sequence[int],
    num_rows: int,
    dim: int,
    parallel: ParallelContext | None = None,
    obfuscate_empty: bool = True,
) -> list[int]:
    """Encrypted ``lkup_bw``: homomorphically sum batch rows into a table.

    ``dim`` is the number of ciphertexts per logical row — the column count
    for per-element tensors, or the (smaller) ciphertexts-per-row of a
    packed batch, which makes this the packed scatter-add kernel too: a
    lane-wise sum is the same mulmod either way.

    Untouched table rows would otherwise be the raw residue ``1`` — an
    unblinded, trivially recognisable encryption of zero that leaks exactly
    which rows the batch missed (i.e. the private categorical indices).
    ``obfuscate_empty`` (the default) multiplies *those* rows by fresh
    blinders from the key's pool; touched rows keep exactly their inputs'
    blinding (products of obfuscated inputs stay obfuscated — scatter
    unobfuscated inputs only if a masking step follows before the wire).
    Decoded values are unchanged.  Pass ``False`` only for in-process
    reference comparisons that never cross a party boundary.
    """
    nsq = public_key.nsquare
    out = [1] * (num_rows * dim)
    touched = bytearray(num_rows)
    for bi, r in enumerate(indices):
        r = int(r)
        touched[r] = 1
        ob = r * dim
        ib = bi * dim
        for j in range(dim):
            out[ob + j] = (out[ob + j] * cts[ib + j]) % nsq
    if obfuscate_empty:
        empty = [r for r in range(num_rows) if not touched[r]]
        if empty:
            blinders = public_key.blinding_factors(
                len(empty) * dim, parallel=_resolve(parallel)
            )
            pos = 0
            for r in empty:
                ob = r * dim
                for j in range(dim):
                    out[ob + j] = (out[ob + j] * blinders[pos]) % nsq
                    pos += 1
    return out


def obfuscate_flat(
    public_key,
    cts: Sequence[int],
    parallel: ParallelContext | None = None,
) -> list[int]:
    """Re-randomise a batch with blinders from the precomputed pool."""
    nsq = public_key.nsquare
    blinders = public_key.blinding_factors(len(cts), parallel=_resolve(parallel))
    return [(c * b) % nsq for c, b in zip(cts, blinders)]

"""The pre-kernel object path: per-``EncryptedNumber`` tensor loops.

These are the CryptoTensor primitives as they were before the flat
kernels (``repro.crypto.kernels``): every product is an ``EncryptedNumber``
operation with its own ``pow``.  No protocol code uses them.  They stay,
outside the package, as the reference the kernel equivalence tests pin the
kernels against and the baseline ``bench_kernels.py`` measures speedups
over.  Import with this directory on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.crypto_tensor import PLAIN_EXPONENT, TENSOR_EXPONENT, CryptoTensor
from repro.crypto.encoding import EncodedNumber
from repro.crypto.paillier import PaillierPublicKey

__all__ = [
    "legacy_encrypt",
    "legacy_matmul_plain_cipher",
    "legacy_matmul_cipher_plain",
    "legacy_matmul_sparse_cipher",
    "legacy_sparse_t_matmul_cipher",
    "legacy_scatter_add_rows",
    "legacy_obfuscate",
]


def _common_exponent(data: np.ndarray) -> int:
    return min(enc.exponent for enc in data.ravel())


def _encode_matrix(pk: PaillierPublicKey, arr: np.ndarray) -> np.ndarray:
    """Pre-encode a plaintext matrix once so products reuse the encodings."""
    flat = arr.ravel()
    out = np.empty(flat.shape[0], dtype=object)
    for i, value in enumerate(flat):
        out[i] = EncodedNumber.encode(pk, float(value), exponent=PLAIN_EXPONENT)
    return out.reshape(arr.shape)


def legacy_encrypt(
    public_key: PaillierPublicKey,
    array: np.ndarray,
    exponent: int = TENSOR_EXPONENT,
    obfuscate: bool = True,
) -> CryptoTensor:
    """Per-element object-path encryption (reference/benchmark baseline)."""
    array = np.asarray(array, dtype=np.float64)
    flat = array.ravel()
    out = np.empty(flat.shape[0], dtype=object)
    for i, value in enumerate(flat):
        out[i] = public_key.encrypt(float(value), exponent=exponent, obfuscate=obfuscate)
    return CryptoTensor(public_key, out.reshape(array.shape))


def legacy_matmul_plain_cipher(plain: np.ndarray, ct: CryptoTensor) -> CryptoTensor:
    """Dense ``plain (s x m) @ cipher (m x k)`` via EncryptedNumber ops."""
    plain = np.atleast_2d(plain)
    cdata = ct.data if ct.data.ndim == 2 else ct.data.reshape(-1, 1)
    s, m = plain.shape
    m2, k = cdata.shape
    if m != m2:
        raise ValueError(f"matmul shape mismatch: ({s},{m}) @ ({m2},{k})")
    pk = ct.public_key
    prod_exp = _common_exponent(cdata) + PLAIN_EXPONENT
    encoded = _encode_matrix(pk, plain)
    out = np.empty((s, k), dtype=object)
    for i in range(s):
        row = plain[i]
        nz = np.nonzero(row)[0]
        for j in range(k):
            acc = pk.encrypt_zero(prod_exp)
            for t in nz:
                acc = acc + (cdata[t, j] * encoded[i, t])
            out[i, j] = acc
    return CryptoTensor(pk, out)


def legacy_matmul_sparse_cipher(sparse: object, ct: CryptoTensor) -> CryptoTensor:
    """CSR ``plain @ cipher`` via EncryptedNumber ops."""
    cdata = ct.data if ct.data.ndim == 2 else ct.data.reshape(-1, 1)
    m2, k = cdata.shape
    pk = ct.public_key
    prod_exp = _common_exponent(cdata) + PLAIN_EXPONENT
    rows = list(sparse.iter_rows())
    out = np.empty((len(rows), k), dtype=object)
    for i, (cols, vals) in enumerate(rows):
        encoded_vals = [
            EncodedNumber.encode(pk, float(v), exponent=PLAIN_EXPONENT) for v in vals
        ]
        for j in range(k):
            acc = pk.encrypt_zero(prod_exp)
            for col, enc_val in zip(cols, encoded_vals):
                if col >= m2:
                    raise IndexError("sparse column index out of range")
                acc = acc + (cdata[col, j] * enc_val)
            out[i, j] = acc
    return CryptoTensor(pk, out)


def legacy_sparse_t_matmul_cipher(
    sparse: object, ct: CryptoTensor, columns: np.ndarray | None = None
) -> CryptoTensor:
    """``sparse.T @ cipher`` via EncryptedNumber ops."""
    cdata = ct.data if ct.data.ndim == 2 else ct.data.reshape(-1, 1)
    batch, k = cdata.shape
    n_rows, m = sparse.shape
    if n_rows != batch:
        raise ValueError(f"t_matmul shape mismatch: {sparse.shape}.T @ ({batch},{k})")
    pk = ct.public_key
    prod_exp = _common_exponent(cdata) + PLAIN_EXPONENT
    if columns is None:
        out_rows = m
        col_to_out = None
    else:
        columns = np.asarray(columns, dtype=np.int64)
        out_rows = columns.shape[0]
        col_to_out = {int(c): i for i, c in enumerate(columns)}
    out = np.empty((out_rows, k), dtype=object)
    for i in range(out_rows):
        for j in range(k):
            out[i, j] = pk.encrypt_zero(prod_exp)
    for i, (cols, vals) in enumerate(sparse.iter_rows()):
        for col, val in zip(cols, vals):
            if col_to_out is None:
                target = int(col)
            elif int(col) in col_to_out:
                target = col_to_out[int(col)]
            else:
                raise IndexError("batch touches a column outside `columns`")
            encoded = EncodedNumber.encode(pk, float(val), exponent=PLAIN_EXPONENT)
            for j in range(k):
                out[target, j] = out[target, j] + (cdata[i, j] * encoded)
    return CryptoTensor(pk, out)


def legacy_matmul_cipher_plain(ct: CryptoTensor, plain: np.ndarray) -> CryptoTensor:
    """Dense ``cipher (s x m) @ plain (m x k)`` via EncryptedNumber ops."""
    cdata = ct.data if ct.data.ndim == 2 else ct.data.reshape(1, -1)
    plain = np.atleast_2d(plain)
    s, m = cdata.shape
    m2, k = plain.shape
    if m != m2:
        raise ValueError(f"matmul shape mismatch: ({s},{m}) @ ({m2},{k})")
    pk = ct.public_key
    prod_exp = _common_exponent(cdata) + PLAIN_EXPONENT
    encoded = _encode_matrix(pk, plain)
    out = np.empty((s, k), dtype=object)
    for j in range(k):
        nz = np.nonzero(plain[:, j])[0]
        for i in range(s):
            acc = pk.encrypt_zero(prod_exp)
            for t in nz:
                acc = acc + (cdata[i, t] * encoded[t, j])
            out[i, j] = acc
    return CryptoTensor(pk, out)


def legacy_scatter_add_rows(
    ct: CryptoTensor, indices: np.ndarray, num_rows: int
) -> CryptoTensor:
    """Encrypted ``lkup_bw`` via EncryptedNumber ops."""
    if ct.data.ndim != 2:
        raise ValueError("scatter_add_rows needs a 2-D tensor")
    indices = np.asarray(indices, dtype=int)
    if indices.shape[0] != ct.data.shape[0]:
        raise ValueError("one index per batch row required")
    if indices.size and (indices.min() < 0 or indices.max() >= num_rows):
        raise IndexError("scatter index out of range")
    dim = ct.data.shape[1]
    exponent = _common_exponent(ct.data)
    pk = ct.public_key
    out = np.empty((num_rows, dim), dtype=object)
    for i in range(num_rows):
        for j in range(dim):
            out[i, j] = pk.encrypt_zero(exponent)
    for batch_row, table_row in enumerate(indices):
        for j in range(dim):
            out[table_row, j] = out[table_row, j] + ct.data[batch_row, j]
    return CryptoTensor(pk, out)


def legacy_obfuscate(ct: CryptoTensor) -> CryptoTensor:
    """Per-element re-randomisation via EncryptedNumber ops."""
    flat = ct.data.ravel()
    out = np.empty(flat.shape[0], dtype=object)
    for i, enc in enumerate(flat):
        out[i] = enc.obfuscate()
    return CryptoTensor(ct.public_key, out.reshape(ct.data.shape))

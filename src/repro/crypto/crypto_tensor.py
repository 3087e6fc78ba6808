"""CryptoTensor: batched operations over tensors of Paillier ciphertexts.

The paper's implementation section (§7.1) introduces "an abstraction called
CryptoTensor, which supports fruitful primitives for both dense and sparse
computation of encrypted tensors such as matrix multiplication and scatter
addition", backed by a multi-threaded GMP kernel library.  This module is
that abstraction; since the flat-kernel refactor it is a thin object-array
facade over :mod:`repro.crypto.kernels`, which does all real work on flat
``list[int]`` ciphertext batches:

* every primitive — encrypt, CRT decrypt, elementwise ``+``/``-``/``*``,
  both matmul orientations, sparse ``X.T @ cipher``, ``scatter_add_rows``
  and re-randomisation — lowers the tensor to raw residues, runs an
  allocation-free integer loop, and wraps :class:`EncryptedNumber` objects
  only around the *outputs*;
* every ``plain @ cipher`` / ``cipher @ plain`` output is one
  multi-exponentiation (``kernels.multiexp``): the output's terms share
  one squaring chain and each ciphertext one window table, and zeros are
  never touched — the sparsity speed-up BlindFL's Table 5 is about;
* obfuscation draws ``r^n`` blinders from the public key's precomputed
  pool (see ``PaillierPublicKey.prefill_blinding``), each a fixed-base
  comb evaluation of ``h^x``;
* exponentiation-heavy kernels shard across a
  :class:`~repro.crypto.parallel.ParallelContext` when one is passed in
  (or installed as the process default) — the multicore execution engine.

Plaintext operands may be dense numpy arrays or any object exposing
``iter_rows() -> (col_indices, values)`` per row (our CSR matrices), so
sparse datasets never materialise their zeros.

The pre-kernel, per-``EncryptedNumber`` implementations live outside the
package, in ``benchmarks/legacy_object_path.py``: the equivalence tests pin
the kernels against them and the kernel benchmark measures speedups over
them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.crypto import kernels
from repro.crypto.kernels import PLAIN_EXPONENT, TENSOR_EXPONENT
from repro.crypto.paillier import EncryptedNumber, PaillierPrivateKey, PaillierPublicKey
from repro.crypto.parallel import ParallelContext

__all__ = [
    "CryptoTensor",
    "TENSOR_EXPONENT",
    "PLAIN_EXPONENT",
    "matmul_plain_cipher",
    "matmul_cipher_plain",
    "sparse_matmul_cipher",
    "sparse_t_matmul_cipher",
]


def _flat_parts(data: np.ndarray) -> tuple[list[int], list[int]]:
    """Lower an object array to (ciphertexts, exponents) flat lists."""
    flat = data.ravel()
    cts = [enc.ciphertext for enc in flat]
    exps = [enc.exponent for enc in flat]
    return cts, exps


def _wrap(
    public_key: PaillierPublicKey,
    cts: list[int],
    exponent: int | list[int],
    shape: tuple[int, ...],
) -> np.ndarray:
    """Raise a flat ciphertext batch back into an EncryptedNumber array."""
    out = np.empty(len(cts), dtype=object)
    if isinstance(exponent, int):
        for i, c in enumerate(cts):
            out[i] = EncryptedNumber(public_key, c, exponent)
    else:
        for i, (c, e) in enumerate(zip(cts, exponent)):
            out[i] = EncryptedNumber(public_key, c, e)
    return out.reshape(shape)


class CryptoTensor:
    """A 1-D or 2-D numpy object-array of :class:`EncryptedNumber`."""

    # Make numpy defer all mixed operations to our reflected methods.
    __array_ufunc__ = None
    __array_priority__ = 1000

    __slots__ = ("public_key", "data")

    def __init__(self, public_key: PaillierPublicKey, data: np.ndarray):
        if data.dtype != object:
            raise TypeError("CryptoTensor wraps an object-dtype array")
        self.public_key = public_key
        self.data = data

    # -- construction ---------------------------------------------------------

    @classmethod
    def encrypt(
        cls,
        public_key: PaillierPublicKey,
        array: np.ndarray,
        exponent: int = TENSOR_EXPONENT,
        obfuscate: bool = True,
        parallel: ParallelContext | None = None,
    ) -> "CryptoTensor":
        """Encrypt a float array elementwise at a uniform exponent."""
        array = np.asarray(array, dtype=np.float64)
        cts = kernels.encrypt_flat(
            public_key, array.ravel(), exponent, obfuscate=obfuscate, parallel=parallel
        )
        return cls(public_key, _wrap(public_key, cts, exponent, array.shape))

    @classmethod
    def zeros(
        cls,
        public_key: PaillierPublicKey,
        shape: tuple[int, ...],
        exponent: int = TENSOR_EXPONENT,
    ) -> "CryptoTensor":
        """Unobfuscated encryptions of zero (cheap accumulator seeds)."""
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return cls(public_key, _wrap(public_key, [1] * size, exponent, shape))

    def decrypt(
        self,
        private_key: PaillierPrivateKey,
        parallel: ParallelContext | None = None,
    ) -> np.ndarray:
        """Decrypt elementwise back to float64 (batched CRT kernel).

        With a :class:`~repro.crypto.parallel.ParallelContext` configured
        (explicitly or as the process default), the CRT exponentiations
        shard across the key owner's private worker tier, bit-identically.
        """
        if private_key.public_key != self.public_key:
            raise ValueError("ciphertext was encrypted under a different key")
        cts, exps = _flat_parts(self.data)
        return kernels.decrypt_flat(private_key, cts, exps, parallel).reshape(
            self.data.shape
        )

    # -- shape plumbing --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "CryptoTensor":
        return CryptoTensor(self.public_key, self.data.T)

    def reshape(self, *shape: int) -> "CryptoTensor":
        return CryptoTensor(self.public_key, self.data.reshape(*shape))

    def __getitem__(self, key: object) -> "CryptoTensor | EncryptedNumber":
        item = self.data[key]
        if isinstance(item, np.ndarray):
            return CryptoTensor(self.public_key, item)
        return item

    def take_rows(self, indices: np.ndarray) -> "CryptoTensor":
        """Encrypted-table lookup: gather rows by plaintext indices."""
        if self.data.ndim != 2:
            raise ValueError("take_rows needs a 2-D tensor")
        return CryptoTensor(self.public_key, self.data[np.asarray(indices, dtype=int)])

    # -- elementwise arithmetic -----------------------------------------------

    def _binary(self, other: object, op: str) -> "CryptoTensor":
        pk = self.public_key
        cts, exps = _flat_parts(self.data)
        if isinstance(other, CryptoTensor):
            if other.public_key != pk:
                raise ValueError("cannot add ciphertexts under different keys")
            if other.data.shape != self.data.shape:
                raise ValueError(
                    f"shape mismatch: {self.data.shape} vs {other.data.shape}"
                )
            o_cts, o_exps = _flat_parts(other.data)
            if op == "add":
                out, oexps = kernels.add_cipher_flat(pk, cts, exps, o_cts, o_exps)
            elif op == "sub":
                out, oexps = kernels.sub_cipher_flat(pk, cts, exps, o_cts, o_exps)
            else:
                raise TypeError("cannot multiply two ciphertext tensors under Paillier")
            return CryptoTensor(pk, _wrap(pk, out, oexps, self.data.shape))
        if isinstance(other, (int, float)):
            other_arr = np.full(self.data.shape, float(other), dtype=np.float64)
        else:
            other_arr = np.asarray(other, dtype=np.float64)
            other_arr = np.broadcast_to(other_arr, self.data.shape)
        if other_arr.shape != self.data.shape:
            raise ValueError(
                f"shape mismatch: {self.data.shape} vs {other_arr.shape}"
            )
        values = other_arr.ravel()
        if op == "add":
            out, oexps = kernels.add_plain_flat(pk, cts, exps, values)
        elif op == "sub":
            out, oexps = kernels.add_plain_flat(pk, cts, exps, -values)
        elif op == "mul":
            out, oexps = kernels.mul_plain_flat(pk, cts, exps, values)
        else:  # pragma: no cover - internal misuse
            raise ValueError(op)
        return CryptoTensor(pk, _wrap(pk, out, oexps, self.data.shape))

    def __add__(self, other: object) -> "CryptoTensor":
        return self._binary(other, "add")

    __radd__ = __add__

    def __sub__(self, other: object) -> "CryptoTensor":
        return self._binary(other, "sub")

    def __rsub__(self, other: object) -> "CryptoTensor":
        return (-self) + other

    def __neg__(self) -> "CryptoTensor":
        return self * -1.0

    def __mul__(self, other: object) -> "CryptoTensor":
        if isinstance(other, CryptoTensor):
            raise TypeError("cannot multiply two ciphertext tensors under Paillier")
        return self._binary(other, "mul")

    __rmul__ = __mul__

    # -- matrix products --------------------------------------------------------

    def __matmul__(self, plain: object) -> "CryptoTensor":
        """``cipher @ plain`` — e.g. ``[[grad_Z]] @ U.T`` in Embed-MatMul."""
        return matmul_cipher_plain(self, np.asarray(plain, dtype=np.float64))

    def __rmatmul__(self, plain: object) -> "CryptoTensor":
        """``plain @ cipher`` — e.g. ``X_A @ [[V_A]]`` in MatMul forward."""
        if hasattr(plain, "iter_rows"):
            return sparse_matmul_cipher(plain, self)
        return matmul_plain_cipher(np.asarray(plain, dtype=np.float64), self)

    def scatter_add_rows(
        self,
        indices: np.ndarray,
        num_rows: int,
        parallel: ParallelContext | None = None,
        obfuscate_empty: bool = True,
    ) -> "CryptoTensor":
        """Encrypted ``lkup_bw``: scatter batch rows into a table.

        ``self`` is a (batch, dim) ciphertext tensor and ``indices`` the
        plaintext row ids; the result is a (num_rows, dim) tensor whose row
        ``r`` is the homomorphic sum of all batch rows with index ``r``.
        Rows no batch row landed on are *blinded* encryptions of zero —
        never the raw residue ``1``, which would advertise exactly which
        table rows the private indices missed (``obfuscate_empty=False``
        is for in-process reference comparisons only).
        """
        if self.data.ndim != 2:
            raise ValueError("scatter_add_rows needs a 2-D tensor")
        indices = np.asarray(indices, dtype=int)
        if indices.shape[0] != self.data.shape[0]:
            raise ValueError("one index per batch row required")
        if indices.size and (indices.min() < 0 or indices.max() >= num_rows):
            raise IndexError("scatter index out of range")
        dim = self.data.shape[1]
        pk = self.public_key
        cts, exps = _flat_parts(self.data)
        acts, exp = kernels.align_flat(pk, cts, exps)
        out = kernels.scatter_add_flat(
            pk, acts, indices.tolist(), num_rows, dim,
            parallel=parallel, obfuscate_empty=obfuscate_empty,
        )
        return CryptoTensor(pk, _wrap(pk, out, exp, (num_rows, dim)))

    def obfuscate(self, parallel: ParallelContext | None = None) -> "CryptoTensor":
        """Re-randomise every ciphertext (used before leaving the party)."""
        cts, exps = _flat_parts(self.data)
        out = kernels.obfuscate_flat(self.public_key, cts, parallel=parallel)
        return CryptoTensor(
            self.public_key, _wrap(self.public_key, out, exps, self.data.shape)
        )

    def pack(
        self,
        layout: object,
        value_bits: int | None = None,
        parallel: ParallelContext | None = None,
        contiguous: bool = False,
    ) -> "object":
        """Pack ``slots`` values per ciphertext (see :mod:`repro.crypto.packing`).

        The homomorphic rotate/scatter kernel shifts each element into its
        lane, cutting ciphertext count and wire bytes by the layout's slot
        factor; decryption of the packed tensor decodes bit-identically.
        ``contiguous=True`` packs one dense row-major lane stream
        (transfer-only tensors; no row ops afterwards).
        """
        from repro.crypto.packing import PackedCryptoTensor

        return PackedCryptoTensor.pack(
            self, layout, value_bits=value_bits, parallel=parallel,
            contiguous=contiguous,
        )

    # -- wire format ----------------------------------------------------------

    def to_wire(self) -> tuple[tuple[int, ...], list[int], int | list[int]]:
        """``(shape, ciphertexts, exponents)`` for the wire codec.

        Exponents collapse to a single int when uniform (the overwhelmingly
        common case — kernels emit aligned batches), so the wire header
        stays O(1) instead of O(size).
        """
        cts, exps = _flat_parts(self.data)
        first = exps[0] if exps else TENSOR_EXPONENT
        uniform = all(e == first for e in exps)
        return self.data.shape, cts, (first if uniform else exps)

    @classmethod
    def from_wire(
        cls,
        public_key: PaillierPublicKey,
        shape: tuple[int, ...],
        cts: list[int],
        exponents: int | list[int],
    ) -> "CryptoTensor":
        """Rebuild a tensor from wire fields (inverse of :meth:`to_wire`)."""
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if len(cts) != size:
            raise ValueError(
                f"wire tensor carries {len(cts)} ciphertexts for shape {shape}"
            )
        if not isinstance(exponents, int) and len(exponents) != size:
            raise ValueError("wire tensor exponent count does not match its shape")
        return cls(public_key, _wrap(public_key, cts, exponents, tuple(shape)))

    @staticmethod
    def vstack(tensors: Iterable["CryptoTensor"]) -> "CryptoTensor":
        tensors = list(tensors)
        pk = tensors[0].public_key
        return CryptoTensor(pk, np.vstack([t.data for t in tensors]))

    @staticmethod
    def hstack(tensors: Iterable["CryptoTensor"]) -> "CryptoTensor":
        tensors = list(tensors)
        pk = tensors[0].public_key
        return CryptoTensor(pk, np.hstack([t.data for t in tensors]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CryptoTensor(shape={self.data.shape})"


# ---------------------------------------------------------------------------
# Kernel-backed matrix products.  The explicit functions exist so protocol
# code can thread a ParallelContext; the ``@`` operators route here with the
# process default.


def _aligned_flat(ct: CryptoTensor, cdata: np.ndarray) -> tuple[list[int], int]:
    cts, exps = _flat_parts(cdata)
    return kernels.align_flat(ct.public_key, cts, exps)


def matmul_plain_cipher(
    plain: np.ndarray, ct: CryptoTensor, parallel: ParallelContext | None = None
) -> CryptoTensor:
    """Dense ``plain (s x m) @ cipher (m x k)`` with zero-skipping.

    Accepts a :class:`~repro.crypto.packing.PackedCryptoTensor` right
    operand too (weights packed along the output dimension), in which case
    the product stays packed.
    """
    if not isinstance(ct, CryptoTensor):
        from repro.crypto import packing

        if isinstance(ct, packing.PackedCryptoTensor):
            return packing.pack_matmul_plain_cipher(plain, ct, parallel=parallel)
        raise TypeError(f"expected a CryptoTensor, got {type(ct).__name__}")
    plain = np.atleast_2d(np.asarray(plain, dtype=np.float64))
    cdata = ct.data if ct.data.ndim == 2 else ct.data.reshape(-1, 1)
    s, m = plain.shape
    m2, k = cdata.shape
    if m != m2:
        raise ValueError(f"matmul shape mismatch: ({s},{m}) @ ({m2},{k})")
    pk = ct.public_key
    cts, exp = _aligned_flat(ct, cdata)
    out, oexp = kernels.matmul_plain_cipher_flat(pk, plain, cts, k, exp, parallel)
    return CryptoTensor(pk, _wrap(pk, out, oexp, (s, k)))


def matmul_cipher_plain(
    ct: CryptoTensor, plain: np.ndarray, parallel: ParallelContext | None = None
) -> CryptoTensor:
    """Dense ``cipher (s x m) @ plain (m x k)`` with zero-skipping."""
    cdata = ct.data if ct.data.ndim == 2 else ct.data.reshape(1, -1)
    plain = np.atleast_2d(np.asarray(plain, dtype=np.float64))
    s, m = cdata.shape
    m2, k = plain.shape
    if m != m2:
        raise ValueError(f"matmul shape mismatch: ({s},{m}) @ ({m2},{k})")
    pk = ct.public_key
    cts, exp = _aligned_flat(ct, cdata)
    out, oexp = kernels.matmul_cipher_plain_flat(pk, cts, plain, s, exp, parallel)
    return CryptoTensor(pk, _wrap(pk, out, oexp, (s, k)))


def sparse_matmul_cipher(
    sparse: object, ct: CryptoTensor, parallel: ParallelContext | None = None
) -> CryptoTensor:
    """CSR ``plain @ cipher``: cost proportional to nnz, never touches zeros.

    Packed right operands are routed to the packed kernel (product stays
    packed along the output dimension).
    """
    if not isinstance(ct, CryptoTensor):
        from repro.crypto import packing

        if isinstance(ct, packing.PackedCryptoTensor):
            return packing.pack_sparse_matmul_cipher(sparse, ct, parallel=parallel)
        raise TypeError(f"expected a CryptoTensor, got {type(ct).__name__}")
    cdata = ct.data if ct.data.ndim == 2 else ct.data.reshape(-1, 1)
    m2, k = cdata.shape
    pk = ct.public_key
    rows = list(sparse.iter_rows())
    cts, exp = _aligned_flat(ct, cdata)
    out, oexp = kernels.sparse_matmul_cipher_flat(pk, rows, m2, cts, k, exp, parallel)
    return CryptoTensor(pk, _wrap(pk, out, oexp, (len(rows), k)))


def sparse_t_matmul_cipher(
    sparse: object,
    ct: CryptoTensor,
    columns: np.ndarray | None = None,
    parallel: ParallelContext | None = None,
) -> CryptoTensor:
    """``sparse.T @ cipher`` in O(nnz * k) — the X^T [[grad_Z]] of backprop.

    ``sparse`` is (batch, m) CSR, ``ct`` is (batch, k) ciphertext; the result
    is (m, k).  With ``columns`` given (sorted unique column ids), only those
    rows of the result are produced, shaped (len(columns), k) — the
    sparse-aware "touched coordinates" path of the delta refresh mode.
    """
    cdata = ct.data if ct.data.ndim == 2 else ct.data.reshape(-1, 1)
    batch, k = cdata.shape
    n_rows, m = sparse.shape
    if n_rows != batch:
        raise ValueError(f"t_matmul shape mismatch: {sparse.shape}.T @ ({batch},{k})")
    pk = ct.public_key
    if columns is None:
        out_rows = m
        col_to_out = None
    else:
        columns = np.asarray(columns, dtype=np.int64)
        out_rows = columns.shape[0]
        col_to_out = {int(c): i for i, c in enumerate(columns)}
    rows = list(sparse.iter_rows())
    cts, exp = _aligned_flat(ct, cdata)
    out, oexp = kernels.sparse_t_matmul_flat(
        pk, rows, cts, k, exp, out_rows, col_to_out, parallel
    )
    return CryptoTensor(pk, _wrap(pk, out, oexp, (out_rows, k)))

"""Kernel/legacy equivalence: the flat kernels must decrypt identically to
the per-EncryptedNumber object path on every primitive, across key sizes.

The kernels mirror the legacy arithmetic exactly (same encodings, same
inversion trick, same exponent bookkeeping), so most assertions here are
*bit-level* on the ciphertexts, with float decrypt comparisons as a
backstop for the paths where exponent choices legitimately differ (the
mul-by-one shortcut).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from legacy_object_path import (  # noqa: E402  (path bootstrap above)
    legacy_encrypt,
    legacy_matmul_cipher_plain,
    legacy_matmul_plain_cipher,
    legacy_matmul_sparse_cipher,
    legacy_obfuscate,
    legacy_scatter_add_rows,
    legacy_sparse_t_matmul_cipher,
)
from repro.crypto.crypto_tensor import (  # noqa: E402
    CryptoTensor,
    matmul_cipher_plain,
    matmul_plain_cipher,
    sparse_matmul_cipher,
    sparse_t_matmul_cipher,
)
from repro.crypto.paillier import generate_paillier_keypair
from repro.crypto.parallel import ParallelContext, set_default_context, use_parallel
from repro.tensor.sparse import CSRMatrix

KEY_BITS = [128, 192, 256]


@pytest.fixture(scope="module", params=KEY_BITS)
def sized_keypair(request):
    return generate_paillier_keypair(request.param, seed=1000 + request.param)


def _bit_identical(a: CryptoTensor, b: CryptoTensor) -> bool:
    return all(
        p.ciphertext == q.ciphertext and p.exponent == q.exponent
        for p, q in zip(a.data.ravel(), b.data.ravel())
    )


def _binary_matrix(rng, shape, density=0.4):
    return (rng.random(shape) < density).astype(np.float64)


def test_encrypt_unobfuscated_bit_identical(sized_keypair):
    pk, _ = sized_keypair
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(4, 5))
    assert _bit_identical(
        legacy_encrypt(pk, arr, obfuscate=False),
        CryptoTensor.encrypt(pk, arr, obfuscate=False),
    )


def test_encrypt_obfuscated_same_blinder_stream():
    """Seeded keys: kernel and legacy paths consume the rng identically."""
    arr = np.random.default_rng(1).normal(size=(3, 3))
    pk_a, _ = generate_paillier_keypair(128, seed=77)
    pk_b, _ = generate_paillier_keypair(128, seed=77)
    assert _bit_identical(
        legacy_encrypt(pk_a, arr, obfuscate=True),
        CryptoTensor.encrypt(pk_b, arr, obfuscate=True),
    )


def test_encrypt_pool_prefill_preserves_stream():
    """A prefilled blinding pool must not change the ciphertexts."""
    arr = np.random.default_rng(2).normal(size=(2, 4))
    pk_a, _ = generate_paillier_keypair(128, seed=78)
    pk_b, _ = generate_paillier_keypair(128, seed=78)
    pk_b.prefill_blinding(5)  # fewer than needed: pool + fresh draws mix
    assert _bit_identical(
        CryptoTensor.encrypt(pk_a, arr, obfuscate=True),
        CryptoTensor.encrypt(pk_b, arr, obfuscate=True),
    )


def test_dense_matmul_plain_cipher_bit_identical(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 6))
    x[rng.random(x.shape) < 0.3] = 0.0  # exercise zero-skipping
    enc_v = CryptoTensor.encrypt(pk, rng.normal(size=(6, 3)), obfuscate=False)
    legacy = legacy_matmul_plain_cipher(x, enc_v)
    kernel = matmul_plain_cipher(x, enc_v)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), x @ enc_v.decrypt(sk), atol=1e-6
    )


def test_dense_matmul_cipher_plain_bit_identical(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(4)
    enc_g = CryptoTensor.encrypt(pk, rng.normal(size=(4, 3)), obfuscate=False)
    u = rng.normal(size=(3, 5))
    u[rng.random(u.shape) < 0.3] = 0.0
    legacy = legacy_matmul_cipher_plain(enc_g, u)
    kernel = matmul_cipher_plain(enc_g, u)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(kernel.decrypt(sk), enc_g.decrypt(sk) @ u, atol=1e-6)


def test_sparse_forward_matmul_equivalent(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(5)
    x = CSRMatrix.from_dense(_binary_matrix(rng, (6, 10)))
    enc_v = CryptoTensor.encrypt(pk, rng.normal(size=(10, 3)), obfuscate=False)
    legacy = legacy_matmul_sparse_cipher(x, enc_v)
    kernel = sparse_matmul_cipher(x, enc_v)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), x.to_dense() @ enc_v.decrypt(sk), atol=1e-6
    )


def test_sparse_t_matmul_equivalent(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(6)
    dense = _binary_matrix(rng, (5, 8)) * rng.choice([1.0, 2.5], size=(5, 8))
    x = CSRMatrix.from_dense(dense)
    enc_g = CryptoTensor.encrypt(pk, rng.normal(size=(5, 3)), obfuscate=False)
    legacy = legacy_sparse_t_matmul_cipher(x, enc_g)
    kernel = sparse_t_matmul_cipher(x, enc_g)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), dense.T @ enc_g.decrypt(sk), atol=1e-6
    )


def test_sparse_t_matmul_column_restricted(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(7)
    dense = np.zeros((4, 9))
    dense[:, [1, 4, 7]] = rng.normal(size=(4, 3))
    x = CSRMatrix.from_dense(dense)
    cols = x.column_support()
    enc_g = CryptoTensor.encrypt(pk, rng.normal(size=(4, 2)), obfuscate=False)
    legacy = legacy_sparse_t_matmul_cipher(x, enc_g, columns=cols)
    kernel = sparse_t_matmul_cipher(x, enc_g, columns=cols)
    assert _bit_identical(legacy, kernel)
    np.testing.assert_allclose(
        kernel.decrypt(sk), dense[:, cols].T @ enc_g.decrypt(sk), atol=1e-6
    )


def test_scatter_add_equivalent(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(8)
    grads = rng.normal(size=(7, 3))
    idx = rng.integers(0, 4, size=7)
    enc = CryptoTensor.encrypt(pk, grads, obfuscate=False)
    legacy = legacy_scatter_add_rows(enc, idx, 4)
    kernel = enc.scatter_add_rows(idx, num_rows=4)
    assert _bit_identical(legacy, kernel)
    expected = np.zeros((4, 3))
    np.add.at(expected, idx, grads)
    np.testing.assert_allclose(kernel.decrypt(sk), expected, atol=1e-6)


def test_obfuscate_equivalent_values(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(9)
    arr = rng.normal(size=(3, 3))
    enc = CryptoTensor.encrypt(pk, arr, obfuscate=False)
    np.testing.assert_allclose(legacy_obfuscate(enc).decrypt(sk), arr, atol=1e-9)
    np.testing.assert_allclose(enc.obfuscate().decrypt(sk), arr, atol=1e-9)


def test_elementwise_ops_match_reference(sized_keypair):
    pk, sk = sized_keypair
    rng = np.random.default_rng(10)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    ea = CryptoTensor.encrypt(pk, a)
    eb = CryptoTensor.encrypt(pk, b)
    np.testing.assert_allclose((ea + eb).decrypt(sk), a + b, atol=1e-9)
    np.testing.assert_allclose((ea - eb).decrypt(sk), a - b, atol=1e-9)
    np.testing.assert_allclose((ea + b).decrypt(sk), a + b, atol=1e-9)
    np.testing.assert_allclose((ea - b).decrypt(sk), a - b, atol=1e-9)
    np.testing.assert_allclose((ea * b).decrypt(sk), a * b, atol=1e-8)


def test_mixed_zero_one_multipliers_keep_bookkeeping(sized_keypair):
    """The 0/1 mul shortcuts leave ragged exponents; downstream ops and
    decryption must still be exact."""
    pk, sk = sized_keypair
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 3))
    mult = np.array([[1.0, 0.0, 2.5], [0.0, 1.0, -3.25]])
    ea = CryptoTensor.encrypt(pk, a)
    prod = ea * mult
    np.testing.assert_allclose(prod.decrypt(sk), a * mult, atol=1e-8)
    # Ragged-exponent tensor through add, matmul and scatter-add.
    b = rng.normal(size=(2, 3))
    np.testing.assert_allclose((prod + b).decrypt(sk), a * mult + b, atol=1e-8)
    x = rng.normal(size=(4, 2))
    np.testing.assert_allclose(
        matmul_plain_cipher(x, prod).decrypt(sk), x @ (a * mult), atol=1e-6
    )
    out = prod.scatter_add_rows(np.array([1, 1]), num_rows=2)
    expected = np.zeros((2, 3))
    np.add.at(expected, [1, 1], a * mult)
    np.testing.assert_allclose(out.decrypt(sk), expected, atol=1e-7)


def test_parallel_context_bit_identical_to_serial():
    """A 2-worker pool (forced past the gate) reproduces serial results."""
    pk, sk = generate_paillier_keypair(128, seed=90)
    rng = np.random.default_rng(12)
    x = _binary_matrix(rng, (6, 8))
    enc_v = CryptoTensor.encrypt(pk, rng.normal(size=(8, 3)), obfuscate=False)
    serial = matmul_plain_cipher(x, enc_v)
    g = CryptoTensor.encrypt(pk, rng.normal(size=(6, 2)), obfuscate=False)
    u = rng.normal(size=(2, 4))
    serial_cp = matmul_cipher_plain(g, u)
    with ParallelContext(workers=2, min_jobs=1) as ctx:
        parallel = matmul_plain_cipher(x, enc_v, parallel=ctx)
        parallel_cp = matmul_cipher_plain(g, u, parallel=ctx)
    assert _bit_identical(serial, parallel)
    assert _bit_identical(serial_cp, parallel_cp)
    np.testing.assert_allclose(parallel.decrypt(sk), x @ enc_v.decrypt(sk), atol=1e-6)


def test_default_context_is_used_and_restored():
    pk, _ = generate_paillier_keypair(128, seed=91)
    rng = np.random.default_rng(13)
    x = _binary_matrix(rng, (4, 6))
    enc_v = CryptoTensor.encrypt(pk, rng.normal(size=(6, 2)), obfuscate=False)
    serial = matmul_plain_cipher(x, enc_v)
    assert set_default_context(None) is None  # nothing installed beforehand
    with use_parallel(ParallelContext(workers=2, min_jobs=1)) as ctx:
        from repro.crypto.parallel import get_default_context

        assert get_default_context() is ctx
        via_default = x @ enc_v  # operator path picks up the default
    from repro.crypto.parallel import get_default_context

    assert get_default_context() is None
    assert _bit_identical(serial, via_default)


def test_cross_key_add_rejected(sized_keypair, second_keypair):
    """Mixing ciphertexts from two parties must stay a loud error."""
    pk, _ = sized_keypair
    pk2, _ = second_keypair
    a = CryptoTensor.encrypt(pk, np.array([1.0, 2.0]))
    b = CryptoTensor.encrypt(pk2, np.array([3.0, 4.0]))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b


def test_non_finite_values_rejected_as_value_error(sized_keypair):
    """NaN/inf must raise ValueError (not a misleading OverflowError)."""
    pk, _ = sized_keypair
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            CryptoTensor.encrypt(pk, np.array([1.0, bad]))

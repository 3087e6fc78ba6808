"""Microbenchmark for the flat ciphertext kernels vs the legacy object path.

Measures the primitives the BlindFL protocols spend their time in —
obfuscated encryption, ``plain @ cipher`` matmuls over an s×m×k grid,
sparse ``X.T @ cipher`` and scatter-add — on the legacy per-
``EncryptedNumber`` path, the flat kernel path, and (where exponentiations
dominate) the kernel path sharded across a
:class:`~repro.crypto.parallel.ParallelContext`.

Plaintext operands are drawn the way BlindFL's workloads look: feature
matrices are sparse *binary* (one-hot / multi-hot categorical features,
density ``--density``), which is exactly where the kernels' per-matmul
raw-mul cache collapses ``nnz`` exponentiations per ciphertext element into
one.  A dense-gaussian matmul config is included for the worst case, where
the kernels only save Python object overhead.

A counting-only ``multiexp_counts`` row compares modular multiplications
rather than seconds: an ``8 x T @ T x 8`` contraction with ~48-bit signed
mantissas, counted the pow-per-term way (square-and-multiply steps of each
term's ``pow``, one per inversion, plus the combining multiplies) against
the ``mulmod.multiexp`` counter of ``kernels.multiexp``, for T = 8, 16 and
32 at 256-, 1024- and 2048-bit moduli.  Counts do not depend on the host,
so ``run_bench.check_kernels`` can gate on them.

Emits ``BENCH_kernels.json`` at the repo root so the perf trajectory has a
baseline::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full grid
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI sizes
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import time
from pathlib import Path

import numpy as np

from legacy_object_path import (
    legacy_encrypt,
    legacy_matmul_plain_cipher,
    legacy_matmul_sparse_cipher,
    legacy_scatter_add_rows,
    legacy_sparse_t_matmul_cipher,
)
from repro.crypto.crypto_tensor import (
    CryptoTensor,
    matmul_plain_cipher,
    sparse_matmul_cipher,
    sparse_t_matmul_cipher,
)
from repro.crypto import kernels
from repro.crypto.paillier import PaillierPublicKey, generate_paillier_keypair
from repro.crypto.parallel import ParallelContext
from repro.obs.tracer import Tracer, counter_totals, use_tracer
from repro.tensor.sparse import CSRMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent


def _timeit(fn, repeat: int = 1) -> tuple[float, object]:
    """Best-of-``repeat`` wall time and the last result (for verification)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _feature_matrix(
    rng: np.random.Generator, s: int, m: int, kind: str, density: float
) -> np.ndarray:
    if kind == "binary":
        return (rng.random((s, m)) < density).astype(np.float64)
    return rng.normal(size=(s, m))


def bench_encrypt(pk, size: int, repeat: int, workers: int) -> dict:
    """Obfuscated encryption: legacy objects vs flat kernel vs pooled pool."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=size)
    t_legacy, _ = _timeit(lambda: legacy_encrypt(pk, values, obfuscate=True), repeat)
    t_kernel, _ = _timeit(
        lambda: CryptoTensor.encrypt(pk, values, obfuscate=True), repeat
    )
    # Pool path: prefill off the hot path, then measure the drained encrypt.
    t_prefill, _ = _timeit(lambda: pk.prefill_blinding(size))
    t_pooled, _ = _timeit(lambda: CryptoTensor.encrypt(pk, values, obfuscate=True))
    entry = {
        "size": size,
        "legacy_s": t_legacy,
        "kernel_s": t_kernel,
        "pool_prefill_s": t_prefill,
        "kernel_pooled_s": t_pooled,
        "legacy_ops_per_s": size / t_legacy,
        "kernel_ops_per_s": size / t_kernel,
        "kernel_pooled_ops_per_s": size / t_pooled,
        "speedup_kernel": t_legacy / t_kernel,
        "speedup_pooled": t_legacy / t_pooled,
    }
    if workers >= 2:
        with ParallelContext(workers=workers, min_jobs=1) as ctx:
            t_par, _ = _timeit(
                lambda: CryptoTensor.encrypt(pk, values, obfuscate=True, parallel=ctx),
                repeat,
            )
        entry["kernel_parallel_s"] = t_par
        entry["kernel_parallel_ops_per_s"] = size / t_par
        entry["speedup_parallel_vs_kernel"] = t_kernel / t_par
        entry["parallel_workers"] = workers
    return entry


def bench_matmul(
    pk, sk, s: int, m: int, k: int, kind: str, density: float, repeat: int,
    workers: int, parallel_on: bool,
) -> dict:
    """``plain (s x m) @ cipher (m x k)`` across all three execution paths."""
    rng = np.random.default_rng(1)
    x = _feature_matrix(rng, s, m, kind, density)
    v = rng.normal(size=(m, k))
    enc_v = CryptoTensor.encrypt(pk, v, obfuscate=False)
    t_legacy, out_legacy = _timeit(lambda: legacy_matmul_plain_cipher(x, enc_v), repeat)
    t_kernel, out_kernel = _timeit(lambda: matmul_plain_cipher(x, enc_v), repeat)
    if not np.allclose(
        out_legacy.decrypt(sk), out_kernel.decrypt(sk), atol=1e-6
    ):  # pragma: no cover - correctness tripwire
        raise AssertionError("kernel and legacy matmul disagree")
    entry = {
        "s": s, "m": m, "k": k, "kind": kind,
        "density": density if kind == "binary" else 1.0,
        "legacy_s": t_legacy,
        "kernel_s": t_kernel,
        "legacy_matmuls_per_s": 1.0 / t_legacy,
        "kernel_matmuls_per_s": 1.0 / t_kernel,
        "speedup_kernel": t_legacy / t_kernel,
    }
    if parallel_on and workers >= 2:
        with ParallelContext(workers=workers, min_jobs=1) as ctx:
            t_par, out_par = _timeit(
                lambda: matmul_plain_cipher(x, enc_v, parallel=ctx), repeat
            )
        if not np.allclose(out_kernel.decrypt(sk), out_par.decrypt(sk), atol=1e-9):
            raise AssertionError("parallel matmul diverged from serial")
        entry["kernel_parallel_s"] = t_par
        entry["speedup_parallel_vs_kernel"] = t_kernel / t_par
        entry["speedup_parallel_vs_legacy"] = t_legacy / t_par
        entry["parallel_workers"] = workers
    return entry


def bench_sparse(
    pk, sk, batch: int, m: int, k: int, density: float, repeat: int
) -> dict:
    """CSR forward (``X @ [[V]]``) and backward (``X.T @ [[gZ]]``) products."""
    rng = np.random.default_rng(2)
    x = CSRMatrix.from_dense(_feature_matrix(rng, batch, m, "binary", density))
    v = rng.normal(size=(m, k))
    gz = rng.normal(size=(batch, k))
    enc_v = CryptoTensor.encrypt(pk, v, obfuscate=False)
    enc_gz = CryptoTensor.encrypt(pk, gz, obfuscate=False)
    t_fwd_legacy, o1 = _timeit(lambda: legacy_matmul_sparse_cipher(x, enc_v), repeat)
    t_fwd_kernel, o2 = _timeit(lambda: sparse_matmul_cipher(x, enc_v), repeat)
    t_bwd_legacy, o3 = _timeit(lambda: legacy_sparse_t_matmul_cipher(x, enc_gz), repeat)
    t_bwd_kernel, o4 = _timeit(lambda: sparse_t_matmul_cipher(x, enc_gz), repeat)
    if not np.allclose(o1.decrypt(sk), o2.decrypt(sk), atol=1e-6):
        raise AssertionError("kernel and legacy sparse forward disagree")
    if not np.allclose(o3.decrypt(sk), o4.decrypt(sk), atol=1e-6):
        raise AssertionError("kernel and legacy sparse backward disagree")
    return {
        "batch": batch, "m": m, "k": k, "density": density, "nnz": x.nnz,
        "fwd_legacy_s": t_fwd_legacy,
        "fwd_kernel_s": t_fwd_kernel,
        "fwd_speedup": t_fwd_legacy / t_fwd_kernel,
        "bwd_legacy_s": t_bwd_legacy,
        "bwd_kernel_s": t_bwd_kernel,
        "bwd_speedup": t_bwd_legacy / t_bwd_kernel,
    }


def bench_scatter(pk, sk, batch: int, dim: int, rows: int, repeat: int) -> dict:
    """Encrypted ``lkup_bw`` (scatter-add): pure-mulmod kernel vs objects.

    The kernel blinds untouched table rows (the legacy path leaves them as
    the recognisable raw residue ``1``); production draws those blinders
    from the precomputed pool refilled off the hot path, so the bench
    prefills accordingly and times the in-batch cost.
    """
    rng = np.random.default_rng(3)
    grads = rng.normal(size=(batch, dim))
    idx = rng.integers(0, rows, size=batch)
    enc = CryptoTensor.encrypt(pk, grads, obfuscate=False)
    t_legacy, o1 = _timeit(lambda: legacy_scatter_add_rows(enc, idx, rows), repeat)
    pk.prefill_blinding((repeat + 1) * rows * dim)
    t_kernel, o2 = _timeit(lambda: enc.scatter_add_rows(idx, num_rows=rows), repeat)
    if not np.allclose(o1.decrypt(sk), o2.decrypt(sk), atol=1e-6):
        raise AssertionError("kernel and legacy scatter-add disagree")
    return {
        "batch": batch, "dim": dim, "rows": rows,
        "legacy_s": t_legacy,
        "kernel_s": t_kernel,
        "speedup_kernel": t_legacy / t_kernel,
    }


MULTIEXP_KEY_BITS = (256, 1024, 2048)
MULTIEXP_TERMS = (8, 16, 32)
MULTIEXP_SIDE = 8
MANTISSA_BITS = 48


def bench_multiexp_counts(key_bits: int, terms: int, side: int = MULTIEXP_SIDE) -> dict:
    """Counted mulmods of one ``side x terms @ terms x side`` contraction.

    Counting needs no decryption, so the modulus is a random odd
    ``key_bits``-bit integer and the bases random units mod its square.
    """
    rng = random.Random(key_bits * 1000 + terms)
    n = rng.getrandbits(key_bits) | (1 << (key_bits - 1)) | 1
    pk = PaillierPublicKey(n)
    bases = []
    while len(bases) < terms * side:
        c = rng.randrange(2, pk.nsquare)
        if math.gcd(c, n) == 1:
            bases.append(c)
    signed = [
        rng.choice((-1, 1)) * rng.getrandbits(MANTISSA_BITS) for _ in range(side * terms)
    ]
    blocks = [
        (
            [e % n for e in signed[i * terms : (i + 1) * terms]],
            [range(t * side, t * side + side) for t in range(terms)],
        )
        for i in range(side)
    ]
    # A pow per term: (bits - 1) squarings + (weight - 1) multiplies, an
    # inversion for a negative mantissa, then terms - 1 multiplies to
    # combine each output's powers.
    per_term = side * sum(
        (abs(e).bit_length() - 1) + (abs(e).bit_count() - 1) + (e < 0)
        for e in signed
        if e
    ) + side * side * (terms - 1)
    trc = Tracer()
    with use_tracer(trc):
        kernels.multiexp(pk, bases, blocks, side)
    trc.close()
    multiexp = counter_totals(trc.to_dicts())["mulmod.multiexp"]
    return {
        "key_bits": key_bits,
        "terms": terms,
        "outputs": side * side,
        "mantissa_bits": MANTISSA_BITS,
        "per_term_mulmods": per_term,
        "multiexp_mulmods": multiexp,
        "reduction": per_term / multiexp,
    }


def run(
    key_bits: int = 256,
    quick: bool = False,
    workers: int = 2,
    density: float = 0.3,
    repeat: int = 1,
) -> dict:
    pk, sk = generate_paillier_keypair(key_bits, seed=12345)
    if quick:
        encrypt_size = 64
        matmul_grid = [(8, 16, 4, "binary"), (16, 32, 8, "binary")]
        parallel_from = 10**9  # never — quick mode stays serial
        sparse_cfg = (16, 64, 4)
        scatter_cfg = (32, 4, 16)
    else:
        encrypt_size = 256
        matmul_grid = [
            (8, 16, 4, "binary"),
            (32, 64, 16, "binary"),   # the acceptance config
            (32, 64, 16, "gaussian"),  # dense worst case for the raw-mul cache
            (64, 128, 16, "binary"),  # large config, parallel measured here
        ]
        parallel_from = 64 * 128 * 16
        sparse_cfg = (64, 256, 8)
        scatter_cfg = (128, 8, 64)
    results: dict = {
        "meta": {
            "key_bits": key_bits,
            "quick": quick,
            "parallel_workers": workers,
            "binary_density": density,
            "python": platform.python_version(),
            "machine": platform.machine(),
            # Parallel speedup requires real cores; on a 1-CPU box the
            # 2-worker numbers measure pure dispatch overhead.
            "cpu_count": os.cpu_count(),
        },
        "encrypt": bench_encrypt(pk, encrypt_size, repeat, workers),
        "matmul_plain_cipher": [
            bench_matmul(
                pk, sk, s, m, k, kind, density, repeat, workers,
                parallel_on=(s * m * k >= parallel_from),
            )
            for s, m, k, kind in matmul_grid
        ],
        "sparse_matmul": bench_sparse(pk, sk, *sparse_cfg, density, repeat),
        "scatter_add": bench_scatter(pk, sk, *scatter_cfg, repeat),
        "multiexp_counts": run_counts(MULTIEXP_KEY_BITS[:1] if quick else MULTIEXP_KEY_BITS),
    }
    return results


def run_counts(key_bits: tuple[int, ...] = MULTIEXP_KEY_BITS) -> list[dict]:
    """The counting-only multiexp grid (see the module docstring)."""
    return [
        bench_multiexp_counts(bits, terms)
        for bits in key_bits
        for terms in MULTIEXP_TERMS
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--key-bits", type=int, default=256)
    parser.add_argument("--quick", action="store_true", help="small CI-sized grid")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--density", type=float, default=0.3)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_kernels.json"
    )
    args = parser.parse_args(argv)
    results = run(
        key_bits=args.key_bits,
        quick=args.quick,
        workers=args.workers,
        density=args.density,
        repeat=args.repeat,
    )
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    for entry in results["matmul_plain_cipher"]:
        line = (
            f"matmul {entry['s']}x{entry['m']}x{entry['k']} ({entry['kind']}): "
            f"legacy {entry['legacy_s']:.3f}s  kernel {entry['kernel_s']:.3f}s  "
            f"speedup {entry['speedup_kernel']:.2f}x"
        )
        if "speedup_parallel_vs_kernel" in entry:
            line += (
                f"  parallel({entry['parallel_workers']}w) "
                f"{entry['kernel_parallel_s']:.3f}s "
                f"({entry['speedup_parallel_vs_kernel']:.2f}x over serial kernel)"
            )
        print(line)
    sp = results["sparse_matmul"]
    print(
        f"sparse fwd speedup {sp['fwd_speedup']:.2f}x, bwd speedup "
        f"{sp['bwd_speedup']:.2f}x; scatter-add speedup "
        f"{results['scatter_add']['speedup_kernel']:.2f}x; encrypt kernel "
        f"{results['encrypt']['speedup_kernel']:.2f}x "
        f"(pooled {results['encrypt']['speedup_pooled']:.2f}x)"
    )
    for row in results["multiexp_counts"]:
        print(
            f"multiexp {row['terms']} terms @ {row['key_bits']}b: "
            f"{row['per_term_mulmods']} -> {row['multiexp_mulmods']} mulmods "
            f"({row['reduction']:.2f}x fewer)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

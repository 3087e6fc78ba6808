"""Multi-exponentiation kernels: Straus products and the λ-blinder comb.

Both kernels must return exactly the residue the pow-per-term path would:
``kernels.multiexp`` against a product of ``raw_mul`` terms (signed
mantissas, repeated bases, empty products, serial against the pool), and
``FixedBaseComb`` against builtin ``pow`` (including through a
``set_blinding_lambda`` flip, which must rebuild the table).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import kernels
from repro.crypto.math_utils import FixedBaseComb, batch_invmod
from repro.crypto.paillier import PaillierPublicKey, generate_paillier_keypair
from repro.crypto.parallel import ParallelContext
from repro.obs.tracer import Tracer, counter_totals, use_tracer

KEYS = {bits: generate_paillier_keypair(bits, seed=2000 + bits) for bits in (128, 192, 256)}


def _bases(pk, count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [pk.raw_encrypt(rng.randrange(pk.n)) for _ in range(count)]


def _mantissa(pk, kind: str, small: int) -> int:
    n, half = pk.n, pk.n // 2
    return {
        "zero": 0,
        "one": 1,
        "minus_one": n - 1,
        "below_half": half - 1,
        "half": half,
        "above_half": half + 1,
        "positive": small,
        "negative": (n - small) % n,
    }[kind]


def _reference(pk, bases, blocks, width) -> list[int]:
    out = []
    for mants, rows in blocks:
        for lane in range(width):
            acc = 1
            for m, row in zip(mants, rows):
                acc = acc * pk.raw_mul(bases[row[lane]], m) % pk.nsquare
            out.append(acc)
    return out


_term = st.tuples(
    st.sampled_from(
        ["zero", "one", "minus_one", "below_half", "half", "above_half",
         "positive", "negative"]
    ),
    st.integers(0, 2**48),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    bits=st.sampled_from(sorted(KEYS)),
    n_bases=st.integers(1, 5),
    width=st.integers(1, 3),
    data=st.data(),
)
def test_multiexp_equals_product_of_raw_muls(bits, n_bases, width, data):
    pk, _ = KEYS[bits]
    bases = _bases(pk, n_bases, seed=n_bases * 10 + width)
    blocks = []
    for _ in range(data.draw(st.integers(0, 4), label="blocks")):
        terms = data.draw(st.lists(_term, max_size=5), label="terms")
        rows = [
            data.draw(st.lists(st.integers(0, n_bases - 1), min_size=width, max_size=width))
            for _ in terms
        ]
        blocks.append(([_mantissa(pk, kind, small) for kind, small in terms], rows))
    assert kernels.multiexp(pk, bases, blocks, width) == _reference(pk, bases, blocks, width)


@pytest.mark.parametrize("bits", sorted(KEYS))
def test_multiexp_edge_cases(bits):
    pk, sk = KEYS[bits]
    bases = _bases(pk, 3, seed=bits)
    n = pk.n
    cases = [
        [],  # no blocks at all
        [([], [])],  # an empty product is 1
        [([5], [[1]])],  # a single term
        [([1], [[2]])],  # exponent 1: the base itself
        [([n - 1], [[0]])],  # -1: the inverse
        [([3, n - 3], [[1], [1]])],  # a base against its own inverse power
        [([7, 7, n - 2], [[0], [0], [0]])],  # repeated base in one product
    ]
    for blocks in cases:
        assert kernels.multiexp(pk, bases, blocks, 1) == _reference(pk, bases, blocks, 1)
    assert kernels.multiexp(pk, bases, [([], [])], 3) == [1, 1, 1]
    # Decrypts to the signed plaintext combination.
    plain = [11, -4, 9]
    cts = [pk.raw_encrypt(p % n) for p in plain]
    (prod,) = kernels.multiexp(pk, cts, [([2, n - 3, 1], [[0], [1], [2]])], 1)
    assert sk.raw_decrypt(prod) == (2 * 11 + 3 * 4 + 9) % n


@pytest.mark.parametrize("bits", sorted(KEYS))
def test_multiexp_common_power_of_two_factor(bits):
    """Binary features encode as 2^32: with fewer bases than outputs the
    shared factor is applied to each base, with more to each output."""
    pk, _ = KEYS[bits]
    n = pk.n
    mants = [1 << 32, n - (1 << 33), 3 << 32, 5 << 34]
    for n_bases, n_blocks in ((3, 4), (12, 2)):
        bases = _bases(pk, n_bases, seed=n_bases)
        rng = random.Random(n_blocks)
        blocks = [
            (
                [rng.choice(mants) for _ in range(3)],
                [[rng.randrange(n_bases) for _ in range(2)] for _ in range(3)],
            )
            for _ in range(n_blocks)
        ]
        assert kernels.multiexp(pk, bases, blocks, 2) == _reference(pk, bases, blocks, 2)


def test_multiexp_serial_matches_parallel_and_counts_identically():
    pk, _ = KEYS[256]
    rng = np.random.default_rng(5)
    bases = _bases(pk, 24, seed=3)
    mants = [int(m) % pk.n for m in rng.integers(-(2**40), 2**40, size=48)]
    blocks = [
        (mants[i * 8 : i * 8 + 8], [range(t * 3, t * 3 + 3) for t in range(8)])
        for i in range(6)
    ]

    def run(parallel):
        trc = Tracer()
        with use_tracer(trc):
            out = kernels.multiexp(pk, bases, blocks, 3, parallel)
        trc.close()
        return out, counter_totals(trc.to_dicts())

    serial, serial_counts = run(None)
    with ParallelContext(workers=2, min_jobs=1) as ctx:
        parallel, parallel_counts = run(ctx)
    assert serial == parallel == _reference(pk, bases, blocks, 3)
    assert serial_counts == parallel_counts
    assert serial_counts["mulmod.multiexp"] > 0
    assert "pow.mul" not in serial_counts


def test_batch_invmod_matches_invmod():
    pk, _ = KEYS[128]
    values = _bases(pk, 6, seed=9)
    assert batch_invmod(values, pk.nsquare) == [pow(v, -1, pk.nsquare) for v in values]
    assert batch_invmod([], pk.nsquare) == []
    with pytest.raises(ValueError):
        batch_invmod([values[0], pk.n], pk.nsquare)


# ---------------------------------------------------------------------------
# Fixed-base comb (λ blinders)


@pytest.mark.parametrize("bits", sorted(KEYS))
@pytest.mark.parametrize("lam", [1, 16, 128])
def test_comb_equals_pow(bits, lam):
    pk, _ = KEYS[bits]
    h = _bases(pk, 1, seed=lam)[0]
    rng = random.Random(lam)
    exps = [0, 1, 2**lam - 1] + [rng.randrange(1, 2**lam) for _ in range(8)]
    comb = FixedBaseComb(h, lam, pk.nsquare)
    assert len(comb.rows) == -(-lam // comb.w)
    assert comb.pow_many(exps) == [pow(h, x, pk.nsquare) for x in exps]
    with pytest.raises(ValueError):
        comb.pow_many([2**lam])


def _expected_blinders(key: PaillierPublicKey, count: int) -> list[int]:
    """What ``_compute_blinders`` must return, drawn with builtin ``pow``."""
    h = key._ensure_h()
    exps = [key._rng.randrange(1, 1 << key.blinding_lambda) for _ in range(count)]
    return [pow(h, x, key.nsquare) for x in exps]


def test_lambda_blinders_are_builtin_pows():
    pk, _ = KEYS[256]
    key = PaillierPublicKey(pk.n, rng=random.Random(4))
    twin = PaillierPublicKey(pk.n, rng=random.Random(4))
    assert key.blinding_factors(12) == _expected_blinders(twin, 12)
    assert key._comb.base == key._h and key._comb.bits == key.blinding_lambda


def test_set_blinding_lambda_rebuilds_comb():
    pk, sk = KEYS[192]
    key = PaillierPublicKey(pk.n, rng=random.Random(8), blinding_lambda=64)
    twin = PaillierPublicKey(pk.n, rng=random.Random(8), blinding_lambda=64)
    assert key.blinding_factors(3) == _expected_blinders(twin, 3)
    old = key._comb
    key.set_blinding_lambda(32)
    twin.set_blinding_lambda(32)
    assert key._comb is None and key._h is None
    blinders = key.blinding_factors(4)
    assert blinders == _expected_blinders(twin, 4)
    assert key._comb is not old and key._comb.bits == 32 and key._comb.base == key._h
    assert all(sk.raw_decrypt(b) == 0 for b in blinders)


def test_comb_follows_a_restored_base():
    """A key whose ``_h`` is replaced (checkpoint restore) never reuses a
    table built for the old base."""
    pk, _ = KEYS[128]
    key = PaillierPublicKey(pk.n, rng=random.Random(1))
    key.blinding_factors(2)
    donor = PaillierPublicKey(pk.n, rng=random.Random(2))
    donor._ensure_h()
    key._h = donor._h
    key._rng = random.Random(3)
    twin = PaillierPublicKey(pk.n, rng=random.Random(3))
    twin._h = donor._h
    assert key.blinding_factors(3) == _expected_blinders(twin, 3)
    assert key._comb.base == donor._h


def test_parallel_comb_refill_matches_serial():
    pk, _ = KEYS[128]
    serial_key = PaillierPublicKey(pk.n, rng=random.Random(21), blinding_lambda=48)
    parallel_key = PaillierPublicKey(pk.n, rng=random.Random(21), blinding_lambda=48)
    with ParallelContext(workers=2, min_jobs=1) as ctx:
        first = parallel_key.blinding_factors(6, parallel=ctx)
        second = parallel_key.blinding_factors(5, parallel=ctx)
    assert first == serial_key.blinding_factors(6)
    assert second == serial_key.blinding_factors(5)

"""Number-theoretic primitives backing the Paillier cryptosystem.

Pure-Python replacements for the GMP routines the paper's implementation
uses: Miller-Rabin primality testing, random prime generation, modular
inverses and lcm.  ``pow`` with three arguments already gives us fast
modular exponentiation on CPython; the two multi-exponentiation kernels
built on it — Straus products of many powers (:func:`multiexp_blocks`)
and fixed-base comb powers (:class:`FixedBaseComb`) — share the squarings
a pow per term would repeat.

When the optional ``gmpy2`` package is installed (``pip install
.[fast]``), :func:`powmod` and :func:`invert` route through GMP instead —
several-fold faster on the 2048-bit operands of production keys.  The fast
path is a feature flag (:func:`use_gmpy2`), defaults to on when the library
imports, and always returns plain python ``int`` so ciphertexts stay
ordinary integers either way.  The pure-python fallback is never removed;
both paths are pinned against each other in the test-suite.
"""

from __future__ import annotations

import os
import random
from operator import itemgetter

try:  # pragma: no cover - exercised only when gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # the container image has no gmpy2; pure python it is
    _gmpy2 = None

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "invmod",
    "lcm",
    "crt_pair",
    "powmod",
    "invert",
    "batch_invmod",
    "straus_window",
    "multiexp_blocks",
    "FixedBaseComb",
    "to_mpz",
    "have_gmpy2",
    "gmpy2_enabled",
    "use_gmpy2",
]

# Feature flag: on iff gmpy2 imported and REPRO_PURE_PYTHON is unset.
_GMPY2_ENABLED = _gmpy2 is not None and os.environ.get("REPRO_PURE_PYTHON") != "1"


def have_gmpy2() -> bool:
    """Whether the optional gmpy2 dependency is importable at all."""
    return _gmpy2 is not None


def gmpy2_enabled() -> bool:
    """Whether :func:`powmod`/:func:`invert` currently route through GMP."""
    return _GMPY2_ENABLED


def use_gmpy2(enabled: bool) -> bool:
    """Toggle the gmpy2 fast path; returns the previous state.

    Enabling without gmpy2 installed raises so a mis-provisioned deployment
    fails loudly instead of silently running the slow path.
    """
    global _GMPY2_ENABLED
    if enabled and _gmpy2 is None:
        raise RuntimeError(
            "gmpy2 is not installed; install the '[fast]' extra to enable it"
        )
    previous = _GMPY2_ENABLED
    _GMPY2_ENABLED = bool(enabled)
    return previous


def to_mpz(value: int):
    """Convert to gmpy2's mpz when the fast path is on (identity otherwise).

    Useful for hoisting a conversion out of a loop that will call
    :func:`powmod` many times against the same modulus.
    """
    if _GMPY2_ENABLED:
        return _gmpy2.mpz(value)
    return value


def powmod(base: int, exp: int, mod: int) -> int:
    """``base ** exp % mod`` via gmpy2 when enabled, builtin ``pow`` otherwise."""
    if _GMPY2_ENABLED:
        return int(_gmpy2.powmod(base, exp, mod))
    return pow(base, exp, mod)


def invert(a: int, m: int) -> int:
    """Modular inverse via gmpy2 when enabled (raises if not invertible)."""
    if _GMPY2_ENABLED:
        try:
            return int(_gmpy2.invert(a, m))
        except ZeroDivisionError:
            raise ValueError("base is not invertible for the given modulus") from None
    return pow(a, -1, m)


def batch_invmod(values, mod: int) -> list[int]:
    """Inverses of every value mod ``mod`` from one modular inverse.

    Montgomery's trick: invert the running product once, then peel the
    individual inverses off with three multiplications each.  Raises
    ``ValueError`` like :func:`invmod` if any value is not invertible.
    """
    prefix: list[int] = []
    acc = 1
    for v in values:
        acc = acc * v % mod
        prefix.append(acc)
    if not prefix:
        return []
    inv = invmod(acc, mod)
    out = [0] * len(prefix)
    for i in range(len(prefix) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % mod
        inv = inv * values[i] % mod
    out[0] = inv
    return out


# ---------------------------------------------------------------------------
# Multi-exponentiation.  Both kernels return exactly the residue a chain of
# builtin pows would, so ciphertexts stay bit-identical; they only share
# the work a pow-per-term loop repeats.


def straus_window(uses: int, bases: int, bits: float, popcount: float) -> int:
    """Window width for :func:`multiexp_blocks`.

    ``uses`` is the number of (term, output) pairs, ``bases`` a bound on
    the distinct bases, ``bits`` / ``popcount`` the mean exponent length
    and weight.  A ``w``-bit window costs ``2^w - 2`` table entries per
    base plus one multiply per nonzero window per use; squarings do not
    depend on ``w``.  Single-bit exponents (binary features, lane shifts)
    come out at ``w = 1``: no table beyond the base itself.
    """
    best_w, best_cost = 1, None
    for w in range(1, 7):
        windows = -(-bits // w) * (1.0 - 2.0**-w)
        cost = bases * ((1 << w) - 2) + uses * min(popcount, windows)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def multiexp_blocks(
    bases, blocks, width: int, w: int, n: int, shift: int, mod: int
) -> tuple[list[int], int]:
    """Interleaved (Straus) products ``prod_t bases[row_t[l]] ** e_t % mod``.

    ``blocks`` is a list of ``(mantissas, rows)``: the mantissas are
    residues mod ``n`` shared by the block's ``width`` outputs, read as
    signed exponents like ``raw_mul`` does (``m >= n // 2`` means
    ``m - n``) and divided by ``2^shift`` — the caller has raised every
    base to ``2^shift`` already.  ``rows[t]`` holds the ``width`` base
    indices term ``t`` raises, one per output.  Every output of a block
    shares one squaring chain over the block's longest exponent, visiting
    only the ``w``-bit windows where some term has a nonzero digit; the
    squarings between two such windows are one builtin ``pow(a, 2^s)``.
    Each base's window table ``[1, c, c^2, .., c^(2^w-1)]`` is built on
    first use and shared by every output that uses it.  Bases used with a
    negative exponent are inverted once for the whole call
    (:func:`batch_invmod`).

    Returns the ``len(blocks) * width`` products, block by block, and the
    squarings plus window multiplies spent.  That count is additive over
    blocks, so sharded runs sum to the serial figure; table entries and
    inversions are per call and counted by the caller.
    """
    half = n // 2
    nb = len(bases)
    neg = sorted({b for mants, rows in blocks for m, row in zip(mants, rows) if m >= half for b in row})
    inv_of = dict(zip(neg, batch_invmod([bases[b] for b in neg], mod)))
    tables: list[list[int] | None] = [None] * (2 * nb)
    extra = (1 << w) - 2
    mask = (1 << w) - 1
    windows: dict[int, list[tuple[int, int]]] = {}
    # (id(row), sign) -> the row's tables: callers reuse one row object for
    # a base run that recurs across blocks, so it is looked up once.
    row_tabs: dict[tuple[int, bool], list[list[int]]] = {}
    out: list[int] = []
    ops = 0
    for mants, rows in blocks:
        hits: list[tuple[int, list[list[int]], int]] = []
        for m, row in zip(mants, rows):
            if not m:
                continue
            negative = m >= half
            tabs = row_tabs.get((id(row), negative))
            if tabs is None:
                tabs = row_tabs[(id(row), negative)] = []
                for b in row:
                    key = b + nb if negative else b
                    tab = tables[key]
                    if tab is None:
                        c = inv_of[b] if negative else bases[b] % mod
                        tab = [1, c]
                        for _ in range(extra):
                            tab.append(tab[-1] * c % mod)
                        tables[key] = tab
                    tabs.append(tab)
            digits = windows.get(m)
            if digits is None:
                e = (n - m if negative else m) >> shift
                digits = windows[m] = _nonzero_windows(e, w, mask)
            for offset, d in digits:
                hits.append((offset, tabs, d))
        if not hits:
            out.extend([1] * width)
            continue
        hits.sort(key=itemgetter(0), reverse=True)
        accs = None
        above = hits[0][0]
        for offset, tabs, d in hits:
            if accs is None:
                accs = [tab[d] for tab in tabs]
                continue
            if offset != above:
                # The squarings down to this window are one builtin pow per
                # output: the same arithmetic, no Python loop per squaring.
                accs = [pow(a, 1 << (above - offset), mod) for a in accs]
                ops += (above - offset) * width
                above = offset
            if width == 1:
                accs = [accs[0] * tabs[0][d] % mod]
            else:
                accs = [a * tab[d] % mod for a, tab in zip(accs, tabs)]
            ops += width
        if above:
            accs = [pow(a, 1 << above, mod) for a in accs]
            ops += above * width
        out.extend(accs)
    return out, ops


def _nonzero_windows(e: int, w: int, mask: int) -> list[tuple[int, int]]:
    """``(bit offset, digit)`` of every nonzero ``w``-bit window of ``e``."""
    out = []
    while e:
        low = (e & -e).bit_length() - 1
        shift = low - low % w
        d = (e >> shift) & mask
        out.append((shift, d))
        e ^= d << shift
    return out


class FixedBaseComb:
    """Fixed-base windowed powers ``base^x mod mod`` for ``x < 2^bits``.

    Row ``i`` of the table holds ``base^(d * 2^(w*i))`` for every digit
    ``d < 2^w``, so a power is one table lookup per nonzero base-``2^w``
    digit of ``x`` multiplied together — about ``bits / w`` mulmods and no
    squarings, against ``bits`` squarings for a builtin ``pow``.  The
    table costs ``(2^w - 1)`` mulmods per row once per base.
    """

    __slots__ = ("base", "bits", "w", "mod", "rows")

    def __init__(self, base: int, bits: int, mod: int):
        self.base = base
        self.bits = bits
        self.mod = mod
        # Digit width from the exponent size: 8 at λ = 128 (16 rows).
        self.w = w = max(1, min(8, bits.bit_length()))
        self.rows: list[list[int]] = []
        g = base % mod
        for _ in range(-(-bits // w)):
            row = [1, g]
            for _ in range((1 << w) - 2):
                row.append(row[-1] * g % mod)
            self.rows.append(row)
            g = row[-1] * g % mod

    def pow_many(self, exps) -> list[int]:
        """``[base ** x % mod for x in exps]``; each ``x`` in ``[0, 2^bits)``."""
        w, mask, mod, rows = self.w, (1 << self.w) - 1, self.mod, self.rows
        out: list[int] = []
        for x in exps:
            if x >> self.bits:
                raise ValueError(f"exponent exceeds the comb's {self.bits} bits")
            acc = 1
            i = 0
            while x:
                d = x & mask
                if d:
                    acc = acc * rows[i][d] % mod
                x >>= w
                i += 1
            out.append(acc)
        return out

# Deterministic witnesses make Miller-Rabin exact for n < 3.3e24; beyond
# that we add random rounds for a negligible error probability.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int, rounds: int = 16, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic witnesses cover all 64-bit integers exactly; for larger
    candidates ``rounds`` extra random witnesses bound the error below
    4**-rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = rng or random.Random(0x5EED ^ (n & 0xFFFFFFFF))
    witnesses = list(_DETERMINISTIC_WITNESSES)
    witnesses += [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Sample a random prime with exactly ``bits`` bits (top bit set)."""
    if bits < 8:
        raise ValueError("refusing to generate primes below 8 bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force bit length and oddness
        if is_probable_prime(candidate):
            return candidate


def invmod(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m`` (raises if not invertible)."""
    return invert(a, m)


def lcm(a: int, b: int) -> int:
    """Least common multiple."""
    import math

    return a // math.gcd(a, b) * b


def crt_pair(mp: int, mq: int, p: int, q: int, q_inv_p: int) -> int:
    """Combine residues ``mp`` mod p and ``mq`` mod q via Garner's CRT.

    ``q_inv_p`` must be ``invmod(q, p)``.  Returns the unique value mod p*q.
    """
    diff = (mp - mq) % p
    return mq + q * ((diff * q_inv_p) % p)

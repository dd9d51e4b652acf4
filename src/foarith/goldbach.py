"""Concrete number theory: primality, the admissible evens, Goldbach partitions.

An even number alpha is *admissible* here when alpha >= 16 and both
alpha/2 and alpha - 3 are composite.  ``scan`` verifies that every
admissible even up to a limit has at least one Goldbach partition and
counts the partitions.

Two independent routes are kept on purpose.  ``is_prime`` and
``partitions`` use plain trial division and serve as the oracle in
tests; ``admissible_evens`` and ``scan`` are sieve- and FFT-backed for
bulk work and are cross-checked against the trial-division route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "is_prime", "is_admissible", "admissible_evens",
    "partitions", "ScanReport", "scan",
]


def is_prime(n: int) -> bool:
    """Trial division; 0 and 1 are not prime."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def is_admissible(alpha: int) -> bool:
    """Even, at least 16, with alpha/2 and alpha-3 both composite."""
    return (alpha % 2 == 0 and alpha >= 16
            and not is_prime(alpha // 2) and not is_prime(alpha - 3))


def _sieve(limit: int) -> np.ndarray:
    """Boolean array, index i True iff i is prime, for 0 <= i <= limit."""
    if limit < 2:
        return np.zeros(max(limit + 1, 0), dtype=bool)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return flags


def _admissible(flags: np.ndarray) -> np.ndarray:
    """Admissible evens below flags.size, read off the prime sieve flags."""
    evens = np.arange(16, flags.size, 2)
    return evens[~flags[evens // 2] & ~flags[evens - 3]]


def admissible_evens(limit: int) -> list:
    """Ascending list of admissible evens up to and including limit."""
    return _admissible(_sieve(limit)).tolist()


def partitions(alpha: int) -> list:
    """All pairs (p, q) with p <= q, p + q = alpha, both prime, p ascending."""
    if alpha % 2 != 0 or alpha < 4:
        raise ValueError(f"alpha must be an even number >= 4, got {alpha}")
    return [(p, alpha - p) for p in range(2, alpha // 2 + 1)
            if is_prime(p) and is_prime(alpha - p)]


def _pair_counts(flags: np.ndarray) -> np.ndarray:
    """Ordered prime-pair counts by sum, via FFT autoconvolution.

    conv[s] = #{(p, q) : p + q = s, both prime, order significant}.  The
    values stay far below 2**53, so rounding the float convolution back to
    integers is exact as long as every value lies within 0.25 of an
    integer; a larger residual raises ValueError instead of miscounting.
    """
    n = flags.size
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(flags.astype(np.float64), size)
    conv = np.fft.irfft(spectrum * spectrum, size)[:n]
    counts = np.rint(conv)
    residual = float(np.abs(conv - counts).max())
    if residual >= 0.25:
        raise ValueError(f"FFT rounding residual {residual:.3g} is too large for exact counts")
    return counts.astype(np.int64)


@dataclass
class ScanReport:
    limit: int
    members: list
    verified: bool
    first_failure: Optional[int]
    partition_counts: dict

    def to_json_dict(self) -> dict:
        return {
            "limit": self.limit,
            "members": list(self.members),
            "verified": self.verified,
            "first_failure": self.first_failure,
            "partition_counts": {str(k): v for k, v in self.partition_counts.items()},
        }

    def to_csv(self) -> str:
        lines = ["alpha,count"]
        lines.extend(f"{alpha},{count}" for alpha, count in self.partition_counts.items())
        return "\n".join(lines) + "\n"


def scan(limit: int) -> ScanReport:
    """Verify Goldbach on every admissible even up to limit."""
    flags = _sieve(limit)
    members = _admissible(flags)
    if members.size == 0:
        return ScanReport(limit, [], True, None, {})
    conv = _pair_counts(flags)
    counts = (conv[members] + flags[members // 2]) // 2
    failures = members[counts == 0]
    first_failure = int(failures[0]) if failures.size else None
    members_list = members.tolist()
    return ScanReport(limit, members_list, first_failure is None, first_failure,
                      dict(zip(members_list, counts.tolist())))

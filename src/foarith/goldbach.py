"""Concrete number theory: primality, the admissible evens, Goldbach partitions.

An even number alpha is *admissible* here when alpha >= 16 and both
alpha/2 and alpha - 3 are composite.  ``scan`` verifies that every
admissible even up to a limit has at least one Goldbach partition, by
the least prime that splits it, and counts the partitions on demand.

Three independent routes are kept on purpose.  ``is_prime`` uses plain
trial division; ``partitions`` strikes a ``bytearray`` of odd flags and
reads off the pairs whose two flags are both set; ``scan`` decides by a
least-prime search over a numpy sieve, and its partition counts come
from an FFT autoconvolution of the same sieve, checked against that
verdict whenever they are computed.  The tests keep trial division as
the oracle of all three.

``scan`` works on arrays only.  The search applies its first primes as
shifted slices of one boolean mask, the autoconvolution transforms the
odd-index flags alone, and the report turns the admissible evens into a
Python list only when ``ScanReport.members`` is first read;
``ScanReport.to_json`` writes straight from the arrays.

``is_prime`` and ``partitions`` need no numpy, so numpy is imported
inside the array functions: only a process that scans or enumerates by
sieve loads it.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
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


# the largest limit that ``scan`` sieves for: a scan takes about 7 bytes
# per unit of limit, 1.4 GB at this limit
SCAN_LIMIT = 2 * 10**8


def _sieve(limit: int) -> np.ndarray:
    """Boolean array, index i True iff i is prime, for 0 <= i <= limit.

    Raises ValueError for a limit above ``SCAN_LIMIT``, before numpy is
    imported or any flag is allocated.
    """
    if limit > SCAN_LIMIT:
        raise ValueError(f"limit must be at most {SCAN_LIMIT}, got {limit}")
    import numpy as np
    if limit < 2:
        return np.zeros(max(limit + 1, 0), dtype=bool)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return flags


def _admissible(flags: np.ndarray) -> np.ndarray:
    """Admissible evens below flags.size, read off the prime sieve flags.

    An even 2k below flags.size has k < half; from k = 8 on, its half k
    and its 2k - 3 run through two views of the flags in step.
    """
    import numpy as np
    half = (flags.size + 1) // 2
    either_prime = flags[8:half] | flags[13:2 * half - 4:2]
    evens = np.flatnonzero(~either_prime)
    evens *= 2
    evens += 16
    return evens


def admissible_evens(limit: int) -> list:
    """Ascending list of admissible evens up to and including limit."""
    return _admissible(_sieve(limit)).tolist()


# the largest alpha that ``partitions`` sieves for: its odd flags take
# alpha/2 bytes, 10**8 at this limit
PARTITIONS_LIMIT = 2 * 10**8


def partitions(alpha: int) -> list:
    """All pairs (p, q) with p <= q, p + q = alpha, both prime, p ascending.

    From alpha = 6 on both primes are odd.  ``odd[j]`` flags 2j + 1 below
    alpha; p = 2i + 1 pairs with q = alpha - p, whose flag is odd[m - i].
    One AND of the first half of the flags with the mirrored second half
    marks the i at which both are prime.  Raises ValueError for an alpha
    above ``PARTITIONS_LIMIT``, before any flag is allocated.
    """
    if alpha % 2 != 0 or alpha < 4:
        raise ValueError(f"alpha must be an even number >= 4, got {alpha}")
    if alpha > PARTITIONS_LIMIT:
        raise ValueError(f"alpha must be at most {PARTITIONS_LIMIT}, got {alpha}")
    if alpha == 4:
        return [(2, 2)]
    m = alpha // 2 - 1                  # odd[m] flags alpha - 1
    odd = bytearray([1]) * (m + 1)
    odd[0] = 0
    for i in range(1, (math.isqrt(alpha) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd[start::p] = bytes((m - start) // p + 1)
    k = (alpha // 2 - 1) // 2           # the largest i with 2i + 1 <= alpha/2
    # read as "big", the top k + 1 flags come in mirrored order
    both = (int.from_bytes(odd[:k + 1], "little")
            & int.from_bytes(odd[m - k:], "big")).to_bytes(k + 1, "little")
    pairs = []
    i = both.find(1)
    while i >= 0:
        pairs.append((2 * i + 1, alpha - 2 * i - 1))
        i = both.find(1, i + 1)
    return pairs


def _fft_length(n: int) -> int:
    """The least length of the form 2**a or 3 * 2**a that is at least n >= 1."""
    return min(1 << (n - 1).bit_length(), 3 << ((n - 1) // 3).bit_length())


def _pair_counts(flags: np.ndarray) -> np.ndarray:
    """Ordered prime-pair counts by sum, via FFT autoconvolution.

    conv[s] = #{(p, q) : p + q = s, both prime, order significant}, for
    s < flags.size.  Only the odd-index flags are transformed, at half
    the length of the whole array: odd q and r give (2i + 1) + (2j + 1) =
    2(i + j) + 2.  The transform length is the least 2**a or 3 * 2**a that
    holds the whole linear convolution, so no sum wraps around.  The sums
    with the even prime, 2 + q, q + 2 and 2 + 2, are added as a shift.
    The values stay far below 2**53, so rounding the float convolution
    back to integers is exact as long as every value lies within 0.25 of
    an integer; a larger residual raises ValueError instead of
    miscounting.
    """
    import numpy as np
    n = flags.size
    counts = np.zeros(n, dtype=np.int64)
    even = counts[2::2]          # even[m] counts the sum 2m + 2
    if even.size:
        odd = flags[1::2]        # odd[j] flags 2j + 1
        size = _fft_length(2 * odd.size - 1)
        spectrum = np.fft.rfft(odd.astype(np.float64), size)
        spectrum *= spectrum
        conv = np.fft.irfft(spectrum, size)[:even.size]
        rounded = np.rint(conv)
        residual = float(np.abs(conv - rounded).max())
        if residual >= 0.25:
            raise ValueError(f"FFT rounding residual {residual:.3g} is too large for exact counts")
        even[:] = rounded
    if n > 2 and flags[2]:
        counts[5::2] += 2 * flags[3:n - 2:2]
        counts[4:5] += 1
    return counts


# the primes that _unresolved applies to every number at once
_DENSE_PRIMES = 32


def _unresolved(flags: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The members that are not a sum of two primes, by the least-prime search.

    Oliveira e Silva, Herzog & Pardi (Math. Comp. 83 (2014)): go through
    the primes p in ascending order and drop every member n still open
    for which n - p is prime.  A member still open once 2p > n has no
    partition.  The loop ends at the largest least prime.

    The first ``_DENSE_PRIMES`` primes, which resolve most members, act on
    a mask over every number up to the largest member, one shifted slice
    each.  That also drops an n below 2p when n - p is prime, which is
    right: n was resolved already at the smaller prime n - p.  The members
    left open go on one prime at a time, from the next prime on.
    """
    import numpy as np
    if members.size == 0:
        return members
    n = int(members[-1]) + 1
    primes = np.flatnonzero(flags[:n // 2 + 1])     # a least prime is at most n/2
    composite = ~flags[:n]
    open_ = np.zeros(n, dtype=bool)
    open_[members] = True
    for p in primes[:_DENSE_PRIMES].tolist():
        open_[p:] &= composite[:n - p]
    left = members[open_[members]]
    failed = []
    for p in primes[_DENSE_PRIMES:]:
        if left.size == 0:
            break
        # left is ascending, so the members below 2p are a prefix; with
        # them set aside, every n - p is at least p and no index wraps.
        # A copy, and only a nonempty one: a view would keep this round's
        # whole array alive until the end.
        below = int(np.searchsorted(left, 2 * p))
        if below:
            failed.append(left[:below].copy())
        left = left[below:]
        left = left[~flags[left - p]]
    return np.concatenate([*failed, left])


class ScanReport:
    """The verdict of ``scan``; the partition counts are computed on first use.

    ``verified`` and ``first_failure`` come from the least-prime search,
    and ``member_count`` counts the admissible evens it went through.
    The list ``members`` is built on its first read.  The first read of
    ``partition_counts``, ``to_json_dict``, ``to_json`` or ``to_csv`` runs
    the FFT route and checks that its zero counts fall on exactly the
    members the search left unresolved, raising ValueError otherwise.
    """

    def __init__(self, limit: int, flags: np.ndarray, members: np.ndarray,
                 unresolved: np.ndarray):
        self.limit = limit
        self.member_count = members.size
        self.first_failure: Optional[int] = int(unresolved[0]) if unresolved.size else None
        self.verified = self.first_failure is None
        self._flags = flags
        self._members = members
        self._unresolved = unresolved

    @cached_property
    def members(self) -> list:
        """The admissible evens up to ``limit``, ascending."""
        return self._members.tolist()

    @cached_property
    def _counts(self) -> np.ndarray:
        """Unordered prime-pair counts of the members, in member order."""
        import numpy as np
        members = self._members
        if members.size == 0:
            return members
        # no flags[members // 2] term for p = q: a member's half is composite
        counts = _pair_counts(self._flags)[members] // 2
        zero = members[counts == 0]
        if not np.array_equal(zero, self._unresolved):
            alpha = int(np.setxor1d(zero, self._unresolved)[0])
            raise ValueError(f"FFT partition counts and the least-prime search "
                             f"disagree at alpha={alpha}")
        return counts

    @cached_property
    def partition_counts(self) -> dict:
        return dict(zip(self.members, self._counts.tolist()))

    def to_json_dict(self) -> dict:
        counts = self._counts.tolist()
        # one %-format of every member, split, costs far less than str() each
        keys = ("%d," * len(counts) % tuple(self.members)).split(",")
        return {
            "limit": self.limit,
            "members": list(self.members),
            "verified": self.verified,
            "first_failure": self.first_failure,
            "partition_counts": dict(zip(keys, counts)),
        }

    def to_json(self, head: dict) -> str:
        """``head`` then ``to_json_dict()``, in the bytes of ``json.dumps(indent=2)``.

        Written from the arrays: each member is formatted once, for the
        member list and for its key in the count map, and each count's
        text, with the punctuation up to the next key, comes from a table
        indexed by the count.
        """
        fields = {key: json.dumps(value) for key, value in head.items()}
        fields.update(limit=json.dumps(self.limit), members="[]",
                      verified=json.dumps(self.verified),
                      first_failure=json.dumps(self.first_failure), partition_counts="{}")
        if self.member_count:
            members = list(map(str, self._members.tolist()))
            counts = self._counts
            table = ['": %d,\n    "' % count for count in range(int(counts.max()) + 1)]
            rows = [None] * (2 * len(members))
            rows[::2] = members
            rows[1::2] = map(table.__getitem__, counts.tolist())
            fields["members"] = "[\n    " + ",\n    ".join(members) + "\n  ]"
            fields["partition_counts"] = ('{\n    "' + "".join(rows)[:-len(',\n    "')]
                                          + "\n  }")
        return "{\n" + ",\n".join(f"  {json.dumps(key)}: {text}"
                                  for key, text in fields.items()) + "\n}"

    def to_csv(self) -> str:
        import numpy as np
        rows = np.column_stack((self._members, self._counts)).ravel().tolist()
        return "alpha,count\n" + "%d,%d\n" * self.member_count % tuple(rows)


def scan(limit: int) -> ScanReport:
    """Verify Goldbach on every admissible even up to limit, which may be
    at most ``SCAN_LIMIT``."""
    flags = _sieve(limit)
    members = _admissible(flags)
    return ScanReport(limit, flags, members, _unresolved(flags, members))

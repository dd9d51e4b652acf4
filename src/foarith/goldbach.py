"""Concrete number theory: primality, the admissible evens, Goldbach partitions.

An even number alpha is *admissible* here when alpha >= 16 and both
alpha/2 and alpha - 3 are composite.  ``scan`` verifies that every
admissible even up to a limit has at least one Goldbach partition, by
the least prime that splits it, and counts the partitions on demand.

Two readouts run over one sieve, ``_odd_flags``, a ``bytearray`` of
the odd numbers' flags.  ``partitions`` reads off the pairs whose two
flags are both set.  ``scan`` holds each even as its half and decides
by a least-prime search over a numpy view of the flags; its partition
counts come from an FFT autoconvolution of the same flags, checked
against that verdict whenever they are computed, and its member list
is built only when ``ScanReport.members`` is first read.  The JSON and
CSV texts of a scan are written as bytes by numpy, a block of rows at a
time, with no Python object per member.  ``is_prime`` uses plain trial
division, and the tests keep it as the oracle of both readouts.

``is_prime`` and ``partitions`` need no numpy, so numpy is imported
inside the array functions: only a process that scans or enumerates by
sieve loads it.
"""

from __future__ import annotations

import json
import math
from functools import cache, cached_property
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


def _odd_flags(limit: int) -> bytearray:
    """``odd[j]`` is 1 iff 2j + 1 is prime, for every odd 2j + 1 <= limit."""
    if limit < 1:
        return bytearray()
    odd = bytearray([1]) * ((limit + 1) // 2)
    odd[0] = 0
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd[start::p] = bytes((len(odd) - 1 - start) // p + 1)
    return odd


# the largest limit that ``scan`` sieves for: a scan takes about 5.6
# bytes per unit of limit, 1.1 GB at this limit
SCAN_LIMIT = 2 * 10**8


def _sieve(limit: int) -> np.ndarray:
    """``_odd_flags(limit)`` as a boolean array, without a copy.

    Raises ValueError for a limit above ``SCAN_LIMIT``, before numpy is
    imported or any flag is allocated.
    """
    if limit > SCAN_LIMIT:
        raise ValueError(f"limit must be at most {SCAN_LIMIT}, got {limit}")
    import numpy as np
    return np.frombuffer(_odd_flags(limit), dtype=bool)


def _admissible(flags: np.ndarray, limit: int) -> np.ndarray:
    """The halves m of the admissible evens 2m up to limit, ascending.

    From m = 8 on, the odd flags hold 2m - 3 at m - 2 and an odd half m
    at (m - 1)/2; an even half is composite.
    """
    import numpy as np
    composite = ~flags[6:max(limit // 2 - 1, 6)]     # 2m - 3 for m = 8, 9, ...
    odd_halves = composite[1::2]                     # m = 9, 11, ...
    odd_halves &= ~flags[4:4 + odd_halves.size]
    halves = np.flatnonzero(composite)
    halves += 8
    return halves


def admissible_evens(limit: int) -> list:
    """Ascending list of admissible evens up to and including limit."""
    return (2 * _admissible(_sieve(limit), limit)).tolist()


# the largest alpha that ``partitions`` sieves for: its odd flags take
# alpha/2 bytes, 10**8 at this limit
PARTITIONS_LIMIT = 2 * 10**8

# the flags that ``partitions`` ANDs at once, from each half
_AND_BLOCK = 1 << 22


def partitions(alpha: int) -> list:
    """All pairs (p, q) with p <= q, p + q = alpha, both prime, p ascending.

    From alpha = 6 on both primes are odd.  ``odd[j]`` flags 2j + 1 below
    alpha; p = 2i + 1 pairs with q = alpha - p, whose flag is odd[m - i].
    The first half of the flags is ANDed with the mirrored second half, a
    block at a time, to mark the i at which both are prime.  Raises
    ValueError for an alpha above ``PARTITIONS_LIMIT``, before any flag
    is allocated.
    """
    if alpha % 2 != 0 or alpha < 4:
        raise ValueError(f"alpha must be an even number >= 4, got {alpha}")
    if alpha > PARTITIONS_LIMIT:
        raise ValueError(f"alpha must be at most {PARTITIONS_LIMIT}, got {alpha}")
    if alpha == 4:
        return [(2, 2)]
    odd = _odd_flags(alpha - 1)
    m = len(odd) - 1                    # odd[m] flags alpha - 1
    k = (alpha // 2 - 1) // 2           # the largest i with 2i + 1 <= alpha/2
    pairs = []
    for lo in range(0, k + 1, _AND_BLOCK):
        hi = min(lo + _AND_BLOCK, k + 1)
        # read as "big", the flags of q for lo <= i < hi come in mirrored order
        both = (int.from_bytes(odd[lo:hi], "little")
                & int.from_bytes(odd[m - hi + 1:m - lo + 1], "big")).to_bytes(hi - lo, "little")
        i = both.find(1)
        while i >= 0:
            p = 2 * (lo + i) + 1
            pairs.append((p, alpha - p))
            i = both.find(1, i + 1)
    return pairs


def _fft_length(n: int) -> int:
    """The least length 2**a * 3**b * 5**c that is at least n >= 1."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five                      # 3**b * 5**c
        while odd < best:
            # the least odd * 2**a that is at least n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _pair_counts(flags: np.ndarray) -> np.ndarray:
    """Ordered odd-prime-pair counts by sum, via FFT autoconvolution.

    For the odd flags, conv[s] = #{(q, r) : q + r = 2s + 2, both odd
    primes, order significant}, for s < flags.size: (2i + 1) + (2j + 1) =
    2(i + j) + 2.  The transform length is the least 2**a * 3**b * 5**c
    that holds the whole linear convolution, so no sum wraps around; numpy
    transforms such lengths in a time close to that of a power of two.  The
    values stay far below 2**53, so rounding the float convolution back
    to integers is exact as long as every value lies within 0.25 of an
    integer; a larger residual raises ValueError instead of miscounting.
    """
    import numpy as np
    if flags.size == 0:
        return np.zeros(0, dtype=np.int64)
    size = _fft_length(2 * flags.size - 1)
    spectrum = np.fft.rfft(flags.astype(np.float64), size)
    spectrum *= spectrum
    conv = np.fft.irfft(spectrum, size)[:flags.size]
    rounded = np.rint(conv)
    residual = float(np.abs(conv - rounded).max())
    if residual >= 0.25:
        raise ValueError(f"FFT rounding residual {residual:.3g} is too large for exact counts")
    return rounded.astype(np.int64)


# the odd primes that _unresolved applies to every member at once
_DENSE_PRIMES = 32


def _unresolved(flags: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The members that are not a sum of two primes, by the least-prime search.

    Members are the halves m of even numbers n = 2m, ascending; the even
    prime splits no even n >= 6, so ``flags`` are the odd flags.  Oliveira
    e Silva, Herzog & Pardi (Math. Comp. 83 (2014)): go through the odd
    primes p = 2i + 1 in ascending order and drop every member still open
    for which n - p, flagged at m - i - 1, is prime.  A member still open
    once p > m has no partition.  The loop ends at the largest least prime.

    The first ``_DENSE_PRIMES`` odd primes, which resolve most members,
    act on a mask over every half up to the largest member, one shifted
    slice each.  That also drops an n below 2p when n - p is prime, which
    is right: n was resolved already at the smaller prime n - p.  The
    members left open go on one prime at a time, from the next prime on.
    """
    import numpy as np
    if members.size == 0:
        return members
    h = int(members[-1]) + 1
    indices = np.flatnonzero(flags[:h // 2])     # the odd primes 2i + 1 <= n/2
    composite = ~flags[:h]
    open_ = np.zeros(h, dtype=bool)
    open_[members] = True
    for i in indices[:_DENSE_PRIMES].tolist():
        open_[i + 1:] &= composite[:h - i - 1]
    left = members[open_[members]]
    failed = []
    for i in indices[_DENSE_PRIMES:]:
        if left.size == 0:
            break
        # left is ascending, so the members below 2p are a prefix; with
        # them set aside, every n - p is at least p and no index wraps.
        # A copy, and only a nonempty one: a view would keep this round's
        # whole array alive until the end.
        below = int(np.searchsorted(left, 2 * i + 1))
        if below:
            failed.append(left[:below].copy())
        left = left[below:]
        left = left[~flags[left - i - 1]]
    return np.concatenate([*failed, left])


class ScanReport:
    """The verdict of ``scan``; the partition counts are computed on first use.

    ``verified`` and ``first_failure`` come from the least-prime search,
    and ``member_count`` counts the admissible evens it went through.
    The arrays hold the halves of the evens, doubled only where an even
    is shown; the list ``members`` is built on its first read.  The first
    read of ``partition_counts``, ``to_json_dict``, ``to_json`` or
    ``to_csv`` runs the FFT route and checks that its zero counts fall on
    exactly the members the search left unresolved, raising ValueError
    otherwise.  ``to_json`` and ``to_csv`` write their rows from the
    arrays with ``_rows``; ``to_json_dict`` and ``partition_counts`` build
    Python objects.
    """

    def __init__(self, limit: int, flags: np.ndarray, members: np.ndarray,
                 unresolved: np.ndarray):
        self.limit = limit
        self.member_count = members.size
        self.first_failure: Optional[int] = 2 * int(unresolved[0]) if unresolved.size else None
        self.verified = self.first_failure is None
        self._flags = flags
        self._members = members
        self._unresolved = unresolved

    @cached_property
    def members(self) -> list:
        """The admissible evens up to ``limit``, ascending."""
        return (2 * self._members).tolist()

    @cached_property
    def _counts(self) -> np.ndarray:
        """Unordered prime-pair counts of the members, in member order."""
        import numpy as np
        members = self._members
        if members.size == 0:
            return members
        # the sum 2m is counted at m - 1; no p = q term, a member's half is composite
        counts = _pair_counts(self._flags)[members - 1] // 2
        zero = members[counts == 0]
        if not np.array_equal(zero, self._unresolved):
            alpha = 2 * int(np.setxor1d(zero, self._unresolved)[0])
            raise ValueError(f"FFT partition counts and the least-prime search "
                             f"disagree at alpha={alpha}")
        return counts

    @cached_property
    def partition_counts(self) -> dict:
        return dict(zip(self.members, self._counts.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "limit": self.limit,
            "members": list(self.members),
            "verified": self.verified,
            "first_failure": self.first_failure,
            "partition_counts": dict(zip(map(str, self.members), self._counts.tolist())),
        }

    def to_json(self, head: dict) -> str:
        """``head`` then ``to_json_dict()``, in the bytes of ``json.dumps(indent=2)``.

        Written from the arrays by ``_rows``: a member's row in the
        member list is its digits and the separator up to the next one,
        and its row in the count map adds its count and the punctuation
        up to the next key; the last separator of each is cut.
        """
        fields = {key: [json.dumps(value)] for key, value in head.items()}
        fields.update(limit=[json.dumps(self.limit)], members=["[]"],
                      verified=[json.dumps(self.verified)],
                      first_failure=[json.dumps(self.first_failure)], partition_counts=["{}"])
        if self.member_count:
            members = _rows(self._members, None, ",\n    ", "")
            members[-1] = members[-1][:-len(",\n    ")]
            counts = _rows(self._members, self._counts, '": ', ',\n    "')
            counts[-1] = counts[-1][:-len(',\n    "')]
            fields["members"] = ["[\n    ", *members, "\n  ]"]
            fields["partition_counts"] = ['{\n    "', *counts, "\n  }"]
        pieces = ["{"]
        for key, text in fields.items():
            pieces += ("\n  ", json.dumps(key), ": ", *text, ",")
        pieces[-1] = "\n}"
        return "".join(pieces)

    def to_csv(self) -> str:
        rows = _rows(self._members, self._counts, ",", "\n") if self.member_count else []
        return "".join(["alpha,count\n", *rows])


# the rows that _rows formats at once, which bounds its temporaries
_ROW_BLOCK = 1 << 16


@cache
def _digit_pairs() -> np.ndarray:
    """The texts "00" to "99" as 100 uint16 values, each holding its two bytes."""
    import numpy as np
    return np.frombuffer("".join(map("{:02d}".format, range(100))).encode(), dtype=np.uint16)


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The values below 10**width as zero-padded decimal digits, one row each.

    The digits are taken two at a time: each divmod by 100 gives the
    next pair from the right, which is read from ``_digit_pairs``.
    Returns a ``(values.size, width)`` array of ASCII bytes.
    """
    import numpy as np
    table = _digit_pairs()
    pairs = np.empty((values.size, (width + 1) // 2), dtype=np.uint16)
    rest = values.astype(np.int32)
    for k in range(pairs.shape[1] - 1, -1, -1):
        rest, low = np.divmod(rest, 100)
        pairs[:, k] = table.take(low)
    return pairs.view(np.uint8)[:, 2 * pairs.shape[1] - width:]


def _rows(halves: np.ndarray, counts: Optional[np.ndarray], between: str, after: str) -> list:
    """One row of text for each even 2m of the halves m, as one str per block.

    A row is the even's digits and ``between``, then, when ``counts`` is
    given, the digits of the even's count and ``after``.  The halves are
    ascending, so the evens of each decimal width are a run; each block
    is at most ``_ROW_BLOCK`` rows of one run and is written into a
    ``uint8`` array, one fixed-width row per even.  A count is written
    at the width of the block's largest one, its leading zeros set to 0
    bytes, and the 0 bytes are dropped from the block at once.
    """
    import numpy as np
    between_bytes = np.frombuffer(between.encode(), dtype=np.uint8)
    after_bytes = np.frombuffer(after.encode(), dtype=np.uint8)
    blocks, start = [], 0
    for width in range(1, len(str(2 * int(halves[-1]))) + 1):
        end = int(np.searchsorted(halves, 10**width // 2))     # the evens below 10**width
        for lo in range(start, end, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, end)
            count_width = 0 if counts is None else len(str(int(counts[lo:hi].max())))
            row = np.empty((hi - lo, width + between_bytes.size + count_width
                            + after_bytes.size), dtype=np.uint8)
            row[:, :width] = _digits(2 * halves[lo:hi], width)
            at = width + between_bytes.size
            row[:, width:at] = between_bytes
            row[:, at + count_width:] = after_bytes
            if counts is not None:
                digits = row[:, at:at + count_width]
                digits[...] = _digits(counts[lo:hi], count_width)
                for column in range(count_width - 1):
                    digits[:, column] *= counts[lo:hi] >= 10**(count_width - 1 - column)
                row = row[row != 0]
            blocks.append(row.tobytes().decode())
        start = end
    return blocks


def scan(limit: int) -> ScanReport:
    """Verify Goldbach on every admissible even up to limit, which may be
    at most ``SCAN_LIMIT``."""
    flags = _sieve(limit)
    members = _admissible(flags, limit)
    return ScanReport(limit, flags, members, _unresolved(flags, members))

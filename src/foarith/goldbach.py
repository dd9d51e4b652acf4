"""Concrete number theory: primality, the admissible evens, Goldbach partitions.

An even number alpha is *admissible* here when alpha >= 16 and both
alpha/2 and alpha - 3 are composite.  ``scan`` verifies that every
admissible even up to a limit has at least one Goldbach partition, by
the least prime that splits it, and counts the partitions on demand.

Two readouts run over one sieve, ``_odd_flags``, a ``bytearray`` of
the odd numbers' flags.  ``partitions`` reads off the pairs whose two
flags are both set.  ``scan`` marks the admissible evens in one boolean
mask over their halves and decides by a least-prime search over the
negated flags; its partition counts come from FFT products of the same
flags on a mod-6 wheel, checked against that verdict whenever they are
computed.  The flags are negated in place and the search clears the
mask in place; the array of the members' halves is built only when an
output or ``ScanReport.members`` first reads it.  So a text scan holds
the flags and one mask, a byte per half each, and no index.  The JSON
and CSV texts of a scan are written as bytes by numpy, a block of rows
at a time, with no Python object per member.  ``is_prime`` uses plain
trial division, and the tests keep it as the oracle of both readouts.

``is_prime`` and ``partitions`` need no numpy, so numpy is imported
inside the array functions: only a process that scans or enumerates by
sieve loads it.
"""

from __future__ import annotations

import json
import math
from functools import cache, cached_property
from typing import TYPE_CHECKING, Optional

from .syntax import _shown

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


# the largest limit that ``scan`` sieves for.  In a fresh process a text
# scan peaks at about 1.5 bytes per unit of limit (155 MB at 10**8, 291 MB
# at this limit), where the flags, negated in place, and the mask of the
# members take half a byte each, and a ``--json`` scan at about 39
# (391 MB at 10**7), its text held as bytes and as a str
SCAN_LIMIT = 2 * 10**8


def _sieve(limit: int) -> np.ndarray:
    """``_odd_flags(limit)`` as a boolean array, without a copy.

    Raises ValueError for a limit above ``SCAN_LIMIT``, before numpy is
    imported or any flag is allocated.
    """
    if limit > SCAN_LIMIT:
        raise ValueError(f"limit must be at most {SCAN_LIMIT}, got {_shown(str(limit), str)}")
    import numpy as np
    return np.frombuffer(_odd_flags(limit), dtype=bool)


def _admissible(composite: np.ndarray, limit: int) -> np.ndarray:
    """A mask over the halves m = 0 .. limit // 2, set at the halves of
    the admissible evens 2m.

    ``composite`` is the negated odd flags.  From m = 8 on, it holds
    2m - 3 at m - 2 and an odd half m at (m - 1)/2; an even half is
    composite.
    """
    import numpy as np
    admissible = np.zeros(max(limit // 2, 0) + 1, dtype=bool)
    admissible[8:] = composite[6:max(limit // 2 - 1, 6)]         # 2m - 3 for m = 8, 9, ...
    odd_halves = admissible[9::2]                                # m = 9, 11, ...
    odd_halves &= composite[4:4 + odd_halves.size]
    return admissible


def admissible_evens(limit: int) -> list:
    """Ascending list of admissible evens up to and including limit."""
    return (2 * _admissible(~_sieve(limit), limit).nonzero()[0]).tolist()


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
        raise ValueError(f"alpha must be an even number >= 4, got {_shown(str(alpha), str)}")
    if alpha > PARTITIONS_LIMIT:
        raise ValueError(f"alpha must be at most {PARTITIONS_LIMIT}, got {_shown(str(alpha), str)}")
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
    """Ordered odd-prime-pair counts by sum, from FFT products on a mod-6 wheel.

    For the odd flags, counts[s] = #{(q, r) : q + r = 2s + 2, both odd
    primes, order significant}, for s < flags.size: (2i + 1) + (2j + 1) =
    2(i + j) + 2.  Past 3 every prime is 6a + 1, flagged at 3a, or 6a + 5,
    flagged at 3a + 2; a flag at 3a + 1 with a >= 1 marks 6a + 3, a
    multiple of 3, and raises ValueError.  With A and B the flags of the
    two classes, each pair of classes lands on one residue of s mod 3:
    A with A on s = 3k, A with B in either order on 3k + 2, and B with B
    on 3k + 4.  So the products AA, 2AB and BB of two transforms of about
    2n/3 replace one autoconvolution at about 2n, and the pairs with 3
    are added directly.  The transform length is the least
    2**a * 3**b * 5**c that holds each linear convolution, so no sum wraps
    around.  The values stay far below 2**53, so rounding a product back
    to integers is exact as long as every value lies within 0.25 of an
    integer; a larger residual on any product raises ValueError instead
    of miscounting.
    """
    import numpy as np
    counts = np.zeros(flags.size, dtype=np.int64)
    if flags.size == 0:
        return counts
    if flags[4::3].any():
        p = 6 * int(np.argmax(flags[4::3])) + 9
        raise ValueError(f"the odd flags mark {p}, a multiple of 3, as prime")
    size = _fft_length(2 * len(counts[0::3]) - 1)
    a = np.fft.rfft(flags[0::3], size)
    b = np.fft.rfft(flags[2::3], size)
    ab = a * b
    ab *= 2                             # A with B in either order
    # ab is formed before a and b are squared in place
    for start, product in ((2, ab), (0, np.multiply(a, a, out=a)), (4, np.multiply(b, b, out=b))):
        out = counts[start::3]
        conv = np.fft.irfft(product, size)[:out.size]
        rounded = np.rint(conv)
        conv -= rounded
        residual = float(np.abs(conv, out=conv).max(initial=0))
        if residual >= 0.25:
            raise ValueError(f"FFT rounding residual {residual:.3g} is too large for exact counts")
        out[...] = rounded
    if flags.size > 1 and flags[1]:
        # (3, q) and (q, 3) at s = j + 1 for each flagged q = 2j + 1, and 3 + 3 once
        counts[1:] += np.uint8(2) * flags[:-1]
        counts[2:3] -= 1
    return counts


# the odd primes that _unresolved applies to every member at once
_DENSE_PRIMES = 32

# the primes of the first batch of _unresolved's tail, doubled in each
# further batch, and the (member, prime) cells that one batch reads at most
_TAIL_PRIMES = 16
_TAIL_CELLS = 1 << 14

# the flags that _unresolved reads its first primes from; the rest are
# read at once when these are spent
_PRIME_SPAN = 1 << 12


def _unresolved(composite: np.ndarray, admissible: np.ndarray) -> np.ndarray:
    """The members that are not a sum of two primes, by the least-prime search.

    The members are the halves m of even numbers n = 2m that the mask
    ``admissible`` sets, and the result holds the halves of those left
    unresolved, ascending; the even prime splits no even n >= 6, so
    ``composite`` is the negated odd flags.  Oliveira e Silva, Herzog &
    Pardi (Math. Comp. 83 (2014)): go through the odd primes p = 2i + 1
    in ascending order and drop every member still open for which
    n - p, flagged at m - i - 1, is prime.  A member still open once
    p > m has no partition.  The search ends at the largest least prime.

    The primes are read from the first ``_PRIME_SPAN`` flags, and from
    the rest of the flags up to n/2 in one more read once those are
    spent; the least primes are small, so most scans read one span.  The
    first ``_DENSE_PRIMES`` odd primes, which resolve most members, clear
    the mask in place, one shifted slice each, and the members it still
    sets are read off at once; the caller's mask is spent.  That also
    drops an n below 2p when n - p is prime, which is right: n was
    resolved already at the smaller prime n - p.  The members left open
    then meet the next primes a batch at a time, one gather of
    (member, prime) cells each: ``_TAIL_PRIMES`` primes at first, twice
    as many in each later batch, and never more than keep the cells
    within ``_TAIL_CELLS``.  A prime above m does not apply to m, and a
    member below the batch's last prime has tried every prime up to m.
    """
    import numpy as np
    h = admissible.size
    span = min(_PRIME_SPAN, h // 2)
    indices = np.flatnonzero(~composite[:span])       # the odd primes 2i + 1, i < span
    for i in indices[:_DENSE_PRIMES].tolist():
        admissible[i + 1:] &= composite[:h - i - 1]
    left = np.flatnonzero(admissible)
    failed, rest, width = [], indices[_DENSE_PRIMES:], _TAIL_PRIMES
    while left.size:
        if not rest.size:
            if span == h // 2:              # every odd prime 2i + 1 <= n/2 is spent
                break
            rest, span = np.flatnonzero(~composite[span:h // 2]) + span, h // 2
            continue
        k = max(min(width, _TAIL_CELLS // left.size), 1)
        batch, rest, width = rest[:k], rest[k:], 2 * width
        cells = left[:, None] - batch - 1
        # cells >= batch is p <= m, which also masks a cell that wrapped below 0
        split = ((cells >= batch) & ~composite[cells]).any(axis=1)
        done = left < 2 * batch[-1] + 1
        failed.append(left[done & ~split])
        left = left[~done & ~split]
    return np.concatenate([*failed, left])


class ScanReport:
    """The verdict of ``scan``; the partition counts are computed on first use.

    ``verified`` and ``first_failure`` come from the least-prime search,
    and ``member_count`` counts the admissible evens it went through.
    The report keeps only the negated flags: the mask of the members'
    halves is rebuilt from them, and the array of those halves, doubled
    only where an even is shown, and the list ``members`` are built, on
    their first read, so a text scan builds none of the three.  The first
    read of ``partition_counts``, ``to_json_dict``, ``to_json`` or
    ``to_csv`` runs the FFT route and checks that its zero counts fall on
    exactly the members the search left unresolved, raising ValueError
    otherwise.  ``to_json`` and ``to_csv`` write their rows from the
    arrays with ``_rows``; ``to_json_dict`` and ``partition_counts``
    build Python objects.
    """

    def __init__(self, limit: int, composite: np.ndarray, member_count: int,
                 unresolved: np.ndarray):
        self.limit = limit
        self.member_count = member_count
        self.first_failure: Optional[int] = 2 * int(unresolved[0]) if unresolved.size else None
        self.verified = self.first_failure is None
        self._composite = composite
        self._unresolved = unresolved

    @cached_property
    def _members(self) -> np.ndarray:
        """The members' halves, ascending, as int32: up to ``SCAN_LIMIT``
        every half is below 2**31."""
        import numpy as np
        return np.flatnonzero(_admissible(self._composite, self.limit)).astype(np.int32)

    @cached_property
    def members(self) -> list:
        """The admissible evens up to ``limit``, ascending."""
        return (2 * self._members).tolist()

    @cached_property
    def _counts(self) -> np.ndarray:
        """Unordered prime-pair counts of the members, in member order."""
        import numpy as np
        admissible = _admissible(self._composite, self.limit)
        # the sum 2m is counted at m - 1; no p = q term, a member's half is composite
        counts = _pair_counts(~self._composite)[:admissible.size - 1][admissible[1:]] // 2
        zero = self._members[counts == 0]
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

        ``json.dumps`` writes the document with the member list and the
        count map empty, and ``_rows`` fills the two in document order,
        straight from the arrays, into one ``bytearray`` decoded once.  A
        top-level key is the only text after a line break and two
        spaces, as ``json.dumps`` escapes the line breaks in a string.  A
        member's row in the list is its digits and the separator up to
        the next one, and its row in the map adds its count and the text
        up to the next key; each separator is a comma and the text that
        opens the first row, and the last gives way to the closing bracket.
        """
        document = json.dumps({**head, "limit": self.limit, "members": [], "verified": self.verified,
                               "first_failure": self.first_failure, "partition_counts": {}},
                              indent=2).encode()
        if not self.member_count:
            return document.decode()
        # where each empty's opening bracket ends, the text that opens a
        # row, and the text between a row's even and its count (and after
        # the count: None, no count)
        fills = [(document.index(f'\n  "{key}": '.encode()) + len(key) + 8, opening, between, after)
                 for key, opening, between, after in [("members", "\n    ", ",\n    ", None),
                                                     ("partition_counts", '\n    "', '": ', ',\n    "')]]
        text, at = bytearray(), 0
        for start, opening, between, after in sorted(fills):
            text += document[at:start]
            text += opening.encode()
            _rows(text, self._members, self._counts, between, after)
            text[len(text) - len(opening) - 1:] = b"\n  "
            at = start
        text += document[at:]
        return text.decode()

    def to_csv(self) -> str:
        text = bytearray(b"alpha,count\n")
        if self.member_count:
            _rows(text, self._members, self._counts, ",", "\n")
        return text.decode()


# the rows that _rows formats at once: small enough that a block's
# temporaries are reused from the heap rather than mapped afresh
_ROW_BLOCK = 1 << 12


@cache
def _digit_quads() -> np.ndarray:
    """Decimal texts of four bytes, each held in one uint32: "0000" to
    "9999", then 0 to 9999 with 0 bytes for their leading zeros (0 is
    four 0 bytes), then the one digit "0" after three 0 bytes."""
    import numpy as np
    padded = np.frombuffer("".join(map("{:04d}".format, range(10**4))).encode(),
                           dtype=np.uint8).reshape(-1, 4)
    bare = padded * np.logical_or.accumulate(padded != ord("0"), axis=1)
    zero = np.frombuffer(b"\0\0\0" b"0", dtype=np.uint8).reshape(1, 4)
    return np.concatenate([padded, bare, zero]).view(np.uint32).ravel()


def _items(array: np.ndarray, offset: int, width: int) -> np.ndarray:
    """Bytes offset to offset + width of each row of a C-contiguous 2-D
    array, one item per row, so that a copy loops over the rows once."""
    import numpy as np
    return np.ndarray((array.shape[0],), dtype=f"V{width}", buffer=array, offset=offset,
                      strides=(array.strides[0],))


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The values below 10**width as decimal text, one item of ``width``
    bytes per value, with 0 bytes for its leading zeros; a value 0 is the
    one digit 0.

    The digits are read four at a time from ``_digit_quads``, and each
    division by 10**4 splits off the next four from the right: zero-padded
    where digits stand above them, else with 0 bytes for the leading
    zeros.
    """
    import numpy as np
    index = np.empty((values.size, (width + 3) // 4), dtype=np.intp)
    rest = values
    for k in range(index.shape[1] - 1, 0, -1):
        higher = rest // 10**4
        np.subtract(rest, 10**4 * higher, out=index[:, k])
        index[higher == 0, k] += 10**4
        rest = higher
    np.add(rest, 10**4, out=index[:, 0])
    index[values == 0, -1] = 2 * 10**4
    quads = _digit_quads().take(index)
    return _items(quads, quads.strides[0] - width, width)


def _rows(text: bytearray, halves: np.ndarray, counts: np.ndarray, between: str,
          after: Optional[str]) -> None:
    """Append to ``text`` one row for each even 2m of the halves m.

    A row is the even's digits and ``between``, then, unless ``after``
    is None, the digits of the even's count and ``after``.  The halves
    are ascending, so the evens of each decimal width are a run; each
    block is at most ``_ROW_BLOCK`` rows of one run, filled into one
    ``uint8`` array of fixed-width rows with the row's text and then the
    digits, one item per row.  A count is written at the width of the
    block's largest one with 0 bytes for its leading zeros, which
    ``bytes.replace`` drops from the block at once.
    """
    import numpy as np
    start = 0
    for width in range(1, len(str(2 * int(halves[-1]))) + 1):
        end = int(np.searchsorted(halves, 10**width // 2))     # the evens below 10**width
        for lo in range(start, end, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, end)
            layout = "0" * width + between
            if after is not None:
                count_width = len(str(int(counts[lo:hi].max())))
                layout += "0" * count_width + after
            row = np.empty((hi - lo, len(layout)), dtype=np.uint8)
            _items(row, 0, len(layout))[...] = np.frombuffer(layout.encode(), dtype=f"V{len(layout)}")
            _items(row, 0, width)[...] = _digits(2 * halves[lo:hi], width)
            if after is not None:
                _items(row, width + len(between), count_width)[...] = _digits(counts[lo:hi],
                                                                              count_width)
            text += row.tobytes().replace(b"\0", b"")
        start = end


def scan(limit: int) -> ScanReport:
    """Verify Goldbach on every admissible even up to limit, which may be
    at most ``SCAN_LIMIT``."""
    composite = _sieve(limit)
    composite ^= True                   # negated where they lie
    import numpy as np
    admissible = _admissible(composite, limit)      # counted before the search clears it
    return ScanReport(limit, composite, int(np.count_nonzero(admissible)),
                      _unresolved(composite, admissible))

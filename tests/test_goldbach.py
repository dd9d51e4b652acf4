import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import reference_partitions

from foarith import goldbach
from foarith.goldbach import (
    _admissible,
    _fft_length,
    _odd_flags,
    _pair_counts,
    _sieve,
    _unresolved,
    admissible_evens,
    is_admissible,
    is_prime,
    partitions,
    scan,
)


def naive_is_prime(n):
    # deliberately unoptimized oracle
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_goldens():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(91)  # 7 * 13


def test_is_prime_agrees_with_naive_oracle():
    for n in range(10_001):
        assert is_prime(n) == naive_is_prime(n), n


def test_sieve_agrees_with_trial_division():
    for limit in [*range(-3, 201), 10_000]:
        odd = _odd_flags(limit)
        assert list(odd) == [is_prime(n) for n in range(1, limit + 1, 2)], limit
        assert _sieve(limit).tolist() == list(map(bool, odd)), limit


def test_is_admissible_goldens():
    assert is_admissible(18)          # 9 and 15 composite
    assert not is_admissible(16)      # 16 - 3 = 13 prime
    assert not is_admissible(17)      # odd
    assert not is_admissible(14)      # below 16
    assert not is_admissible(20)      # 20 - 3 = 17 prime


def test_admissible_evens_golden_60():
    assert admissible_evens(60) == [18, 24, 28, 30, 36, 42, 48, 52, 54, 60]


def test_admissible_evens_matches_comprehension():
    expected = [a for a in range(10_001) if is_admissible(a)]
    assert admissible_evens(10_000) == expected


def test_admissible_evens_small_limits():
    assert admissible_evens(0) == []
    assert admissible_evens(17) == []
    assert admissible_evens(18) == [18]


def test_partitions_goldens():
    assert partitions(4) == [(2, 2)]
    assert partitions(18) == [(5, 13), (7, 11)]
    assert partitions(28) == [(5, 23), (11, 17)]


def test_partitions_rejects_bad_input():
    with pytest.raises(ValueError):
        partitions(9)
    with pytest.raises(ValueError):
        partitions(2)


def test_partitions_match_trial_division_to_5000():
    for alpha in range(4, 5001, 2):
        assert partitions(alpha) == reference_partitions(alpha), alpha


def test_partitions_match_trial_division_around_prime_squares():
    # The flags end at alpha - 1 and p is struck from p*p on, so near p*p
    # the first strike of p falls at either end of the flags; at 2p*p the
    # two mirrored halves of the flags meet at p*p.
    evens = set()
    for p in (3, 5, 7, 11, 13, 31, 97):
        evens |= {p * p + d for d in (-3, -1, 1, 3)}
        evens |= {2 * p * p + d for d in (-2, 0, 2)}
    for alpha in sorted(evens):
        assert partitions(alpha) == reference_partitions(alpha), alpha


@pytest.mark.parametrize("alpha", [41386, 61944, 10**5, 10**5 + 2])
def test_partitions_match_trial_division_at_large_evens(alpha):
    assert partitions(alpha) == reference_partitions(alpha)


def test_partitions_in_small_blocks_match_trial_division(monkeypatch):
    # with 7 flags a block, the mirrored halves meet inside a block, at
    # a block's edge and in a block of one flag
    monkeypatch.setattr(goldbach, "_AND_BLOCK", 7)
    for alpha in [*range(4, 2001, 2), 41386, 61944]:
        assert partitions(alpha) == reference_partitions(alpha), alpha


def test_partitions_refuse_above_the_limit_before_allocating(monkeypatch):
    def no_flags(*args):
        raise AssertionError("partitions allocated its flags")

    monkeypatch.setattr(goldbach, "bytearray", no_flags, raising=False)
    limit = goldbach.PARTITIONS_LIMIT
    for alpha in (limit + 2, 10**11):
        with pytest.raises(ValueError, match=f"alpha must be at most {limit}, got {alpha}"):
            partitions(alpha)
    with pytest.raises(AssertionError, match="allocated"):   # the limit itself is sieved
        partitions(limit)


def test_scan_refuses_above_the_limit_before_importing_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)     # any import of numpy now fails
    limit = goldbach.SCAN_LIMIT
    for too_large in (limit + 1, 10**11):
        for refuse in (scan, admissible_evens):
            with pytest.raises(ValueError, match=f"limit must be at most {limit}, got {too_large}"):
                refuse(too_large)
    with pytest.raises(ImportError):                  # the limit itself is sieved
        scan(limit)


def test_partitions_complete_and_duplicate_free():
    for alpha in range(4, 200, 2):
        pairs = partitions(alpha)
        assert len(set(pairs)) == len(pairs)
        brute = [(p, q) for p in range(2, alpha + 1) for q in range(p, alpha + 1)
                 if p + q == alpha and is_prime(p) and is_prime(q)]
        assert pairs == brute, alpha


def test_scan_golden_60():
    report = scan(60)
    assert report.verified
    assert report.first_failure is None
    assert report.members == admissible_evens(60)
    assert report.partition_counts[18] == 2


def test_scan_vacuous_below_16():
    report = scan(15)
    assert report.members == []
    assert report.verified
    assert report.partition_counts == {}


def test_scan_counts_match_partition_oracle():
    report = scan(2000)
    for alpha in report.members:
        assert report.partition_counts[alpha] == len(reference_partitions(alpha)), alpha


def test_admissible_mask_covers_every_half_up_to_the_limit():
    # one flag for each half m = 0 .. limit // 2, set where 2m is admissible
    for limit in [*range(-2, 70), 999, 1000, 1001]:
        mask = _admissible(~_sieve(limit), limit)
        assert mask.dtype == bool
        assert mask.tolist() == [is_admissible(2 * m) for m in range(max(limit // 2, 0) + 1)], limit


def test_least_prime_fft_and_trial_division_agree_to_2000():
    flags = _sieve(2000)
    admissible = _admissible(~flags, 2000)
    unresolved = set(_unresolved(~flags, admissible.copy()).tolist())   # the search clears its mask
    counts = scan(2000).partition_counts
    for m in np.flatnonzero(admissible).tolist():
        has_pair = bool(reference_partitions(2 * m))
        assert (m not in unresolved) == has_pair, 2 * m
        assert (counts[2 * m] > 0) == has_pair, 2 * m


def test_least_prime_search_on_numbers_with_and_without_pairs():
    # every even from 6 is a sum of two odd primes, 6 = 3 + 3 only with
    # p = n/2, and 2 and 4 are not.  With either parity of the limit, a
    # negative n - p would wrap to a high index, often prime.
    for limit in (2000, 2001):
        flags = _sieve(limit)
        halves = np.arange(limit // 2 + 1) >= 1
        expected = [m for m in np.flatnonzero(halves).tolist()
                    if not any(is_prime(p) and is_prime(2 * m - p) for p in range(3, m + 1, 2))]
        assert expected == [1, 2]
        assert _unresolved(~flags, halves).tolist() == expected, limit
        # the count of the sum 2m is at m - 1
        zero = np.flatnonzero(_pair_counts(flags)[:limit // 2] == 0)
        assert zero.tolist() == [m - 1 for m in expected], limit


def reference_unresolved(flags, members):
    # the least-prime search one odd prime at a time over plain lists of
    # the evens 2m, with no dense phase; flags[j] flags 2j + 1
    prime = flags.tolist()
    left, failed = (2 * members).tolist(), []
    for p in (2 * np.flatnonzero(flags) + 1).tolist():
        if not left:
            break
        failed += [n for n in left if n < 2 * p]
        left = [n for n in left if n >= 2 * p and not prime[(n - p) // 2]]
    return [n // 2 for n in failed + left]


def least_prime_ranks(flags, members):
    # the rank, among the odd primes of flags, of the least prime that
    # splits each even 2m, for the evens that have one
    primes = (2 * np.flatnonzero(flags) + 1).tolist()
    ranks = (next((k for k, p in enumerate(primes) if p <= m and flags[m - (p + 1) // 2]), None)
             for m in members.tolist())
    return {rank for rank in ranks if rank is not None}


def test_least_prime_search_matches_one_prime_at_a_time():
    # With primes removed from the flags, the least primes move past the
    # dense phase and members fail on both sides of its last prime.
    rng = np.random.default_rng(15)
    full = _sieve(3000)
    ranks, failures = set(), []
    for keep in (1.0, 0.6, 0.3, 0.15):
        flags = full & (rng.random(full.size) < keep)
        boundary = (2 * np.flatnonzero(flags)[goldbach._DENSE_PRIMES - 1:][:2] + 1).tolist()
        for admissible in (np.ones(1501, dtype=bool), _admissible(~full, 3000)):
            members = np.flatnonzero(admissible)
            expected = reference_unresolved(flags, members)
            assert _unresolved(~flags, admissible).tolist() == expected, (keep, members.size)
            ranks |= least_prime_ranks(flags, members)
            failures += [(2 * boundary[0] - 2 * m, 2 * boundary[1] - 2 * m) for m in expected]
    dense = goldbach._DENSE_PRIMES
    assert {dense - 2, dense - 1, dense, dense + 1} <= ranks
    assert any(before > 0 for before, _ in failures)               # set aside in the dense phase
    assert any(before <= 0 < at for before, at in failures)        # at the first prime after it
    assert any(at <= 0 for _, at in failures)                      # later in the loop


@pytest.mark.parametrize("span, tail_primes, tail_cells", [(1, 1, 1), (5, 2, 40), (64, 16, 1)])
def test_least_prime_search_in_short_spans_and_small_batches(monkeypatch, span, tail_primes,
                                                              tail_cells):
    # primes read a few flags at a time, spent before the dense phase
    # ends or inside a batch, and batches of one prime or of a few members
    monkeypatch.setattr(goldbach, "_PRIME_SPAN", span)
    monkeypatch.setattr(goldbach, "_TAIL_PRIMES", tail_primes)
    monkeypatch.setattr(goldbach, "_TAIL_CELLS", tail_cells)
    rng = np.random.default_rng(16)
    full = _sieve(3000)
    for keep in (1.0, 0.3):
        flags = full & (rng.random(full.size) < keep)
        for admissible in (np.ones(1501, dtype=bool), _admissible(~full, 3000),
                           np.ones(9, dtype=bool)):
            expected = reference_unresolved(flags, np.flatnonzero(admissible))
            assert _unresolved(~flags, admissible).tolist() == expected, (keep, admissible.size)


def test_least_prime_search_on_small_and_no_members():
    # members below 2p for the first primes, and flags with fewer primes
    # than the dense phase takes
    for limit in (0, 1, 2, 3, 4, 5, 6, 9, 30, 50):
        full = _sieve(limit)
        for flags in (full, full & (np.arange(full.size) != 1)):      # without 3
            small = np.ones(limit // 2 + 1, dtype=bool)                # the search clears it
            assert (_unresolved(~flags, small).tolist()
                    == reference_unresolved(flags, np.flatnonzero(small))), limit
    for empty in (np.zeros(0, dtype=bool), np.zeros(26, dtype=bool)):
        assert _unresolved(~flags, empty).size == 0


def full_length_pair_counts(flags):
    # the autoconvolution of the odd flags spread over every number, at a
    # power of two at least twice that length, read at the even sums 2s + 2
    every = np.zeros(2 * flags.size)
    every[1::2] = flags
    size = 1 << (2 * every.size - 1).bit_length()
    spectrum = np.fft.rfft(every, size)
    conv = np.fft.irfft(spectrum * spectrum, size)[2:every.size + 1:2]
    return np.rint(conv).astype(np.int64)


def test_pair_counts_match_brute_force_at_every_size():
    primes = [p for p in range(3, 301) if is_prime(p)]
    ordered = [0] * 301
    for p in primes:
        for q in primes:
            if p + q <= 300:
                ordered[p + q] += 1
    for size in range(301):
        # the odd flags of size - 1 count the even sums 2s + 2 up to size
        evens = ordered[2:size + 1:2]
        assert _pair_counts(_sieve(size - 1)).tolist() == evens, size


def test_fft_length_is_the_least_5_smooth_number():
    lengths = sorted(2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(7))
    for n in range(1, 5000):
        assert _fft_length(n) == next(size for size in lengths if size >= n), n


# limits either side of switches in the length, to lengths with 2, 3 or 5
# as a factor, three of them odd: the odd flags of limit L, n = (L + 1) // 2
# of them, transform at _fft_length(2 * ceil(n / 3) - 1), which holds the
# product of two wheel classes of ceil(n / 3) flags each
FFT_LENGTHS = {98304: 32768, 98305: 32805, 101250: 33750, 101251: 34560,
               151878: 50625, 151879: 51200, 177150: 59049, 177151: 60000,
               196608: 65536, 196609: 65610, 199874: 67500, 202501: 69120}


def test_pair_counts_match_full_length_transform(monkeypatch):
    sizes = []
    rfft = np.fft.rfft

    def recording_rfft(a, n):
        sizes.append(n)
        return rfft(a, n)

    for limit, length in FFT_LENGTHS.items():
        flags = _sieve(limit)
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "rfft", recording_rfft)
            counts = _pair_counts(flags)
        assert sizes == [length, length], limit       # one transform for each class
        sizes.clear()
        assert np.array_equal(counts, full_length_pair_counts(flags)), limit


def test_pair_counts_refuse_a_multiple_of_3_flagged_prime():
    # the flag at 3a + 1 marks 6a + 3; from a = 1 on it is no prime, and
    # the wheel has no class for it
    for limit, forged in ((40, 9), (2000, 1503), (2001, 2001)):
        flags = _sieve(limit).copy()
        flags[forged // 2] = True
        with pytest.raises(ValueError, match=f"mark {forged}, a multiple of 3, as prime"):
            _pair_counts(flags)
    assert _pair_counts(_sieve(7)).tolist() == [0, 0, 1, 2]     # 3 itself is counted


def test_scan_counts_disagreeing_with_least_prime_search_raise(monkeypatch):
    monkeypatch.setattr(goldbach, "_unresolved",
                        lambda composite, admissible: np.flatnonzero(admissible)[-1:])
    report = scan(2000)
    assert not report.verified and report.first_failure == 1998
    with pytest.raises(ValueError, match="least-prime search disagree at alpha=1998"):
        report.partition_counts
    with pytest.raises(ValueError, match="disagree"):
        report.to_csv()


def test_scan_rejects_inexact_fft_rounding(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.4)
    report = scan(2000)
    with pytest.raises(ValueError, match="rounding residual 0.4"):
        report.partition_counts


def test_scan_json_rejects_inexact_fft_rounding_at_a_length_not_a_power_of_two(monkeypatch):
    # the residual of each of the three products is checked on its own
    irfft, sizes = np.fft.irfft, []
    for product in range(3):
        def shifted_irfft(spectrum, n):
            sizes.append(n)
            return irfft(spectrum, n) + (0.4 if len(sizes) == product + 1 else 0)

        sizes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "irfft", shifted_irfft)
            with pytest.raises(ValueError, match="rounding residual 0.4"):
                scan(194324).to_json({})
        assert sizes == [64800] * (product + 1), product       # 2**5 * 3**4 * 5**2


def test_scan_reports_first_failure(scan_fails_at_18_and_48):
    report = scan(100)
    assert not report.verified
    assert report.first_failure == 18
    assert report.partition_counts[18] == 0
    assert report.partition_counts[48] == 0
    assert report.members == admissible_evens(100)


def test_report_serialization():
    report = scan(60)
    doc = report.to_json_dict()
    json.dumps(doc)
    assert doc["limit"] == 60
    assert doc["partition_counts"]["18"] == 2
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "alpha,count"
    assert "18,2" in lines


def assert_same_text(got, want):
    """got == want, reported by the lengths and the first differing offset
    with a short window around it: pytest's own diff of two texts of
    several MB takes minutes."""
    __tracebackhide__ = True
    if got != want:
        at, end = 0, min(len(got), len(want))    # the longest common prefix, by halving
        while at < end:
            mid = (at + end + 1) // 2
            at, end = (mid, end) if got[:mid] == want[:mid] else (at, mid - 1)
        window = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"lengths {len(got)} and {len(want)}, first difference at offset {at}:\n"
                    f"  got  {got[window]!r}\n  want {want[window]!r}")


@pytest.mark.parametrize("limit, members", [(0, 0), (15, 0), (18, 1), (23, 1), (1000, 281),
                                            (194324, 72563)])
def test_to_json_matches_json_dumps_of_to_json_dict(limit, members):
    report = scan(limit)
    assert report.member_count == members
    heads = [
        {"schema": 1, "command": "goldbach-scan"},
        # a head key that the report also writes keeps its place and takes the report's value
        {"verified": "head", "schema": 1},
        {"partition_counts": None, "command": "goldbach-scan", "members": "head"},
        # a list in the head was written on one line
        {"schema": 1, "sizes": [1, 2], "empty": []},
        # nested keys and a string that read like the report's keys
        {"options": {"members": [3], "partition_counts": {}, "note": '\n  "members": []'}, "x": {}},
    ]
    for head in heads:
        assert_same_text(report.to_json(head), json.dumps({**head, **report.to_json_dict()}, indent=2))


# 0, 15, 16 and 23 have no member or one; the evens cross from 2 to 3,
# 3 to 4, 4 to 5 and 5 to 6 digits at 100, 1000, 10000 and 100000, and
# the largest count reaches 10, 100, 1000 and 10000 at 114, 2310, 39270
# and 570570
WRITER_LIMITS = [0, 15, 16, 23, 98, 100, 113, 114, 998, 1000, 2308, 2310, 9998, 10000,
                 10002, 39268, 39270, 99998, 100000, 100002, 570568, 570570]


def reference_outputs(report, head):
    csv = "alpha,count\n" + "".join("%d,%d\n" % row for row in report.partition_counts.items())
    return json.dumps({**head, **report.to_json_dict()}, indent=2), csv


@pytest.mark.parametrize("limit", WRITER_LIMITS)
def test_writers_match_json_dumps_and_percent_format(limit):
    report = scan(limit)
    head = {"schema": 1, "command": "goldbach-scan"}
    json_text, csv = reference_outputs(report, head)
    assert_same_text(report.to_json(head), json_text)
    assert_same_text(report.to_csv(), csv)


def test_digits_write_each_value_without_leading_zeros():
    # a value's digits after 0 bytes, whatever the number of digits of
    # the other values
    values = [0, 1, 7, 10, 42, 999, 1000, 9999, 10000, 10001, 12345, 99990000, 99999999,
              100000000, 100000001, 123456789, 200000000]
    for width in (9, 12):
        items = goldbach._digits(np.array(values, dtype=np.int64), width)
        texts = [item.tobytes() for item in items]
        assert all(len(text) == width for text in texts)
        assert [text.lstrip(b"\0").decode() for text in texts] == list(map(str, values))
    small = np.array([0, 5, 60, 700, 8000], dtype=np.int32)
    assert goldbach._digits(small, 4).tobytes() == (b"\0\0\0" b"0" b"\0\0\0" b"5" b"\0\0" b"60"
                                                    b"\0" b"700" b"8000")


def test_writers_match_json_dumps_and_percent_format_in_small_blocks(monkeypatch):
    # with 7 rows a block, blocks end inside a run of one width, at its
    # end, and hold one row; their counts differ in width
    monkeypatch.setattr(goldbach, "_ROW_BLOCK", 7)
    head = {"schema": 1, "command": "goldbach-scan"}
    for limit in [*range(0, 200), 998, 1000, 2310, 10002]:
        report = scan(limit)
        assert (report.to_json(head), report.to_csv()) == reference_outputs(report, head), limit


def test_least_prime_search_keeps_no_dead_arrays():
    # Each round used to append a view of its array of open members, even
    # an empty one, which kept every round's array alive to the end: the
    # peak was about seven times the member array at this size.  The mask
    # holds one byte per half; the dense phase clears it in place, with no
    # copy, and the tail reads the few members left open.
    composite = ~_sieve(1_000_000)
    admissible = _admissible(composite, 1_000_000)
    tracemalloc.start()
    try:
        unresolved = _unresolved(composite, admissible)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unresolved.size == 0
    assert peak < 1.0 * admissible.nbytes, (peak, admissible.nbytes)


def test_scan_builds_member_list_on_first_read():
    report = scan(10**5)
    assert report.verified
    assert "members" not in vars(report) and "_members" not in vars(report)
    assert report.member_count == len(admissible_evens(10**5))
    assert report.members == admissible_evens(10**5)
    assert report.members is report.members


def test_text_scan_keeps_no_member_list():
    # A text scan reads the count and the verdict only.  The member list
    # built in the report's constructor used to put the peak at about six
    # times the int32 member array at this size, and that array itself
    # about three times the mask.  The flags, negated where they lie, and
    # the mask, cleared in place by the search, take one byte per half
    # each; the report keeps only the flags.
    admissible = _admissible(~_sieve(10**6), 10**6)
    tracemalloc.start()
    try:
        report = scan(10**6)
        line = (report.member_count, report.verified, report.first_failure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert line == (np.count_nonzero(admissible), True, None)
    assert "_members" not in vars(report)           # no member index array was built
    assert [name for name, value in vars(report).items()
            if isinstance(value, np.ndarray) and value.size > 1000] == ["_composite"]
    assert peak < 3 * admissible.nbytes, (peak, admissible.nbytes)

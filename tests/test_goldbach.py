import json
import math
import tracemalloc

import numpy as np
import pytest

from foarith import goldbach
from foarith.goldbach import (
    _admissible,
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
    flags = _sieve(10_000)
    for n in range(10_001):
        assert bool(flags[n]) == is_prime(n), n


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
        assert report.partition_counts[alpha] == len(partitions(alpha)), alpha


def test_least_prime_fft_and_trial_division_agree_to_2000():
    flags = _sieve(2000)
    members = _admissible(flags)
    unresolved = set(_unresolved(flags, members).tolist())
    counts = scan(2000).partition_counts
    for alpha in members.tolist():
        has_pair = bool(partitions(alpha))
        assert (alpha not in unresolved) == has_pair, alpha
        assert (counts[alpha] > 0) == has_pair, alpha


def test_least_prime_search_on_numbers_with_and_without_pairs():
    # every even from 4 has a pair, 4 = 2 + 2 and 6 = 3 + 3 only with
    # p = n/2; an odd n has one exactly when n - 2 is prime.  With an odd
    # sieve size, a negative n - p would wrap to an odd index, often prime.
    flags = _sieve(2000)
    numbers = np.arange(4, 2001)
    expected = [n for n in numbers.tolist()
                if not any(is_prime(p) and is_prime(n - p) for p in range(2, n // 2 + 1))]
    assert expected and expected[0] == 11
    assert _unresolved(flags, numbers).tolist() == expected
    assert np.flatnonzero(_pair_counts(flags)[4:] == 0).tolist() == [n - 4 for n in expected]


def test_scan_counts_disagreeing_with_least_prime_search_raise(monkeypatch):
    monkeypatch.setattr(goldbach, "_unresolved", lambda flags, members: members[-1:])
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


def test_least_prime_search_keeps_no_dead_arrays():
    # Each round used to append a view of its array of open members, even
    # an empty one, which kept every round's array alive to the end: the
    # peak was about seven times the member array at this size.
    flags = _sieve(1_000_000)
    members = _admissible(flags)
    tracemalloc.start()
    try:
        unresolved = _unresolved(flags, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unresolved.size == 0
    assert peak < 4 * members.nbytes, (peak, members.nbytes)

"""Statistics helpers for the end-to-end benchmark (tested in test_stats.py).

Everything here is pure: lists of numbers or span tuples in, numbers out.
"""
import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it, so one slow outlier cannot set it alone.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail_percentile(values, min_beyond=MIN_BEYOND):
    """The highest percentile with at least `min_beyond` samples beyond it.

    Returns (percentile, value), or None when there are not enough samples.
    With 64 samples that is rank 54 of 64: p84.
    """
    n = len(values)
    rank = n - min_beyond  # 1-based rank; n - rank samples lie beyond it
    if rank < 1:
        return None
    return 100.0 * rank / n, sorted(values)[rank - 1]


def summarize(values):
    """Median, sample count and tail percentile of a list of timings."""
    out = {"median": median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_pct"], out["tail"] = tail
    return out


def self_time(parent, children):
    """A span's duration minus the part of it its child spans cover.

    Spans are (start, duration) pairs in one time unit. Children may
    overlap each other and stick out of the parent; only their union inside
    the parent is subtracted.
    """
    p0, p1 = parent[0], parent[0] + parent[1]
    clipped = sorted((max(s, p0), min(s + d, p1)) for s, d in children)
    covered, cursor = 0, p0
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            covered += e - s
            cursor = e
    return parent[1] - covered


def total_self_time(spans, parent_name, child_name):
    """Sum of self_time over every `parent_name` span, with children the
    `child_name` spans recorded on the same thread.

    `spans` holds (name, tid, start, duration) tuples.
    """
    children = {}
    for name, tid, start, dur in spans:
        if name == child_name:
            children.setdefault(tid, []).append((start, dur))
    total = 0
    for name, tid, start, dur in spans:
        if name == parent_name:
            inside = [c for c in children.get(tid, [])
                      if c[0] < start + dur and c[0] + c[1] > start]
            total += self_time((start, dur), inside)
    return total


def span_total(spans, name):
    """Summed duration of every span called `name`."""
    return sum(s[3] for s in spans if s[0] == name)


def digest_mismatches(expected, actual):
    """Names whose result digest differs between two {name: digest} maps,
    including names present in only one of them."""
    return sorted(name for name in set(expected) | set(actual)
                  if expected.get(name) != actual.get(name))

"""Helpers of the benchmark: percentiles, self time, open-loop accounting
and the store of deterministic counters.

Nothing here imports the program under test, so the tests in
``perfbench/tests`` exercise these rules without a server or an engine.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

#: a reported percentile needs at least this many samples strictly beyond it
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """The ``p``-th percentile of ``values`` by linear interpolation
    between closest ranks (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supports(n: int, p: float) -> bool:
    """Does a sample of ``n`` leave at least ``MIN_BEYOND`` values beyond
    its ``p``-th percentile?"""
    return n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9


def samples_needed(p: float) -> int:
    """Smallest sample size that supports the ``p``-th percentile."""
    return math.ceil(round(MIN_BEYOND / (1.0 - p / 100.0), 6))


def tail(values, p: float) -> float:
    """The ``p``-th percentile, refusing a sample too small to support it."""
    if not supports(len(values), p):
        raise ValueError(
            f"p{p:g} needs {samples_needed(p)} samples, got {len(values)}"
        )
    return percentile(values, p)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its own
    interval that its child spans cover.

    ``spans`` is a sequence of ``(span_id, parent_id, start, end)``.
    Children may overlap each other (concurrent callees) and may leak
    past their parent; the covered part is the union of the children's
    intervals clipped to the parent's, so no instant is subtracted twice
    and self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, start, end in spans:
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(sid, ())
            if min(hi, end) > max(lo, start)
        ]
        out[sid] = (end - start) - _union_length(clipped)
    return out


def open_loop_accounting(due, sent, done, rate: float) -> dict:
    """Latency and lateness of an open-loop phase, timed from due times.

    ``due[i]`` is when request ``i`` was scheduled to leave, ``sent[i]``
    when it did, ``done[i]`` when its answer arrived.  Latency counts from
    the due time, so a stall that delays later sends is charged to them.
    The offered rate is the schedule's; the achieved rate counts sends
    over the span from the first due time to the last send (plus one
    interval).  A generator that kept up achieves the offered rate.
    """
    if not (len(due) == len(sent) == len(done)) or not due:
        raise ValueError("due, sent and done must be equal, non-empty")
    latency_ms = [(d - u) * 1e3 for u, d in zip(due, done)]
    late_ms = [max(0.0, (s - u) * 1e3) for u, s in zip(due, sent)]
    interval = 1.0 / rate
    achieved = len(sent) / (max(sent) - min(due) + interval)
    return {
        "latency_ms": latency_ms,
        "late_ms": late_ms,
        "offered_per_s": float(rate),
        "achieved_per_s": achieved,
    }


#: a phase whose achieved rate falls below this share of the offered rate
#: did not run at the stated rate and is not a data point
MIN_ACHIEVED_SHARE = 0.9


def generator_kept_schedule(acct: dict) -> bool:
    return acct["achieved_per_s"] >= MIN_ACHIEVED_SHARE * acct["offered_per_s"]


def source_digest(*dirs) -> str:
    """SHA-256 over the relative paths and contents of every ``.py`` file
    under ``dirs``: names the version of the code that made a counter."""
    h = hashlib.sha256()
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()


def check_repeat(store: str, key: str, counters: dict) -> str | None:
    """Compare ``counters`` with the ones an earlier run kept under ``key``
    in the directory ``store``, or keep them if no run did.

    Returns a message when they differ.  Callers put the source digest
    in ``key``, so counters of older code are never compared.
    """
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{key}.json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(counters, fh, sort_keys=True)
        return None
    with open(path) as fh:
        earlier = json.load(fh)
    if earlier != counters:
        return (f"deterministic counters differ from an earlier run: "
                f"{earlier} != {counters}")
    return None

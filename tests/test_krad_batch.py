"""Differential tests for the vectorised K-RAD batch kernel.

``KRadBatch`` has one per-category step with two branches: a pure-Python
one for few rows and a numpy one for many.  Both must reproduce the
list-form ``RadCategoryState`` exactly — allotments, the insertion order
of the sparse allotment dict, and the scheduler state — step by step,
under arrivals, departures, and a killed job resubmitted before the next
allocation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import KResourceMachine
from repro.schedulers import KRad

#: ``scalar_rows`` values that force each branch
BRANCHES = {"scalar": 10**9, "numpy": -1}


class _Batches:
    """The list form plus one batch per branch, driven in lockstep."""

    def __init__(self, caps, rotate=True):
        self.caps = tuple(caps)
        machine = KResourceMachine(self.caps, allow_zero=True)
        self.ref = KRad(rotate=rotate)
        self.ref.reset(machine)
        self.runs = {}
        for name, rows in BRANCHES.items():
            kr = KRad(rotate=rotate)
            kr.reset(machine)
            batch = kr.begin_batch([])
            batch.scalar_rows = rows
            self.runs[name] = (kr, batch)
        self.live: list[int] = []
        self.t = 0

    def step(self, gone, arrived, desires, *, matrix=False):
        """Drop live positions ``gone``, append ``arrived``, allocate.

        An arrived id that is also dropped re-enters at the back with
        its scheduler state, as a killed job resubmitted before the next
        allocation does in the engine.
        """
        old = self.live
        gone = set(gone)
        row_of = {j: i for i, j in enumerate(old)}
        kept = [i for i in range(len(old)) if i not in gone]
        self.live = [old[i] for i in kept] + list(arrived)
        carried = [
            (i, row_of[j])
            for i, j in enumerate(arrived)
            if j in row_of and row_of[j] in gone
        ]
        D = np.asarray(desires, dtype=np.int64).reshape(
            len(self.live), len(self.caps)
        )
        self.t += 1
        want = self.ref.allocate(
            self.t, {j: D[i] for i, j in enumerate(self.live)}
        )
        want_matrix = np.zeros_like(D)
        for j, a in want.items():
            want_matrix[self.live.index(j)] = a
        for name, (kr, batch) in self.runs.items():
            batch.sync(
                np.asarray(kept, dtype=np.intp) if gone else None,
                carried,
                list(self.live),
            )
            if matrix:
                got = batch.allocate_matrix(D, self.caps)
                assert np.array_equal(got, want_matrix), name
            else:
                got = batch.allocate(D, self.caps)
                assert list(got) == list(want), name
                for j, a in want.items():
                    assert np.array_equal(got[j], a), (name, j)
            assert kr.state_dict() == self.ref.state_dict(), name
        return want


@st.composite
def _scripts(draw):
    k = draw(st.integers(1, 3))
    caps = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    rotate = draw(st.booleans())
    steps = []
    live, next_id = 0, 0
    for _ in range(draw(st.integers(1, 14))):
        gone = sorted(
            draw(st.sets(st.integers(0, live - 1), max_size=live))
            if live
            else set()
        )
        rejoin = [g for g in gone if draw(st.booleans())] if gone else []
        new = draw(st.integers(0, 4))
        fresh = list(range(next_id, next_id + new))
        next_id += new
        live = live - len(gone) + len(rejoin) + new
        desires = draw(
            st.lists(st.integers(0, 5), min_size=live * k, max_size=live * k)
        )
        steps.append((gone, rejoin, fresh, desires, draw(st.booleans())))
    return caps, rotate, steps


@settings(max_examples=200, deadline=None)
@given(_scripts())
def test_both_branches_match_the_list_form(script):
    caps, rotate, steps = script
    b = _Batches(caps, rotate)
    for gone, rejoin, fresh, desires, matrix in steps:
        arrived = [b.live[g] for g in rejoin] + fresh
        b.step(gone, arrived, desires, matrix=matrix)


def test_zero_capacity_and_round_robin_then_closing_step():
    """|Q| > P opens a cycle; the closing DEQ step queues the unmarked
    jobs first, then the admitted prefix of the marked ones, even when a
    newcomer sits behind the marked jobs in queue order."""
    b = _Batches((3, 0))
    # four jobs want category 0 (cap 3) and category 1 (cap 0)
    rr = b.step([], [0, 1, 2, 3], [1, 2] * 4)
    assert list(rr) == [0, 1, 2]
    for kr, _batch in b.runs.values():
        assert kr.category_state(0).marked_jobs == {0, 1, 2}
    # job 4 arrives behind the marked jobs; Q = [3, 4] fits, so the step
    # closes the cycle and admits one marked job: queue [3, 4, 0]
    close = b.step([], [4], [2, 0, 2, 0, 2, 0, 3, 0, 3, 0])
    assert list(close) == [3, 4, 0]
    assert [int(close[j][0]) for j in (3, 4, 0)] == [1, 1, 1]
    for kr, _batch in b.runs.values():
        assert not kr.category_state(0).in_rr_cycle()
        assert kr.churn_transitions()[0]["rr_to_deq"] == 1


def test_resubmitted_job_keeps_its_mark_and_rank():
    b = _Batches((2,))
    b.step([], [0, 1, 2, 3], [1, 1, 1, 1])  # RR serves 0, 1
    # job 0 is killed and back before the next allocation; job 1 leaves
    b.step([0, 1], [0], [1, 1, 1])

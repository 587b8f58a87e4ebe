"""K-RAD — the paper's contribution (Section 3).

K-RAD assigns one independent :class:`~repro.schedulers.rad.RadCategoryState`
to each of the K processor categories; RAD instance ``alpha`` manages the
``alpha``-tasks of all jobs.  The per-category instances share no state: a
job can simultaneously be deep in a round-robin cycle on a scarce category
and equi-partitioned on an abundant one.

Proven guarantees (all verified empirically in ``benchmarks/``):

* makespan: ``(K + 1 - 1/Pmax)``-competitive for arbitrary release times
  (Theorem 3) — optimal, matching the Theorem 1 lower bound;
* mean response time, batched jobs: ``(4K + 1 - 4K/(n+1))``-competitive
  (Theorem 6), improving to ``(2K + 1 - 2K/(n+1))`` under light workload
  (Theorem 5) and to 3-competitive for K = 1.

Two allocation entry points share one state machine:

* :meth:`KRad.allocate` — the per-step dict interface every scheduler
  implements (the reference engine's path);
* :meth:`KRad.begin_batch` — hands out a :class:`KRadBatch`, a row-aligned
  vectorised form of the same state used by the fast engine
  (:mod:`repro.sim.fastengine`).  Both produce bit-identical allocations;
  the differential conformance suite pins that equivalence down.
"""

from __future__ import annotations

import numpy as np

from repro.machine.machine import KResourceMachine
from repro.schedulers.base import Scheduler
from repro.schedulers.deq import deq_allocate
from repro.schedulers.rad import RadCategoryState

__all__ = ["KRad", "KRadBatch"]


class _BatchCategory:
    """Vectorised twin of one :class:`RadCategoryState`.

    Queue order is represented by a per-row *service sequence number*:
    ascending ``seq`` is queue order, and moving a job to the queue back is
    assigning it the next fresh number.  Rotating served jobs in their
    original relative order therefore reproduces the list semantics of
    :meth:`RadCategoryState._rotate` exactly.  ``seq`` and ``marked`` are
    this category's slices of the batch's ``(K, n)`` matrices (one entry
    per job row), and the fresh numbers come from one counter shared by
    all categories (only their order within a category matters).
    """

    __slots__ = ("seq", "marked", "rotate", "transitions", "n_marked")

    def __init__(self, state: RadCategoryState) -> None:
        self.rotate = state._rotate_enabled
        self.transitions = dict(state._transitions)
        self.n_marked = 0


class _BatchCategoryView:
    """Read-only :class:`RadCategoryState`-compatible view of a batch
    category (what monitors and diagnostics introspect mid-run)."""

    __slots__ = ("_batch", "_alpha")

    def __init__(self, batch: "KRadBatch", alpha: int) -> None:
        self._batch = batch
        self._alpha = alpha

    def in_rr_cycle(self) -> bool:
        return self._batch._cats[self._alpha].n_marked > 0

    @property
    def marked_jobs(self) -> frozenset[int]:
        c = self._batch._cats[self._alpha]
        jids = self._batch.jids
        return frozenset(jids[i] for i in np.flatnonzero(c.marked).tolist())

    @property
    def queue_order(self) -> tuple[int, ...]:
        c = self._batch._cats[self._alpha]
        jids = self._batch.jids
        return tuple(jids[i] for i in np.argsort(c.seq).tolist())

    @property
    def transitions(self) -> dict[str, int]:
        return dict(self._batch._cats[self._alpha].transitions)

    def state_dict(self) -> dict:
        return self._batch.category_dict(self._alpha)


class KRadBatch:
    """Row-aligned vectorised K-RAD state (the fast engine's substrate).

    Rows correspond, in order, to the engine's live jobs (arrival order).
    The engine owns row membership: it calls :meth:`sync` whenever the live
    set changes — which performs, in one shot, exactly what ``register`` +
    ``prune`` do on the list form — and :meth:`allocate` or
    :meth:`allocate_matrix` once per step with the ``(n, K)`` desire
    matrix.  While a batch is active it *is* the scheduler state;
    :meth:`KRad.state_dict` materialises it back to the canonical list
    form on demand, so checkpoints, digests and monitors see the identical
    structure either way.
    """

    #: batches of at most this many rows take the pure-Python step: below
    #: it numpy's fixed per-call cost outweighs the per-row work it saves
    #: (thresholds from 8 to 64 measured alike on the benchmark's cells)
    scalar_rows = 16

    def __init__(self, krad: "KRad", jids) -> None:
        self.jids: list[int] = list(jids)
        n, k = len(self.jids), len(krad._states)
        alive = set(self.jids)
        self._cats = [_BatchCategory(state) for state in krad._states]
        self.seq = np.empty((k, n), dtype=np.int64)
        self.marked = np.zeros((k, n), dtype=bool)
        self.next_seq = n
        for alpha, state in enumerate(krad._states):
            # Seed queue order from the canonical state: known jobs keep
            # their rank (ids no longer alive are pruned), unseen jobs are
            # registered behind them in row order.
            order = [j for j in state._order if j in alive]
            seen = set(order)
            order += [j for j in self.jids if j not in seen]
            rank = {j: i for i, j in enumerate(order)}
            self.seq[alpha] = [rank[j] for j in self.jids]
            marked = state._marked & alive
            self.marked[alpha] = [j in marked for j in self.jids]
        self._bind()

    def _bind(self, recount: bool = True) -> None:
        """Point each category at its rows of the state matrices."""
        counts = self.marked.sum(axis=1).tolist() if recount else None
        for alpha, c in enumerate(self._cats):
            c.seq = self.seq[alpha]
            c.marked = self.marked[alpha]
            if recount:
                c.n_marked = counts[alpha]

    # ------------------------------------------------------------------
    def sync(self, kept, carried, jids) -> None:
        """Reconcile rows with the engine's new live list ``jids``.

        Old rows ``kept`` (an index array; ``None`` keeps them all)
        survive in order and the remaining entries of ``jids`` are
        appended rows.  ``carried`` maps an appended row's offset to the
        old row whose seq and mark it inherits: a job killed and
        resubmitted between two allocations is never pruned by the list
        form either.  Every other appended row is a newcomer registered
        at the queue back in row order.  Dropping rows is the prune.
        """
        seq, marked = self.seq, self.marked
        if kept is not None:
            seq, marked = seq.take(kept, axis=1), marked.take(kept, axis=1)
        m = len(jids) - seq.shape[1]
        if m:
            k = len(seq)
            nxt = self.next_seq
            self.next_seq = nxt + m
            add = np.arange(nxt, nxt + m, dtype=np.int64)[None].repeat(k, 0)
            mark = np.zeros((k, m), dtype=bool)
            for i, r in carried:
                add[:, i] = self.seq[:, r]
                mark[:, i] = self.marked[:, r]
            seq = np.concatenate([seq, add], axis=1)
            marked = np.concatenate([marked, mark], axis=1)
        self.seq, self.marked = seq, marked
        self.jids = jids
        # marks only change count when marked rows leave or come back
        self._bind(bool(carried) or any(c.n_marked for c in self._cats))

    # ------------------------------------------------------------------
    def _steps(self, desire_matrix: np.ndarray, capacities):
        """Yield each category's served ``(rows, allotments)``.

        Few rows take a pure-Python path (numpy's per-call cost dominates
        there); many rows take argsorts over the service-sequence numbers.
        Both feed the same :meth:`_category_step`.
        """
        n = len(self.jids)
        if n <= self.scalar_rows:
            cols = list(zip(*desire_matrix.tolist())) or [()] * len(self._cats)
            for alpha, c in enumerate(self._cats):
                col = cols[alpha]
                act = [r for r in range(n) if col[r] > 0]
                yield self._category_step(
                    c, act, col, int(capacities[alpha]), False
                )
        else:
            active = desire_matrix > 0
            for alpha, c in enumerate(self._cats):
                act = np.flatnonzero(active[:, alpha])
                yield self._category_step(
                    c, act, desire_matrix[:, alpha], int(capacities[alpha]),
                    True,
                )

    def _category_step(self, c: _BatchCategory, act, col, cap: int, vec):
        """One RAD step of one category (the list form's ``allocate``).

        ``act`` holds the alpha-active rows in ascending order and ``col``
        the alpha-desires by row.  Returns the served rows and their
        allotments (a list, or one int every row gets) in service order:
        round-robin picks in queue order, or the DEQ partition in
        :func:`deq_allocate`'s order.  The numpy branch keeps row sets as
        arrays, since indexing with a list costs a conversion per call.
        """
        if not len(act):
            if c.n_marked:
                # No active job while a cycle is open: the DEQ step that
                # would close it is empty, but the cycle still closes and
                # the marks clear (list form: Q empty, closing_cycle true).
                self._close(c)
            return (), ()
        seq = c.seq
        if vec:
            am = c.marked[act]
            unmarked = act[~am]

            def first(rows, m):  # the m earliest rows in queue order
                return rows[np.argsort(seq[rows])[:m]]

        else:
            marked = c.marked.tolist()
            unmarked = [r for r in act if not marked[r]]
            key = seq.tolist().__getitem__

            def first(rows, m):
                return sorted(rows, key=key)[:m]

        if len(unmarked) > cap:
            # Round-robin step: the first `cap` unmarked actives in queue
            # order each get one processor and are marked.
            if cap <= 0:
                return (), ()
            if not c.n_marked:
                c.transitions["deq_to_rr"] += 1
            chosen = first(unmarked, cap)
            c.marked[chosen] = True
            c.n_marked += len(chosen)
            self._rotate(c, chosen)
            return chosen, 1
        # DEQ step (closing any open cycle): unmarked actives, then the
        # first min(|Q'|, cap - |Q|) marked actives, each in queue order.
        # (|Q| <= cap here, so the queue is at most cap rows long.)
        mact = act[am] if vec else [r for r in act if marked[r]]
        take = min(len(mact), cap - len(unmarked))
        closing = c.n_marked > 0
        if closing:
            self._close(c)
        part = list(first(unmarked, cap))
        if take > 0:
            part += list(first(mact, take))
        if not part:
            return (), ()
        want = col[part].tolist() if vec else [col[r] for r in part]
        alloc = deq_allocate(part, dict(zip(part, want)), cap)
        rows = [r for r, a in alloc.items() if a]
        if closing and rows:
            self._rotate(c, sorted(rows, key=seq.__getitem__))
        return rows, [alloc[r] for r in rows]

    @staticmethod
    def _close(c: _BatchCategory) -> None:
        c.transitions["rr_to_deq"] += 1
        c.marked[:] = False
        c.n_marked = 0

    def _rotate(self, c: _BatchCategory, rows) -> None:
        """Move served ``rows`` (in queue order) to the queue back."""
        if c.rotate:
            nxt = self.next_seq
            c.seq[rows] = np.arange(nxt, nxt + len(rows))
            self.next_seq = nxt + len(rows)

    # ------------------------------------------------------------------
    def allocate(self, desire_matrix: np.ndarray, capacities) -> dict:
        """One K-RAD step over the ``(n, K)`` desire matrix.

        Returns the same sparse ``{job_id: allotment vector}`` dict, with
        the same insertion order, as :meth:`KRad.allocate`.
        """
        k = len(self._cats)
        jids = self.jids
        out: dict[int, np.ndarray] = {}
        for alpha, (rows, allots) in enumerate(
            self._steps(desire_matrix, capacities)
        ):
            if type(allots) is int:
                allots = [allots] * len(rows)
            for r, a in zip(rows, allots):
                row = out.get(jids[r])
                if row is None:
                    row = out[jids[r]] = np.zeros(k, dtype=np.int64)
                row[alpha] = a
        return out

    def allocate_matrix(
        self, desire_matrix: np.ndarray, capacities
    ) -> np.ndarray:
        """Like :meth:`allocate`, returning an ``(n, K)`` allotment matrix
        (the lean execution path, where nothing needs the dict form)."""
        A = np.zeros((len(self.jids), len(self._cats)), dtype=np.int64)
        for alpha, (rows, allots) in enumerate(
            self._steps(desire_matrix, capacities)
        ):
            if len(rows):
                A[rows, alpha] = allots
        return A

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no category has an open round-robin cycle — a fully
        satisfied allocation then repeats verbatim (the fast engine's
        steady-span precondition)."""
        return all(c.n_marked == 0 for c in self._cats)

    def on_resize(self, old_capacities, new_capacities) -> None:
        for alpha, c in enumerate(self._cats):
            old, new = int(old_capacities[alpha]), int(new_capacities[alpha])
            if new == old or c.n_marked == 0:
                continue
            c.transitions["rebatch" if new < old else "absorb"] += 1

    def category_dict(self, alpha: int) -> dict:
        """Materialise one category into RadCategoryState.state_dict form."""
        c = self._cats[alpha]
        order = [self.jids[i] for i in np.argsort(c.seq).tolist()]
        marked = sorted(
            self.jids[i] for i in np.flatnonzero(c.marked).tolist()
        )
        return {
            "order": order,
            "marked": marked,
            "rotate": c.rotate,
            "transitions": dict(c.transitions),
        }

    def category_view(self, alpha: int) -> _BatchCategoryView:
        return _BatchCategoryView(self, alpha)


class KRad(Scheduler):
    """One RAD scheduler per processor category (the paper's algorithm).

    ``rotate=False`` disables the FIFO queue rotation (ablation only; see
    :class:`~repro.schedulers.rad.RadCategoryState`).
    """

    name = "k-rad"

    def __init__(self, rotate: bool = True) -> None:
        super().__init__()
        self._rotate = bool(rotate)
        self._states: list[RadCategoryState] = []
        self._batch: KRadBatch | None = None

    def reset(self, machine: KResourceMachine) -> None:
        super().reset(machine)
        self._states = [
            RadCategoryState(rotate=self._rotate)
            for _ in range(machine.num_categories)
        ]
        self._batch = None

    def category_state(self, alpha: int):
        """Inspect one category's RAD state (tests/diagnostics/monitors).

        While a batch is active this returns a live read-only view of the
        vectorised state with the same introspection surface.
        """
        if self._batch is not None:
            return self._batch.category_view(alpha)
        return self._states[alpha]

    def notify_capacity_change(self, old_capacities, new_capacities):
        """Migrate each category's DEQ/RR state across a ``P_alpha`` change.

        Fired by the engine on every churn/degradation boundary.  The
        per-category RAD instance keeps its queue and marks; it records a
        re-batch (shrink mid-cycle) or an absorption (growth mid-cycle) in
        its migration ledger — see
        :meth:`~repro.schedulers.rad.RadCategoryState.on_resize`.
        """
        if self._batch is not None:
            self._batch.on_resize(old_capacities, new_capacities)
            return
        for alpha, state in enumerate(self._states):
            state.on_resize(
                int(old_capacities[alpha]), int(new_capacities[alpha])
            )

    def churn_transitions(self) -> list[dict[str, int]]:
        """Per-category DEQ<->RR transition counts (diagnostics)."""
        if self._batch is not None:
            return [dict(c.transitions) for c in self._batch._cats]
        return [s.transitions for s in self._states]

    def obs_rr_depths(self) -> list[int]:
        if self._batch is not None:
            return [c.n_marked for c in self._batch._cats]
        return [len(s._marked) for s in self._states]

    def obs_transitions(self) -> list[dict[str, int]]:
        return self.churn_transitions()

    def state_dict(self) -> dict:
        if self._batch is not None:
            return {
                "states": [
                    self._batch.category_dict(alpha)
                    for alpha in range(len(self._states))
                ]
            }
        return {"states": [s.state_dict() for s in self._states]}

    def load_state_dict(self, state: dict) -> None:
        self._batch = None
        states = state["states"]
        if len(states) != len(self._states):
            raise ValueError(
                f"checkpoint has {len(states)} category states, scheduler "
                f"has {len(self._states)}"
            )
        for s, data in zip(self._states, states):
            s.load_state_dict(data)

    # ------------------------------------------------------------------
    # batch (vectorised) entry point
    # ------------------------------------------------------------------
    def begin_batch(self, jids) -> KRadBatch:
        """Switch to the row-aligned vectorised state form.

        ``jids`` is the engine's live-job list in arrival order.  The
        returned :class:`KRadBatch` owns the state until :meth:`reset`,
        :meth:`load_state_dict` or a classic :meth:`allocate` call ends
        batch mode (materialising the state back first).
        """
        self._batch = KRadBatch(self, jids)
        return self._batch

    def _end_batch(self) -> None:
        """Materialise batch state back into the canonical list form."""
        if self._batch is None:
            return
        batch = self._batch
        self._batch = None
        for alpha, state in enumerate(self._states):
            state.load_state_dict(batch.category_dict(alpha))

    # ------------------------------------------------------------------
    def allocate(self, t, desires, jobs=None):
        if self._batch is not None:
            # A classic call while a batch is active (e.g. a tool driving
            # the scheduler directly): fall back coherently.
            self._end_batch()
        machine = self.machine
        k = machine.num_categories
        # Sparse output: jobs with an all-zero allotment are omitted (the
        # Scheduler contract allows it), which keeps per-step cost
        # proportional to the number of *served* jobs.
        out: dict[int, np.ndarray] = {}
        alive = desires.keys()
        # One tolist() per job instead of K numpy-scalar extractions per
        # job, and per-category desire maps holding only the alpha-active
        # jobs: profiling showed the K*n `int(d[alpha])` rescan — mostly
        # over jobs with zero alpha-desire — dominating large-K runs.
        # RadCategoryState reads desires via .get(j, 0) and only for
        # active jobs, so dropping the zero entries is behaviour-neutral.
        flats: list[dict[int, int]] = [{} for _ in range(k)]
        for jid, d in desires.items():
            row = d.tolist() if hasattr(d, "tolist") else list(d)
            for alpha in range(k):
                v = row[alpha]
                if v:
                    flats[alpha][jid] = int(v)
        for alpha, state in enumerate(self._states):
            state.register(alive)
            state.prune(alive)
            alloc = state.allocate(flats[alpha], machine.capacity(alpha))
            for jid, a in alloc.items():
                if a:
                    row = out.get(jid)
                    if row is None:
                        row = out[jid] = np.zeros(k, dtype=np.int64)
                    row[alpha] = a
        return out

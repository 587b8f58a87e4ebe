"""The fast simulation engine: incremental desires, vectorised K-RAD,
analytic quiescent-span skipping.

:class:`FastSimulator` is a drop-in subclass of
:class:`~repro.sim.engine.Simulator` (select it with
``simulate(..., engine="fast")`` or ``krad --engine fast``).  It produces
**bit-identical** results — traces, metrics, digests, checkpoints — which
the differential layer in :mod:`repro.sim.conformance` and
``tests/test_conformance_fast.py`` verify; the reference engine stays the
executable specification.

Five mechanisms carry the speedup:

1. **Incremental desire tracking.**  For backends declaring
   ``Job.incremental_desires`` (desires change only through ``execute``
   / ``fail_tasks`` — the delta contract documented on
   :class:`~repro.jobs.base.Job`), the engine keeps per-job desire
   vectors across steps — an ``(n, K)`` matrix on the vectorised path —
   and refreshes only the rows of jobs that executed, failed tasks, or
   were replaced, instead of calling ``desire_vector()`` on every live
   job every step.  If any job in the run opts out, the engine falls
   back to re-polling each live job exactly once per step, the
   reference's call pattern.

2. **Delta-sized membership sync.**  A row keeps its place while its
   job lives.  Departures (completions, kills, quarantines) are noted by
   row as they happen, and at the next allocation one compaction drops
   them while this step's arrivals are appended as one block, so row
   order stays the live dict's order.  No Python loop runs over the live
   set: a sync costs O(rows that changed) in Python plus one numpy copy
   per state matrix.

3. **Vectorised K-RAD.**  When the scheduler is exactly
   :class:`~repro.schedulers.krad.KRad`, allocation runs through
   :meth:`~repro.schedulers.krad.KRad.begin_batch`: one per-category
   step over the desire matrix, ordering rows by service-sequence
   numbers instead of scanning per-job Python lists.  Few rows take a
   pure-Python branch of that step (numpy's per-call cost dominates
   there); many rows take numpy argsorts.  Any other scheduler
   transparently uses its normal ``allocate`` with the incrementally
   maintained desire dict, so ``engine="fast"`` is always safe to pass.

4. **Lean phase execution.**  When every job is a plain
   :class:`~repro.jobs.phase_job.PhaseJob` and nothing consumes per-task
   ids (no trace, no fault model, no supervisor, no journal, no
   ``on_step`` hook), the engine holds the jobs' runtime state —
   current-phase remaining work, parallelism, phase index, executed
   counter — in one ``(n, 2K + 4)`` matrix and applies each
   step's allotment matrix with a handful of numpy operations instead of
   one ``Job.execute`` call per served job.  Job objects are
   re-synchronised from the matrix whenever observable state is needed:
   at completion, and before any :meth:`digest` / :meth:`checkpoint`, so
   snapshots stay bit-identical to the reference.

5. **Quiescent-span skipping.**  After a step in which every category
   was in DEQ mode (no open round-robin cycle) and the whole desire
   matrix fits under the capacities, the next allocation is provably the
   desire matrix itself, repeated verbatim — so the engine advances
   ``s`` steps analytically in O(1): ``t += s``, ``busy += s * totals``,
   and one bulk state update per job.  ``s`` is the largest span in
   which no desire changes, no job completes, and no arrival lands.
   Faults, churn, tracing, journaling, supervision and ``on_step`` hooks
   all disable the skip — those features need every unit step observed.
"""

from __future__ import annotations

import heapq
from itertools import compress
from time import perf_counter

import numpy as np

from repro.errors import ScheduleError, SimulationError
from repro.jobs.base import Job
from repro.jobs.phase_job import PhaseJob
from repro.machine.machine import KResourceMachine
from repro.schedulers.base import check_allotments
from repro.schedulers.krad import KRad, KRadBatch
from repro.sim.engine import Simulator
from repro.sim.trace import StepRecord

__all__ = ["FastSimulator"]


def _realign(X: np.ndarray, kept, add) -> np.ndarray:
    """Rows ``kept`` of ``X`` (all of them if None), then the rows of
    ``add`` (if any): one compaction plus one append."""
    if kept is not None:
        X = X.take(kept, axis=0)  # a third of fancy indexing's cost
    if add is not None:
        X = np.concatenate([X, add])
    return X


class FastSimulator(Simulator):
    """Vectorised drop-in for :class:`~repro.sim.engine.Simulator`.

    Accepts the exact constructor surface of the reference engine; the
    checkpoint/restore/recover/journal machinery is inherited unchanged
    (the state it snapshots is identical by construction, so fast and
    reference runs can even resume each other's checkpoints).
    """

    engine_name = "fast"

    #: lazily initialised by the first :meth:`_step`
    _ft_built = False
    #: True while Job objects lag behind the lean-mode state arrays
    _ft_stale = False
    #: obs-only scratch: cached ones vector for matmul column sums
    #: (3x cheaper than ``sum(axis=0)`` at the hot shapes) and a
    #: reusable ``|A - prev|`` buffer — telemetry must not allocate
    _obs_ones = None
    _obs_diffbuf = None
    #: reallocation volume owed by rows that left between two
    #: allocations (``_ft_sync`` realigns the previous-allotment matrix
    #: and banks the departed rows here; the next diff pays it out)
    _obs_realloc_carry = 0.0

    # ------------------------------------------------------------------
    def _ft_build(self) -> None:
        st = self._state
        self._ft_built = True
        # Strict type check: a KRad *subclass* may override allocate, so
        # only the exact class is routed through the batch kernels.
        self._ft_vec = type(self._scheduler) is KRad
        # Incremental desire caching is only sound for backends declaring
        # the delta contract (Job.incremental_desires).  One opted-out job
        # anywhere in the run makes the engine re-poll every live job's
        # desire_vector() once per step — exactly the reference's call
        # pattern, so even poll-counting backends behave identically.
        self._ft_incr = (
            all(type(j).incremental_desires for j in st.pending)
            and all(type(j).incremental_desires for j in st.alive.values())
            and all(type(e[2]).incremental_desires for e in st.resubmit)
        )
        # Steady-span skipping needs every job to predict its desire
        # trajectory; a single opted-out backend disables it for the run.
        self._ft_steady = all(
            type(j).steady_steps is not Job.steady_steps for j in st.pending
        )
        # Lean phase execution: plain PhaseJobs only (a subclass may
        # override execute) and no consumer of per-task ids.
        self._ft_lean = (
            self._ft_vec
            and self._fault_model is None
            and self._supervisor is None
            and self._on_step is None
            and self._journal is None
            and st.trace is None
            and all(type(j) is PhaseJob for j in st.pending)
            and all(type(j) is PhaseJob for j in st.alive.values())
            and all(type(e[2]) is PhaseJob for e in st.resubmit)
        )
        # Start from zero rows and append the live set as arrivals; the
        # batch seeds its queue order from the scheduler's current state.
        k = self._machine.num_categories
        self._ft_jids: list[int] = []
        self._ft_jobs: list[Job] = []
        self._ft_rowidx: dict[int, int] | None = None
        self._ft_gone: list[int] = []
        self._ft_D = np.zeros((0, k), dtype=np.int64) if self._ft_vec else None
        self._ft_desires: dict[int, np.ndarray] = {}
        if self._ft_lean:
            self._ft_bind(np.zeros((0, 2 * k + 4), dtype=np.int64))
        self._ft_batch: KRadBatch | None = None
        self._ft_sync(list(st.alive))
        if self._ft_vec:
            self._ft_batch = self._scheduler.begin_batch(self._ft_jids)

    def _ft_bind(self, S: np.ndarray) -> None:
        """Install the lean-mode row state ``S`` and its column views:
        current-phase remaining work ``R`` and parallelism ``P`` (K
        columns each), then phase index, last executed phase index,
        executed counter and phase count.  One matrix, so a membership
        change realigns all of them in one compaction."""
        k = self._machine.num_categories
        self._ft_S = S
        self._ft_R, self._ft_P = S[:, :k], S[:, k : 2 * k]
        self._ft_PI, self._ft_LPI = S[:, 2 * k], S[:, 2 * k + 1]
        self._ft_EC, self._ft_NP = S[:, 2 * k + 2], S[:, 2 * k + 3]

    @staticmethod
    def _ft_lean_row(job: PhaseJob) -> list[int]:
        """One job's runtime state as a row of the lean matrix."""
        rs = job.runtime_state()
        pi, phases = int(rs["phase_idx"]), job.phases
        par = (
            phases[pi].parallelism.tolist()
            if pi < len(phases)
            else [0] * len(rs["remaining"])
        )
        return [
            *rs["remaining"],
            *par,
            pi,
            int(rs["last_phase_idx"]),
            int(rs["executed_counter"]),
            len(phases),
        ]

    # ------------------------------------------------------------------
    def _ft_flush(self) -> None:
        """Write the lean-mode arrays back into the Job objects.

        Called before any state observation (digest, checkpoint, pause)
        so the jobs are indistinguishable from a reference run's.  Rows
        of already-completed jobs re-write identical state; harmless.
        """
        if not self._ft_stale:
            return
        for i, job in enumerate(self._ft_jobs):
            job.restore_runtime_state(
                {
                    "phase_idx": int(self._ft_PI[i]),
                    "last_phase_idx": int(self._ft_LPI[i]),
                    "remaining": self._ft_R[i].tolist(),
                    "executed_counter": int(self._ft_EC[i]),
                    "completion_time": job.completion_time,
                }
            )
        self._ft_stale = False

    # ------------------------------------------------------------------
    def digest(self) -> int:
        self._ft_flush()
        return super().digest()

    def checkpoint(self) -> dict:
        self._ft_flush()
        return super().checkpoint()

    def run_until(self, t_stop: int):
        result = super().run_until(t_stop)
        self._ft_flush()
        return result

    def advance_until(self, t_stop: int) -> bool:
        quiescent = super().advance_until(t_stop)
        self._ft_flush()
        return quiescent

    def inject_job(self, job, *, release_time=None, meta=None):
        release = super().inject_job(
            job, release_time=release_time, meta=meta
        )
        if self._ft_built:
            # The fast paths were proven sound over the job population
            # seen at build time; an online arrival may violate their
            # preconditions, so each flag downgrades monotonically —
            # never re-enables — keeping every already-taken shortcut
            # valid and every future step on a conservative path.
            cls = type(job)
            if not cls.incremental_desires:
                self._ft_incr = False
            if cls.steady_steps is Job.steady_steps:
                self._ft_steady = False
            if self._ft_lean and cls is not PhaseJob:
                # Leaving lean mode: materialise the state arrays back
                # into the Job objects first, then execute per-job like
                # the reference from here on.
                self._ft_flush()
                self._ft_lean = False
        return release

    def backlog_vector(self):
        self._ft_flush()
        return super().backlog_vector()

    def backlog_span(self) -> int:
        self._ft_flush()
        return super().backlog_span()

    # ------------------------------------------------------------------
    def _ft_row_of(self) -> dict[int, int]:
        """``job id -> row``, rebuilt lazily after a membership change."""
        idx = self._ft_rowidx
        if idx is None:
            idx = self._ft_rowidx = dict(
                zip(self._ft_jids, range(len(self._ft_jids)))
            )
        return idx

    def _ft_leave(self, jids) -> None:
        """Note live jobs that left (completed, killed, quarantined)."""
        idx = self._ft_row_of()
        self._ft_gone.extend(idx[jid] for jid in jids)

    def _ft_sync(self, arrived) -> None:
        """Reconcile rows with the live set: O(change), not O(live).

        Rows stay in place while their job lives.  Rows noted in
        ``_ft_gone`` are removed in one compaction and ``arrived`` (this
        step's arrivals, in live order) are appended, so row order stays
        the live dict's order.  Runs lazily at the next allocation after
        membership changed — the same point the reference scheduler's
        register+prune runs — so digests and checkpoints taken at the end
        of a step still see the jobs that completed during it.
        """
        st = self._state
        old_jids = self._ft_jids
        gone, self._ft_gone = self._ft_gone, []
        kept = None
        carried: list[tuple[int, int]] = []
        jids, jobs = old_jids, self._ft_jobs
        if gone:
            mask = [True] * len(old_jids)
            for r in gone:
                mask[r] = False
            kept = np.fromiter(
                compress(range(len(mask)), mask), dtype=np.intp
            )
            jids = list(compress(old_jids, mask))
            jobs = list(compress(jobs, mask))
            # A job killed and resubmitted since the last allocation keeps
            # its scheduler state (the list form never pruned it); its row
            # moves to the back like its entry in the live dict.
            back = {old_jids[r]: r for r in gone if old_jids[r] in st.alive}
            if back:
                carried = [
                    (i, back[j]) for i, j in enumerate(arrived) if j in back
                ]
        new_jobs = [st.alive[jid] for jid in arrived]
        self._ft_jids = jids = jids + list(arrived)
        self._ft_jobs = jobs + new_jobs
        self._ft_rowidx = None
        if self._ft_vec:
            k = self._machine.num_categories
            add = None
            if new_jobs:
                # non-incremental: rows are filled by the per-step
                # re-poll, keeping desire_vector() at one call per live
                # job per step
                add = (
                    np.array(
                        [job.desire_vector() for job in new_jobs],
                        dtype=np.int64,
                    )
                    if self._ft_incr
                    else np.zeros((len(new_jobs), k), dtype=np.int64)
                )
            self._ft_D = _realign(self._ft_D, kept, add)
        elif self._ft_incr:
            if st.trace is not None:
                # the recorded step keeps its desire dict intact
                self._ft_desires = dict(self._ft_desires)
            desires = self._ft_desires
            for r in gone:
                desires.pop(old_jids[r], None)
            for jid, job in zip(arrived, new_jobs):
                desires[jid] = job.desire_vector()
        if self._ft_lean:
            add = None
            if new_jobs:
                add = np.array(
                    [self._ft_lean_row(job) for job in new_jobs],
                    dtype=np.int64,
                )
            self._ft_bind(_realign(self._ft_S, kept, add))
            prev = self._obs_prev_alloc
            if type(prev) is list:
                # Realign the previous-allotment matrix to the new rows
                # so the per-step realloc diff stays one aligned
                # subtraction.  Fresh rows start at zero (the next diff
                # charges their full allotment); departed rows are owed
                # |prev - 0| and bank into the carry, paid out by the
                # next diff — together exactly reallocation_volume's
                # absent-job = zero-vector convention.  (Kills, hence
                # carried rows, never happen in lean mode.)
                P_old = prev[2]
                for r in gone:
                    self._obs_realloc_carry += sum(P_old[r].tolist())
                P_new = _realign(
                    P_old, kept, None if add is None else np.zeros(
                        (len(add), P_old.shape[1]), dtype=np.int64
                    ),
                )
                self._obs_prev_alloc = ["matrix", jids, P_new]
        if self._ft_batch is not None:
            self._ft_batch.sync(kept, carried, jids)

    # ------------------------------------------------------------------
    def _ft_check(self, allotments, caps_t) -> None:
        """Vectorised equivalent of :func:`check_allotments` (vec path)."""
        D = self._ft_D
        A = np.zeros_like(D)
        idx = self._ft_row_of()
        for jid, a in allotments.items():
            A[idx[jid]] = a
        self._ft_check_matrix(A, caps_t)

    def _ft_check_matrix(self, A: np.ndarray, caps_t) -> None:
        D = self._ft_D
        if (A < 0).any() or (A > D).any():
            raise ScheduleError(
                "fast engine produced an allotment outside [0, desire]"
            )
        caps = np.asarray(caps_t, dtype=np.int64)
        if (A.sum(axis=0) > caps).any():
            raise ScheduleError(
                "fast engine over-subscribed a category's capacity"
            )

    # ------------------------------------------------------------------
    # observability helpers (matrix-shaped fast paths)
    # ------------------------------------------------------------------
    def _obs_realloc_matrix(self, A: np.ndarray) -> float:
        """Matrix-shaped counterpart of ``_obs_realloc_dict``.

        ``_ft_sync`` realigns the stored matrix to every membership
        change and banks departed rows in ``_obs_realloc_carry``, so in
        lean mode the diff is always one aligned subtraction plus the
        carry; the id-aligned and per-job dict comparisons below only
        remain for handoffs from non-lean paths.  The value always
        matches :func:`repro.sim.metrics.reallocation_volume`.
        """
        prev = self._obs_prev_alloc
        jids = self._ft_jids
        if type(prev) is list and prev[1] is jids:
            # hot path: row order unchanged since the last diff — swap
            # the snapshot in place and take one aligned subtraction.
            # A is freshly allocated by allocate_matrix and never
            # written after allocation, so keeping it without a copy
            # is safe.
            P = prev[2]
            prev[2] = A
            buf = self._obs_diffbuf
            if buf is None or buf.shape != A.shape:
                buf = self._obs_diffbuf = np.empty_like(A)
            np.subtract(A, P, out=buf)
            np.abs(buf, out=buf)
            carry = self._obs_realloc_carry
            if carry:
                self._obs_realloc_carry = 0.0
                return float(buf.sum()) + carry
            return float(buf.sum())
        self._obs_prev_alloc = ["matrix", jids, A]
        if prev is None:
            return 0.0
        carry = self._obs_realloc_carry
        if carry:
            self._obs_realloc_carry = 0.0
        if isinstance(prev, list):
            # membership changed without a sync realign (handoff from a
            # non-lean matrix path): align common rows by id; rows
            # present on only one side contribute their full
            # (non-negative) sum, matching reallocation_volume's
            # absent-job = zero-vector convention
            jp = np.asarray(prev[1], dtype=np.int64)
            jc = np.asarray(jids, dtype=np.int64)
            P = prev[2]
            _, ip, ic = np.intersect1d(
                jp, jc, assume_unique=True, return_indices=True
            )
            moved = np.abs(A[ic] - P[ip]).sum()
            only_cur = A.sum() - A[ic].sum()
            only_prev = P.sum() - P[ip].sum()
            return float(moved + only_cur + only_prev) + carry
        cur = {int(j): A[i] for i, j in enumerate(jids)}
        total = 0
        for jid, a in cur.items():
            p = prev.get(jid)
            if p is None:
                total += int(a.sum())
            else:
                total += int(
                    np.abs(a - np.asarray(p, dtype=np.int64)).sum()
                )
        for jid, p in prev.items():
            if jid not in cur:
                total += int(np.asarray(p, dtype=np.int64).sum())
        return float(total) + carry

    def _obs_span(self, t: int, s: int, totals: np.ndarray) -> None:
        """Credit an analytically skipped quiescent span of ``s`` steps."""
        obs = self._obs
        if obs.metrics is not None:
            obs.metrics.record_span(
                s,
                np.asarray(totals, dtype=np.int64),
                sum(self._state.last_caps),
            )
        if obs.bus.active:
            obs.bus.emit(
                t,
                "steady_span",
                steps=s,
                allocated=np.asarray(totals).tolist(),
            )

    # ------------------------------------------------------------------
    def _step(self) -> None:  # noqa: C901 - mirrors the reference loop
        """One time step — a phase-for-phase mirror of the reference."""
        machine = self._machine
        scheduler = self._scheduler
        st = self._state
        if not self._ft_built:
            self._ft_build()
        obs = self._obs
        prof = obs.profiler if obs is not None else None
        if obs is not None:
            self._obs_w0 = perf_counter()
        if prof is not None:
            prof.step_begin()

        st.t += 1
        t = st.t
        if t > self._max_steps:
            raise SimulationError(
                f"no completion after {self._max_steps} steps; "
                f"{len(st.alive)} jobs alive — scheduler "
                f"{scheduler.name!r} is not making progress"
            )
        # Fast-forward idle intervals: nobody alive, arrivals later.
        if not st.alive:
            next_release = self._next_release()
            if next_release is not None and next_release >= t:
                skip_to = next_release + 1
                st.idle_steps += skip_to - t
                st.t = t = skip_to

        arriving: list[Job] = []
        while (
            st.next_pending < len(st.pending)
            and st.pending[st.next_pending].release_time < t
        ):
            arriving.append(st.pending[st.next_pending])
            st.next_pending += 1
        while st.resubmit and st.resubmit[0][0] < t:
            arriving.append(heapq.heappop(st.resubmit)[2])
        arriving.sort(key=lambda j: (j.release_time, j.job_id))
        arrivals: list[int] = []
        for job in arriving:
            st.alive[job.job_id] = job
            arrivals.append(job.job_id)
        if prof is not None:
            prof.lap("arrivals")

        step_machine = machine
        caps_t = machine.capacities
        if self._capacity_schedule is not None:
            caps_t = tuple(int(c) for c in self._capacity_schedule(t))
            if len(caps_t) != machine.num_categories or any(
                not 0 <= c <= nominal
                for c, nominal in zip(caps_t, machine.capacities)
            ):
                raise SimulationError(
                    f"capacity schedule at t={t} returned {caps_t}; "
                    f"need {machine.num_categories} values in "
                    f"[0, nominal {machine.capacities}]"
                )
            if caps_t != machine.capacities:
                step_machine = KResourceMachine(
                    caps_t, names=machine.names, allow_zero=True
                )
            scheduler.rebind(step_machine)
        elif self._churn is not None:
            caps_t = self._churn.capacities(t)
            if caps_t != machine.capacities:
                step_machine = KResourceMachine(
                    caps_t, names=machine.names, allow_zero=True
                )
            scheduler.rebind(step_machine)
        if caps_t != st.last_caps:
            scheduler.notify_capacity_change(st.last_caps, caps_t)
            st.last_caps = caps_t
        if prof is not None:
            prof.lap("capacity")

        # Membership reconciliation happens exactly where the reference
        # scheduler runs register+prune: at allocation time.
        if arrivals or self._ft_gone:
            self._ft_sync(arrivals)

        if self._ft_lean:
            # ----------------------------------------------------------
            # Lean path: allotment matrix in, array state update out.
            # No per-task ids exist, so nothing per-job runs in Python
            # except the rare phase-barrier / completion events.
            # ----------------------------------------------------------
            D = self._ft_D
            A = self._ft_batch.allocate_matrix(D, caps_t)
            if self._validate:
                self._ft_check_matrix(A, caps_t)
            if prof is not None:
                prof.lap("allotment")
            # Pre-execution desire column sums — D is mutated in place
            # below for served rows, so capture the totals now.
            if obs is not None:
                ones = self._obs_ones
                if ones is None or ones.shape[0] != D.shape[0]:
                    ones = self._obs_ones = np.ones(
                        D.shape[0], dtype=np.int64
                    )
                obs_desired = ones @ D
            else:
                obs_desired = None
            row_tot = A.sum(axis=1)
            served = np.flatnonzero(row_tot)
            progress = int(row_tot.sum())
            completions: list[int] = []
            a_cols = None
            if served.size:
                self._ft_stale = True
                a_cols = A.sum(axis=0)
                st.busy += a_cols
                R = self._ft_R
                self._ft_LPI[served] = self._ft_PI[served]
                self._ft_EC[served] += row_tot[served]
                R[served] -= A[served]
                done = served[~R[served].any(axis=1)]
                for r in done.tolist():
                    pi = int(self._ft_PI[r]) + 1
                    self._ft_PI[r] = pi
                    job = self._ft_jobs[r]
                    if pi < int(self._ft_NP[r]):
                        phase = job.phases[pi]
                        R[r] = phase.work
                        self._ft_P[r] = phase.parallelism
                    else:
                        # completion: flush this row so the Job object is
                        # exactly what the reference engine would leave
                        jid = self._ft_jids[r]
                        job.restore_runtime_state(
                            {
                                "phase_idx": pi,
                                "last_phase_idx": int(self._ft_LPI[r]),
                                "remaining": R[r].tolist(),
                                "executed_counter": int(self._ft_EC[r]),
                                "completion_time": t,
                            }
                        )
                        st.completion[jid] = t
                        completions.append(jid)
                        self._ft_gone.append(r)
                        del st.alive[jid]
                D[served] = np.minimum(self._ft_P[served], R[served])
            if prof is not None:
                prof.lap("execution")
        else:
            if not self._ft_incr:
                # Opted-out backend somewhere in the run: re-poll every
                # live job once, at the same point the reference polls.
                if self._ft_vec:
                    for i, job in enumerate(self._ft_jobs):
                        self._ft_D[i] = job.desire_vector()
                else:
                    self._ft_desires = {
                        jid: job.desire_vector()
                        for jid, job in zip(self._ft_jids, self._ft_jobs)
                    }
            # desires (incrementally maintained); the dict form is only
            # materialised when a consumer needs it
            if self._ft_vec:
                D = self._ft_D
                if st.trace is not None or self._supervisor is not None:
                    desires = {
                        jid: D[i].copy()
                        for i, jid in enumerate(self._ft_jids)
                    }
                else:
                    desires = None
                allotments = self._ft_batch.allocate(D, caps_t)
                if self._validate:
                    self._ft_check(allotments, caps_t)
                # Pre-execution column sums; the execution loop below
                # refreshes served rows of D in place.
                obs_desired = D.sum(axis=0) if obs is not None else None
            else:
                desires = self._ft_desires
                allotments = scheduler.allocate(
                    t,
                    desires,
                    jobs=st.alive if scheduler.clairvoyant else None,
                )
                if self._validate:
                    check_allotments(step_machine, desires, allotments)
                obs_desired = None
            if prof is not None:
                prof.lap("allotment")

            executed: dict[int, list[list[int]]] = {}
            progress = 0
            rng = self._rng
            policy = self._policy
            idx = self._ft_row_of() if self._ft_vec else None
            for jid, alloc in allotments.items():
                alloc = np.asarray(alloc, dtype=np.int64)
                if not alloc.any():
                    continue
                job = st.alive[jid]
                executed[jid] = job.execute(alloc, policy, rng)
                st.busy += alloc
                progress += int(alloc.sum())
                # the delta update: only executing jobs re-report desires
                if self._ft_vec and self._ft_incr:
                    self._ft_D[idx[jid]] = job.desire_vector()
            post_exec: dict[int, np.ndarray] | None = None
            if not self._ft_vec and self._ft_incr and executed:
                # The dict passed to allocate (and recorded in the trace)
                # keeps its pre-execution values; refreshed entries are
                # installed after the step record is written.
                post_exec = {
                    jid: st.alive[jid].desire_vector() for jid in executed
                }
            if prof is not None:
                prof.lap("execution")

            failed, killed = self._inject_faults(t, executed)
            if self._ft_incr:
                for jid in failed:
                    # fail_tasks re-enqueues work, changing the desire
                    job = st.alive.get(jid)
                    if job is None:
                        continue  # failed and then killed in the same step
                    if self._ft_vec:
                        self._ft_D[idx[jid]] = job.desire_vector()
                    else:
                        post_exec[jid] = job.desire_vector()
            if killed:
                self._ft_leave(killed)
            if prof is not None:
                prof.lap("faults")

            if self._supervisor is not None:
                quarantined_before = len(st.quarantined)
                self._supervise(t, caps_t, desires, allotments, executed)
                if len(st.quarantined) != quarantined_before:
                    self._ft_leave(list(st.quarantined)[quarantined_before:])
            if prof is not None:
                prof.lap("supervise")

        stalled = False
        if progress == 0:
            # evaluated lazily, like the reference: zero-progress steps
            # are rare, so the activity scan stays off the hot path
            if self._ft_vec:
                active = bool(self._ft_jids) and bool(self._ft_D.any())
            else:
                active = bool(desires) and any(
                    d.any() for d in desires.values()
                )
        else:
            active = False
        if progress == 0 and active:
            if not self._faulty:
                raise SimulationError(
                    f"step {t}: scheduler {scheduler.name!r} executed "
                    f"nothing while {len(st.alive)} jobs are active — not "
                    "work-conserving"
                )
            stalled = True
            st.stall_run += 1
            st.stall_steps += 1
            st.longest_stall = max(st.longest_stall, st.stall_run)
            if st.stall_run > self._max_stall_steps:
                raise SimulationError(
                    f"step {t}: no progress for {st.stall_run} consecutive "
                    f"steps with {len(st.alive)} jobs alive — the machine "
                    "never recovered (max_stall_steps "
                    f"{self._max_stall_steps})"
                )
        elif progress:
            st.stall_run = 0

        if self._on_step is not None:
            self._on_step(t, st.alive)

        if not self._ft_lean:
            completions = []
            if executed:
                # A live job only completes by executing (see the
                # reference engine's completion scan), in live order.
                for jid in list(st.alive):
                    if jid in executed and st.alive[jid].is_complete:
                        st.alive[jid].completion_time = t
                        st.completion[jid] = t
                        completions.append(jid)
                        del st.alive[jid]
                self._ft_leave(completions)
        if completions:
            st.makespan = t

        if obs is not None:
            if self._ft_lean:
                realloc = self._obs_realloc_matrix(A)
                if obs.bus.active:
                    obs.bus.emit(
                        t,
                        "alloc",
                        allotments={
                            int(jid): A[i].tolist()
                            for i, jid in enumerate(self._ft_jids)
                        },
                    )
                self._obs_common(
                    t,
                    obs_desired,
                    a_cols if a_cols is not None else np.zeros_like(
                        obs_desired
                    ),
                    realloc,
                    progress,
                    len(arrivals),
                    len(completions),
                    stalled,
                )
            else:
                self._obs_step(
                    t,
                    desires,
                    allotments,
                    progress,
                    len(arrivals),
                    len(completions),
                    stalled,
                    desired_tot=obs_desired,
                )

        if st.trace is not None:
            st.trace.append(
                StepRecord(
                    t=t,
                    desires=desires,
                    allotments={
                        jid: np.asarray(a, dtype=np.int64)
                        for jid, a in allotments.items()
                    },
                    executed=executed,
                    arrivals=tuple(arrivals),
                    completions=tuple(completions),
                    failed=failed,
                    killed=tuple(killed),
                )
            )

        if not self._ft_lean and post_exec is not None:
            if st.trace is not None:
                # the recorded step keeps the pre-execution dict intact
                self._ft_desires = dict(self._ft_desires)
            self._ft_desires.update(post_exec)

        if self._journal is not None:
            self._journal_put("step", {"t": t, "digest": self.digest()})
            if t % self._journal.checkpoint_every == 0 and self._unfinished():
                self._journal_put("checkpoint", self.checkpoint())
        if prof is not None:
            prof.lap("bookkeeping")

        # --------------------------------------------------------------
        # Quiescent-span skip: if this step was fully satisfied with
        # every category in DEQ mode, and no event can land before the
        # desires change, the next s steps are this step verbatim.
        # --------------------------------------------------------------
        if self._ft_lean:
            if (
                progress > 0
                and not arrivals
                and not completions
                and not self._ft_gone
                and not self._faulty
                and self._ft_batch.quiescent()
            ):
                D = self._ft_D
                totals = D.sum(axis=0)
                if (totals <= np.asarray(caps_t, dtype=np.int64)).all():
                    mask = D > 0
                    # every live PhaseJob has an active category, so the
                    # entry-wise min equals min over jobs of steady_steps
                    s = int((self._ft_R[mask] // D[mask]).min()) - 1
                    next_release = self._next_release()
                    if next_release is not None:
                        s = min(s, next_release - t)
                    s = min(s, self._max_steps - t)
                    if s >= 1:
                        st.t += s
                        st.busy += s * totals
                        self._ft_stale = True
                        self._ft_LPI[:] = self._ft_PI
                        self._ft_EC += s * D.sum(axis=1)
                        self._ft_R -= s * D
                        if obs is not None:
                            self._obs_span(t, s, totals)
        elif (
            self._ft_vec
            and self._ft_incr
            and self._ft_steady
            and progress > 0
            and not arrivals
            and not completions
            and not failed
            and not killed
            and not self._ft_gone
            and not self._faulty
            and st.trace is None
            and self._journal is None
            and self._supervisor is None
            and self._on_step is None
            and self._ft_jids
            and self._ft_batch.quiescent()
        ):
            D = self._ft_D
            totals = D.sum(axis=0)
            if (totals <= np.asarray(caps_t, dtype=np.int64)).all():
                s = min(job.steady_steps() for job in self._ft_jobs)
                next_release = self._next_release()
                if next_release is not None:
                    s = min(s, next_release - t)
                s = min(s, self._max_steps - t)
                if s >= 1:
                    st.t += s
                    st.busy += s * totals
                    for job in self._ft_jobs:
                        job.advance_steady(s)
                    if obs is not None:
                        self._obs_span(t, s, totals)

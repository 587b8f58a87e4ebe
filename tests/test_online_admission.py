"""Online admission costs: duplicate-id checks and quota counting.

``Simulator.inject_job`` rejects a reused id with dictionary lookups
only, and ``SchedulingService.tenant_in_flight`` forgets ids that can
never return to flight.  These tests pin down that the cheaper checks
still reject every id the run knows, in every lifecycle state, and that
the quota check's work stays bounded by the tenant's live jobs however
long the service has run.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.jobs.jobset import JobSet
from repro.jobs.phase_job import Phase, PhaseJob
from repro.machine import KResourceMachine
from repro.schedulers import KRad
from repro.service import SchedulingService, ServiceConfig
from repro.sim import ScriptedViolation, Supervisor
from repro.sim.engine import engine_class
from repro.sim.faults import ScriptedKills
from repro.sim.retry import RetryPolicy


def _job(jid: int, work=(40, 40), release: int = 0) -> PhaseJob:
    return PhaseJob([Phase(list(work), [1, 1])], jid, release)


@pytest.fixture(params=["reference", "fast"])
def live_run(request):
    """A run at clock 5 holding one id in every lifecycle state.

    0 completed, 1 retrying (killed at step 3, backoff 4), 2 failed
    (killed on both of its two attempts), 3 quarantined, 4 running,
    5 pending (releases at 100), 6 cancelled before it arrived.
    """
    sim = engine_class(request.param)(
        KResourceMachine((4, 4)),
        KRad(),
        JobSet([], num_categories=2),
        fault_model=ScriptedKills({1: [2], 3: [1], 5: [2]}),
        retry_policy=RetryPolicy(max_attempts=2, base_delay=4),
        supervisor=Supervisor(
            [ScriptedViolation(step=2, job_id=3)], mode="resilient"
        ),
    )
    sim.inject_job(_job(0, work=(1, 0)))
    for jid in (1, 2, 3, 4):
        sim.inject_job(_job(jid))
    sim.inject_job(_job(5), release_time=100)
    sim.inject_job(_job(6), release_time=100)
    sim.cancel_pending(6)
    sim.advance_until(5)
    return sim


_STATES = {
    0: "completed",
    1: "retrying",
    2: "failed",
    3: "quarantined",
    4: "running",
    5: "pending",
    6: "unknown",
}


def test_job_state_reports_every_lifecycle_state(live_run):
    assert live_run.clock == 5
    assert {j: live_run.job_state(j) for j in _STATES} == _STATES


@pytest.mark.parametrize("jid", [0, 1, 2, 3, 4, 5])
def test_known_id_is_rejected_in_every_state(live_run, jid):
    with pytest.raises(SimulationError, match="already known"):
        live_run.inject_job(_job(jid), release_time=live_run.clock)


def test_cancelled_id_stays_reusable(live_run):
    release = live_run.inject_job(_job(6), release_time=live_run.clock)
    assert release == live_run.clock
    assert live_run.job_state(6) == "pending"


def test_quota_check_work_is_bounded_by_live_jobs():
    """Counts ``job_state`` calls per submit over 2000 submissions.

    Each submit counts the tenant's in-flight jobs.  Its work must be
    the ids that were in flight at the tenant's previous count plus the
    one submitted since, never the tenant's whole history.
    """
    svc = SchedulingService(
        ServiceConfig(
            capacities=(4, 4),
            engine="fast",
            step_slice=4,
            tenant_quota=10**6,
            max_in_flight=10**6,
        )
    )
    sim = svc.simulator
    calls = [0]
    job_state = sim.job_state

    def counted(jid):
        calls[0] += 1
        return job_state(jid)

    sim.job_state = counted
    in_flight = svc.tenant_in_flight
    seen: list[int] = []

    def recorded(tenant):
        n = in_flight(tenant)
        seen.append(n)
        return n

    svc.tenant_in_flight = recorded
    prev = {"a": 0, "b": 0}
    worst = 0
    for i in range(2000):
        tenant = "ab"[i % 2]
        before = calls[0]
        ack = svc.submit(tenant, _job(0, work=(3, 2)))
        assert ack["ok"], ack
        used = calls[0] - before
        # the previous count's survivors plus the id appended after it
        assert used <= prev[tenant] + 1
        prev[tenant] = seen[-1]
        worst = max(worst, used)
        if i % 4 == 3:
            svc.tick()
    done = sim.queue_depths()["completed"]
    assert done > 1900
    assert worst < 40

"""Scenario library, NDJSON workload traces, and bit-identical replay.

The contract under test, end to end:

* scenario builds are pure functions of the seed;
* a trace survives dump/load byte-identically and rejects documents it
  cannot faithfully read (wrong format, future version, torn records);
* replaying any trace — scenario-built or service-recorded, fault-free
  or faulted — through the reference and fast engines yields the same
  schedule per step;
* a live service run recorded with ``trace_path`` replays to the exact
  terminal state digest its ``drain`` reported, and the write-ahead
  journal converts to the identical record stream.
"""

import numpy as np
import pytest

from repro.errors import ReplayError, SerializationError, WorkloadError
from repro.jobs.workloads import random_phase_job
from repro.machine.machine import KResourceMachine
from repro.schedulers import scheduler_by_name
from repro.service import SchedulingService, ServiceConfig
from repro.sim.engine import simulate
from repro.sim.faults import fault_objects_from_spec, fault_spec
from repro.workloads import (
    SCENARIOS,
    WorkloadTrace,
    WorkloadTraceWriter,
    build_trace,
    replay,
    replay_compare,
    scenario_names,
    workload_trace_from_journal,
)


class TestScenarioBuilds:
    def test_registry_names(self):
        names = scenario_names()
        assert "flash-crowd" in names
        assert "adversarial-mix" in names
        assert len(names) >= 8

    def test_deterministic_in_seed(self):
        for name in scenario_names():
            a = build_trace(name, seed=7, num_jobs=10)
            b = build_trace(name, seed=7, num_jobs=10)
            assert a.content_digest() == b.content_digest(), name

    def test_seed_actually_matters(self):
        a = build_trace("heavy-tail", seed=1, num_jobs=10)
        b = build_trace("heavy-tail", seed=2, num_jobs=10)
        assert a.content_digest() != b.content_digest()

    def test_dense_ids_sorted_releases(self):
        tr = build_trace("bursty", seed=0, num_jobs=12)
        subs = tr.submissions()
        assert [s["job"]["job_id"] for s in subs] == list(range(12))
        releases = [s["release"] for s in subs]
        assert releases == sorted(releases)
        assert releases[0] == 0

    def test_only_adversarial_mix_carries_faults(self):
        for name in scenario_names():
            spec = SCENARIOS[name]
            assert spec.certified == (spec.faults is None)
        assert SCENARIOS["adversarial-mix"].faults is not None
        assert SCENARIOS["flash-crowd"].certified

    def test_unknown_scenario(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            build_trace("nope")


class TestTraceFormat:
    def test_dump_load_round_trip(self, tmp_path):
        tr = build_trace("hotspot", seed=4, num_jobs=8)
        path = tmp_path / "t.ndjson"
        tr.dump(str(path))
        back = WorkloadTrace.load(str(path))
        assert back.content_digest() == tr.content_digest()
        assert back.scenario == "hotspot"
        assert back.capacities == tr.capacities

    def test_unknown_version_rejected(self, tmp_path):
        tr = build_trace("hotspot", seed=4, num_jobs=4)
        path = tmp_path / "t.ndjson"
        tr.dump(str(path))
        lines = path.read_text().splitlines()
        import json

        header = json.loads(lines[0])
        header["version"] = 999
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(SerializationError, match="version"):
            WorkloadTrace.load(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"format": "job", "version": 1}\n')
        with pytest.raises(SerializationError, match="workload-trace"):
            WorkloadTrace.load(str(path))

    def test_backwards_clock_rejected(self):
        tr = build_trace("hotspot", seed=0, num_jobs=2)
        records = [
            dict(tr.records[0], t=9, release=9),
            dict(tr.records[1], t=4, release=4),
        ]
        with pytest.raises(SerializationError, match="backwards"):
            WorkloadTrace(capacities=tr.capacities, records=records)

    def test_release_before_clock_rejected(self):
        tr = build_trace("hotspot", seed=0, num_jobs=4)
        bad = [dict(tr.records[0], t=9, release=3)]
        with pytest.raises(SerializationError, match="precedes"):
            WorkloadTrace(capacities=tr.capacities, records=bad)

    def test_to_jobset_excludes_cancelled(self):
        tr = build_trace("hotspot", seed=0, num_jobs=6)
        tr.records.append({"kind": "cancel", "t": 0, "job_id": 3})
        js = tr.to_jobset()
        assert len(js) == 5
        assert 3 not in {j.job_id for j in js}

    def test_writer_append_resumes(self, tmp_path):
        path = str(tmp_path / "w.ndjson")
        rng = np.random.default_rng(0)
        j1 = random_phase_job(rng, 2, job_id=0)
        j2 = random_phase_job(rng, 2, job_id=1)
        with WorkloadTraceWriter(path, capacities=(4, 2)) as w:
            w.record_submit(t=0, release=0, tenant="a", job=j1)
        with WorkloadTraceWriter(path, capacities=(4, 2), append=True) as w:
            w.record_submit(t=2, release=3, tenant="b", job=j2)
        tr = WorkloadTrace.load(path)
        assert len(tr.records) == 2
        assert tr.records[1]["tenant"] == "b"

    def _three_submits(self, path):
        rng = np.random.default_rng(0)
        with WorkloadTraceWriter(path, capacities=(4, 2)) as w:
            for jid in range(3):
                job = random_phase_job(rng, 2, job_id=jid)
                w.record_submit(t=jid, release=jid, tenant="a", job=job)

    def test_writer_append_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "w.ndjson"
        self._three_submits(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-15])  # a crash tore the last record
        with WorkloadTraceWriter(
            str(path), capacities=(4, 2), append=True
        ) as w:
            w.record_cancel(t=5, job_id=0)
        tr = WorkloadTrace.load(str(path))
        assert [r["kind"] for r in tr.records] == [
            "submit",
            "submit",
            "cancel",
        ]
        assert [r["t"] for r in tr.records] == [0, 1, 5]

    def test_writer_append_refuses_mid_file_corruption(self, tmp_path):
        path = tmp_path / "w.ndjson"
        self._three_submits(str(path))
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:-15]  # the second record, not the tail
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(SerializationError, match="record 1"):
            WorkloadTraceWriter(str(path), capacities=(4, 2), append=True)

    def test_writer_append_checks_capacities(self, tmp_path):
        path = str(tmp_path / "w.ndjson")
        with WorkloadTraceWriter(path, capacities=(4, 2)):
            pass
        with pytest.raises(SerializationError, match="capacities"):
            WorkloadTraceWriter(path, capacities=(8, 8), append=True)


def _churn_schedule(caps=(4, 2)):
    from repro.machine.churn import ChurnEvent, ChurnSchedule

    return ChurnSchedule(
        caps,
        [
            ChurnEvent(step=4, category=0, delta=-2, duration=5),
            ChurnEvent(step=8, category=1, delta=2, duration=None),
        ],
    )


class TestChurnInTraces:
    """Version-2 headers carry the run's churn schedule, so churned
    runs replay bit-identically — the ``--trace``+``--churn`` path
    ``krad serve`` used to refuse."""

    def test_header_round_trips_churn(self, tmp_path):
        churn = _churn_schedule()
        path = str(tmp_path / "c.ndjson")
        rng = np.random.default_rng(0)
        with WorkloadTraceWriter(
            path, capacities=(4, 2), churn=churn.to_dict()
        ) as w:
            w.record_submit(
                t=0, release=0, tenant="a",
                job=random_phase_job(rng, 2, job_id=0),
            )
        tr = WorkloadTrace.load(path)
        assert tr.churn == churn.to_dict()
        assert tr.churn_schedule().nominal == (4, 2)

    def test_version_1_documents_still_load(self, tmp_path):
        import json

        tr = build_trace("hotspot", seed=4, num_jobs=4)
        lines = list(tr.lines())
        header = json.loads(lines[0])
        header["version"] = 1
        del header["churn"]
        path = tmp_path / "v1.ndjson"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        back = WorkloadTrace.load(str(path))
        assert back.churn is None
        assert back.records_digest() == tr.records_digest()

    def test_nominal_mismatch_rejected(self):
        with pytest.raises(SerializationError, match="nominal"):
            WorkloadTrace(
                capacities=(8, 2), churn=_churn_schedule().to_dict()
            )

    def test_writer_append_checks_churn(self, tmp_path):
        path = str(tmp_path / "c.ndjson")
        churn = _churn_schedule()
        with WorkloadTraceWriter(
            path, capacities=(4, 2), churn=churn.to_dict()
        ):
            pass
        with pytest.raises(SerializationError, match="churn"):
            WorkloadTraceWriter(path, capacities=(4, 2), append=True)
        # same churn resumes fine (supervisor restart path)
        WorkloadTraceWriter(
            path, capacities=(4, 2), churn=churn.to_dict(), append=True
        ).close()

    def test_churned_replay_is_bit_identical_and_applied(self, tmp_path):
        churn = _churn_schedule()
        path = str(tmp_path / "c.ndjson")
        rng = np.random.default_rng(7)
        with WorkloadTraceWriter(
            path, capacities=(4, 2), seed=3, churn=churn.to_dict()
        ) as w:
            for i in range(8):
                w.record_submit(
                    t=i, release=i, tenant="t",
                    job=random_phase_job(
                        rng, 2, max_phases=3, max_work=20, job_id=i
                    ),
                )
        tr = WorkloadTrace.load(path)
        outcomes = replay_compare(tr, validate=True)
        ref, fast = outcomes["reference"], outcomes["fast"]
        assert ref.step_digests == fast.step_digests
        assert ref.state_digest == fast.state_digest
        # dropping the churn changes the schedule: it really applied
        bare = WorkloadTrace(
            capacities=tr.capacities,
            scheduler=tr.scheduler,
            seed=tr.seed,
            records=tr.records,
        )
        assert (
            replay(bare, engine="reference").schedule_digest
            != ref.schedule_digest
        )

    def test_churned_service_run_records_and_replays(self, tmp_path):
        churn = _churn_schedule()
        cfg = ServiceConfig(
            capacities=(4, 2),
            seed=3,
            journal_path=str(tmp_path / "svc.journal"),
            trace_path=str(tmp_path / "svc.trace.ndjson"),
            extra={"faults": None, "churn": churn.to_dict()},
        )
        svc = SchedulingService.open(cfg, churn=churn)
        rng = np.random.default_rng(21)
        for i in range(6):
            job = random_phase_job(
                rng, 2, max_phases=2, max_work=12, job_id=0
            )
            ack = svc.submit(
                f"t{i % 2}",
                job,
                release_time=svc.clock + int(rng.integers(0, 4)),
            )
            assert ack["ok"], ack
            svc.tick()
        summary = svc.drain()
        tr = WorkloadTrace.load(cfg.trace_path)
        assert tr.churn == churn.to_dict()
        for engine in ("reference", "fast"):
            out = replay(tr, engine=engine)
            assert out.makespan == summary["makespan"]
            assert out.state_digest == summary["digest"]
        # the journal carries the same churn (engine meta), so the
        # journal-derived trace replays identically too
        jt = workload_trace_from_journal(cfg.journal_path, seed=cfg.seed)
        assert jt.churn == churn.to_dict()
        out = replay(jt, engine="fast")
        assert out.state_digest == summary["digest"]


class TestReplay:
    @pytest.mark.parametrize(
        "name", ["flash-crowd", "diurnal", "adversarial-mix"]
    )
    def test_engines_bit_identical(self, name):
        tr = build_trace(name, seed=5, num_jobs=10)
        outcomes = replay_compare(tr)
        ref, fast = outcomes["reference"], outcomes["fast"]
        assert ref.step_digests == fast.step_digests
        assert ref.state_digest == fast.state_digest
        assert ref.makespan == fast.makespan

    def test_replay_matches_batch_simulate(self):
        tr = build_trace("correlated-demand", seed=3, num_jobs=10)
        out = replay(tr, engine="reference")
        batch = simulate(
            KResourceMachine(tr.capacities),
            scheduler_by_name(tr.scheduler),
            tr.to_jobset(),
            seed=tr.seed,
            record_trace=True,
        )
        assert batch.makespan == out.makespan
        assert batch.trace.content_digest() == out.schedule_digest

    def test_divergence_reported_with_step(self):
        tr = build_trace("hotspot", seed=1, num_jobs=8)
        # a what-if replay under a different scheduler is still
        # self-consistent across engines...
        outcomes = replay_compare(tr, scheduler="greedy-fcfs")
        assert (
            outcomes["reference"].step_digests
            == outcomes["fast"].step_digests
        )
        # ...but comparing two *different* schedulers must diverge
        a = replay(tr, engine="reference")
        b = replay(tr, engine="reference", scheduler="greedy-fcfs")
        assert a.schedule_digest != b.schedule_digest

    def test_replay_needs_two_engines(self):
        tr = build_trace("hotspot", seed=1, num_jobs=4)
        with pytest.raises(ReplayError, match="at least two"):
            replay_compare(tr, engines=("reference",))

    def test_faulted_replay_reproduces_failures(self):
        tr = build_trace("adversarial-mix", seed=9, num_jobs=12)
        a = replay(tr, engine="reference")
        b = replay(tr, engine="fast")
        assert a.result.failed_jobs == b.result.failed_jobs
        assert a.result.retries == b.result.retries
        assert (a.result.wasted == b.result.wasted).all()


def _run_service(tmp_path, *, faults=None, cancel=True):
    spec = faults
    caps = (4, 2)
    cs, fm, rp = fault_objects_from_spec(caps, spec)
    cfg = ServiceConfig(
        capacities=caps,
        seed=3,
        journal_path=str(tmp_path / "svc.journal"),
        trace_path=str(tmp_path / "svc.trace.ndjson"),
        extra={"faults": spec},
    )
    svc = SchedulingService(
        cfg, fault_model=fm, retry_policy=rp, capacity_schedule=cs
    )
    rng = np.random.default_rng(21)
    for i in range(8):
        job = random_phase_job(rng, 2, max_phases=2, max_work=12, job_id=0)
        ack = svc.submit(
            f"tenant-{i % 3}",
            job,
            release_time=svc.clock + int(rng.integers(0, 5)),
        )
        assert ack["ok"], ack
        svc.tick()
    if cancel:
        # one far-future submission withdrawn before it ever releases
        doomed = svc.submit(
            "tenant-0",
            random_phase_job(rng, 2, max_phases=1, job_id=0),
            release_time=svc.clock + 500,
        )
        assert ack["ok"]
        res = svc.cancel(doomed["job_id"])
        assert res["ok"], res
    summary = svc.drain()
    return cfg, svc, summary


class TestServiceRecording:
    def test_recorded_run_replays_to_drain_digest(self, tmp_path):
        cfg, svc, summary = _run_service(tmp_path)
        tr = WorkloadTrace.load(cfg.trace_path)
        assert len(tr.cancelled_ids()) == 1
        for engine in ("reference", "fast"):
            out = replay(tr, engine=engine)
            assert out.makespan == summary["makespan"]
            assert out.state_digest == summary["digest"]

    def test_faulted_recorded_run_replays(self, tmp_path):
        spec = fault_spec(
            task_fail_rate=0.05, kill_rate=0.02, max_attempts=3, seed=3
        )
        cfg, svc, summary = _run_service(tmp_path, faults=spec)
        tr = WorkloadTrace.load(cfg.trace_path)
        assert tr.faults == spec
        outcomes = replay_compare(tr)
        for out in outcomes.values():
            assert out.state_digest == summary["digest"]

    def test_journal_converts_to_same_records(self, tmp_path):
        cfg, svc, summary = _run_service(tmp_path)
        tr = WorkloadTrace.load(cfg.trace_path)
        jt = workload_trace_from_journal(cfg.journal_path, seed=cfg.seed)
        assert jt.records_digest() == tr.records_digest()
        assert jt.capacities == tr.capacities
        # and the journal-derived trace replays to the same terminal state
        out = replay(jt, engine="fast")
        assert out.state_digest == summary["digest"]


class TestCli:
    def test_workload_gen_and_replay(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "w.ndjson")
        assert main(
            ["workload", "gen", "flash-crowd", "--out", out,
             "--seed", "2", "--jobs", "8"]
        ) == 0
        assert main(["replay", out, "--digests"]) == 0
        text = capsys.readouterr().out
        assert "bit-identical" in text

    def test_workload_list(self, capsys):
        from repro.cli import main

        assert main(["workload", "list"]) == 0
        text = capsys.readouterr().out
        for name in scenario_names():
            assert name in text

    def test_replay_rejects_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["replay", str(tmp_path / "absent.ndjson")]) == 2

    def test_gen_unknown_scenario(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["workload", "gen", "nope", "--out", str(tmp_path / "x")]
        ) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestScenarioExperiment:
    def test_scen_report_passes(self):
        from repro.experiments import run_experiment

        report = run_experiment("SCEN", seed=0)
        assert report.passed, report.failing_checks()
        assert len(report.rows) == len(SCENARIOS)
        certified = [r for r in report.rows if r[6] == "yes"]
        assert len(certified) == len(SCENARIOS) - 1

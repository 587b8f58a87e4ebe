"""The versioned NDJSON workload-trace format.

A *workload trace* is the submission-side record of a run — who
submitted which job, when, releasing when, under which machine/
scheduler/fault configuration.  It is deliberately distinct from the
execution trace (:mod:`repro.sim.trace`, the ``chi`` mapping): the
workload trace is the *input* a run consumed; replaying it through
either engine reproduces the execution bit-identically.

Wire shape: newline-delimited JSON.  Line 1 is the header::

    {"format": "workload-trace", "version": 2, "capacities": [8, 4],
     "names": [...], "scheduler": "k-rad", "seed": 0,
     "faults": null | {...fault_spec...},
     "churn": null | {...ChurnSchedule.to_dict()...},
     "scenario": null | "name", "notes": [...]}

then one record per line, in submission order::

    {"kind": "submit", "t": 3, "release": 3, "tenant": "ada",
     "job": {...job_to_dict...}}
    {"kind": "cancel", "t": 7, "job_id": 5}

``t`` is the virtual clock at which the operation was accepted (records
are non-decreasing in ``t``); ``release`` is the *effective* release
step (``release >= t``).  Compatibility: loaders reject documents whose
``version`` they do not read, rather than guessing — bump the version on
any change to record semantics, and keep old readers for one version
when you do.  Version 2 added the optional ``churn`` header field (the
run's capacity-churn schedule, so churned runs replay bit-identically);
version-1 documents still load, with ``churn`` null.

The format is append-friendly (the service streams accepted submissions
line by line) and digestible: :meth:`WorkloadTrace.content_digest` is a
SHA-256 over the canonical form, so "same trace" is a byte-level claim.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import SerializationError
from repro.jobs.base import Job
from repro.jobs.jobset import JobSet

__all__ = [
    "TRACE_FORMAT",
    "TRACE_READ_VERSIONS",
    "TRACE_VERSION",
    "WorkloadTrace",
    "WorkloadTraceWriter",
    "load_workload_trace",
    "workload_trace_from_journal",
]

TRACE_FORMAT = "workload-trace"
TRACE_VERSION = 2
#: header versions this build can load (writers always emit the latest)
TRACE_READ_VERSIONS = (1, 2)

_RECORD_KINDS = ("submit", "cancel")


def _canonical(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


@dataclass
class WorkloadTrace:
    """One parsed workload trace: header plus ordered records."""

    capacities: tuple[int, ...]
    names: tuple[str, ...] | None = None
    scheduler: str = "k-rad"
    seed: int = 0
    faults: dict | None = None
    churn: dict | None = None
    scenario: str | None = None
    notes: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    # construction / validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        self.capacities = tuple(int(c) for c in self.capacities)
        if not self.capacities or any(c < 1 for c in self.capacities):
            raise SerializationError(
                f"workload trace needs positive capacities, got "
                f"{self.capacities}"
            )
        if self.churn is not None:
            schedule = self.churn_schedule()
            if schedule.nominal != self.capacities:
                raise SerializationError(
                    f"churn schedule nominal capacities "
                    f"{schedule.nominal} disagree with the trace's "
                    f"capacities {self.capacities}"
                )
        last_t = 0
        for i, rec in enumerate(self.records):
            kind = rec.get("kind")
            if kind not in _RECORD_KINDS:
                raise SerializationError(
                    f"record {i}: unknown kind {kind!r} "
                    f"(this build reads {_RECORD_KINDS})"
                )
            t = int(rec.get("t", -1))
            if t < last_t:
                raise SerializationError(
                    f"record {i}: clock goes backwards ({t} < {last_t})"
                )
            last_t = t
            if kind == "submit":
                if int(rec.get("release", -1)) < t:
                    raise SerializationError(
                        f"record {i}: release {rec.get('release')} "
                        f"precedes its submission clock {t}"
                    )
                if "job" not in rec:
                    raise SerializationError(
                        f"record {i}: submit record without a job document"
                    )
            elif "job_id" not in rec:
                raise SerializationError(
                    f"record {i}: cancel record without a job_id"
                )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        return len(self.capacities)

    def churn_schedule(self):
        """The recorded :class:`~repro.machine.churn.ChurnSchedule`,
        or ``None`` when the run had no churn."""
        if self.churn is None:
            return None
        from repro.machine.churn import ChurnSchedule

        return ChurnSchedule.from_dict(self.churn)

    def submissions(self) -> list[dict]:
        return [r for r in self.records if r["kind"] == "submit"]

    def cancelled_ids(self) -> set[int]:
        return {
            int(r["job_id"]) for r in self.records if r["kind"] == "cancel"
        }

    def __len__(self) -> int:
        return len(self.submissions())

    def jobs(self) -> list[Job]:
        """Fresh :class:`Job` objects, one per submission, in order,
        with the recorded effective release times applied."""
        from repro.io.serialize import job_from_dict

        out = []
        for rec in self.submissions():
            job = job_from_dict(rec["job"])
            job.release_time = int(rec["release"])
            out.append(job)
        return out

    def to_jobset(self, *, include_cancelled: bool = False) -> JobSet:
        """The trace as a batched :class:`JobSet` (cancelled jobs never
        executed, so they are excluded unless asked for)."""
        dropped = set() if include_cancelled else self.cancelled_ids()
        jobs = [j for j in self.jobs() if j.job_id not in dropped]
        return JobSet(jobs, num_categories=self.num_categories)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def header(self) -> dict[str, Any]:
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "capacities": list(self.capacities),
            "names": list(self.names) if self.names is not None else None,
            "scheduler": self.scheduler,
            "seed": int(self.seed),
            "faults": dict(self.faults) if self.faults else None,
            "churn": dict(self.churn) if self.churn else None,
            "scenario": self.scenario,
            "notes": list(self.notes),
        }

    def lines(self) -> Iterable[str]:
        yield _canonical(self.header())
        for rec in self.records:
            yield _canonical(rec)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.lines():
                fh.write(line + "\n")

    def content_digest(self) -> str:
        """SHA-256 over the canonical trace (header + records)."""
        h = hashlib.sha256()
        for line in self.lines():
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()

    def records_digest(self) -> str:
        """SHA-256 over the records alone (header-independent identity:
        a journal-derived trace and a live-recorded one of the same run
        agree here even if their headers carry different provenance)."""
        h = hashlib.sha256()
        for rec in self.records:
            h.update(_canonical(rec).encode())
            h.update(b"\n")
        return h.hexdigest()

    # ------------------------------------------------------------------
    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "WorkloadTrace":
        it = iter(lines)
        header_line = None
        for line in it:
            if line.strip():
                header_line = line
                break
        if header_line is None:
            raise SerializationError("empty workload trace")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"workload trace header is not JSON: {exc}"
            ) from None
        if (
            not isinstance(header, dict)
            or header.get("format") != TRACE_FORMAT
        ):
            raise SerializationError(
                f"expected a {TRACE_FORMAT!r} header, got "
                f"{header.get('format') if isinstance(header, dict) else header!r}"
            )
        if header.get("version") not in TRACE_READ_VERSIONS:
            raise SerializationError(
                f"unsupported workload-trace version "
                f"{header.get('version')!r} (this build reads versions "
                f"{list(TRACE_READ_VERSIONS)}; re-record the trace or "
                f"convert it)"
            )
        records = []
        for i, line in enumerate(it):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SerializationError(
                    f"workload trace record {i} is not JSON: {exc}"
                ) from None
        names = header.get("names")
        return cls(
            capacities=tuple(header["capacities"]),
            names=tuple(names) if names is not None else None,
            scheduler=str(header.get("scheduler", "k-rad")),
            seed=int(header.get("seed", 0)),
            faults=header.get("faults"),
            churn=header.get("churn"),
            scenario=header.get("scenario"),
            notes=list(header.get("notes", [])),
            records=records,
        )

    @classmethod
    def load(cls, path: str) -> "WorkloadTrace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_lines(fh)


def load_workload_trace(path: str) -> WorkloadTrace:
    """Read an NDJSON workload trace from ``path``."""
    return WorkloadTrace.load(path)


class WorkloadTraceWriter:
    """Streaming NDJSON writer: header on open, one record per call.

    Lines are flushed as written, so a SIGKILLed recorder loses at most
    the final partial line (the loader skips blanks; a torn tail is a
    parse error naming the record).  ``append=True`` re-opens an
    existing trace and keeps appending after its last record — the
    recovered-service path; the on-disk header is validated, not
    rewritten.  A final line without its newline is a write torn by a
    crash: it is truncated before appending resumes, while a malformed
    line anywhere before it still raises :class:`SerializationError`.
    The trace is observability: the *durable* submission record is the
    engine journal (see :func:`workload_trace_from_journal`).
    """

    def __init__(
        self,
        path: str,
        *,
        capacities: Sequence[int],
        names: Sequence[str] | None = None,
        scheduler: str = "k-rad",
        seed: int = 0,
        faults: dict | None = None,
        churn: dict | None = None,
        scenario: str | None = None,
        notes: Sequence[str] = (),
        append: bool = False,
    ) -> None:
        self.path = path
        header_needed = True
        data = b""
        if append and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            if data and not data.endswith(b"\n"):
                data = data[: data.rfind(b"\n") + 1]
                with open(path, "r+b") as fh:
                    fh.truncate(len(data))
        if data:
            existing = WorkloadTrace.from_lines(
                data.decode("utf-8").splitlines()
            )
            if existing.capacities != tuple(int(c) for c in capacities):
                raise SerializationError(
                    f"cannot append to {path}: trace records capacities "
                    f"{existing.capacities}, writer was given "
                    f"{tuple(capacities)}"
                )
            if existing.churn != (dict(churn) if churn else None):
                raise SerializationError(
                    f"cannot append to {path}: trace records churn "
                    f"{existing.churn!r}, writer was given {churn!r} — "
                    f"a resumed run must keep its original churn schedule"
                )
            header_needed = False
        self._fh = open(  # noqa: SIM115 - held across calls by design
            path, "a" if not header_needed else "w", encoding="utf-8"
        )
        if header_needed:
            header = WorkloadTrace(
                capacities=tuple(capacities),
                names=tuple(names) if names is not None else None,
                scheduler=scheduler,
                seed=seed,
                faults=faults,
                churn=churn,
                scenario=scenario,
                notes=list(notes),
            ).header()
            self._write(header)

    def _write(self, doc: dict) -> None:
        self._fh.write(_canonical(doc) + "\n")
        self._fh.flush()

    def record_submit(
        self, *, t: int, release: int, tenant: str, job: Job | dict
    ) -> None:
        from repro.io.serialize import job_to_dict

        doc = job if isinstance(job, dict) else job_to_dict(job)
        self._write(
            {
                "kind": "submit",
                "t": int(t),
                "release": int(release),
                "tenant": str(tenant),
                "job": doc,
            }
        )

    def record_cancel(self, *, t: int, job_id: int) -> None:
        self._write({"kind": "cancel", "t": int(t), "job_id": int(job_id)})

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WorkloadTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def workload_trace_from_journal(
    path: str, *, seed: int = 0, faults: dict | None = None
) -> WorkloadTrace:
    """Lift a service/engine write-ahead journal into a workload trace.

    The journal is the durable record of every acknowledged submission
    (fsync'd before the ack), so this converter replays a run's workload
    even when no ``--trace`` file was recorded.  The journal does not
    store the run's RNG ``seed`` or its fault hooks (callables); pass
    the same ``seed`` (and a :func:`repro.sim.faults.fault_spec`) the
    run used, exactly as ``krad recover`` requires.
    """
    from repro.io.serialize import machine_from_dict
    from repro.sim.journal import read_journal

    records, _nbytes, _clean = read_journal(path)
    if not records or records[0].type != "meta":
        raise SerializationError(
            f"{path!r} has no readable journal header"
        )
    meta = records[0].data
    machine = machine_from_dict(meta["machine"])
    out: list[dict] = []
    for rec in records:
        if rec.type == "submit":
            snap = rec.data["job"]
            out.append(
                {
                    "kind": "submit",
                    "t": int(rec.data["t"]),
                    "release": int(snap["release_time"]),
                    "tenant": str(
                        rec.data.get("meta", {}).get("tenant", "default")
                    ),
                    "job": snap["static"],
                }
            )
        elif rec.type == "cancel":
            out.append(
                {
                    "kind": "cancel",
                    "t": int(rec.data["t"]),
                    "job_id": int(rec.data["job_id"]),
                }
            )
    return WorkloadTrace(
        capacities=machine.capacities,
        names=machine.names,
        scheduler=str(meta.get("scheduler", "k-rad")),
        seed=seed,
        faults=faults,
        churn=meta.get("churn"),
        scenario=None,
        notes=[f"converted from journal {os.path.basename(path)}"],
        records=out,
    )

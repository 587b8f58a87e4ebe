"""The batch-simulation workload ``sim-batch``.

One pass runs every cell of the workload on both engines, alternating
which engine goes first.  The cells are the two kinds of batch work the
experiment sweeps and the arena run: ``phase256``, many live jobs, where
K-RAD allotment over 256 rows dominates; ``dag10k`` and ``adversarial``,
few live jobs, where per-step overhead, DAG unfolding, fault hooks and
online injection dominate.  A pass passes its checks when every cell ends
with the same makespan and final digest on both engines and in every
pass.  Inputs come from ``--seed``; the engines' own RNG seed is fixed
at 0.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.dag import builders
from repro.jobs import JobSet, workloads
from repro.machine import KResourceMachine
from repro.obs import Observability, set_default_obs
from repro.schedulers import KRad
from repro.sim import result_fingerprint, simulate
from repro.sim.journal import state_digest
from repro.workloads import build_trace, replay

import spans as spanlib
from harness import self_times

ENGINES = ("fast", "reference")
PHASES = ("arrivals", "desires", "allotment", "execution", "faults",
          "bookkeeping")
#: a run makes at least this many passes, however short ``--seconds``
MIN_PASSES = 3


@dataclass
class Cell:
    name: str
    machine: KResourceMachine | None = None
    jobset: JobSet | None = None
    trace: object = None

    def run(self, engine: str, rec: spanlib.SpanRecorder | None):
        """One run of the cell; returns ``(makespan, digest, busy_units)``."""
        if self.trace is not None:
            fn, args = replay, (self.trace,)
            kwargs = {"engine": engine, "record_trace": False}
            name = "workloads.replay"
        else:
            fn, args = simulate, (self.machine, KRad(), self.jobset)
            kwargs = {"seed": 0, "engine": engine}
            name = "sim.simulate"
        out = rec.call(name, fn, *args, **kwargs) if rec else fn(
            *args, **kwargs)
        if self.trace is not None:
            result, digest = out.result, out.state_digest
        else:
            result, digest = out, state_digest(result_fingerprint(out))
        return result.makespan, digest, int(np.asarray(result.busy).sum())


def build_cells(workload: str, seed: int) -> list[Cell]:
    if workload != "sim-batch":
        raise ValueError(f"not a sim workload: {workload!r}")
    rng = np.random.default_rng(seed)
    return [
        # 256 random phase jobs, all released at t=0, on K=8 x 8
        Cell("phase256", machine=KResourceMachine((8,) * 8),
             jobset=workloads.random_phase_jobset(rng, 8, 256, max_work=20)),
        # one 10k-vertex DAG job
        Cell("dag10k", machine=KResourceMachine((16, 16)),
             jobset=JobSet.from_dags([builders.diamond_mesh(100, 100, 2)])),
        # the faulted scenario, built as a trace and replayed online
        Cell("adversarial",
             trace=build_trace("adversarial-mix", seed=seed, num_jobs=200)),
    ]


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(cells, seconds: float, rec=None) -> dict:
    """Run passes for ``seconds``; returns timings, outputs and checks.

    With a recorder, every cell runs under an ``Observability`` phase
    profiler and the recorder's tag names the ``(pass, engine)`` pair.
    """
    per_engine = {e: [] for e in ENGINES}
    per_cell = {(c.name, e): [] for c in cells for e in ENGINES}
    outputs = []
    profiles = []
    cpu0 = _cpu_s()
    start = perf_counter()
    deadline = start + seconds
    n = 0
    while n < MIN_PASSES or perf_counter() < deadline:
        order = ENGINES if n % 2 == 0 else ENGINES[::-1]
        got = {}
        for engine in order:
            obs = None
            if rec is not None:
                rec.tag = [n, engine]
                obs = Observability(metrics=False, profile=True)
                set_default_obs(obs)
            # every timed call starts from an empty collector, so the
            # collections inside it fall at the same allocations each time
            gc.collect()
            t0 = perf_counter()
            try:
                got[engine] = []
                for c in cells:
                    tc = perf_counter()
                    got[engine].append(c.run(engine, rec))
                    per_cell[(c.name, engine)].append(perf_counter() - tc)
            finally:
                if rec is not None:
                    set_default_obs(None)
            per_engine[engine].append(perf_counter() - t0)
            if obs is not None:
                profiles.append((n, engine, obs.profiler))
        outputs.append(got)
        n += 1
    elapsed = perf_counter() - start
    cpu = _cpu_s() - cpu0
    reference = outputs[0][ENGINES[0]]
    failed = sum(
        1 for got in outputs
        if any(got[e] != reference for e in ENGINES)
    )
    return {
        "passes": n,
        "failed": failed,
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "pass_s": per_engine,
        "cell_s": per_cell,
        "outputs": reference,
        "profiles": profiles,
    }


def end_to_end(m: dict) -> dict:
    """The workload's end-to-end metrics (setup and memory added by the
    caller)."""
    return {
        "latency_ms": statistics.median(m["pass_s"]["fast"]) * 1e3,
        "throughput_per_s": m["passes"] / m["elapsed_s"],
        "cpu_ms_per_op": m["cpu_s"] / m["passes"] * 1e3,
    }


def named(m: dict) -> dict:
    """The figures under the sim-specific names used in reports, and the
    median time of each cell on each engine; none of them is gated."""
    out = {
        "sim_s.fast": statistics.median(m["pass_s"]["fast"]),
        "sim_s.reference": statistics.median(m["pass_s"]["reference"]),
    }
    for (cell, engine), times in m["cell_s"].items():
        out[f"cell_s.{cell}.{engine}"] = statistics.median(times)
    return out


def per_layer(m: dict, rec: spanlib.SpanRecorder) -> tuple[dict, dict]:
    """Per-layer metrics of a traced measurement, plus the deterministic
    counters of each pass (which the caller checks for repeats)."""
    by_tag: dict[tuple, list] = {}
    for span in rec.spans:
        by_tag.setdefault(tuple(span[6]), []).append(span)
    prof = {(n, e): p for n, e, p in m["profiles"]}
    steps = sum(out[0] for out in m["outputs"])
    tasks = sum(out[2] for out in m["outputs"])
    counters_by_pass: dict[int, dict] = {}
    sums: dict[str, list] = {}

    def add(key, value):
        sums.setdefault(key, []).append(value)

    for (n, engine), group in by_tag.items():
        kernel = [s for s in group if s[2] == "schedulers.kernel"]
        deq = [s for s in group if s[2] == "schedulers.deq"]
        roots = [s for s in group if s[1] is None]
        replays = [s for s in group if s[2] == "workloads.replay"]
        injects = [s for s in group if s[2] == "sim.inject"]
        p = prof[(n, engine)]
        executed = p.counts.get("arrivals", 0)
        c = counters_by_pass.setdefault(n, {
            "sim.steps": steps, "jobs.tasks_executed": tasks})
        c[f"sim.steps_executed.{engine}"] = executed
        c[f"schedulers.kernel_calls.{engine}"] = len(kernel)
        c[f"schedulers.deq_calls.{engine}"] = len(deq)
        c["workloads.inject_calls"] = len(injects)
        busy_s = sum(s[4] - s[3] for s in roots)
        add(f"sim.us_per_step.{engine}", busy_s / max(executed, 1) * 1e6)
        for phase in PHASES:
            add(f"sim.{phase}_s.{engine}", p.totals.get(phase, 0.0))
        add(f"schedulers.kernel_s.{engine}",
            sum(s[4] - s[3] for s in kernel))
        add(f"schedulers.rows_per_call.{engine}",
            sum(s[7]["rows"] for s in kernel) / max(len(kernel), 1))
        add(f"workloads.replay_s.{engine}",
            sum(s[4] - s[3] for s in replays))
        selfs = self_times([(s[0], s[1], s[3], s[4]) for s in group])
        layer_self: dict[str, float] = {}
        for s in group:
            layer = s[2].split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs[s[0]]
        for layer, value in layer_self.items():
            add(f"self_s.{layer}.{engine}", value)
    metrics = {k: statistics.median(v) for k, v in sums.items()}
    first = counters_by_pass[min(counters_by_pass)]
    metrics.update(first)
    return metrics, counters_by_pass

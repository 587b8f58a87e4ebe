"""The live-service workloads: ``serve-journal`` and ``serve-sharded``.

Each run starts a ``krad serve`` subprocess on an ephemeral port and
drives it over TCP from two threads, one ``ServiceClient`` connection
each; tenants are assigned round-robin, so tenant ``i`` always uses
connection ``i % 2``.  Every submission carries an idempotency token.

* Phase A is an open loop: request ``i`` is due at ``i / rate`` seconds
  and is timed from its due time, so a stall is charged to every request
  it delays.  The phase sends at least enough requests for ten acks to
  lie beyond the p99.
* Phase B is a closed loop (each connection sends its next request when
  the previous ack arrives) and gives the saturated throughput.
* Then the benchmark drains the service and checks the outputs.

A run repeats this on ``SEGMENTS`` fresh servers and pools the samples.
"""

from __future__ import annotations

import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter, sleep

import numpy as np

from repro.errors import ServiceError
from repro.io.serialize import job_to_dict
from repro.jobs import workloads
from repro.service import ServiceClient
from repro.sim.journal import read_journal

import spans as spanlib
from harness import (
    generator_kept_schedule,
    open_loop_accounting,
    percentile,
    samples_needed,
    self_times,
    tail,
)

HERE = os.path.dirname(os.path.abspath(__file__))

#: Phase-A rate, fixed well below the saturated (phase-B) rate measured on
#: a 2-vCPU x86-64 VM (1100/s journaled and 3100/s sharded when the host
#: was fast, 500/s and 1100/s when it was slow).  Nearer half the saturated
#: rate, the median ack swung between the idle and the busy regime of the
#: serving loop with the host's speed, and its spread over ten runs
#: exceeded its median; at 300/s sharded, the slow host's spread was 0.4.
RATE = {"serve-journal": 100.0, "serve-sharded": 150.0}
TENANTS = {"serve-journal": 8, "serve-sharded": 16}
SHARDS = {"serve-journal": 1, "serve-sharded": 4}
CONNECTIONS = 2
#: fresh servers per run.  The journaled server slows as its checkpoints
#: grow with every job it has seen, and how fast it slows varies from
#: run to run; pooling several shorter server lifetimes keeps the
#: latency percentiles steady.  ``setup_s`` is the median spawn time.
SEGMENTS = 4
PHASE_A_SHARE = 0.75
MIN_PHASE_B_S = 2.0
DOCS = 2048
STARTUP_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 120.0


def server_flags(workload: str, tmpdir: str) -> list[str]:
    # quotas far above anything a run submits: admission never refuses
    flags = ["serve", "--engine", "fast", "--capacities", "8,8",
             "--tenant-quota", "1000000", "--max-in-flight", "1000000"]
    if workload == "serve-journal":
        flags += ["--journal", os.path.join(tmpdir, "krad.journal")]
    else:
        flags += ["--shards", str(SHARDS[workload])]
    return flags


class Server:
    """One ``krad serve`` child, started until its ``serving on`` line."""

    def __init__(self, flags, *, root, tmpdir, spans_out=None):
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *flags]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                   spans_out, *flags]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self._stderr = open(os.path.join(tmpdir, "server.err"), "ab")
        start = perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr)
        try:
            self.address = self._await_serving(start + STARTUP_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - start

    def _await_serving(self, deadline):
        out = self.proc.stdout
        while True:
            left = deadline - perf_counter()
            if left <= 0:
                raise RuntimeError("server did not report 'serving on'")
            ready, _, _ = select.select([out], [], [], left)
            if not ready:
                continue
            line = out.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before serving")
            if line.startswith("serving on "):
                host, port = line.split()[-1].rsplit(":", 1)
                return host, int(port)

    def drain(self) -> dict:
        with ServiceClient(self.address, timeout=DRAIN_TIMEOUT_S) as cli:
            return cli.drain()

    def reap(self) -> int:
        """Wait for the drained server to exit; returns its exit code."""
        try:
            self.proc.communicate(timeout=DRAIN_TIMEOUT_S)
        finally:
            self.kill()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()


def make_docs(seed: int) -> list[dict]:
    # small single-phase jobs (a few virtual steps each) keep the engine
    # idle between most arrivals, so the median ack times the request path
    rng = np.random.default_rng(seed)
    return [job_to_dict(j) for j in
            workloads.random_phase_jobset(rng, 2, DOCS, max_phases=1,
                                          max_work=5)]


def _children_usage():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def _drive(address, workload, docs, n_a, phase_b_s, prefix):
    """Phases A and B against one server; returns the raw records.

    Tokens are ``prefix`` plus the phase and request number."""
    rate = RATE[workload]
    tenants = TENANTS[workload]
    due = [0.0] * n_a
    sent = [0.0] * n_a
    done = [0.0] * n_a
    acks: list[dict] = []
    phase_b: list[list] = [[] for _ in range(CONNECTIONS)]
    clients = [ServiceClient(address, timeout=DRAIN_TIMEOUT_S)
               for _ in range(CONNECTIONS)]

    def submit(c, i, token):
        try:
            return clients[c].submit(
                f"tenant-{i % tenants}", docs[i % len(docs)], token=token)
        except ServiceError as exc:
            return {"ok": False, "error": str(exc)}

    def phase_a(c, t0):
        for i in range(c, n_a, CONNECTIONS):
            due[i] = t0 + i / rate
            wait = due[i] - perf_counter()
            if wait > 0:
                sleep(wait)
            sent[i] = perf_counter()
            acks.append(submit(c, i, f"{prefix}a{i}"))
            done[i] = perf_counter()

    def phase_b_loop(c, end):
        i = n_a + c
        while perf_counter() < end:
            phase_b[c].append(submit(c, i, f"{prefix}b{i}"))
            i += CONNECTIONS

    def run_threads(target, arg):
        threads = [threading.Thread(target=target, args=(c, arg))
                   for c in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    try:
        run_threads(phase_a, perf_counter() + 0.05)
        b_start = perf_counter()
        run_threads(phase_b_loop, b_start + phase_b_s)
        b_elapsed = perf_counter() - b_start
    finally:
        for cli in clients:
            cli.close()
    b_acks = [a for lane in phase_b for a in lane]
    return {
        "acct": open_loop_accounting(due, sent, done, rate),
        "acks": acks + b_acks,
        "phase_b_ok": sum(1 for a in b_acks if a.get("ok")),
        "phase_b_s": b_elapsed,
    }


def check(workload, drain, acks, tmpdir) -> list[str]:
    """Output checks; returns one message per failed check."""
    problems = []
    accepted = sum(1 for a in acks if a.get("ok"))
    if not drain.get("ok"):
        problems.append(f"drain failed: {drain.get('error')}")
    if drain.get("accepted") != accepted:
        problems.append(
            f"server accepted {drain.get('accepted')}, clients saw "
            f"{accepted} acks")
    if drain.get("completed") != drain.get("accepted"):
        problems.append(
            f"completed {drain.get('completed')} != accepted "
            f"{drain.get('accepted')}")
    if drain.get("failed"):
        problems.append(f"{len(drain['failed'])} jobs failed")
    if workload == "serve-journal":
        records, _, clean = read_journal(
            os.path.join(tmpdir, "krad.journal"))
        if not clean:
            problems.append("journal has a torn tail")
        if not records or records[-1].type != "end":
            problems.append("journal has no end record")
        elif records[-1].data.get("digest") != drain.get("digest"):
            problems.append(
                f"journal end digest {records[-1].data.get('digest')} != "
                f"drain digest {drain.get('digest')}")
    return problems


def measure(workload, seed, seconds, *, root, traced=False):
    """One run: ``SEGMENTS`` fresh servers, each spawned, loaded with
    phases A and B, drained, reaped and checked.

    Latencies of all segments are pooled; ``setup_s`` is the median
    spawn time.  Returns the end-to-end metrics, the counts for the
    result line, the generator's health and (when traced) the per-layer
    metrics.
    """
    rate = RATE[workload]
    n_a = math.ceil(max(rate * PHASE_A_SHARE * seconds,
                        samples_needed(99)) / SEGMENTS)
    phase_b_s = max((1 - PHASE_A_SHARE) * seconds, MIN_PHASE_B_S) / SEGMENTS
    tmp_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    docs = make_docs(seed)
    rec = spanlib.SpanRecorder() if traced else None
    server = None
    setup, latency, late, phase_a_s, acks, problems = [], [], [], [], [], []
    server_spans = []
    b_ok = b_s = 0.0
    try:
        cpu0, _ = _children_usage()
        for k in range(SEGMENTS):
            # each segment's server journals into an empty directory
            sub = os.path.join(tmpdir, f"segment{k}")
            os.mkdir(sub)
            spans_out = os.path.join(sub, "spans.jsonl") if traced else None
            server = Server(server_flags(workload, sub), root=root,
                            tmpdir=sub, spans_out=spans_out)
            setup.append(server.setup_s)
            if rec is not None:
                spanlib.install_client(rec)
            try:
                skip = k * n_a % len(docs)
                seg_docs = docs[skip:] + docs[:skip]
                load = _drive(server.address, workload, seg_docs, n_a,
                              phase_b_s, f"s{k}")
                drain = server.drain()
            finally:
                if rec is not None:
                    rec.restore()
            code = server.reap()
            server = None
            problems += check(workload, drain, load["acks"], sub)
            if code != 0:
                problems.append(f"server exited with {code}")
            if traced:
                server_spans.append(spanlib.load(spans_out))
            acct = load["acct"]
            latency += acct["latency_ms"]
            late += acct["late_ms"]
            # the time this segment's phase A took at its achieved rate
            phase_a_s.append(n_a / acct["achieved_per_s"])
            acks += load["acks"]
            b_ok += load["phase_b_ok"]
            b_s += load["phase_b_s"]
        cpu1, rss = _children_usage()
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(tmpdir, ignore_errors=True)
    accepted = sum(1 for a in acks if a.get("ok"))
    e2e = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "latency_ms": percentile(latency, 50),
        "throughput_per_s": b_ok / b_s,
        "cpu_ms_per_op": (cpu1 - cpu0) / max(accepted, 1) * 1e3,
    }
    named = {
        "ack_ms.p50": e2e["latency_ms"],
        "ack_ms.p99": tail(latency, 99),
        "saturated_submits_per_s": e2e["throughput_per_s"],
        "server_cpu_ms_per_submit": e2e["cpu_ms_per_op"],
    }
    pooled = {"offered_per_s": rate,
              "achieved_per_s": len(latency) / sum(phase_a_s)}
    gen = {
        "gen.late_ms.p99": percentile(late, 99),
        "gen.offered_per_s": rate,
        "gen.achieved_per_s": pooled["achieved_per_s"],
        "gen.valid": generator_kept_schedule(pooled),
    }
    layers = None
    if traced:
        layers = serve_layers(server_spans, rec.spans, acks,
                              SHARDS[workload])
    return {
        "e2e": e2e,
        "named": named,
        "gen": gen,
        "attempted": len(acks),
        "failed": (len(acks) - accepted) + len(problems),
        "problems": problems,
        "layers": layers,
    }


def _durations(spans, name, scale=1e3):
    return [(s[4] - s[3]) * scale for s in spans if s[2] == name]


def _pct(values, p):
    return percentile(values, p) if values else 0.0


def serve_layers(segments, client_spans, acks, num_shards) -> dict:
    """Per-layer metrics of one traced serve run.

    ``segments`` holds each server's spans.  Server and client spans come
    from different processes; they are joined by the submission token
    only (unique across segments), never by comparing their clocks.
    """
    out: dict[str, float] = {}
    server_spans = [s for seg in segments for s in seg]
    client = {s[5]: (s[4] - s[3]) * 1e3 for s in client_spans
              if s[2] == "client.request" and s[5] is not None}
    req = list(client.values())
    out["client.request_ms.p50"] = _pct(req, 50)
    out["client.request_ms.p99"] = _pct(req, 99)

    push_start, push_end, pop_start, handled = {}, {}, {}, {}
    for s in server_spans:
        name, tok = s[2], s[5]
        if name == "queue.push" and tok is not None:
            push_start.setdefault(tok, s[3])
            push_end.setdefault(tok, s[4])
        elif name == "queue.pop" and s[7]:
            pop_start.setdefault(s[7]["token"], s[3])
        elif name in ("service.submit", "router.submit") and s[1] is None:
            handled[tok] = max(handled.get(tok, s[4]), s[4])
    wire = [client[t] - (handled[t] - push_start[t]) * 1e3
            for t in client if t in handled and t in push_start]
    out["wire.ms.p50"] = _pct(wire, 50)
    out["wire.ms.p99"] = _pct(wire, 99)
    wait = [(pop_start[t] - push_end[t]) * 1e3
            for t in pop_start if t in push_end]
    out["queue.wait_ms.p50"] = _pct(wait, 50)
    out["queue.wait_ms.p99"] = _pct(wait, 99)

    submit = _durations(server_spans, "service.submit", 1e6)
    out["service.submit_us.p50"] = _pct(submit, 50)
    out["service.submit_us.p99"] = _pct(submit, 99)
    out["admission.decide_us.p50"] = _pct(
        _durations(server_spans, "admission.decide", 1e6), 50)
    out["sim.inject_us.p50"] = _pct(
        _durations(server_spans, "sim.inject", 1e6), 50)

    ticks = [s for s in server_spans
             if s[2] == "service.tick" and s[1] is None]
    tick_ms = [(s[4] - s[3]) * 1e3 for s in ticks]
    out["service.tick_ms.p50"] = _pct(tick_ms, 50)
    out["service.tick_ms.p99"] = _pct(tick_ms, 99)
    out["service.ticks"] = len(ticks)
    busy = sum(tick_ms) / 1e3
    steps = sum(s[7]["steps"] for s in ticks)
    out["service.virtual_steps_per_s"] = steps / busy if busy else 0.0

    appends = [s for s in server_spans if s[2] == "journal.append"]
    out["journal.append_ms.p50"] = _pct(
        [(s[4] - s[3]) * 1e3 for s in appends], 50)
    out["journal.append_ms.p99"] = _pct(
        [(s[4] - s[3]) * 1e3 for s in appends], 99)
    for rtype in ("step", "submit", "checkpoint"):
        out[f"journal.appends.{rtype}"] = sum(
            1 for s in appends if s[7]["type"] == rtype)
    out["journal.bytes"] = sum(s[7]["bytes"] for s in appends)
    out["journal.checkpoint_bytes.max"] = max(
        (s[7]["bytes"] for s in appends if s[7]["type"] == "checkpoint"),
        default=0)

    out["router.shard_for_us.p50"] = _pct(
        _durations(server_spans, "router.shard_for", 1e6), 50)
    shards = [a["shard"] for a in acks if a.get("ok") and "shard" in a]
    if shards:
        counts = np.bincount(shards, minlength=num_shards)
        out["router.shard_share_max"] = (
            counts.max() / counts.sum() * num_shards)
    else:
        out["router.shard_share_max"] = 0.0
    out["shard.tick_all_ms.p99"] = _pct(
        _durations(server_spans, "shard.tick_all"), 99)

    # the client's self time is what its request spends outside the
    # server's handler: the server spans are its children, joined by token
    out["self_s.client"] = sum(wire) / 1e3
    for group in segments:
        selfs = self_times([(s[0], s[1], s[3], s[4]) for s in group])
        for s in group:
            key = f"self_s.{s[2].split('.', 1)[0]}"
            out[key] = out.get(key, 0.0) + selfs[s[0]]
    return out

"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Workloads, metric names, units and
bounds are declared in ``BENCHMARK.json``; ``perfbench/README.md``
explains what each one measures.

With ``--trace 0`` the run measures for ``--seconds`` seconds with no
instrumentation and prints the end-to-end metrics.  With ``--trace 1`` it
measures untraced for half the time, then with span wrappers installed
for the other half, and prints the per-layer metrics together with the
tracing overhead (traced minus untraced) of every end-to-end metric.
The last line of standard output is always the JSON result.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM = ("sim-batch",)
SERVE = ("serve-journal", "serve-sharded")
#: fresh-interpreter set-ups per sim run, beside the run's own: imports
#: happen once per process, so repeating set-up takes new processes
SETUP_PROBES = 2
#: exit code of a run whose open-loop generator fell behind its schedule
EXIT_INVALID = 3


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=SIM + SERVE)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh interpreter that only sets a sim workload up
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program source under {src}; run from the "
            "root of a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_setup(args):
    """Imports and inputs of a sim run; with ``--trace 1`` in a set-up
    probe, the span wrappers are installed first."""
    import sim_workloads

    if args.setup_probe and args.trace:
        import spans as spanlib

        spanlib.install_sim(spanlib.SpanRecorder())
    cells = sim_workloads.build_cells(args.workload, args.seed)
    return cells, perf_counter() - T_START


def sim_setup_probes(args, traced: bool, count: int) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", str(int(traced))]
    out = []
    for _ in range(count):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        out.append(float(res.stdout.split()[-1]))
    return out


def run_sim(args):
    import sim_workloads
    import spans as spanlib

    cells, setup_here = sim_setup(args)
    setup = statistics.median(
        [setup_here, *sim_setup_probes(args, False, SETUP_PROBES)])
    seconds = args.seconds / 2 if args.trace else args.seconds
    m = sim_workloads.measure(cells, seconds)
    e2e = {"setup_s": setup, **sim_workloads.end_to_end(m),
           "peak_rss_mb": _rss_mb()}
    report = {"e2e": e2e, "named": sim_workloads.named(m),
              "attempted": m["passes"], "failed": m["failed"],
              "problems": _pass_problems(m)}
    if not args.trace:
        return report
    rec = spanlib.SpanRecorder()
    spanlib.install_sim(rec)
    try:
        mt = sim_workloads.measure(cells, seconds, rec)
    finally:
        rec.restore()
    # traced set-up: fresh interpreters that install the wrappers first
    traced_setup = statistics.median(
        sim_setup_probes(args, True, SETUP_PROBES + 1))
    traced = {"setup_s": traced_setup, **sim_workloads.end_to_end(mt),
              "peak_rss_mb": _rss_mb()}
    layers, by_pass = sim_workloads.per_layer(mt, rec)
    # untraced medians: the reference engine's pass and every cell
    layers.update({k: v for k, v in report["named"].items()
                   if k == "sim_s.reference" or k.startswith("cell_s.")})
    counter_problems = check_counters(args, by_pass)
    report["attempted"] += mt["passes"]
    report["failed"] += mt["failed"] + len(counter_problems)
    report["problems"] += _pass_problems(mt) + counter_problems
    report["layers"] = layers
    report["traced_e2e"] = traced
    return report


def _pass_problems(m) -> list[str]:
    if not m["failed"]:
        return []
    return [f"{m['failed']} of {m['passes']} passes disagreed on makespan "
            "or digest across engines or passes"]


def check_counters(args, by_pass: dict) -> list[str]:
    """Deterministic counters must repeat in every pass of this run and
    in every earlier run of the same workload and seed on the same code
    (the program's sources and the benchmark's own)."""
    from harness import check_repeat, source_digest

    problems = []
    passes = list(by_pass.values())
    if any(c != passes[0] for c in passes[1:]):
        problems.append("deterministic counters differ between passes")
    digest = source_digest(os.path.join(ROOT, "src"), HERE)[:16]
    problem = check_repeat(os.path.join(ROOT, ".perfbench_out"),
                           f"counters-{args.workload}-{args.seed}-{digest}",
                           passes[0])
    if problem:
        problems.append(problem)
    return problems


def run_serve(args):
    import serve_workloads

    seconds = args.seconds / 2 if args.trace else args.seconds
    m = serve_workloads.measure(args.workload, args.seed, seconds, root=ROOT)
    report = {"e2e": m["e2e"], "named": m["named"],
              "gen": m["gen"], "attempted": m["attempted"],
              "failed": m["failed"], "problems": m["problems"]}
    if not args.trace:
        return report
    mt = serve_workloads.measure(args.workload, args.seed, seconds,
                                 root=ROOT, traced=True)
    report["attempted"] += mt["attempted"]
    report["failed"] += mt["failed"]
    report["problems"] += mt["problems"]
    gen = {k: v for k, v in m["gen"].items() if k != "gen.valid"}
    report["layers"] = {**mt["layers"], **gen,
                        "ack_ms.p99": m["named"]["ack_ms.p99"]}
    report["traced_e2e"] = mt["e2e"]
    return report


def print_report(args, spec, report) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    print(f"workload {args.workload}  seed {args.seed}  "
          f"attempted {report['attempted']}  failed {report['failed']}")
    for name, value in report["e2e"].items():
        print(f"  {name:<32} {value:>14.4f} {units[name]}")
    for name, value in {**report["named"], **report.get("gen", {})}.items():
        print(f"  {name:<32} {value!s:>14}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if "layers" not in report:
        return
    layers = report["layers"]
    print("  per-layer metrics (traced half; layers not entered omitted):")
    for name, value in layers.items():
        if value and not name.startswith("self_s."):
            print(f"    {name:<32} {value:>14.4f} {units[name]}")
    print("  self time by layer:")
    selfs = {k[7:]: v for k, v in layers.items() if k.startswith("self_s.")}
    total = sum(selfs.values())
    for layer, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<32} {value:>12.4f} s {value / total:>7.1%}")
    print("  tracing overhead (traced minus untraced):")
    for name, value in report["e2e"].items():
        print(f"    {name:<32} {report['traced_e2e'][name] - value:>+14.4f} "
              f"{units[name]}")


def result_line(args, spec, report) -> dict:
    if args.trace:
        layers = report["layers"]
        overhead = {f"overhead.{k}": report["traced_e2e"][k] - v
                    for k, v in report["e2e"].items()}
        values = {**layers, **overhead}
        wanted = spec["per_layer"]
        # a layer the workload never enters reads zero
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in wanted}
    else:
        metrics = {m["name"]: {"value": float(report["e2e"][m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": report["failed"] == 0 and not report["problems"],
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def _exit_on_sigterm(signum, frame):
    # unwind through the ``finally`` blocks, which kill and reap servers
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    _import_program()
    if args.setup_probe:
        sim_setup(args)
        print(f"{perf_counter() - T_START:.6f}")
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload in SIM:
        report = run_sim(args)
    else:
        report = run_serve(args)
    print_report(args, spec, report)
    if "gen" in report and not report["gen"]["gen.valid"]:
        print(f"perfbench: phase A achieved "
              f"{report['gen']['gen.achieved_per_s']:.1f}/s of "
              f"{report['gen']['gen.offered_per_s']:.1f}/s offered; the "
              "generator fell behind, so this run is not a data point",
              file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(result_line(args, spec, report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

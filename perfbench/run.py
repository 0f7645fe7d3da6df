#!/usr/bin/env python3
"""perfbench: run one workload of the repository's benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 3 \
        --seconds 12 --trace 0

Workloads: ``pretrain``, ``bulk_embed`` and ``serve`` (see
``perfbench/README.md``).  The program is imported from ``src/`` next to
this directory and nowhere else; without it the run fails before
measuring anything.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures an
untraced pass, then installs span-recording wrappers and measures a
traced pass, and prints the per-layer metrics (plus the tracing
overhead); spans are written to ``.perfbench_out/``.  Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` only."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail("no program source at %s" % os.path.join(SRC, "repro"))
    sys.path.insert(0, SRC)
    import repro
    location = os.path.realpath(repro.__file__)
    if not location.startswith(os.path.realpath(SRC) + os.sep):
        _fail("imported repro from %s, not from %s" % (location, SRC))


def _load_spec():
    """Workloads and metric names, units and directions, from
    ``BENCHMARK.json`` at the root of the checkout."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        _fail("cannot read %s: %s" % (path, error))


def _layer_metrics(module, tracer, state, traced, untraced, names):
    """Every per-layer value, and the call count behind each."""
    summary = tracer.summary()
    values = dict.fromkeys(names, 0.0)
    counts = dict.fromkeys(values, 0)
    for name, (span, field) in module.SPAN_METRICS.items():
        entry = summary.get(span)
        if entry:
            values[name] = entry[field] * 1e3
            counts[name] = entry["calls"]
    extra_values, extra_counts = module.layers(tracer, state, traced,
                                               untraced)
    values.update(extra_values)
    counts.update(extra_counts)
    values["trace.overhead_events_per_s_ratio"] = (
        untraced["events_per_s"] / traced["events_per_s"])
    values["trace.overhead_latency_ms_p50_ratio"] = (
        traced["latency_ms_p50"] / untraced["latency_ms_p50"])
    values["trace.spans"] = len(tracer.spans)
    for name in ("trace.overhead_events_per_s_ratio",
                 "trace.overhead_latency_ms_p50_ratio", "trace.spans"):
        counts[name] = len(tracer.spans)
    return values, counts, summary


def _shares(summary, sums, traced_seconds):
    """Self time of each span name (and summed time of each span-less
    call) as a share of the traced pass, largest first."""
    seconds = {name: entry["self_s"] for name, entry in summary.items()}
    seconds.update(sums)
    return {name: round(value / traced_seconds, 4)
            for name, value in sorted(seconds.items(),
                                      key=lambda kv: -kv[1])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: the serve workload already runs three threads on
    # small GEMMs, and a BLAS pool would compete with them for the same
    # few CPUs.  Set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    _import_program()
    import time

    import pb_common as common
    spec = _load_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in workloads:
        _fail("unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads)))
    from pb_trace import Tracer
    if args.workload == "pretrain":
        import pb_pretrain as module
    elif args.workload == "bulk_embed":
        import pb_bulk as module
    else:
        import pb_serve as module

    params = common.PARAMS[args.workload]
    run = common.Run(args.workload)
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))

    def build(index):
        if args.workload in common.SERVE:
            return module.State(args.workload, args.seed,
                                "%s-%d" % (workdir, index))
        return module.State(args.seed)

    repeats = 1 if args.trace else params["setup_repeats"]
    state, setup_s = common.median_setup(build, repeats)
    try:
        # Serve passes stream generated inputs; make them now, in the
        # order they are ingested, outside every timed region.
        prepare = getattr(module, "prepare", None)
        if prepare is not None:
            prepare(state, args.seconds, warmup=True)
            if args.trace:
                prepare(state, 0, warmup=False)
        # The generated inputs are the benchmark's, not the program's:
        # keep the collector from re-walking them during the timed passes.
        gc.collect()
        gc.freeze()
        untraced = module.measure(state, run, args.seconds, warmup=True)
        if args.trace:
            tracer = Tracer()
            module.install(tracer, state)
            started = time.perf_counter()
            try:
                # seconds=0: the minimum pass, a fixed amount of work, so
                # per-layer sums compare across commits.
                traced = module.measure(state, run, 0, warmup=False)
            finally:
                traced_seconds = time.perf_counter() - started
                module.uninstall(tracer, state)
        module.check(state, run)
    finally:
        if hasattr(state, "close"):
            state.close()
        tmp = os.path.join(ROOT, ".perfbench_tmp")
        if os.path.isdir(tmp) and not os.listdir(tmp):
            os.rmdir(tmp)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "context": common.context(), "params": params,
              "checks": run.checks, "invalid": run.invalid}
    report.update(run.report)
    named = module.named_metrics(untraced, setup_s)
    report["failed_ratio"] = {"value": run.failed / max(1, run.attempted),
                              "unit": "ratio"}
    report["metrics"] = named
    if args.trace:
        layer_names = [m["name"] for m in spec["per_layer"]]
        values, counts, summary = _layer_metrics(module, tracer, state,
                                                 traced, untraced,
                                                 layer_names)
        report["self_time_share"] = _shares(summary, tracer.sums,
                                            traced_seconds)
        report["traced"] = module.named_metrics(traced, None)
        missing = [name for name in layer_names
                   if args.workload in common.REQUIRED[name]
                   and not counts[name]]
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, "spans-%s-%d.jsonl"
                                  % (args.workload, args.seed))
        tracer.dump(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        print(json.dumps({"report": report}, default=float))
        if missing:
            _fail("span coverage: %s recorded zero calls on %s -- a "
                  "wrapper is patched onto a name the caller does not look "
                  "up" % (", ".join(missing), args.workload), code=3)
        metrics = {m["name"]: {"value": float(values[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        print(json.dumps({"report": report}, default=float))
        e2e = {
            "setup_s": setup_s,
            "peak_rss_mb": common.peak_rss_mb(),
            "ok_ratio": 1.0 - run.failed / max(1, run.attempted),
        }
        for name in ("events_per_s", "latency_ms_p50", "latency_ms_tail",
                     "slo_ratio"):
            e2e[name] = untraced[name]
        metrics = {m["name"]: {"value": float(e2e[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = (run.failed == 0 and not run.invalid
               and all(c["ok"] for c in run.checks))
    for reason in run.invalid:
        print("perfbench: run invalid, not scored: " + reason,
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

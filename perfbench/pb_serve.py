"""Workload ``serve``: online refresh over paged state.

Set-up stands a service up with ``serve(..., backend="memmap",
codec="int8")`` over a bulk-loaded population and puts an ``AsyncIngestPipeline`` (``on_full="block"``) in
front of it.  A pass then runs two phases:

- capacity: the workload's fixed chunk stream is submitted as fast as
  the pipeline admits it, with no readers, up to ``drain()`` (closed
  loop, write only), a few times;
- mixed: an open loop of two independent clients on fixed schedules --
  one thread submits chunks at the offered event rate, one thread sends
  small queries at the offered query rate.  Query latency is timed from
  when each query was due.

A warming pass runs one extra cycle first and discards its figures.
Pass inputs are generated by :func:`prepare`, outside set-up and outside
the timed passes.  The offered rates and the latency limit are workload
constants.
"""

from __future__ import annotations

import math
import os
import shutil
import threading
import time
from collections import defaultdict

import numpy as np

import repro.serving.service as service_module
from repro.core import embed_dataset
from repro.core.inference import serve
from repro.data.sequences import EventSequence, SequenceDataset
from repro.encoders import build_encoder
from repro.serving import AsyncIngestPipeline

from pb_bulk import ENGINE_SPANS, install_engine
from pb_common import PARAMS, iqm, percentile
from pb_inputs import ChunkStream, seed_of, stress_population
from pb_trace import TimedRLock

#: Service configuration: the ``serve()`` defaults except
#: ``flush_events``, which is 64 rather than 256 so that one threshold
#: flush over paged state holds the service lock for tens of
#: milliseconds, not a few hundred (see the README).
SERVICE = {"num_shards": 8, "cache_capacity": 1024, "flush_events": 64}


def mixed_seconds(params, seconds):
    """Mixed-phase length: 3/5 of the run, long enough for min_queries."""
    return max(0.6 * seconds,
               params["min_queries"] / params["offered_queries_per_s"])


class Window:
    """The inputs of one open-loop window: scheduled chunks and queries."""

    def __init__(self, state, seconds, rng):
        params = state.params
        self.seconds = seconds
        self.chunks = state.segment(params["offered_events_per_s"] * seconds)
        count = math.ceil(params["offered_queries_per_s"] * seconds)
        self.queries = state.stream.entities(
            rng, count * params["query_ids"]).reshape(count, -1).tolist()


class Pass:
    """The inputs of one measurement pass: ``capacity_reps`` cycles of a
    capacity stream followed by an open-loop window, so each figure is
    sampled across the whole pass, plus a first cycle to discard when
    the pass warms up."""

    def __init__(self, state, seconds, warmup):
        params = state.params
        reps = params["capacity_reps"] + (1 if warmup else 0)
        rng = np.random.default_rng(seed_of(state.seed, 10, state.passes))
        window_s = mixed_seconds(params, seconds) / params["capacity_reps"]
        self.warmup = warmup
        self.cycles = [(state.segment(params["capacity_events"]),
                        Window(state, window_s, rng)) for _ in range(reps)]
        state.passes += 1


def prepare(state, seconds, warmup):
    """Generate the next pass's inputs; passes run in the order they
    were prepared, because each continues the streams before it."""
    state.pending.append(Pass(state, seconds, warmup))


class State:
    def __init__(self, workload, seed, workdir):
        params = self.params = PARAMS[workload]
        self.seed = seed
        self.workdir = workdir
        self.history = stress_population(seed, params)
        self.stream = ChunkStream(self.history, seed, params)
        self.chunks_of = defaultdict(list)   # entity -> streamed chunks
        self.passes = 0
        self.pending = []                    # prepared, not yet run
        self.encoder = build_encoder(self.history.schema, params["hidden"],
                                     "gru",
                                     rng=np.random.default_rng(seed_of(seed,
                                                                     12)))
        self.service = serve(self.encoder, self.history,
                             backend=params["backend"],
                             codec=params["codec"], backend_dir=workdir,
                             **SERVICE)
        self.pipeline = AsyncIngestPipeline(
            self.service, max_pending_events=params["max_pending_events"],
            on_full="block")

    def segment(self, events):
        chunks = self.stream.segment(events)
        for chunk in chunks:
            self.chunks_of[chunk.seq_id].append(chunk)
        return chunks

    def check_sample(self):
        """The most-streamed entities plus a seeded draw of other
        streamed ones (``check_sample`` in all)."""
        size = self.params["check_sample"]
        ranked = sorted(self.chunks_of, key=lambda e: (-len(self.chunks_of[e]),
                                                       e))
        rng = np.random.default_rng(seed_of(self.seed, 11))
        rest = ranked[size // 2:]
        picked = rng.choice(len(rest), size=min(len(rest), size - size // 2),
                            replace=False)
        return ranked[:size // 2] + [rest[i] for i in sorted(picked)]

    def close(self):
        try:
            self.pipeline.close(drain=False)
            self.service.store.close()
        finally:
            if os.path.isdir(self.workdir):
                shutil.rmtree(self.workdir)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def _capacity(state, run, chunks):
    """Closed-loop write capacity of one fixed stream, events/s."""
    pipeline = state.pipeline
    failures = 0
    started = time.perf_counter()
    for chunk in chunks:
        try:
            pipeline.submit(chunk)
        except Exception:  # a rejected or raising submit fails
            failures += 1
    try:
        pipeline.drain()
    except Exception:  # a deferred ingest error surfaces here
        failures += 1
    elapsed = time.perf_counter() - started
    run.ops(len(chunks), failures)
    return sum(len(chunk) for chunk in chunks) / elapsed


def _sleep_until(due):
    """Sleep until ``due``; returns lateness if the thread was idle."""
    delay = due - time.perf_counter()
    if delay <= 0:
        return None
    time.sleep(delay)
    return time.perf_counter() - due


def _mixed(state, run, window, out):
    """One open-loop window; appends its records to ``out``."""
    service, pipeline = state.service, state.pipeline
    chunks, queries = window.chunks, window.queries
    chunk_gap = window.seconds / len(chunks)
    query_gap = window.seconds / len(queries)
    start = time.perf_counter() + 0.02
    backlog, failed, ok = [], [0], []

    def write():
        sent, next_sample = 0, start
        while sent < len(chunks):
            _sleep_until(start + sent * chunk_gap)
            now = time.perf_counter()
            out["late"].append(now - (start + sent * chunk_gap))
            while sent < len(chunks) and start + sent * chunk_gap <= now:
                try:
                    pipeline.submit(chunks[sent])
                except Exception:  # a rejected or raising submit fails
                    failed[0] += 1
                sent += 1
            if now >= next_sample:
                backlog.append((now - start,
                                pipeline.stats()["queued_events"]))
                next_sample = now + 0.02

    def read():
        dim = state.encoder.output_dim
        for index, ids in enumerate(queries):
            due = start + index * query_gap
            late = _sleep_until(due)
            if late is not None:
                out["late"].append(late)
            try:
                rows = service.query(ids)
            except Exception:  # a raising query fails and misses
                rows = None
            out["latency"].append(time.perf_counter() - due)
            ok.append(
                rows is not None and rows.shape == (len(ids), dim)
                and bool(np.isfinite(rows).all())
                and float(np.abs(np.linalg.norm(rows, axis=1) - 1).max())
                < 1e-4)

    threads = [threading.Thread(target=write, name="perfbench-writer"),
               threading.Thread(target=read, name="perfbench-reader")]
    cache_before = service.cache.stats()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    cache_after = service.cache.stats()
    try:
        pipeline.drain()
    except Exception:  # a deferred ingest error surfaces here
        failed[0] += 1
    run.ops(len(chunks), failed[0])
    run.ops(len(queries), ok.count(False))
    out["ok"].extend(ok)
    out["hits"] += cache_after["hits"] - cache_before["hits"]
    out["lookups"] += (cache_after["hits"] + cache_after["misses"]
                       - cache_before["hits"] - cache_before["misses"])
    out["backlog_samples"] += len(backlog)
    if len(backlog) >= 2:
        t, queued = np.array(backlog, dtype=np.float64).T
        out["queued_max"] = max(out["queued_max"], float(queued.max()))
        out["slopes"].append(float(np.polyfit(t, queued, 1)[0]))


def _records():
    return {"late": [], "latency": [], "ok": [], "hits": 0, "lookups": 0,
            "backlog_samples": 0, "queued_max": 0.0, "slopes": []}


def measure(state, run, seconds, warmup):
    """Run the next prepared pass (``seconds`` was given to
    :func:`prepare`); returns the pass figures.

    Ingest capacity is the interquartile mean over the capacity cycles;
    query p50 and the tail percentile are interquartile means over the
    open-loop windows of each window's percentile, so a window in which
    a few flushes happened to bunch up does not set the pass's figure.
    """
    params = state.params
    current = state.pending.pop(0)
    if current.warmup != warmup:
        raise RuntimeError("pass prepared with warmup=%s, run with %s"
                           % (current.warmup, warmup))
    cycles = current.cycles
    if warmup:
        capacity, window = cycles[0]
        _capacity(state, run, capacity)
        _mixed(state, run, window, _records())
        cycles = cycles[1:]
    blocked_before = state.pipeline.stats()["blocked_submits"]
    rates = []
    out = _records()
    windows = []
    for capacity, window in cycles:
        rates.append(_capacity(state, run, capacity))
        start = len(out["latency"])
        _mixed(state, run, window, out)
        windows.append(np.array(out["latency"][start:]) * 1e3)
    tail = params["tail_percentile"]
    window_p50 = [percentile(w, 50) for w in windows]
    window_tail = [percentile(w, tail) for w in windows]
    run.report.setdefault("passes", []).append({
        "capacity_events_per_s": rates,
        "window_latency_ms_p50": window_p50,
        "window_latency_ms_p%d" % tail: window_tail})
    latency = np.array(out["latency"]) * 1e3
    limit = params["latency_limit_ms"]
    window_s = cycles[0][1].seconds
    figures = {
        "events_per_s": float(iqm(rates)),
        "latency_ms_p50": float(iqm(window_p50)),
        "latency_ms_tail": float(iqm(window_tail)),
        "latency_ms_p99": percentile(latency, 99),
        "windows": len(windows),
        "slo_ratio": float(((latency <= limit) & np.array(out["ok"]))
                           .mean()),
        "queries": len(latency),
        "late_ms_p99": percentile(np.array(out["late"]) * 1e3, 99),
        "queued_events_max": out["queued_max"],
        "queued_events_slope": float(np.mean(out["slopes"] or [0.0])),
        "backlog_samples": out["backlog_samples"],
        "cache_hit_ratio": out["hits"] / max(1, out["lookups"]),
        "cache_lookups": out["lookups"],
        "blocked_submits": (state.pipeline.stats()["blocked_submits"]
                            - blocked_before),
    }
    if figures["queries"] < params["min_queries"]:
        run.invalid.append("only %d queries (< %d)" % (figures["queries"],
                                                       params["min_queries"]))
    if figures["late_ms_p99"] > params["late_fraction_limit"] * limit:
        run.invalid.append(
            "load generator late p99 %.2f ms > %.2f x limit %.1f ms"
            % (figures["late_ms_p99"], params["late_fraction_limit"], limit))
    growth = max(out["slopes"] or [0.0]) * window_s
    if growth > params["backlog_growth_limit"] * params["max_pending_events"]:
        run.invalid.append(
            "backlog grew by %.0f events over an open-loop window (> %.2f x "
            "max_pending_events)" % (growth, params["backlog_growth_limit"]))
    return figures


def named_metrics(figures, setup_s):
    """The workload's figures under the names users know them by."""
    params = PARAMS["serve"]
    named = {
        "ingest_events_per_s": {"value": figures["events_per_s"],
                                "unit": "1/s"},
        "query_ms_p50": {"value": figures["latency_ms_p50"], "unit": "ms",
                         "samples": figures["queries"],
                         "windows": figures["windows"]},
        "query_ms_p%d" % params["tail_percentile"]: {
            "value": figures["latency_ms_tail"], "unit": "ms",
            "samples": figures["queries"], "windows": figures["windows"]},
        "query_ms_p99": {"value": figures["latency_ms_p99"], "unit": "ms",
                         "samples": figures["queries"]},
        "query_slo_ratio": {"value": figures["slo_ratio"], "unit": "ratio"},
        "loadgen_late_ms_p99": {"value": figures["late_ms_p99"],
                                "unit": "ms"},
        "queued_events_max": {"value": figures["queued_events_max"],
                              "unit": "events"},
        "queued_events_slope": {"value": figures["queued_events_slope"],
                                "unit": "events/s"},
        "cache_hit_ratio": {"value": figures["cache_hit_ratio"],
                            "unit": "ratio"},
    }
    if setup_s is not None:
        named["setup_s"] = {"value": setup_s, "unit": "s"}
    return named


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def install(tracer, state):
    service, pipeline = state.service, state.pipeline
    state.advance = {"events": 0, "rows": 0, "batches": 0}
    state.backend_before = _backend_counters(state)
    install_engine(tracer)
    tracer.patch(service, "_lock", lambda lock: TimedRLock(tracer, lock))

    def in_operation(op, span=None, new_request=False):
        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.operation(op, new_request=new_request):
                    if span is None:
                        return original(*args, **kwargs)
                    with tracer.span(span):
                        return original(*args, **kwargs)
            return wrapper
        return make

    tracer.patch(service, "query", in_operation(
        "query", "serving.service.query", new_request=True))
    tracer.patch(service, "_apply_chunk", in_operation("flush"))
    tracer.patch(service, "flush", in_operation("drain"))

    def flush_locked(original):
        def wrapper(*args, **kwargs):
            name = ("serving.service.stale_flush" if tracer.op == "query"
                    else "serving.service.flush")
            with tracer.span(name):
                return original(*args, **kwargs)
        return wrapper

    tracer.patch(service, "_flush_locked", flush_locked)

    def on_advance(args, kwargs, result):
        state.advance["events"] += sum(len(seq) for seq in args[1])
        state.advance["rows"] += len(args[1])
        state.advance["batches"] += result.batches

    tracer.wrap(service_module, "advance_entities", "runtime.store.advance",
                on_advance)
    tracer.wrap(service.store, "embeddings", "serving.sharding.gather")
    for shard in service.store.shards:
        tracer.wrap_summed(shard.backend, "get", "runtime.backends.get")
        tracer.wrap_summed(shard.backend, "put", "runtime.backends.put")
    tracer.wrap_summed(pipeline, "submit", "serving.pipeline.submit")


def uninstall(tracer, state):
    state.pipeline.drain()
    tracer.uninstall()


def _backend_counters(state):
    loads = evictions = 0
    for shard in state.service.store.shards:
        loads += shard.backend.shard_loads
        evictions += shard.backend.evictions
    return loads, evictions


SPAN_METRICS = dict(ENGINE_SPANS, **{
    "serving.service.flush_ms": ("serving.service.flush", "total_s"),
    "serving.service.stale_flush_ms": ("serving.service.stale_flush",
                                       "total_s"),
    "runtime.store.advance_ms": ("runtime.store.advance", "total_s"),
    "serving.sharding.gather_ms": ("serving.sharding.gather", "total_s"),
    "serving.service.lock_wait_query_ms": ("serving.service.lock_wait",
                                           "total_s"),
})

SUMMED_METRICS = {
    "serving.pipeline.submit_wait_ms": "serving.pipeline.submit",
    "serving.service.lock_wait_flush_ms": "lock_wait.flush",
    "runtime.backends.get_ms": "runtime.backends.get",
    "runtime.backends.put_ms": "runtime.backends.put",
}


def layers(tracer, state, traced, untraced):
    summary = tracer.summary()
    calls = {name: entry["calls"] for name, entry in summary.items()}
    waits = tracer.durations("serving.service.lock_wait")
    loads, evictions = (after - before for after, before in zip(
        _backend_counters(state), state.backend_before))
    gets = tracer.counts["runtime.backends.get"]
    puts = tracer.counts["runtime.backends.put"]
    advance = state.advance
    values = {
        "serving.pipeline.blocked_submits": traced["blocked_submits"],
        "serving.pipeline.queued_events_max": traced["queued_events_max"],
        "serving.pipeline.queued_events_slope":
            traced["queued_events_slope"],
        "serving.service.lock_wait_query_ms_p99": percentile(
            np.array(waits) * 1e3, 99),
        "serving.service.flushes": calls.get("serving.service.flush", 0),
        "serving.service.stale_flushes": calls.get(
            "serving.service.stale_flush", 0),
        "serving.cache.hit_ratio": traced["cache_hit_ratio"],
        "serving.microbatch.events_per_flush": (
            advance["events"] / max(1, calls.get("runtime.store.advance",
                                                 0))),
        "serving.service.rows_per_fused_batch": (
            advance["rows"] / max(1, advance["batches"])),
        "runtime.backends.get_calls": gets,
        "runtime.backends.put_calls": puts,
        "runtime.backends.shard_loads": loads,
        "runtime.backends.evictions": evictions,
        "runtime.backends.shard_hit_ratio": (
            1.0 - loads / max(1, gets + puts)),
        "serving.state_bytes_per_entity":
            state.service.stats()["bytes_per_entity"],
        "serving.queries": traced["queries"],
        "loadgen.late_ms_p99": traced["late_ms_p99"],
    }
    for name, source in SUMMED_METRICS.items():
        values[name] = tracer.sums[source] * 1e3
    counts = {
        "serving.pipeline.blocked_submits": traced["blocked_submits"],
        "serving.pipeline.queued_events_max": traced["backlog_samples"],
        "serving.pipeline.queued_events_slope": traced["backlog_samples"],
        "serving.service.lock_wait_query_ms_p99": len(waits),
        "serving.service.flushes": values["serving.service.flushes"],
        "serving.service.stale_flushes":
            values["serving.service.stale_flushes"],
        "serving.cache.hit_ratio": traced["cache_lookups"],
        "serving.microbatch.events_per_flush": advance["rows"],
        "serving.service.rows_per_fused_batch": advance["batches"],
        "runtime.backends.get_calls": gets,
        "runtime.backends.put_calls": puts,
        "runtime.backends.shard_loads": loads,
        "runtime.backends.evictions": evictions,
        "runtime.backends.shard_hit_ratio": gets + puts,
        "serving.state_bytes_per_entity": 1,
        "serving.queries": traced["queries"],
        "loadgen.late_ms_p99": traced["queries"],
    }
    for name, source in SUMMED_METRICS.items():
        counts[name] = tracer.counts[source]
    return values, counts


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def check(state, run):
    """A sample of served embeddings against a full-history recompute."""
    params = state.params
    state.pipeline.drain()
    state.service.flush()
    schema = state.history.schema
    sample = state.check_sample()
    full = []
    for entity in sample:
        parts = [state.history.sequences[entity]] + state.chunks_of[entity]
        full.append(EventSequence(
            seq_id=entity,
            fields={name: np.concatenate([p.fields[name] for p in parts])
                    for name in parts[0].fields}))
    served = state.service.query(sample)
    reference = embed_dataset(state.encoder,
                              SequenceDataset(full, schema, name="full"),
                              batch_size=1, precision="float64")
    error = float(np.abs(served - reference).max())
    run.check("%s.refresh_matches_recompute" % run.workload,
              error <= params["drift_atol"],
              "max |served - recompute| = %.3g over %d entities with %d "
              "streamed chunks (bound %g)"
              % (error, len(full), sum(len(state.chunks_of[e])
                                       for e in sample),
                 params["drift_atol"]))
    stats = state.service.stats()
    run.report["state_bytes_per_entity"] = {
        "value": stats["bytes_per_entity"], "unit": "B"}
    run.check("%s.nothing_pending" % run.workload,
              stats["pending_events"] == 0
              and state.pipeline.pending_events == 0)

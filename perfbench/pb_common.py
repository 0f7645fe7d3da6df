"""Shared pieces of perfbench: the span-coverage map, workload
parameters, run bookkeeping and small statistics helpers.

Metric names, units and directions live in ``BENCHMARK.json`` only;
``run.py`` reads them from there.
"""

from __future__ import annotations

import os
import platform
import resource
import time

import numpy as np

_P, _B, _V = "pretrain", "bulk_embed", "serve"
SERVE = (_V,)
_ALL = (_P, _B, _V)

#: Span-coverage guard: for each per-layer metric, the workloads on which
#: a traced run must record a nonzero call count for it.  A metric of a
#: layer the workload does not exercise reads 0.
REQUIRED = {
    # pretrain: CoLES Phase 1 through ContrastiveTrainer.fit
    "core.batching.batch_ms": (_P,),
    "runtime.training.forward_ms": (_P,),
    "runtime.kernels.encode_train_ms": (_P,),
    "runtime.kernels.rnn_forward_train_ms": (_P,),
    "runtime.training.loss_gradient_ms": (_P,),
    "runtime.training.backward_ms": (_P,),
    "runtime.kernels.rnn_backward_ms": (_P,),
    "nn.clip_grad_norm_ms": (_P,),
    "nn.adam_step_ms": (_P,),
    "pretrain.steps": (_P,),
    "pretrain.events": (_P,),
    "pretrain.padded_cell_ratio": (_P,),
    "pretrain.loss_final": (_P,),
    # bulk_embed: embed_dataset under the serving defaults
    "data.bucketing.plan_ms": (_B,),
    "data.batches.collate_ms": (_B,),
    "runtime.engine.encode_events_ms": (_B, _V),
    "runtime.kernels.rnn_forward_gru_ms": (_B, _V),
    "runtime.kernels.rnn_forward_lstm_ms": (_B,),
    "runtime.engine.head_ms": (_B, _V),
    "runtime.attention.transformer_forward_ms": (_B,),
    "bulk_embed.batches": (_B,),
    "bulk_embed.padded_cell_ratio": (_B,),
    "bulk_embed.gru_events_per_s": (_B,),
    "bulk_embed.lstm_events_per_s": (_B,),
    "bulk_embed.transformer_events_per_s": (_B,),
    # serve: AsyncIngestPipeline + EmbeddingService over paged state
    "serving.pipeline.submit_wait_ms": SERVE,
    "serving.pipeline.blocked_submits": SERVE,
    "serving.pipeline.queued_events_max": SERVE,
    "serving.pipeline.queued_events_slope": SERVE,
    "serving.service.lock_wait_query_ms": SERVE,
    "serving.service.lock_wait_query_ms_p99": SERVE,
    "serving.service.lock_wait_flush_ms": SERVE,
    "serving.service.flush_ms": SERVE,
    "serving.service.flushes": SERVE,
    "serving.service.stale_flush_ms": SERVE,
    "serving.service.stale_flushes": SERVE,
    "runtime.store.advance_ms": SERVE,
    "serving.sharding.gather_ms": SERVE,
    "serving.cache.hit_ratio": SERVE,
    "serving.microbatch.events_per_flush": SERVE,
    "serving.service.rows_per_fused_batch": SERVE,
    "runtime.backends.get_ms": SERVE,
    "runtime.backends.get_calls": SERVE,
    "runtime.backends.put_ms": SERVE,
    "runtime.backends.put_calls": SERVE,
    "runtime.backends.shard_loads": SERVE,
    "runtime.backends.evictions": SERVE,
    "runtime.backends.shard_hit_ratio": SERVE,
    "serving.state_bytes_per_entity": SERVE,
    "serving.queries": SERVE,
    "loadgen.late_ms_p99": SERVE,
    # the trace itself
    "trace.overhead_events_per_s_ratio": _ALL,
    "trace.overhead_latency_ms_p50_ratio": _ALL,
    "trace.spans": _ALL,
}

#: Workload parameters.  Offered rates and latency limits are constants
#: (about half the capacity, and about twice the tail latency, measured
#: when the benchmark was defined) and never derived from the run.
PARAMS = {
    "pretrain": {
        "population": 480, "length_median": 40, "length_sigma": 0.9,
        "length_min": 8, "length_max": 256, "hidden": 128, "epochs": 2,
        "slice_min": 10, "slice_max": 100, "slices": 5,
        "tail_percentile": 95, "latency_limit_ms": 250.0,
        "setup_repeats": 15,
    },
    "bulk_embed": {
        "population": 4096, "length_median": 40, "length_sigma": 0.9,
        "length_min": 8, "length_max": 256, "hidden": 48,
        "partition": 512, "transformer_subsample": 192,
        "transformer_partitions": 8, "transformer_check": 4,
        "tail_percentile": 90, "latency_limit_ms": 150.0,
        "setup_repeats": 5,
    },
    "serve": {
        "population": 100_000, "length_median": 4, "length_sigma": 1.0,
        "length_min": 1, "length_max": 128, "hidden": 48,
        "backend": "memmap", "codec": "int8", "zipf": 1.05,
        "chunk_min": 2, "chunk_max": 6, "chunk_gap": 0.05,
        "capacity_reps": 10, "capacity_events": 2000,
        "offered_events_per_s": 150.0, "offered_queries_per_s": 100.0,
        "query_ids": 4, "min_queries": 2000,
        "latency_limit_ms": 50.0, "max_pending_events": 1024,
        "late_fraction_limit": 0.5, "backlog_growth_limit": 0.25,
        "drift_atol": 0.05, "check_sample": 32,
        "tail_percentile": 95, "setup_repeats": 3,
    },
}


class Run:
    """What one workload run produced: metrics, op counts, checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.checks = []         # (name, ok, detail)
        self.invalid = []        # harness-health reasons
        self.report = {}         # workload-specific named figures

    def ops(self, attempted, failed=0):
        """Count operations (train steps, embed calls, submits, queries)."""
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name, ok, detail=""):
        """Record one output check; a failed check is a failed operation."""
        ok = bool(ok)
        self.checks.append({"name": name, "ok": ok, "detail": detail})
        self.ops(1, 0 if ok else 1)
        return ok


def timed(func, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - started


def median_setup(build, repeats):
    """Run ``build`` ``repeats`` times; returns (last result, median s).

    Earlier results are closed (when they have ``close``) and dropped
    before the next build, so peak memory reflects one set-up.
    """
    times, result = [], None
    for index in range(repeats):
        if result is not None and hasattr(result, "close"):
            result.close()
        result = None
        result, seconds = timed(build, index)
        times.append(seconds)
    return result, float(np.median(times))


def iqm(values, axis=None):
    """Interquartile mean: the mean of the middle half of ``values``
    (along ``axis``), without the lowest and the highest quarter.

    On a shared host the CPU switches between faster and slower states
    within a run.  A median snaps to whichever state held more than half
    of the samples, so runs split into two clusters; a plain mean
    follows every stall.  The interquartile mean does neither.
    """
    values = np.asarray(values, dtype=np.float64)
    if axis is None:
        values, axis = values.ravel(), 0
    values = np.sort(values, axis=axis)
    count = values.shape[axis]
    cut = count // 4
    return np.take(values, range(cut, count - cut), axis=axis).mean(axis=axis)


def percentile(values, q):
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def peak_rss_mb():
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_vendor():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy without dict mode
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return ("%s %s" % (blas.get("name", "unknown"),
                       blas.get("version", ""))).strip()


def context():
    """Machine and configuration context recorded with every run."""
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor(),
        "threads": {var: os.environ.get(var, "unset")
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")},
    }

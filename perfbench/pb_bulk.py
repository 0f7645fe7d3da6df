"""Workload ``bulk_embed``: the day-0 ETL through ``embed_dataset``.

One long-tailed churn-shaped population is embedded under the serving
defaults (fused runtime, float32, bucketed plan, one worker) by a GRU,
an LSTM and a transformer encoder.  The population is processed in
fixed partitions, one ``embed_dataset`` call each, the way an ETL job
walks a population; the transformer runs on a fixed length-stratified
subsample whose pass takes about as long as a recurrent one.
"""

from __future__ import annotations

import time

import numpy as np

import repro.runtime.attention as attention
import repro.runtime.engine as engine
import repro.runtime.kernels as kernels
from repro.core import embed_dataset
from repro.data.sequences import SequenceDataset
from repro.encoders import build_encoder
from repro.runtime import FusedEncoderRuntime

from pb_common import PARAMS, iqm, percentile
from pb_inputs import seed_of, churn_population

P = PARAMS["bulk_embed"]
FAMILIES = ("gru", "lstm", "transformer")
#: float32-vs-float64 embedding bound of the precision tests.
F32_ATOL = 1e-5
#: fused-vs-autograd bound of the float64 parity tests.
F64_ATOL = 1e-10


def _partitions(dataset, order, size):
    sequences = [dataset.sequences[i] for i in order]
    return [SequenceDataset(sequences[start:start + size], dataset.schema,
                            name="partition")
            for start in range(0, len(sequences), size)]


def _equal_cost_partitions(dataset, order, count):
    """Split ``order`` (shortest first) into ``count`` contiguous runs of
    about equal attention cost, taken as ``T * (T + 64)`` per entity, so
    every transformer call does a similar amount of work."""
    lengths = dataset.lengths()[order].astype(np.float64)
    cost = np.cumsum(lengths * (lengths + 64))
    cuts = np.searchsorted(cost, cost[-1] * np.arange(1, count) / count)
    return [SequenceDataset([dataset.sequences[i] for i in part],
                            dataset.schema, name="partition")
            for part in np.split(order, cuts)]


class State:
    def __init__(self, seed):
        population = churn_population(seed, P)
        rng = np.random.default_rng(seed_of(seed, 8))
        self.encoders = {
            family: build_encoder(
                population.schema, P["hidden"], family,
                rng=np.random.default_rng(seed_of(seed, 9, i)))
            for i, family in enumerate(FAMILIES)}
        order = rng.permutation(len(population))
        # The transformer subsample: entities at evenly spaced length
        # ranks, shortest first, so every seed sees the same lengths.
        by_length = np.argsort(population.lengths(), kind="stable")
        ranks = np.linspace(0, len(by_length) - 1,
                            P["transformer_subsample"]).round().astype(int)
        subsample = by_length[ranks]
        self.partitions = {
            "gru": _partitions(population, order, P["partition"]),
            "lstm": _partitions(population, order, P["partition"]),
            "transformer": _equal_cost_partitions(
                population, subsample, P["transformer_partitions"]),
        }
        self.events = {family: [int(part.lengths().sum()) for part in parts]
                       for family, parts in self.partitions.items()}
        self.tracer = None


def _round(state, run):
    """Every partition once per family; returns the call times in a
    fixed order, and whether each call's output passed."""
    seconds, passed = [], []
    for family in FAMILIES:
        encoder = state.encoders[family]
        for part in state.partitions[family]:
            started = time.perf_counter()
            try:
                if state.tracer is None:
                    out = embed_dataset(encoder, part)
                else:
                    with state.tracer.span("core.inference.embed_dataset"):
                        out = embed_dataset(encoder, part)
            except Exception as error:
                run.ops(1, 1)
                run.report.setdefault("errors", []).append(repr(error))
                seconds.append(time.perf_counter() - started)
                passed.append(False)
                continue
            seconds.append(time.perf_counter() - started)
            norms = np.linalg.norm(out, axis=1)
            ok = (out.shape == (len(part), encoder.output_dim)
                  and np.isfinite(out).all()
                  and np.abs(norms - 1.0).max() < 1e-4)
            run.ops(1, 0 if ok else 1)
            passed.append(ok)
    return seconds, passed


def measure(state, run, seconds, warmup):
    """Repeat rounds for about ``seconds``; returns the pass figures.

    Every round makes the same calls on the same partitions, so each
    figure is taken from each call's interquartile mean time over the
    rounds, which keeps a burst of host noise in a few rounds out of it.
    """
    if warmup:
        _round(state, run)
    times, passed = [], []
    started = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - started < seconds:
        round_s, round_ok = _round(state, run)
        times.append(round_s)
        passed.extend(round_ok)
    times = np.array(times)
    unit_s = iqm(times, axis=0)
    events = np.concatenate([state.events[family] for family in FAMILIES])
    families = np.repeat(FAMILIES, [len(state.events[family])
                                    for family in FAMILIES])
    limit = P["latency_limit_ms"] / 1e3
    raw = times.ravel()
    figures = {
        "events_per_s": float(events.sum() / unit_s.sum()),
        "latency_ms_p50": percentile(unit_s * 1e3, 50),
        "latency_ms_tail": percentile(unit_s * 1e3, P["tail_percentile"]),
        "slo_ratio": float(((raw <= limit) & np.array(passed)).mean()),
        "calls": len(unit_s),
    }
    for family in FAMILIES:
        mine = families == family
        figures["embed_%s_events_per_s" % family] = float(
            events[mine].sum() / unit_s[mine].sum())
    return figures


def named_metrics(figures, setup_s):
    """The workload's figures under the names users know them by."""
    named = {"embed_%s_events_per_s" % family: {
        "value": figures["embed_%s_events_per_s" % family], "unit": "1/s"}
        for family in FAMILIES}
    named.update({
        "embed_events_per_s": {"value": figures["events_per_s"],
                               "unit": "1/s"},
        "embed_call_ms_p50": {"value": figures["latency_ms_p50"],
                              "unit": "ms"},
        "embed_call_ms_p%d" % P["tail_percentile"]: {
            "value": figures["latency_ms_tail"], "unit": "ms",
            "samples": figures["calls"]},
    })
    if setup_s is not None:
        named["setup_s"] = {"value": setup_s, "unit": "s"}
    return named


def install_engine(tracer, counts=None):
    """Spans on the fused inference engine's layer boundaries.

    ``plan_batches`` and ``collate`` are wrapped where
    :mod:`repro.runtime.engine` looks them up; with ``counts`` the
    collate wrapper also counts batches and real/padded cells.
    """
    def on_collate(args, kwargs, batch):
        if counts is not None:
            counts["batches"] += 1
            counts["real"] += int(batch.lengths.sum())
            counts["padded"] += int(batch.lengths.size * batch.max_length)

    tracer.wrap(engine, "plan_batches", "data.bucketing.plan")
    tracer.wrap(engine, "collate", "data.batches.collate", on_collate)
    tracer.wrap(FusedEncoderRuntime, "encode_events",
                "runtime.engine.encode_events")
    tracer.wrap(FusedEncoderRuntime, "head", "runtime.engine.head")
    tracer.wrap(attention, "transformer_forward",
                "runtime.attention.transformer_forward")

    def rnn_forward(original):
        def wrapper(weights, *args, **kwargs):
            with tracer.span("runtime.kernels.rnn_forward_" + weights.kind):
                return original(weights, *args, **kwargs)
        return wrapper

    tracer.patch(kernels, "rnn_forward", rnn_forward)


ENGINE_SPANS = {
    "runtime.engine.encode_events_ms": ("runtime.engine.encode_events",
                                        "self_s"),
    "runtime.kernels.rnn_forward_gru_ms": ("runtime.kernels.rnn_forward_gru",
                                           "self_s"),
    "runtime.kernels.rnn_forward_lstm_ms": (
        "runtime.kernels.rnn_forward_lstm", "self_s"),
    "runtime.engine.head_ms": ("runtime.engine.head", "self_s"),
    "runtime.attention.transformer_forward_ms": (
        "runtime.attention.transformer_forward", "self_s"),
}

SPAN_METRICS = dict(ENGINE_SPANS, **{
    "data.bucketing.plan_ms": ("data.bucketing.plan", "self_s"),
    "data.batches.collate_ms": ("data.batches.collate", "self_s"),
})


def install(tracer, state):
    state.tracer = tracer
    state.cells = {"batches": 0, "real": 0, "padded": 0}
    install_engine(tracer, state.cells)


def uninstall(tracer, state):
    tracer.uninstall()
    state.tracer = None


def layers(tracer, state, traced, untraced):
    cells = state.cells
    values = {
        "bulk_embed.batches": cells["batches"],
        "bulk_embed.padded_cell_ratio": cells["real"] / max(1,
                                                            cells["padded"]),
    }
    counts = dict.fromkeys(values, cells["batches"])
    for family in FAMILIES:
        name = "bulk_embed.%s_events_per_s" % family
        values[name] = untraced["embed_%s_events_per_s" % family]
        counts[name] = untraced["calls"]
    return values, counts


def check(state, run):
    for family in ("gru", "lstm"):
        encoder = state.encoders[family]
        part = state.partitions[family][0]
        drift = np.abs(embed_dataset(encoder, part)
                       - embed_dataset(encoder, part, precision="float64"))
        run.check("bulk_embed.%s_float32_drift" % family,
                  drift.max() <= F32_ATOL,
                  "max |f32 - f64| = %.3g (bound %g)" % (drift.max(),
                                                         F32_ATOL))
    encoder = state.encoders["transformer"]
    part = state.partitions["transformer"][0]
    part = SequenceDataset(part.sequences[:P["transformer_check"]],
                           part.schema, name="check")
    error = np.abs(embed_dataset(encoder, part, precision="float64")
                   - embed_dataset(encoder, part, runtime="tensor"))
    run.check("bulk_embed.transformer_fused_vs_tensor",
              error.max() <= F64_ATOL,
              "max |fused - tensor| = %.3g (bound %g)" % (error.max(),
                                                          F64_ATOL))

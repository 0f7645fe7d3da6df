"""Workload ``pretrain``: CoLES Phase 1 through ``ContrastiveTrainer.fit``.

A GRU encoder trains with ``ContrastiveLoss`` and ``RandomSlices`` on a
churn-shaped long-tailed population under ``TrainConfig`` defaults
(fused engine, float64) except the epoch count and seed.  One repetition
is one whole ``fit`` from a freshly built encoder with the same seed, so
every repetition must reproduce the first one's losses exactly.
"""

from __future__ import annotations

import time

import numpy as np

import repro.core.trainer as trainer_module
import repro.runtime.kernels as kernels
import repro.runtime.training as training
from repro.augmentations import RandomSlices
from repro.core import ContrastiveTrainer, TrainConfig
from repro.encoders import build_encoder
from repro.losses import ContrastiveLoss
from repro.nn.optim import Adam

from pb_common import PARAMS, iqm, percentile
from pb_inputs import seed_of, churn_population

P = PARAMS["pretrain"]


class State:
    def __init__(self, seed):
        self.seed = seed
        self.dataset = churn_population(seed, P)
        self.encoder_seed = seed_of(seed, 7)
        self.trainer()  # time one encoder build as part of set-up
        self.tracer = None
        self.histories = []

    def trainer(self):
        encoder = build_encoder(self.dataset.schema, P["hidden"], "gru",
                                rng=np.random.default_rng(self.encoder_seed))
        strategy = RandomSlices(P["slice_min"], P["slice_max"], P["slices"])
        return ContrastiveTrainer(
            encoder, ContrastiveLoss(), strategy,
            TrainConfig(num_epochs=P["epochs"], seed=self.seed))


def _fit_once(state, steps):
    """One ``fit``; appends (interval s, step s, events, padded cells,
    loss) per step.  The interval runs from the end of the step before
    (or the start of ``fit``), so it also covers augmentation, planning
    and collate, and the intervals of a ``fit`` add up to its time."""
    trainer = state.trainer()
    original = trainer.train_step
    tracer = state.tracer
    last = [0.0]

    def train_step(batch, optimizer, rng):
        started = time.perf_counter()
        if tracer is None:
            loss = original(batch, optimizer, rng)
        else:
            with tracer.span("core.trainer.train_step"):
                loss = original(batch, optimizer, rng)
        ended = time.perf_counter()
        steps.append((ended - last[0], ended - started,
                      int(batch.lengths.sum()),
                      int(batch.lengths.size * batch.max_length), loss))
        last[0] = ended
        return loss

    trainer.train_step = train_step
    last[0] = time.perf_counter()
    if tracer is None:
        history = trainer.fit(state.dataset)
    else:
        with tracer.span("core.trainer.fit"):
            history = trainer.fit(state.dataset)
    return [stats.mean_loss for stats in history]


def measure(state, run, seconds, warmup):
    """Repeat ``fit`` for about ``seconds``; returns the pass figures.

    Every repetition trains on the same batches, so step ``k`` does the
    same work in each; a figure is taken from each step's interquartile
    mean over the repetitions, which keeps a burst of host noise in a
    few repetitions out of it.
    """
    if warmup:
        state.histories.append(_fit_once(state, []))
    reps, attempts = [], 0
    started = time.perf_counter()
    while attempts < 3 or time.perf_counter() - started < seconds:
        attempts += 1
        rep_steps = []
        try:
            losses = _fit_once(state, rep_steps)
        except Exception as error:  # a failed fit is one failed operation
            run.ops(len(rep_steps) + 1, 1)
            run.report.setdefault("errors", []).append(repr(error))
            continue
        state.histories.append(losses)
        reps.append(rep_steps)
    steps = [step for rep in reps for step in rep]
    step_s = np.array([s[1] for s in steps])
    finite = np.isfinite([s[4] for s in steps])
    run.ops(len(steps), int((~finite).sum()))
    same = [rep for rep in reps if len(rep) == len(reps[0])]
    interval = iqm([[s[0] for s in rep] for rep in same], axis=0)
    unit_s = iqm([[s[1] for s in rep] for rep in same], axis=0)
    limit = P["latency_limit_ms"] / 1e3
    return {
        "events_per_s": sum(s[2] for s in reps[0]) / float(interval.sum()),
        "latency_ms_p50": percentile(unit_s * 1e3, 50),
        "latency_ms_tail": percentile(unit_s * 1e3, P["tail_percentile"]),
        "slo_ratio": float(((step_s <= limit) & finite).mean()),
        "steps": steps,
        "units": len(unit_s),
    }


def install(tracer, state):
    state.tracer = tracer

    def batches(original):
        def coles_batches(*args, **kwargs):
            generator = original(*args, **kwargs)
            while True:
                with tracer.span("core.batching.batch"):
                    batch = next(generator, None)
                if batch is None:
                    return
                yield batch
        return coles_batches

    tracer.patch(trainer_module, "coles_batches", batches)
    step = training.FusedTrainStep
    tracer.wrap(step, "forward", "runtime.training.forward")
    tracer.wrap(step, "backward", "runtime.training.backward")
    tracer.wrap(kernels, "encode_events_train",
                "runtime.kernels.encode_train")
    tracer.wrap(kernels, "rnn_forward_train",
                "runtime.kernels.rnn_forward_train")
    tracer.wrap(kernels, "rnn_backward", "runtime.kernels.rnn_backward")
    tracer.wrap(training, "loss_gradient", "runtime.training.loss_gradient")
    tracer.wrap(trainer_module, "clip_grad_norm", "nn.clip_grad_norm")
    tracer.wrap(Adam, "step", "nn.adam_step")


def uninstall(tracer, state):
    tracer.uninstall()
    state.tracer = None


SPAN_METRICS = {
    "core.batching.batch_ms": ("core.batching.batch", "self_s"),
    "runtime.training.forward_ms": ("runtime.training.forward", "self_s"),
    "runtime.kernels.encode_train_ms": ("runtime.kernels.encode_train",
                                        "self_s"),
    "runtime.kernels.rnn_forward_train_ms": (
        "runtime.kernels.rnn_forward_train", "self_s"),
    "runtime.training.loss_gradient_ms": ("runtime.training.loss_gradient",
                                          "self_s"),
    "runtime.training.backward_ms": ("runtime.training.backward", "self_s"),
    "runtime.kernels.rnn_backward_ms": ("runtime.kernels.rnn_backward",
                                        "self_s"),
    "nn.clip_grad_norm_ms": ("nn.clip_grad_norm", "self_s"),
    "nn.adam_step_ms": ("nn.adam_step", "self_s"),
}


def named_metrics(figures, setup_s):
    """The workload's figures under the names users know them by."""
    named = {
        "train_events_per_s": {"value": figures["events_per_s"],
                               "unit": "1/s"},
        "train_step_ms_p50": {"value": figures["latency_ms_p50"],
                              "unit": "ms"},
        "train_step_ms_p%d" % P["tail_percentile"]: {
            "value": figures["latency_ms_tail"], "unit": "ms",
            "samples": figures["units"]},
        "train_step_slo_ratio": {"value": figures["slo_ratio"],
                                 "unit": "ratio"},
    }
    if setup_s is not None:
        named["setup_s"] = {"value": setup_s, "unit": "s"}
    return named


def layers(tracer, state, traced, untraced):
    steps = traced["steps"]
    return {
        "pretrain.steps": len(steps),
        "pretrain.events": sum(s[2] for s in steps),
        "pretrain.padded_cell_ratio": (sum(s[2] for s in steps)
                                       / max(1, sum(s[3] for s in steps))),
        "pretrain.loss_final": state.histories[0][-1],
    }, {
        "pretrain.steps": len(steps),
        "pretrain.events": len(steps),
        "pretrain.padded_cell_ratio": len(steps),
        "pretrain.loss_final": len(state.histories),
    }


def check(state, run):
    first = state.histories[0]
    run.check("pretrain.losses_finite",
              all(np.isfinite(h).all() for h in state.histories))
    same = sum(h == first for h in state.histories[1:])
    run.check("pretrain.same_seed_identical",
              same == len(state.histories) - 1,
              "%d of %d repetitions reproduce train_loss_final %r"
              % (same, len(state.histories) - 1, first[-1]))
    run.check("pretrain.loss_decreases", first[-1] < first[0],
              "epoch losses %s" % first)
    run.report["train_loss_final"] = {"value": first[-1], "unit": "loss"}

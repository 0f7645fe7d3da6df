"""One forward per encoder family: inference and training modes agree.

Each fused encoder runs a single forward implementation in two modes.
The training mode additionally keeps the activations its backward needs
(and, for the transformer, draws dropout masks); everything else is the
same op sequence, so these properties hold **bit for bit**, in both
precisions:

- ``rnn_forward(..., return_outputs=True)`` and ``rnn_forward_train``
  give identical final states and per-step states, for GRU and LSTM over
  packed (sorted-lengths) and mask-frozen batches;
- the eval ``transformer_forward`` and its ``train=True`` mode give
  identical ``states`` and ``pooled`` whenever every dropout module is
  inactive, and the eval mode never draws from a dropout rng;
- inference allocates no activation cache.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoders.seq_encoder import TransformerSeqEncoder
from repro.nn import GRU, LSTM
from repro.runtime import attention, build_transformer_plan, kernels


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["gru", "lstm"]),
    packed=st.booleans(),
    precision=st.sampled_from(["float32", "float64"]),
    batch=st.integers(1, 6),
    steps=st.integers(1, 12),
    dim=st.integers(1, 6),
    hidden=st.integers(1, 8),
    seeded=st.booleans(),
)
def test_rnn_inference_matches_train_forward(seed, kind, packed, precision,
                                             batch, steps, dim, hidden,
                                             seeded):
    """Final and per-step states of both RNN modes are bit-identical.

    ``packed`` feeds lengths sorted longest-first (the active-prefix
    path, zero-length rows included); otherwise an unsorted mask drives
    the mask-freezing path.  ``seeded`` overrides the learnt initial
    state.
    """
    rng = np.random.default_rng(seed)
    cell = (GRU if kind == "gru" else LSTM)(dim, hidden, rng=rng)
    plan = kernels.build_weight_plan(cell.export_weights(), precision)
    x = rng.standard_normal((batch, steps, dim))
    lengths = rng.integers(0, steps + 1, size=batch)
    if packed:
        schedule = {"lengths": np.sort(lengths)[::-1]}
    else:
        schedule = {"mask": np.arange(steps)[None, :] < lengths[:, None]}
    initial = None
    if seeded:
        initial = rng.standard_normal((batch, hidden))
        if kind == "lstm":
            initial = (initial, rng.standard_normal((batch, hidden)))

    outputs, last = kernels.rnn_forward(plan, x, initial=initial,
                                        return_outputs=True, **schedule)
    cache = kernels.rnn_forward_train(plan, x, initial=initial, **schedule)

    def final(state):  # the LSTM (h, c) pair as one array
        return state if kind == "gru" else np.stack(state)

    np.testing.assert_array_equal(outputs, cache.states)
    np.testing.assert_array_equal(final(last), final(cache.last))
    # Without per-step outputs the final state is still the same.
    _, bare_last = kernels.rnn_forward(plan, x, initial=initial, **schedule)
    np.testing.assert_array_equal(final(bare_last), final(cache.last))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rnn_inference_allocates_no_activation_cache():
    """The inference forward's peak stays near the input projection.

    A training forward keeps ``(T, B, G*H)`` gates plus per-step states;
    inference keeps neither, so its peak is the input projection plus
    ``O(B*H)`` scratch.
    """
    rng = np.random.default_rng(0)
    batch, steps, dim, hidden = 32, 200, 8, 32
    x = rng.standard_normal((batch, steps, dim))
    lengths = np.full(batch, steps)
    for cell_cls, gates in ((GRU, 3), (LSTM, 4)):
        plan = kernels.build_weight_plan(
            cell_cls(dim, hidden, rng=rng).export_weights(), "float64")
        projection = steps * batch * gates * hidden * 8
        inference = _peak_bytes(
            lambda: kernels.rnn_forward(plan, x, lengths=lengths))
        training = _peak_bytes(
            lambda: kernels.rnn_forward_train(plan, x, lengths=lengths))
        assert inference < 1.5 * projection
        assert training > 2 * projection


class _Events:
    """Stands in for a TrxEncoder: the plan only reads ``output_dim``."""

    def __init__(self, dim):
        self.output_dim = dim


def _dropout_modules(encoder):
    modules = []
    for layer in encoder.transformer.layers:
        modules.extend([layer.attention.dropout, layer.dropout])
    return modules


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    heads=st.integers(1, 3),
    head_dim=st.integers(1, 3),
    layers=st.integers(1, 2),
    batch=st.integers(1, 4),
    steps=st.integers(2, 7),
    masked=st.booleans(),
    precision=st.sampled_from(["float32", "float64"]),
    inactive=st.sampled_from(["eval", "p0"]),
)
def test_transformer_eval_matches_train_forward(seed, heads, head_dim,
                                                layers, batch, steps, masked,
                                                precision, inactive):
    """With every dropout inactive both modes are bit-identical.

    Dropout is inactive either because the modules are in eval mode
    (``p > 0``) or because ``p == 0`` in training mode.  The eval
    forward additionally never draws from a dropout rng, even when the
    live modules are in training mode with ``p > 0``.
    """
    rng = np.random.default_rng(seed)
    dim = heads * head_dim
    d_in = int(rng.integers(2, 6))
    encoder = TransformerSeqEncoder(
        _Events(d_in), dim, num_heads=heads, num_layers=layers,
        normalize=False, dropout=0.3 if inactive == "eval" else 0.0,
        rng=np.random.default_rng(seed))
    if inactive == "eval":
        encoder.eval()
    else:
        encoder.train()
    plan = build_transformer_plan(encoder, precision)
    x = rng.standard_normal((batch, steps, d_in)).astype(plan.dtype)
    mask = None
    if masked:
        lengths = rng.integers(1, steps + 1, size=batch)
        mask = np.arange(steps)[None, :] < lengths[:, None]

    states, pooled = attention.transformer_forward(plan, x, mask=mask)
    cache = attention.transformer_forward(plan, x, mask=mask, train=True)
    np.testing.assert_array_equal(states, cache.states)
    np.testing.assert_array_equal(pooled, cache.pooled)

    encoder.train()
    before = [m.rng.bit_generator.state for m in _dropout_modules(encoder)]
    again, _ = attention.transformer_forward(plan, x, mask=mask)
    after = [m.rng.bit_generator.state for m in _dropout_modules(encoder)]
    assert before == after
    np.testing.assert_array_equal(again, states)

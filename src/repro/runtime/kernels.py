"""Fused, graph-free numpy kernels for the training and inference hot paths.

The autograd :class:`~repro.nn.Tensor` builds one Python graph node per op
and per timestep.  These kernels drop to raw numpy instead:

- the input projection of *all* timesteps is computed as one matmul
  (``(B*T, D) @ (D, G*H)``) instead of T small ones, and is stored
  time-major (``(T, B, G*H)``) so every step reads a contiguous block;
- per step only the hidden projection remains, written into preallocated
  scratch buffers (no per-step allocations on the packed path);
- padding is never computed when the batch is sorted by length (the batch
  planner's output): each step operates on the *active* row prefix only —
  the numpy analogue of cuDNN's packed sequences.  Unsorted batches fall
  back to mask-freezing, exactly like the Tensor path.

**Precision policy.**  Every kernel consumes a :class:`WeightPlan` — the
per-weight work (dtype cast, transposes, bias folding) precomputed once
per ``CellWeights`` generation.  The ``float32`` and ``float64`` policies
differ only in dtype: both fold the recurrent bias into the input
projection where algebraically exact (all LSTM gates; the GRU r/z gates —
the n-gate bias must stay inside the reset multiply) and run the same op
order.  float64 results match the Tensor path to < 1e-10 and gradients to
< 1e-8 (the parity-test reference); float32 halves the bytes per GEMM for
~2x throughput at a property-bounded drift vs float64.

A raw :class:`~repro.nn.CellWeights` passed where a plan is expected is
promoted to a float64 plan on the fly (:func:`as_plan`), so direct kernel
callers keep reference semantics.  Plans hold *references* to their
source parameter buffers; :func:`plan_matches` detects optimiser steps
(optimisers rebind ``param.data``) so cached plans are rebuilt exactly
when the weights change.

Each cell has one recurrence loop behind two entry points:
:func:`rnn_forward` (inference — nothing retained beyond the optional
per-step states) and :func:`rnn_forward_train`, which additionally
stashes the per-step activations a backward pass needs (time-major, in
the plan dtype).  :func:`rnn_backward` runs hand-derived BPTT over that
cache — loss gradient in, weight gradients out, no graph ever built.
Per-gate input gradients accumulate into one time-major buffer so the
weight_ih/bias_ih/input gradients are three fused matmuls at the end,
mirroring the fused input projection of the forward.
:func:`encode_events` / :func:`encode_events_train` share one event
encoding pipeline the same way.

Weight layout is *not* re-declared here: plans are built from the
:class:`~repro.nn.CellWeights` view exported by the ``nn.rnn`` modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PRECISIONS",
    "resolve_precision",
    "sigmoid",
    "l2_normalize_rows",
    "l2_normalize_rows_backward",
    "WeightPlan",
    "build_weight_plan",
    "plan_matches",
    "as_plan",
    "EncodePlan",
    "build_encode_plan",
    "encode_plan_matches",
    "rnn_forward",
    "encode_events",
    "encode_events_train",
    "RnnTrainCache",
    "rnn_forward_train",
    "rnn_backward",
]

#: The two supported compute dtypes of the precision policy.
PRECISIONS = {"float32": np.float32, "float64": np.float64}

#: ``|x|`` beyond which the logistic saturates exactly in both dtypes
#: (``1 + exp(-60)`` rounds to ``1.0`` even in float64), so clipping the
#: exponent changes nothing representable while preventing ``np.exp``
#: overflow warnings in float32.
_SIGMOID_CLIP = 60.0


def resolve_precision(precision):
    """Canonicalise a precision knob to a numpy dtype.

    Accepts the policy strings ``"float32"``/``"float64"`` (or the
    corresponding numpy dtypes); anything else raises ``ValueError``.
    """
    if isinstance(precision, str):
        try:
            return np.dtype(PRECISIONS[precision])
        except KeyError:
            raise ValueError(
                "unknown precision %r (use 'float32' or 'float64')"
                % precision
            ) from None
    dtype = np.dtype(precision)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(
            "unknown precision %r (use 'float32' or 'float64')" % precision
        )
    return dtype


def precision_name(dtype):
    """The policy string of a resolved dtype (``"float32"``/``"float64"``)."""
    return "float32" if np.dtype(dtype) == np.dtype(np.float32) else "float64"


def sigmoid(x, out=None):
    """Numerically-safe logistic function.

    The exponent is clipped to ``±60`` before ``exp``: past that point
    ``1 + exp(-|x|)`` already rounds to ``1.0`` in float64 (let alone
    float32), so the clip is value-preserving while keeping float32
    forwards free of overflow ``RuntimeWarning``s on saturated gates.
    With ``out`` the computation runs fully in-place (``out is x`` is
    allowed).
    """
    # Negate first, then cap the exponent from above only: exp of a
    # large *negative* argument underflows silently to 0.0 (numpy's
    # default underflow handling), which already yields the exact
    # result 1.0 downstream — so a single-sided cap gives bit-identical
    # values to a symmetric clip with one fewer ufunc dispatch.  This
    # runs once per timestep on the serving hot path, where np.clip's
    # python wrapper was measurable.  The negation is a multiply by
    # -1.0 (exact, signed zeros included): numpy 2.4's in-place
    # ``np.negative`` misreads single-column strided views such as an
    # ``(B, 1)`` gate slice of a wider buffer.
    out = np.multiply(x, -1.0, out=out)
    np.minimum(out, _SIGMOID_CLIP, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def l2_normalize_rows(x, eps=1e-12):
    """Unit-normalise rows; mirrors ``nn.functional.l2_normalize``."""
    norm = np.sqrt(np.maximum((x * x).sum(axis=-1, keepdims=True), eps))
    return x / norm


def l2_normalize_rows_backward(x, grad, eps=1e-12):
    """Gradient of :func:`l2_normalize_rows` wrt ``x``.

    For ``y = x / ||x||``: ``dx = g/||x|| - x (g·x)/||x||^3``, with the
    norm term dropped where the squared norm hit the ``eps`` clip —
    exactly the gradient the autograd ``nn.functional.l2_normalize``
    produces (its clipped sqrt passes no gradient when clipping).
    """
    sq = (x * x).sum(axis=-1, keepdims=True)
    norm = np.sqrt(np.maximum(sq, eps))
    dot = (grad * x).sum(axis=-1, keepdims=True)
    return grad / norm - x * (dot * (sq > eps) / norm**3)


# ----------------------------------------------------------------------
# weight plans: per-generation precompute (cast, transpose, bias folding)
# ----------------------------------------------------------------------

@dataclass
class WeightPlan:
    """Packed, dtype-cast view of one :class:`~repro.nn.CellWeights`.

    Built once per weight generation by :func:`build_weight_plan`; every
    kernel call then runs off the pre-transposed, pre-cast buffers.  The
    per-gate blocks stay stacked, so each timestep is a single recurrent
    GEMM (``(B, H) @ (H, G*H)``) instead of slice-and-dispatch.

    ``sources`` keeps references to the live parameter buffers the plan
    was built from; :func:`plan_matches` compares identities, which is
    exactly the granularity at which the optimisers invalidate weights
    (they rebind ``param.data`` rather than writing in place).

    ``bias_x`` carries the input bias plus every recurrent bias that
    folds exactly (see the module docstring); ``b_hn`` is the GRU n-gate
    recurrent bias, kept per-step inside the reset multiply (None for
    LSTM, whose recurrent bias folds entirely).
    """

    kind: str                 # "gru" | "lstm"
    hidden_size: int
    dtype: np.dtype
    w_ih_t: np.ndarray        # (D, G*H) contiguous, policy dtype
    w_hh_t: np.ndarray        # (H, G*H) contiguous, policy dtype
    bias_x: np.ndarray        # (G*H,) input-side bias + folded parts
    b_hn: np.ndarray          # (H,) GRU n-gate recurrent bias, or None
    init_state: np.ndarray    # (H,) policy dtype
    init_cell: np.ndarray = None   # (H,) policy dtype, LSTM only
    sources: tuple = field(default=(), repr=False)

    @property
    def input_size(self):
        """Width ``D`` of the event representations the plan consumes."""
        return self.w_ih_t.shape[0]

    @property
    def num_gates(self):
        """Gate count ``G`` of the cell (3 for GRU, 4 for LSTM)."""
        return self.w_ih_t.shape[1] // self.hidden_size


def _weight_sources(weights):
    """The live arrays whose identities define a weight generation."""
    return (weights.weight_ih, weights.weight_hh, weights.bias_ih,
            weights.bias_hh, weights.init_state, weights.init_cell)


def build_weight_plan(weights, precision="float64"):
    """Precompute the per-weight work of the kernels for one generation.

    ``weights`` is a :class:`~repro.nn.CellWeights` view of the live
    float64 parameter buffers; the plan stores pre-cast, pre-transposed
    copies in the ``precision`` dtype, with the recurrent bias folded into
    the input projection where exact (everything except the GRU n-gate).
    """
    dtype = resolve_precision(precision)
    size = weights.hidden_size
    bias_x = np.array(weights.bias_ih, dtype=dtype, copy=True)
    bias_hh = np.asarray(weights.bias_hh, dtype=dtype)
    b_hn = None
    if weights.kind == "gru":
        bias_x[:2 * size] += bias_hh[:2 * size]
        b_hn = np.ascontiguousarray(bias_hh[2 * size:])
    else:
        bias_x += bias_hh
    return WeightPlan(
        kind=weights.kind,
        hidden_size=size,
        dtype=dtype,
        w_ih_t=np.ascontiguousarray(weights.weight_ih.T, dtype=dtype),
        w_hh_t=np.ascontiguousarray(weights.weight_hh.T, dtype=dtype),
        bias_x=bias_x,
        b_hn=b_hn,
        init_state=np.ascontiguousarray(weights.init_state, dtype=dtype),
        init_cell=(None if weights.init_cell is None else
                   np.ascontiguousarray(weights.init_cell, dtype=dtype)),
        sources=_weight_sources(weights),
    )


def plan_matches(plan, weights):
    """Whether ``plan`` was built from exactly these live weight buffers.

    ``weights`` is the current :class:`~repro.nn.CellWeights` view; the
    comparison is by array *identity* (``is``), which is exactly the
    granularity at which the optimisers invalidate (they rebind
    ``param.data`` to a fresh buffer every step).
    """
    if plan is None:
        return False
    current = _weight_sources(weights)
    if len(plan.sources) != len(current):
        return False
    return all(a is b for a, b in zip(plan.sources, current))


def as_plan(weights):
    """Promote a :class:`~repro.nn.CellWeights` to a plan (pass plans through).

    Raw weights become a **float64** plan — direct kernel callers (the
    parity tests) keep reference semantics without opting in to a
    precision policy.
    """
    if isinstance(weights, WeightPlan):
        return weights
    return build_weight_plan(weights)


# ----------------------------------------------------------------------
# encode plans: pre-cast embedding tables + batch-norm affine
# ----------------------------------------------------------------------

@dataclass
class EncodePlan:
    """Dtype-cast view of a ``TrxEncoder``'s lookup tables.

    Under float64 the tables *are* the live parameter buffers (no copy,
    bit-identical encoding); under float32 they are pre-cast copies so
    the big per-event gathers move half the bytes.  Invalidated by
    source-identity checks like :class:`WeightPlan`.
    """

    dtype: np.dtype
    tables: dict                   # field name -> (V, d) table, policy dtype
    sources: tuple = field(default=(), repr=False)


def _encode_sources(trx_encoder):
    parts = [trx_encoder.embeddings[name].weight.data
             for name in trx_encoder.schema.categorical]
    return tuple(parts)


def build_encode_plan(trx_encoder, precision="float64"):
    """Pre-cast the categorical embedding tables to the policy dtype."""
    dtype = resolve_precision(precision)
    tables = {}
    for name in trx_encoder.schema.categorical:
        table = trx_encoder.embeddings[name].weight.data
        tables[name] = (table if table.dtype == dtype
                        else np.ascontiguousarray(table, dtype=dtype))
    return EncodePlan(dtype=dtype, tables=tables,
                      sources=_encode_sources(trx_encoder))


def encode_plan_matches(plan, trx_encoder):
    """Whether ``plan`` still mirrors the encoder's live tables."""
    if plan is None:
        return False
    current = _encode_sources(trx_encoder)
    if len(plan.sources) != len(current):
        return False
    return all(a is b for a, b in zip(plan.sources, current))


# ----------------------------------------------------------------------
# shared forward plumbing
# ----------------------------------------------------------------------

def _plan_input_gates(plan, x):
    """Fused input projection, time-major: ``(B, T, D) -> (T, B, G*H)``.

    One GEMM over all timesteps against the pre-transposed contiguous
    ``w_ih_t``, bias added in place, then laid out time-major so each
    step of the recurrence reads one contiguous ``(B, G*H)`` block.
    """
    batch, steps, dim = x.shape
    # Transpose the *input* to time-major before the GEMM rather than
    # the projected gates after it: the copy moves (T, B, D) elements
    # instead of (T, B, G*H) — D is a fraction of G*H — and the GEMM
    # then writes the time-major layout directly.  Each output row is
    # the same dot product either way, so the float64 parity contract
    # is unaffected.
    xt = x.swapaxes(0, 1)
    if xt.dtype != plan.dtype:
        xt = xt.astype(plan.dtype, order="C", copy=False)
    else:
        xt = np.ascontiguousarray(xt)
    gates = xt.reshape(steps * batch, dim) @ plan.w_ih_t
    gates += plan.bias_x
    return gates.reshape(steps, batch, -1)


def _initial_buffer(learnt, batch, initial, dtype):
    """The caller's initial state (cast + copied) or the learnt one tiled."""
    if initial is not None:
        return np.array(initial, dtype=dtype, copy=True)
    return np.tile(learnt, (batch, 1))


def _active_counts(lengths, steps):
    """Per-step active row count for a batch sorted longest-first.

    Returns None when the batch is not sorted by non-increasing length
    (the caller then uses the mask-freezing path).  Computed via
    ``searchsorted`` over the (reversed, ascending) lengths — O(T log B)
    with no B×T intermediate.
    """
    if lengths is None:
        return None
    lengths = np.asarray(lengths, dtype=np.intp)
    if len(lengths) > 1 and np.any(np.diff(lengths) > 0):
        return None
    return len(lengths) - np.searchsorted(
        lengths[::-1], np.arange(steps, dtype=np.intp), side="right")


def _mask_from_lengths(lengths, steps):
    return (np.arange(steps, dtype=np.intp)[None, :]
            < np.asarray(lengths, dtype=np.intp)[:, None])


def _schedule(lengths, mask, steps):
    """The step schedule of a forward: ``(counts, mask)``.

    ``counts`` (per-step active rows) selects the packed path when
    ``lengths`` is sorted longest-first; otherwise ``mask`` — the
    caller's, or one derived from ``lengths`` — selects mask-freezing.
    With neither, every row runs every step.
    """
    counts = _active_counts(lengths, steps)
    if counts is None and lengths is not None and mask is None:
        mask = _mask_from_lengths(lengths, steps)
    return counts, mask


# ----------------------------------------------------------------------
# forwards: one recurrence loop per cell, activation cache on request
# ----------------------------------------------------------------------

def _gru_loop(plan, x, lengths, mask, initial, keep_states, train):
    """The one GRU loop behind :func:`rnn_forward`/:func:`rnn_forward_train`.

    Returns ``(states, last, stash)``: ``states`` is the time-major
    ``(T, B, H)`` per-step state buffer (None unless ``keep_states``),
    ``last`` the final ``(B, H)`` state, and ``stash`` the
    :class:`RnnTrainCache` fields BPTT needs (None unless ``train``).
    Both modes run the same op sequence, so they agree bit for bit.
    """
    dt = plan.dtype
    batch, steps, _ = x.shape
    size = plan.hidden_size
    two = 2 * size
    counts, mask = _schedule(lengths, mask, steps)
    count_list = None if counts is None else counts.tolist()
    freeze = count_list is None and mask is not None
    gates_x = _plan_input_gates(plan, x)
    hidden = _initial_buffer(plan.init_state, batch, initial, dt)
    states = (np.empty((steps, batch, size), dtype=dt)
              if keep_states else None)
    stash = None
    if train:
        gates = np.empty((steps, batch, 3 * size), dtype=dt)
        gate_hidden = np.empty((steps, batch, size), dtype=dt)
        stash = dict(gates=gates, gate_hidden=gate_hidden,
                     hidden_0=hidden.copy(), counts=counts, mask=mask)
    else:
        # Contiguous per-block scratch: elementwise ufuncs over a column
        # slice of a wider buffer run one short inner loop per row.
        rz_buf = np.empty((batch, two), dtype=dt)
        cand_buf = np.empty((batch, size), dtype=dt)
    gh = np.empty((batch, 3 * size), dtype=dt)
    new_h = np.empty((batch, size), dtype=dt) if freeze else None
    # Hoisted loop invariants: attribute loads are measurable at one
    # python-level iteration per timestep.
    w_hh_t = plan.w_hh_t
    b_hn = plan.b_hn
    for t in range(steps):
        active = batch if count_list is None else count_list[t]
        if active == 0:
            if states is not None:
                states[t:] = hidden
            break
        h_act = hidden[:active]
        gx = gates_x[t, :active]
        gh_a = gh[:active]
        np.dot(h_act, w_hh_t, out=gh_a)
        if train:
            rz = gates[t, :active, :two]
            candidate = gates[t, :active, two:]
        else:
            rz = rz_buf[:active]
            candidate = cand_buf[:active]
        # One sigmoid over the adjacent (r, z) block — identical
        # elementwise values, half the ufunc dispatches.
        np.add(gx[:, :two], gh_a[:, :two], out=rz)
        sigmoid(rz, out=rz)
        reset = rz[:, :size]
        update = rz[:, size:]
        ghn = gh_a[:, two:]
        ghn += b_hn
        if train:
            gate_hidden[t, :active] = ghn
        np.multiply(ghn, reset, out=candidate)
        candidate += gx[:, two:]
        np.tanh(candidate, out=candidate)
        # new_h = candidate + update * (h_prev - candidate).  Staged in
        # scratch under mask-freezing; on the packed path written straight
        # into the step's state row, or over h_prev itself when no states
        # are kept (the recurrent GEMM above was its last read).
        if freeze:
            out_h = new_h[:active]
        elif states is not None:
            out_h = states[t, :active]
        else:
            out_h = h_act
        np.subtract(h_act, candidate, out=out_h)
        out_h *= update
        out_h += candidate
        if freeze:
            np.copyto(hidden, out_h, where=mask[:, t:t + 1])
            if states is not None:
                states[t] = hidden
        elif states is not None:
            if active < batch:
                states[t, active:] = hidden[active:]
            hidden = states[t]
    return states, hidden, stash


def _lstm_loop(plan, x, lengths, mask, initial, keep_states, train):
    """The one LSTM loop; :func:`_gru_loop` with ``(h, c)`` state pairs."""
    dt = plan.dtype
    batch, steps, _ = x.shape
    size = plan.hidden_size
    two, three = 2 * size, 3 * size
    counts, mask = _schedule(lengths, mask, steps)
    count_list = None if counts is None else counts.tolist()
    freeze = count_list is None and mask is not None
    gates_x = _plan_input_gates(plan, x)
    h_init, c_init = (None, None) if initial is None else initial
    hidden = _initial_buffer(plan.init_state, batch, h_init, dt)
    cell = _initial_buffer(plan.init_cell, batch, c_init, dt)
    states = (np.empty((steps, batch, size), dtype=dt)
              if keep_states else None)
    stash = None
    if train:
        gates = np.empty((steps, batch, 4 * size), dtype=dt)
        cell_seq = np.empty((steps, batch, size), dtype=dt)
        tanh_cell = np.empty((steps, batch, size), dtype=dt)
        stash = dict(gates=gates, cell_seq=cell_seq, tanh_cell=tanh_cell,
                     hidden_0=hidden.copy(), cell_0=cell.copy(),
                     counts=counts, mask=mask)
    else:
        # Contiguous per-block scratch, as in _gru_loop.
        if_buf = np.empty((batch, two), dtype=dt)
        cand_buf = np.empty((batch, size), dtype=dt)
        out_buf = np.empty((batch, size), dtype=dt)
    gh = np.empty((batch, 4 * size), dtype=dt)
    new_c = np.empty((batch, size), dtype=dt)
    new_h = np.empty((batch, size), dtype=dt)
    tmp = np.empty((batch, size), dtype=dt)
    w_hh_t = plan.w_hh_t
    for t in range(steps):
        active = batch if count_list is None else count_list[t]
        if active == 0:
            if states is not None:
                states[t:] = hidden
            if train:
                cell_seq[t:] = cell
            break
        h_act = hidden[:active]
        c_act = cell[:active]
        gx = gates_x[t, :active]
        gh_a = gh[:active]
        np.dot(h_act, w_hh_t, out=gh_a)
        if train:
            in_forget = gates[t, :active, :two]
            candidate = gates[t, :active, two:three]
            out_gate = gates[t, :active, three:]
        else:
            in_forget = if_buf[:active]
            candidate = cand_buf[:active]
            out_gate = out_buf[:active]
        # One sigmoid over the adjacent (i, f) block — identical
        # elementwise values, fewer ufunc dispatches.
        np.add(gx[:, :two], gh_a[:, :two], out=in_forget)
        sigmoid(in_forget, out=in_forget)
        in_gate = in_forget[:, :size]
        forget = in_forget[:, size:]
        np.add(gx[:, two:three], gh_a[:, two:three], out=candidate)
        np.tanh(candidate, out=candidate)
        np.add(gx[:, three:], gh_a[:, three:], out=out_gate)
        sigmoid(out_gate, out=out_gate)
        # new_c = forget * c_prev + in * candidate
        nc = new_c[:active]
        np.multiply(forget, c_act, out=nc)
        t_a = tmp[:active]
        np.multiply(in_gate, candidate, out=t_a)
        nc += t_a
        tanh_new = tanh_cell[t, :active] if train else t_a
        np.tanh(nc, out=tanh_new)
        nh = new_h[:active]
        np.multiply(out_gate, tanh_new, out=nh)
        if freeze:
            step_mask = mask[:, t:t + 1]
            np.copyto(hidden, nh, where=step_mask)
            np.copyto(cell, nc, where=step_mask)
        else:
            hidden[:active] = nh
            cell[:active] = nc
        if states is not None:
            states[t] = hidden
        if train:
            cell_seq[t] = cell
    return states, (hidden, cell), stash


_LOOPS = {"gru": _gru_loop, "lstm": _lstm_loop}


def _by_kind(table, kind):
    """The ``table`` entry of a cell kind; ValueError for unknown kinds."""
    if kind not in table:
        raise ValueError("unknown cell kind %r" % kind)
    return table[kind]


def rnn_forward(weights, x, lengths=None, mask=None, initial=None,
                return_outputs=False):
    """Fused GRU/LSTM forward over a padded batch, by ``weights.kind``.

    Parameters
    ----------
    weights:
        A :class:`WeightPlan` (or a raw :class:`~repro.nn.CellWeights`,
        promoted to a float64 plan).
    x:
        Event representations ``(B, T, D)`` (raw numpy, any float dtype;
        cast to the plan dtype on entry).
    lengths:
        True sequence lengths ``(B,)``.  When sorted longest-first (the
        batch planner's output) each step runs on the active prefix only.
    mask:
        Optional boolean ``(B, T)``; used when ``lengths`` is absent or
        unsorted.  False entries freeze the state.
    initial:
        Optional ``(B, H)`` state (an ``(h, c)`` pair for LSTM) in any
        float dtype overriding the learnt initial state; it is copied
        into the plan dtype.
    return_outputs:
        When True also return the per-step states ``(B, T, H)``.

    Returns
    -------
    (outputs, last): outputs is None unless requested; last is ``(B, H)``
    (an ``(h, c)`` pair for LSTM) in the plan dtype, the state after each
    sequence's final real event.  No activation cache is allocated.
    """
    loop = _by_kind(_LOOPS, weights.kind)
    states, last, _ = loop(as_plan(weights), x, lengths, mask, initial,
                           keep_states=return_outputs, train=False)
    return (None if states is None else states.swapaxes(0, 1)), last


# ----------------------------------------------------------------------
# training: the forward's activation cache + hand-derived BPTT
# ----------------------------------------------------------------------

@dataclass
class RnnTrainCache:
    """Per-step activations stashed by a training forward pass.

    Produced by :func:`rnn_forward_train` and consumed exactly once by
    :func:`rnn_backward`.  Per-step arrays are **time-major** (``(T, B,
    ·)``) so both directions of BPTT touch contiguous blocks; rows beyond
    a step's active count hold stale values in ``gates``/``gate_hidden``
    — the backward kernels never read them.  Everything is stored in the
    plan dtype.
    """

    kind: str                # "gru" | "lstm"
    plan: WeightPlan         # the plan the forward ran with
    x: np.ndarray            # (B, T, D) event representations, plan dtype
    gates: np.ndarray        # (T, B, G*H): r,z,n (GRU) or i,f,g,o (LSTM)
    hidden_seq: np.ndarray   # (T, B, H) post-step hidden states
    hidden_0: np.ndarray     # (B, H) initial hidden state
    counts: np.ndarray       # (T,) active rows per step, or None
    mask: np.ndarray         # (B, T) boolean, or None (full batch)
    last: object             # (B, H) or (h, c) — the forward result
    gate_hidden: np.ndarray = None  # (T, B, H) GRU only: gh_n (for dr)
    cell_seq: np.ndarray = None     # (T, B, H) LSTM only: post-step cells
    cell_0: np.ndarray = None       # (B, H) LSTM only: initial cell
    tanh_cell: np.ndarray = None    # (T, B, H) LSTM only: tanh(c_t)

    @property
    def states(self):
        """Per-step hidden states in batch-major ``(B, T, H)`` layout."""
        return self.hidden_seq.transpose(1, 0, 2)


def rnn_forward_train(weights, x, lengths=None, mask=None, initial=None):
    """The :func:`rnn_forward` loop, stashing what :func:`rnn_backward` needs.

    Same argument contract as :func:`rnn_forward` — ``x`` is ``(B, T,
    D)``, ``mask`` ``(B, T)`` boolean, ``initial`` ``(B, H)`` (pair for
    LSTM) — but returns an :class:`RnnTrainCache` whose ``last`` and
    ``states`` are bit-identical to that forward's result.
    """
    loop = _by_kind(_LOOPS, weights.kind)
    plan = as_plan(weights)
    if x.dtype != plan.dtype:
        x = x.astype(plan.dtype, copy=False)
    states, last, stash = loop(plan, x, lengths, mask, initial,
                               keep_states=True, train=True)
    return RnnTrainCache(kind=plan.kind, plan=plan, x=x, hidden_seq=states,
                         last=last, **stash)


def _step_rows(cache):
    """Per-step ``(active, mask_col)`` execution descriptors for BPTT.

    ``active`` is the row-prefix length for the packed path (0 skips the
    step); ``mask_col`` is the ``(B, 1)`` boolean column for the
    mask-freezing path (None on the packed path).
    """
    batch, steps, _ = cache.x.shape
    if cache.counts is not None:
        return [(active, None) for active in cache.counts.tolist()]
    if cache.mask is not None:
        return [(batch, cache.mask[:, t:t + 1]) for t in range(steps)]
    return [(batch, None)] * steps


def _finish_input_grads(plan, x, d_gates_x):
    """The fused tail of BPTT: input-side gradients as three big matmuls.

    ``d_gates_x`` arrives time-major ``(T, B, G*H)`` and is flattened to
    the batch-major order of ``x`` once, here.
    """
    batch, steps, dim = x.shape
    # Work in the time-major order d_gates_x already has: transposing
    # the (D-wide) input and output instead of the (G*H-wide) gate
    # gradient moves a fraction of the bytes.  Each weight/bias entry is
    # the same reduction over the same rows either way.
    flat_xt = np.ascontiguousarray(x.swapaxes(0, 1)).reshape(
        batch * steps, dim)
    flat_g = d_gates_x.reshape(batch * steps, -1)
    d_x_tm = (flat_g @ plan.w_ih_t.T).reshape(steps, batch, dim)
    return {
        "weight_ih": flat_g.T @ flat_xt,
        "bias_ih": flat_g.sum(axis=0),
        "d_x": np.ascontiguousarray(d_x_tm.swapaxes(0, 1)),
    }


def _gru_backward(cache, d_last, d_outputs):
    """Hand-derived GRU BPTT; the contract of :func:`rnn_backward`."""
    plan = cache.plan
    dt = plan.dtype
    batch, steps, _ = cache.x.shape
    size = plan.hidden_size
    two = 2 * size
    d_hidden = np.array(d_last, dtype=dt, copy=True)
    d_gates_x = np.zeros((steps, batch, 3 * size), dtype=dt)
    # Pre-activation gradients wrt the recurrent projection, stashed
    # time-major so d_weight_hh/d_bias_hh reduce to ONE big GEMM/sum
    # after the loop instead of a small GEMM + accumulate per step.
    d_gates_h = np.zeros((steps, batch, 3 * size), dtype=dt)
    w_hh = plan.w_hh_t.T
    hidden_seq, hidden_0 = cache.hidden_seq, cache.hidden_0
    gates, gate_hidden = cache.gates, cache.gate_hidden
    rows = _step_rows(cache)
    # Per-step scratch (views sliced to the active prefix): the loop
    # runs once per timestep, where temporary allocations are
    # measurable on the training hot path.
    s1 = np.empty((batch, size), dtype=dt)
    s2 = np.empty((batch, size), dtype=dt)
    s3 = np.empty((batch, size), dtype=dt)
    for t in range(steps - 1, -1, -1):
        if d_outputs is not None:
            d_hidden += d_outputs[:, t]
        active, mask_col = rows[t]
        if active == 0:
            continue
        dh = d_hidden[:active] if mask_col is None else d_hidden * mask_col
        h_prev = (hidden_seq[t - 1, :active] if t > 0
                  else hidden_0[:active])
        gate_block = gates[t, :active]
        reset = gate_block[:, :size]
        update = gate_block[:, size:two]
        candidate = gate_block[:, two:]
        gh_n = gate_hidden[t, :active]
        dgh = d_gates_h[t, :active]
        dgx = d_gates_x[t, :active]
        c1, c2, c3 = s1[:active], s2[:active], s3[:active]
        # sigmoid' for the whole (r, z) block in one 2H-wide pass; the
        # per-gate upstream gradients scale the halves below.
        np.subtract(1.0, gate_block[:, :two], out=dgh[:, :two])
        dgh[:, :two] *= gate_block[:, :two]
        # da_n = dh * (1 - update) * (1 - candidate^2), written straight
        # into the n-column of d_gates_x.
        da_n = dgx[:, two:]
        np.subtract(1.0, update, out=c1)
        c1 *= dh
        np.multiply(candidate, candidate, out=c2)
        np.subtract(1.0, c2, out=c2)
        np.multiply(c1, c2, out=da_n)
        np.multiply(da_n, reset, out=dgh[:, two:])
        # d_reset = da_n * gh_n scales the r half ...
        np.multiply(da_n, gh_n, out=c3)
        dgh[:, :size] *= c3
        # ... and d_update = dh * (h_prev - candidate) the z half.
        np.subtract(h_prev, candidate, out=c1)
        c1 *= dh
        dgh[:, size:two] *= c1
        # d_prev = dh * update + dgh @ w_hh
        if mask_col is None:
            # dh aliases d_hidden[:active]: updating it in place IS the
            # carry to step t-1 (no copy-back needed).
            dh *= update
            np.dot(dgh, w_hh, out=c3)
            dh += c3
        else:
            np.multiply(dh, update, out=c2)
            np.dot(dgh, w_hh, out=c3)
            c2 += c3
            d_hidden = np.where(mask_col, c2, d_hidden)
    # The r/z columns of the input-side gate gradient equal the
    # recurrent-side ones (the pre-activations are a sum); one bulk copy
    # instead of a per-step one.
    d_gates_x[:, :, :two] = d_gates_h[:, :, :two]
    flat_gh = d_gates_h.reshape(steps * batch, -1)
    if steps > 1:
        h_prev_seq = np.concatenate([hidden_0[None], hidden_seq[:-1]])
    else:
        h_prev_seq = hidden_0[None]
    grads = _finish_input_grads(plan, cache.x, d_gates_x)
    grads["weight_hh"] = flat_gh.T @ h_prev_seq.reshape(steps * batch, size)
    grads["bias_hh"] = flat_gh.sum(axis=0)
    grads["init_state"] = d_hidden.sum(axis=0)
    return grads


def _lstm_backward(cache, d_last, d_outputs):
    """Hand-derived LSTM BPTT; the contract of :func:`rnn_backward`."""
    plan = cache.plan
    dt = plan.dtype
    batch, steps, _ = cache.x.shape
    size = plan.hidden_size
    two, three = 2 * size, 3 * size
    d_hidden = np.array(d_last, dtype=dt, copy=True)
    d_cell = np.zeros((batch, size), dtype=dt)
    d_gates_x = np.zeros((steps, batch, 4 * size), dtype=dt)
    d_weight_hh = np.zeros((4 * size, size), dtype=dt)
    d_bias_hh = np.zeros(4 * size, dtype=dt)
    w_hh = plan.w_hh_t.T
    d_gh = np.empty((batch, 4 * size), dtype=dt)
    rows = _step_rows(cache)
    for t in range(steps - 1, -1, -1):
        if d_outputs is not None:
            d_hidden += d_outputs[:, t]
        active, mask_col = rows[t]
        if active == 0:
            continue
        if mask_col is None:
            dh = d_hidden[:active]
            dc = d_cell[:active]
        else:
            dh = d_hidden * mask_col
            dc = d_cell * mask_col
        h_prev = (cache.hidden_seq[t - 1, :active] if t > 0
                  else cache.hidden_0[:active])
        c_prev = (cache.cell_seq[t - 1, :active] if t > 0
                  else cache.cell_0[:active])
        gate_block = cache.gates[t, :active]
        in_gate = gate_block[:, :size]
        forget = gate_block[:, size:two]
        candidate = gate_block[:, two:three]
        out_gate = gate_block[:, three:]
        tanh_c = cache.tanh_cell[t, :active]
        d_out = dh * tanh_c
        dc = dc + dh * out_gate * (1.0 - tanh_c * tanh_c)
        d_in = dc * candidate
        d_forget = dc * c_prev
        d_candidate = dc * in_gate
        d_cell_prev = dc * forget
        dgh = d_gh[:active]
        np.multiply(d_in * in_gate, 1.0 - in_gate, out=dgh[:, :size])
        np.multiply(d_forget * forget, 1.0 - forget, out=dgh[:, size:two])
        np.multiply(d_candidate, 1.0 - candidate * candidate,
                    out=dgh[:, two:three])
        np.multiply(d_out * out_gate, 1.0 - out_gate, out=dgh[:, three:])
        d_gates_x[t, :active] = dgh
        d_prev = dgh @ w_hh
        d_weight_hh += dgh.T @ h_prev
        d_bias_hh += dgh.sum(axis=0)
        if mask_col is None:
            d_hidden[:active] = d_prev
            d_cell[:active] = d_cell_prev
        else:
            d_hidden = np.where(mask_col, d_prev, d_hidden)
            d_cell = np.where(mask_col, d_cell_prev, d_cell)
    grads = _finish_input_grads(plan, cache.x, d_gates_x)
    grads["weight_hh"] = d_weight_hh
    grads["bias_hh"] = d_bias_hh
    grads["init_state"] = d_hidden.sum(axis=0)
    grads["init_cell"] = d_cell.sum(axis=0)
    return grads


_BACKWARDS = {"gru": _gru_backward, "lstm": _lstm_backward}


def rnn_backward(weights, cache, d_last, d_outputs=None):
    """Hand-derived BPTT through a cached GRU/LSTM forward.

    Parameters
    ----------
    weights:
        The weights/plan the forward ran with; the backward uses the
        plan cached by :func:`rnn_forward_train`.
    cache:
        The :class:`RnnTrainCache` from :func:`rnn_forward_train`.
    d_last:
        Loss gradient wrt the final *hidden* state, ``(B, H)`` (for LSTM
        the loss never sees the cell).
    d_outputs:
        Optional loss gradient wrt every per-step state, ``(B, T, H)``
        (CPC-style objectives).  Both gradients are accepted in any
        float dtype and cast to the plan dtype.

    Returns
    -------
    dict with ``d_x`` (gradient wrt the event representations, ``(B, T,
    D)``) and per-parameter gradients ``weight_ih``, ``weight_hh``,
    ``bias_ih``, ``bias_hh``, ``init_state`` (plus ``init_cell`` for
    LSTM) — the exact quantities the autograd path accumulates, to
    < 1e-8 under the float64 policy.
    """
    backward = _by_kind(_BACKWARDS, cache.kind)
    return backward(cache, d_last, d_outputs)


# ----------------------------------------------------------------------
# event encoding
# ----------------------------------------------------------------------

def _embedding_parts(trx_encoder, batch, tables=None):
    """Categorical embedding lookups as raw arrays, schema order.

    Ids are range-checked with the same error as ``Embedding.forward`` so
    the fused paths reject exactly the batches the Tensor path rejects
    (a negative id must not silently wrap to the table's last row).
    ``tables`` (an :class:`EncodePlan`'s pre-cast copies) replaces the
    live float64 tables when a precision policy is active.
    """
    parts = []
    for name in trx_encoder.schema.categorical:
        module = trx_encoder.embeddings[name]
        # reprolint: disable=RP001 -- categorical ids keep their input
        # integer dtype; the embedding gather never touches the policy.
        ids = np.asarray(batch.fields[name])
        if ids.min() < 0 or ids.max() >= module.num_embeddings:
            raise IndexError(
                "embedding ids out of range [0, %d): min=%d max=%d"
                % (module.num_embeddings, ids.min(), ids.max())
            )
        table = module.weight.data if tables is None else tables[name]
        parts.append(table[ids])
    return parts


def _batchnorm_stats(norm, numeric, mask, training):
    """The (mean, var) a ``BatchNorm1d`` would use, updating its buffers.

    Mirrors ``BatchNorm1d.forward`` exactly: training mode computes the
    masked batch statistics and folds them into the running buffers with
    the module's own momentum/_set_buffer, eval mode reads the running
    buffers — so checkpoints from the fused and Tensor engines carry
    identical statistics.  Always float64: the buffers are part of the
    checkpoint contract and must not depend on the compute policy.
    """
    if not training:
        return norm.running_mean, norm.running_var
    flat = numeric[np.asarray(mask, dtype=bool)]
    if len(flat) == 0:
        raise ValueError("batch norm received an empty batch")
    mean = flat.mean(axis=0)
    var = flat.var(axis=0)
    norm._set_buffer(
        "running_mean",
        (1 - norm.momentum) * norm.running_mean + norm.momentum * mean,
    )
    norm._set_buffer(
        "running_var",
        (1 - norm.momentum) * norm.running_var + norm.momentum * var,
    )
    return mean, var


def _encode(trx_encoder, batch, prev_times, training, plan=None):
    """Shared event-encoding pipeline behind both fused entry points."""
    trx_encoder.check_batch_schema(batch)
    dtype = np.float64 if plan is None else plan.dtype
    parts = _embedding_parts(trx_encoder, batch,
                             tables=None if plan is None else plan.tables)
    scaled = None
    norm = trx_encoder.numeric_norm
    if norm is not None:
        numeric = trx_encoder._numeric_array(batch, prev_times=prev_times)
        mean, var = _batchnorm_stats(norm, numeric, batch.mask,
                                     training and norm.training)
        scaled = (numeric - mean) / np.sqrt(var + norm.eps)
        part = scaled * norm.weight.data + norm.bias.data
        if part.dtype != dtype:
            part = part.astype(dtype, copy=False)
        parts.append(part)
    if not parts:
        raise ValueError("schema has no event fields to encode")
    x = np.concatenate(parts, axis=-1) if len(parts) > 1 else parts[0]
    return x, scaled


def encode_events(trx_encoder, batch, prev_times=None, plan=None):
    """Graph-free event encoding: the eval-mode ``TrxEncoder`` as raw numpy.

    Embedding lookups read the tables directly and batch norm applies the
    running statistics, which is exactly the Tensor path in eval mode
    (training-mode statistics are a training concern and never used when
    serving).  Returns ``(B, T, D)`` — float64 without a ``plan``, the
    plan dtype otherwise.
    """
    x, _ = _encode(trx_encoder, batch, prev_times, training=False, plan=plan)
    return x


def encode_events_train(trx_encoder, batch, plan=None):
    """Event encoding under *training* semantics, plus the backward stash.

    Same pipeline as :func:`encode_events` (one shared implementation),
    but when the encoder's batch norm is in training mode it normalises
    by the masked batch statistics and updates the running buffers —
    op-for-op what ``TrxEncoder.forward`` does (statistics always run in
    float64, so checkpoints are policy-independent).  Returns ``(x,
    scaled)`` where ``scaled`` is the pre-affine normalised numeric block
    the batch norm backward needs (None without numeric features).
    """
    return _encode(trx_encoder, batch, None, training=True, plan=plan)

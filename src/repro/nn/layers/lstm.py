r"""Long short-term memory (LSTM) layer with full backpropagation through time.

The implementation follows the standard LSTM formulation used by Keras:

.. math::

    z_t &= x_t W + h_{t-1} U + b \\
    i_t, f_t, g_t, o_t &= \sigma(z^i_t), \sigma(z^f_t), \tanh(z^g_t), \sigma(z^o_t) \\
    c_t &= f_t \odot c_{t-1} + i_t \odot g_t \\
    h_t &= o_t \odot \tanh(c_t)

Gate ordering inside the fused matrices is ``(i, f, g, o)``.

Two details exist specifically to mirror the paper's implementation:

* ``double_bias=True`` adds a second (redundant) bias vector, matching the
  parameter count of CuDNN-backed LSTMs, which the paper uses for the edge
  and cloud models (Table I's parameter counts only line up with CuDNN's
  double-bias convention).
* ``forward`` accepts an ``initial_state`` and ``backward`` accepts/exposes
  state gradients, which is what allows the sequence-to-sequence
  encoder–decoder in :mod:`repro.nn.models.seq2seq` to train end to end.

Every step goes through :func:`_lstm_cell`, the one place the gate equations
live.  ``forward(training=True)`` points it at slices of the whole-sequence
tensors ``backward`` needs; an inference ``forward`` reuses one step's buffers,
keeps only ``(h, c)`` and its output, and ``backward`` after it raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.activations import sigmoid as _sigmoid
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer
from repro.nn.regularizers import Regularizer, ZeroRegularizer, get_regularizer
from repro.utils.validation import check_positive

State = Tuple[np.ndarray, np.ndarray]


@dataclass
class _SequenceCache:
    """Whole-sequence tensors kept by a ``training`` forward pass for BPTT.

    All but ``inputs`` are time-major, so one timestep is one contiguous block.
    ``gates`` is ``(time, ..., batch, 4 * units)`` in ``(i, f, g, o)`` order
    (``...``: a stacked ``Bidirectional``'s direction axis); ``h_states`` and
    ``c_states`` are ``(time + 1, ..., batch, units)`` with index ``t`` the
    state *entering* timestep ``t`` (0: the initial state).
    """

    inputs: object
    h_states: np.ndarray
    c_states: np.ndarray
    gates: np.ndarray
    tanh_c: np.ndarray


def _lstm_cell(z, c_prev, gates, c, tanh_c, h) -> None:
    """One LSTM step from its pre-activations ``z`` of shape ``(..., batch, 4 * units)``.

    Everything lands in the caller's buffers: the ``(i, f, g, o)`` activations
    in ``gates``, the new cell state in ``c`` (which may be ``c_prev`` itself),
    its tanh in ``tanh_c`` and the new hidden state in ``h``.
    """
    units = c.shape[-1]
    g = gates[..., 2 * units: 3 * units]
    _sigmoid.forward(z, out=gates)
    np.tanh(z[..., 2 * units: 3 * units], out=g)
    np.multiply(gates[..., :units], g, out=tanh_c)  # i * g; tanh_c is free until c is known
    np.multiply(gates[..., units: 2 * units], c_prev, out=c)
    np.add(c, tanh_c, out=c)
    np.tanh(c, out=tanh_c)
    np.multiply(gates[..., 3 * units:], tanh_c, out=h)


def _forward_steps(inputs, projection, recurrent, bias, h, c, training, return_sequences):
    """The forward step loop from ``(h, c)``, each ``(..., batch, units)``, over
    ``projection``, every step's input side ``(..., batch, time, 4 * units)``.
    Returns ``(h, c)``, the time-major outputs if ``return_sequences`` and the
    BPTT cache (keeping ``inputs``) if ``training``."""
    timesteps = projection.shape[-2]
    z = np.empty(h.shape[:-1] + projection.shape[-1:])
    if training:
        # BPTT tensors: one allocation each, one block filled per step.
        states = (timesteps + 1,) + h.shape
        h_states, c_states = np.empty(states), np.empty(states)
        gates, tanh_c = np.empty((timesteps,) + z.shape), np.empty((timesteps,) + h.shape)
        h_states[0], c_states[0] = h, c
        h, c = h_states[0], c_states[0]
        cache = _SequenceCache(inputs, h_states, c_states, gates, tanh_c)
    else:
        # One step's buffers, reused: only (h, c) and the output survive.
        h_states = np.empty((timesteps,) + h.shape) if return_sequences else None
        gates, tanh_c = np.empty(z.shape), np.empty(h.shape)
        cache = None

    for t in range(timesteps):
        np.matmul(h, recurrent, out=z)
        z += projection[..., t, :]
        z += bias
        if training:
            c_prev, c, h = c, c_states[t + 1], h_states[t + 1]
            _lstm_cell(z, c_prev, gates[t], c, tanh_c[t], h)
        else:
            if h_states is not None:
                h = h_states[t]
            _lstm_cell(z, c, gates, c, tanh_c, h)
    # A training pass's h_states also holds the initial state, in front.
    return h, c, h_states[-timesteps:] if return_sequences else None, cache


def _bptt_steps(cache, grad_h_seq, recurrent_t, dh_next, dc):
    """The BPTT step loop over a :func:`_forward_steps` cache, given the time-major
    gradient reaching each hidden state from outside: the gate gradients.
    ``dh_next`` and ``dc`` enter as the final state's gradients, leave as the initial's."""
    units = dc.shape[-1]
    # What does not depend on the recurrence, for the whole sequence at once:
    # 1 - a for the sigmoid gates, 1 - g**2 for the candidate, 1 - tanh(c)**2.
    one_minus = 1.0 - cache.gates
    one_minus[..., 2 * units: 3 * units] = 1.0 - cache.gates[..., 2 * units: 3 * units] ** 2
    one_minus_tanh_c_sq = 1.0 - cache.tanh_c**2

    # Gate gradients of the whole sequence, one block filled per step; the
    # weight gradients fall out of single contractions afterwards.
    dz_all = np.empty(cache.gates.shape)
    dh, dh_o = np.empty(dc.shape), np.empty(dc.shape)

    for t in range(len(dz_all) - 1, -1, -1):
        gates = cache.gates[t]
        o = gates[..., 3 * units:]
        dz = dz_all[t]

        np.add(grad_h_seq[t], dh_next, out=dh)
        np.multiply(dh, o, out=dh_o)
        dh_o *= one_minus_tanh_c_sq[t]
        dc += dh_o

        # (di, df, dg, do) = (dc * g, dc * c_prev, dc * i, dh * tanh_c) ...
        np.multiply(dc, gates[..., 2 * units: 3 * units], out=dz[..., :units])
        np.multiply(dc, cache.c_states[t], out=dz[..., units: 2 * units])
        np.multiply(dc, gates[..., :units], out=dz[..., 2 * units: 3 * units])
        np.multiply(dh, cache.tanh_c[t], out=dz[..., 3 * units:])
        # ... times the activation derivatives: a * (1 - a), and 1 - g**2.
        dz[..., : 2 * units] *= gates[..., : 2 * units]
        dz[..., 3 * units:] *= o
        dz *= one_minus[t]

        np.matmul(dz, recurrent_t, out=dh_next)
        dc *= gates[..., units: 2 * units]
    return dz_all


def _check_input(layer, inputs) -> np.ndarray:
    """``inputs`` as a float ``(batch, time, features)`` array; builds ``layer``."""
    kind = type(layer).__name__
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 3:
        raise ShapeError(
            f"{kind} expects a 3-D input (batch, time, features), got shape {inputs.shape}"
        )
    if inputs.shape[1] == 0:
        raise ShapeError(f"{kind} received an input with zero timesteps")
    layer.ensure_built(inputs.shape[2])
    if inputs.shape[2] != layer.input_dim:
        raise ShapeError(
            f"{kind} {layer.name!r} was built with input_dim={layer.input_dim}, "
            f"got input with {inputs.shape[2]} features"
        )
    return inputs


class LSTM(Layer):
    """A single LSTM layer over 3-D inputs ``(batch, time, features)``."""

    def __init__(
        self,
        units: int,
        return_sequences: bool = False,
        kernel_initializer: str = "glorot_uniform",
        recurrent_initializer: str = "orthogonal",
        bias_initializer: str = "zeros",
        kernel_regularizer: Union[Regularizer, str, float, None] = None,
        unit_forget_bias: bool = True,
        double_bias: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.units = int(check_positive(units, "units"))
        self.return_sequences = bool(return_sequences)
        self.kernel_initializer = kernel_initializer
        self.recurrent_initializer = recurrent_initializer
        self.bias_initializer = bias_initializer
        self.kernel_regularizer = get_regularizer(kernel_regularizer)
        self.unit_forget_bias = bool(unit_forget_bias)
        self.double_bias = bool(double_bias)
        self.input_dim: Optional[int] = None

        # Populated by forward/backward.
        self.last_state: Optional[State] = None
        self.grad_initial_state: Optional[State] = None
        self._cache: Optional[_SequenceCache] = None

    # -- lifecycle ---------------------------------------------------------

    def build(self, input_dim: int) -> None:
        self.input_dim = int(input_dim)
        kernel_init = get_initializer(self.kernel_initializer)
        recurrent_init = get_initializer(self.recurrent_initializer)
        bias_init = get_initializer(self.bias_initializer)
        units = self.units
        self.params["kernel"] = kernel_init((self.input_dim, 4 * units), self._rng)
        self.params["recurrent_kernel"] = recurrent_init((units, 4 * units), self._rng)
        bias = bias_init((4 * units,), self._rng)
        if self.unit_forget_bias:
            bias[units: 2 * units] = 1.0
        self.params["bias"] = bias
        if self.double_bias:
            self.params["recurrent_bias"] = bias_init((4 * units,), self._rng)

    # -- forward -----------------------------------------------------------

    def forward(
        self,
        inputs: np.ndarray,
        training: bool = False,
        initial_state: Optional[State] = None,
    ) -> np.ndarray:
        inputs = _check_input(self, inputs)
        batch, units = inputs.shape[0], self.units
        if initial_state is not None:
            # Copies: an inference pass updates its state buffers in place.
            h, c = (np.array(state, dtype=float) for state in initial_state)
            if h.shape != (batch, units) or c.shape != (batch, units):
                raise ShapeError(
                    f"initial_state must be two arrays of shape {(batch, units)}, "
                    f"got {h.shape} and {c.shape}"
                )
        else:
            h, c = np.zeros((2, batch, units))

        h, c, outputs, self._cache = _forward_steps(
            inputs, self._input_projection(inputs), self.params["recurrent_kernel"],
            self._bias(), h, c, training, self.return_sequences,
        )
        self.last_state = (h, c)
        return outputs.transpose(1, 0, 2) if self.return_sequences else h

    def _input_projection(self, inputs: np.ndarray, out: Optional[np.ndarray] = None):
        """Every timestep's input side in one matmul, ``(batch, time, 4 * units)``."""
        flat = inputs.reshape(-1, inputs.shape[2])
        flat_out = None if out is None else out.reshape(len(flat), -1)
        projection = np.matmul(flat, self.params["kernel"], out=flat_out)
        return projection.reshape(inputs.shape[:2] + (-1,))

    def _bias(self) -> np.ndarray:
        bias = self.params["bias"]
        return bias + self.params["recurrent_bias"] if self.double_bias else bias

    # -- backward ----------------------------------------------------------

    def backward(
        self,
        grad_output: np.ndarray,
        grad_state: Optional[State] = None,
    ) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward(training=True) on LSTM layer")
        cache = self._cache
        batch, timesteps, _features = cache.inputs.shape
        units = self.units
        grad_output = np.asarray(grad_output, dtype=float)

        if self.return_sequences:
            if grad_output.shape != (batch, timesteps, units):
                raise ShapeError(
                    f"grad_output must have shape {(batch, timesteps, units)}, got {grad_output.shape}"
                )
            grad_h_seq = grad_output.transpose(1, 0, 2)
        else:
            if grad_output.shape != (batch, units):
                raise ShapeError(
                    f"grad_output must have shape {(batch, units)}, got {grad_output.shape}"
                )
            grad_h_seq = np.zeros((timesteps, batch, units))
            grad_h_seq[-1] = grad_output

        dh_next, dc = np.zeros((2, batch, units))  # dc: dc_next on entry to a step
        for total, extra in zip((dh_next, dc), () if grad_state is None else grad_state):
            total += np.asarray(extra, dtype=float)
        dz_all = _bptt_steps(cache, grad_h_seq, self.params["recurrent_kernel"].T, dh_next, dc)
        self.grad_initial_state = (dh_next, dc)
        return self._weight_gradients(cache.inputs, cache.h_states, dz_all)

    def _weight_gradients(self, inputs, h_states, dz_all) -> np.ndarray:
        """Write the parameter gradients of time-major ``dz_all``; return the input's."""
        batch, timesteps, features = inputs.shape
        units = self.units
        # Contract the whole sequence at once: sum over batch and time axes,
        # batch-major, the order the float sums have always run in.
        dz_all = np.ascontiguousarray(dz_all.transpose(1, 0, 2))
        flat_dz = dz_all.reshape(batch * timesteps, 4 * units)
        grads = self.gradient_buffers()
        kernel = self.params["kernel"]
        np.matmul(inputs.reshape(batch * timesteps, features).T, flat_dz, out=grads["kernel"])
        # ``np.tensordot`` over (batch, time), spelled out so the product has an ``out``.
        h_prev = h_states[:-1].transpose(2, 1, 0).reshape(units, batch * timesteps)
        np.dot(h_prev, flat_dz, out=grads["recurrent_kernel"])
        np.sum(flat_dz, axis=0, out=grads["bias"])
        if self.double_bias:
            grads["recurrent_bias"][...] = grads["bias"]
        grad_inputs = (flat_dz @ kernel.T).reshape(batch, timesteps, features)

        if not isinstance(self.kernel_regularizer, ZeroRegularizer):
            grads["kernel"] += self.kernel_regularizer.gradient(kernel)
        return grad_inputs

    def release_training_buffers(self) -> None:
        """Also drop the last ``backward``'s initial-state gradient."""
        super().release_training_buffers()
        self.grad_initial_state = None

    # -- misc ----------------------------------------------------------------

    def regularization_penalty(self) -> float:
        if not self.built:
            return 0.0
        return self.kernel_regularizer.penalty(self.params["kernel"])

    def get_config(self) -> dict:
        config = super().get_config()
        config.update(
            {
                "units": self.units,
                "return_sequences": self.return_sequences,
                "kernel_initializer": self.kernel_initializer,
                "recurrent_initializer": self.recurrent_initializer,
                "bias_initializer": self.bias_initializer,
                "kernel_regularizer": self.kernel_regularizer.get_config(),
                "unit_forget_bias": self.unit_forget_bias,
                "double_bias": self.double_bias,
            }
        )
        return config

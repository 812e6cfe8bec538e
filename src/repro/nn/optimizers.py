"""Gradient-descent optimisers: RMSProp and Adam.

The paper trains its seq2seq models with RMSProp; the autoencoders and the
policy network use Adam.  Both optimisers share the same interface so models
can swap them freely.

Parameters are updated *in place*, ``_BLOCK`` elements at a time through two
block-sized scratch rows, so a step allocates no parameter-sized array.  The
moments are one flat buffer addressed by *position* in the ``(param, grad)``
list of the first step; every later step must bring the same shapes.  Adjacent
parameters smaller than a block lie side by side in that buffer and share one
block: their gradients are gathered into a row laid out with the moments,
so a run of small tensors costs one block's ufunc calls instead of one set
per tensor.

A step over ``_SPLIT`` or more elements is cut at its element midpoint into
two halves with scratch rows of their own; inside :meth:`Optimizer.worker`,
which ``ReconstructionModel.fit`` opens, a worker thread walks the second half
while the caller walks the first.  Every element gets the same ufuncs in the
same order either way, so the weights are the same bits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.host import available_cpus
from repro.utils.validation import check_positive

ParamGrad = Tuple[np.ndarray, np.ndarray]

#: Elements updated per pass, so that a block's parameter, gradient, moments and
#: scratch stay in L2 across the step's ~12 ufunc calls (DESIGN.md, *The training step*).
_BLOCK = 16384

#: Steps over at least this many elements are split in two halves, one per
#: thread, inside :meth:`Optimizer.worker` (DESIGN.md, *The training step*).
_SPLIT = 8 * _BLOCK


class Optimizer:
    """Base optimiser interface.

    Subclasses set ``_n_moments`` and implement :meth:`_update_block`, which
    updates one block of moments in place and returns the block's update;
    :meth:`step` subtracts it from the parameters the block covers.
    """

    _n_moments = 0

    def __init__(self, learning_rate: float = 0.001, clip_norm: float | None = None) -> None:
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        if clip_norm is not None:
            clip_norm = check_positive(clip_norm, "clip_norm")
        self.clip_norm = clip_norm
        self._worker: ThreadPoolExecutor | None = None
        self.reset()

    # -- public API --------------------------------------------------------

    def step(self, params_and_grads: Iterable[ParamGrad]) -> None:
        """Apply one update step to every (parameter, gradient) pair."""
        pairs: List[ParamGrad] = list(params_and_grads)
        shapes = [param.shape for param, _ in pairs]
        if shapes != [grad.shape for _, grad in pairs]:
            raise ConfigurationError(f"parameter shapes {shapes} do not match their gradients'")
        if self._shapes is None:
            self._shapes = shapes
            self._plan, self._cut = self._lay_out(shapes)
        elif shapes != self._shapes:
            raise ConfigurationError(
                f"optimiser state was laid out for parameter shapes {self._shapes}, got {shapes}"
            )
        if self.clip_norm is not None:
            # Global norm from per-array sums; gradients are copied only when scaled.
            total = float(np.sqrt(sum(float(np.sum(np.square(g))) for _, g in pairs)))
            if total > self.clip_norm:
                pairs = [(p, g * (self.clip_norm / total)) for p, g in pairs]
        self.iterations += 1
        self._moment_steps += 1
        # Parameters updated in place are read through flat views, cut here so
        # that both halves of a split step write the same one; a non-contiguous
        # parameter flattens to a copy, written back once the step is done.
        flats = {
            index: (pairs[index][0].reshape(-1), pairs[index][1].reshape(-1))
            for index, gathered, _ in self._plan if gathered is None
        }
        plan, cut = self._plan, self._cut
        if cut < len(plan) and self._worker is not None:
            second = self._worker.submit(self._walk, plan[cut:], pairs, flats)
            try:
                self._walk(plan[:cut], pairs, flats)
            finally:
                wait((second,))  # neither half outlives the step, even on an error
            second.result()
        else:
            self._walk(plan, pairs, flats)
        for index, (flat, _) in flats.items():
            param = pairs[index][0]
            if not param.flags.c_contiguous:
                param[...] = flat.reshape(param.shape)

    def _walk(self, entries, pairs, flats) -> None:
        """Update the blocks of ``entries``, a run of the plan."""
        for members, gathered, work in entries:
            if gathered is not None:
                # Small parameters sharing a block: gather, update once, scatter.
                for index, _, into in members:
                    np.copyto(into, pairs[index][1])
                update = self._update_block(gathered, *work)
                for index, where, _ in members:
                    param = pairs[index][0]
                    param -= update[where].reshape(param.shape)
                continue
            # One parameter, read and updated where it lives, block by block.
            flat, flat_grad = flats[members]
            for where, *buffers in work:
                target = flat[where]
                target -= self._update_block(flat_grad[where], *buffers)

    @contextmanager
    def worker(self) -> Iterator[None]:
        """While open, run the second half of each split step on a worker thread.

        A step of at least ``_SPLIT`` elements is laid out as two halves; the
        calling thread walks the first while one worker thread walks the
        second, one handoff per step.  With fewer than two CPUs to run on the
        step stays on the calling thread.  The thread starts on the first
        split step and is joined when the block exits, however it exits.
        """
        if self._worker is not None or available_cpus() < 2:
            yield
            return
        self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="optimizer-step")
        try:
            yield
        finally:
            worker, self._worker = self._worker, None
            worker.shutdown(wait=True)

    def _lay_out(self, shapes) -> Tuple[list, int]:
        """The moment buffer and the views each step walks, cut once.

        A run of adjacent parameters smaller than ``_BLOCK`` whose sizes sum to
        at most ``_BLOCK`` becomes one *packed* entry ``(members, gathered,
        buffers)``: ``gathered`` is the run's own gradient row, and per member
        its position, its slice of the block and its view of ``gathered``.
        Any other parameter is an *in-place* entry ``(position, None,
        [(slice, *buffers), ...])``, one slice per block.  ``buffers`` are the
        block's moment rows, then two scratch rows.

        Returns the plan and its cut: with ``_SPLIT`` or more elements, the
        blocks that start at or past the element midpoint form the second
        half, ``plan[cut:]``, with scratch rows of its own (a parameter whose
        blocks straddle the midpoint has one entry in each half); otherwise
        ``cut == len(plan)``.
        """
        sizes = [int(np.prod(shape)) for shape in shapes]
        offsets = np.cumsum([0] + sizes).tolist()
        moments = np.zeros((self._n_moments, offsets[-1]))
        split = offsets[-1] >= _SPLIT
        middle = offsets[-1] // 2 if split else offsets[-1]  # where the second half starts
        scratch = np.empty((1 + split, 2, _BLOCK))
        runs: List[List[int]] = []
        room = -1
        for index, size in enumerate(sizes):
            if size < _BLOCK and size <= room:
                runs[-1].append(index)
                room -= size
            else:
                runs.append([index])
                room = _BLOCK - size if size < _BLOCK else -1
        halves: Tuple[list, list] = ([], [])
        for run in runs:
            start, stop = offsets[run[0]], offsets[run[-1] + 1]
            if len(run) > 1:
                half = int(start >= middle)
                gathered = np.empty(stop - start)
                members = []
                for index in run:
                    where = slice(offsets[index] - start, offsets[index + 1] - start)
                    members.append((index, where, gathered[where].reshape(shapes[index])))
                work = (*moments[:, start:stop], *scratch[half, :, : stop - start])
                halves[half].append((members, gathered, work))
                continue
            size = sizes[run[0]]
            blocks: Tuple[list, list] = ([], [])
            for at in range(0, size, _BLOCK):
                half = int(start + at >= middle)
                blocks[half].append(
                    (slice(at, at + _BLOCK),
                     *moments[:, start + at: start + min(at + _BLOCK, size)],
                     *scratch[half, :, : size - at])
                )
            for half, work in enumerate(blocks):
                if work:
                    halves[half].append((run[0], None, work))
        return halves[0] + halves[1], len(halves[0])

    def _update_block(self, grad, *buffers) -> np.ndarray:
        """Update one block's moments in place and return the block's update
        (``param -= update``); ``buffers`` = its moment rows, then two scratch rows."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all optimiser state (momenta, moving averages, step count)."""
        self._shapes = self._plan = self._cut = None
        self.iterations = self._moment_steps = 0

    def __getstate__(self) -> dict:
        """Configuration and ``iterations`` only: a copy starts from zero moments
        and with no worker thread."""
        return {
            **self.__dict__, "_shapes": None, "_plan": None, "_cut": None,
            "_moment_steps": 0, "_worker": None,
        }

    def get_config(self) -> dict:
        """JSON-serialisable optimiser configuration."""
        return {
            "type": type(self).__name__,
            "learning_rate": self.learning_rate,
            "clip_norm": self.clip_norm,
        }


class RMSProp(Optimizer):
    """RMSProp: scale the step by a moving RMS of recent gradients."""

    _n_moments = 1

    def __init__(
        self,
        learning_rate: float = 0.001,
        rho: float = 0.9,
        epsilon: float = 1e-7,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__(learning_rate, clip_norm)
        if not 0.0 < rho < 1.0:
            raise ConfigurationError(f"rho must lie in (0, 1), got {rho}")
        self.rho = float(rho)
        self.epsilon = check_positive(epsilon, "epsilon")

    def _update_block(self, grad, mean_square, a, b):
        mean_square *= self.rho
        mean_square += np.multiply(np.square(grad, out=a), 1.0 - self.rho, out=a)
        # (lr * g) / (sqrt(ms) + eps), the order the update has always had.
        np.multiply(grad, self.learning_rate, out=a)
        a /= np.add(np.sqrt(mean_square, out=b), self.epsilon, out=b)
        return a

    def get_config(self) -> dict:
        config = super().get_config()
        config.update({"rho": self.rho, "epsilon": self.epsilon})
        return config


class Adam(Optimizer):
    """Adam optimiser with bias-corrected first and second moments."""

    _n_moments = 2

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        epsilon: float = 1e-8,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__(learning_rate, clip_norm)
        if not 0.0 <= beta_1 < 1.0:
            raise ConfigurationError(f"beta_1 must lie in [0, 1), got {beta_1}")
        if not 0.0 <= beta_2 < 1.0:
            raise ConfigurationError(f"beta_2 must lie in [0, 1), got {beta_2}")
        self.beta_1 = float(beta_1)
        self.beta_2 = float(beta_2)
        self.epsilon = check_positive(epsilon, "epsilon")

    def _update_block(self, grad, m, v, a, b):
        t = float(self._moment_steps)  # steps since the moments were zero
        m *= self.beta_1
        m += np.multiply(grad, 1.0 - self.beta_1, out=a)
        v *= self.beta_2
        v += np.multiply(np.square(grad, out=a), 1.0 - self.beta_2, out=a)
        # (lr * (m / c1)) / (sqrt(v / c2) + eps), the order the update has always had.
        np.multiply(np.divide(m, 1.0 - self.beta_1**t, out=a), self.learning_rate, out=a)
        np.sqrt(np.divide(v, 1.0 - self.beta_2**t, out=b), out=b)
        a /= np.add(b, self.epsilon, out=b)
        return a

    def get_config(self) -> dict:
        config = super().get_config()
        config.update(
            {"beta_1": self.beta_1, "beta_2": self.beta_2, "epsilon": self.epsilon}
        )
        return config


_REGISTRY = {
    "rmsprop": RMSProp,
    "adam": Adam,
}


def get_optimizer(spec: Union[str, Optimizer, None], **kwargs) -> Optimizer:
    """Resolve an optimiser by name (with keyword overrides) or pass through."""
    if spec is None:
        return RMSProp(**kwargs)
    if isinstance(spec, Optimizer):
        return spec
    try:
        cls = _REGISTRY[str(spec).lower()]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown optimizer {spec!r}; available: {sorted(_REGISTRY)}"
        ) from exc
    return cls(**kwargs)

"""Tests for repro.nn.losses, repro.nn.regularizers and repro.nn.optimizers."""

import copy
import pickle
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import optimizers
from repro.nn.losses import MeanSquaredError, get_loss
from repro.nn.optimizers import _BLOCK, _SPLIT, Adam, Optimizer, RMSProp, get_optimizer
from repro.nn.regularizers import L2Regularizer, ZeroRegularizer, get_regularizer


class TestLosses:
    def test_mse_value_and_gradient(self):
        loss = MeanSquaredError()
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        assert loss.value(pred, target) == pytest.approx(2.5)
        np.testing.assert_allclose(loss.gradient(pred, target), [[1.0, 2.0]])

    # A batch of vectors (the autoencoders) and of sequences (seq2seq).
    @pytest.mark.parametrize("shape", [(4, 3), (2, 5, 3)], ids=["batch", "sequence-batch"])
    def test_gradient_matches_finite_difference(self, shape):
        loss = MeanSquaredError()
        rng = np.random.default_rng(0)
        pred = rng.normal(size=shape)
        target = rng.normal(size=shape)
        analytic = loss.gradient(pred, target)
        eps = 1e-6
        numeric = np.zeros_like(pred)
        for index in np.ndindex(pred.shape):
            perturbed = pred.copy()
            perturbed[index] += eps
            plus = loss.value(perturbed, target)
            perturbed[index] -= 2 * eps
            minus = loss.value(perturbed, target)
            numeric[index] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            MeanSquaredError().value(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_get_loss_by_name(self):
        assert isinstance(get_loss("mse"), MeanSquaredError)
        assert isinstance(get_loss("mean_squared_error"), MeanSquaredError)
        assert isinstance(get_loss(None), MeanSquaredError)

    def test_get_loss_unknown(self):
        with pytest.raises(ConfigurationError):
            get_loss("cross-entropy-of-doom")


class TestRegularizers:
    def test_l2_penalty_and_gradient(self):
        reg = L2Regularizer(strength=0.1)
        w = np.array([1.0, -2.0])
        assert reg.penalty(w) == pytest.approx(0.5)
        np.testing.assert_allclose(reg.gradient(w), [0.2, -0.4])

    def test_zero_regularizer(self):
        reg = ZeroRegularizer()
        w = np.ones(3)
        assert reg.penalty(w) == 0.0
        np.testing.assert_array_equal(reg.gradient(w), np.zeros(3))

    def test_get_regularizer_resolution(self):
        assert isinstance(get_regularizer(None), ZeroRegularizer)
        assert isinstance(get_regularizer(1e-4), L2Regularizer)
        assert isinstance(get_regularizer("none"), ZeroRegularizer)
        instance = L2Regularizer(0.3)
        assert get_regularizer(instance) is instance

    @pytest.mark.parametrize(
        "name, cls", [("l2", L2Regularizer), ("L2", L2Regularizer),
                      ("none", ZeroRegularizer), ("zero", ZeroRegularizer)],
    )
    def test_every_listed_name_resolves(self, name, cls):
        reg = get_regularizer(name)
        assert type(reg) is cls
        assert get_regularizer(reg.get_config()["type"]).get_config() == reg.get_config()

    @pytest.mark.parametrize("spec", [object(), True, "ridge"], ids=["object", "bool", "ridge"])
    def test_get_regularizer_invalid(self, spec):
        with pytest.raises(ConfigurationError, match="available"):
            get_regularizer(spec)

    def test_negative_strength_rejected(self):
        with pytest.raises(ConfigurationError):
            L2Regularizer(strength=-1.0)


def _quadratic_descent(optimizer, steps=400):
    """Minimise f(w) = ||w||^2 / 2 starting from ones; returns the final norm."""
    w = np.ones(5)
    for _ in range(steps):
        grad = w.copy()
        optimizer.step([(w, grad)])
    return float(np.linalg.norm(w))


class TestOptimizers:
    @pytest.mark.parametrize(
        "optimizer",
        [
            RMSProp(learning_rate=0.01),
            Adam(learning_rate=0.1),
            RMSProp(learning_rate=0.01, clip_norm=0.5),
            Adam(learning_rate=0.1, clip_norm=0.5),
        ],
    )
    def test_converges_on_quadratic(self, optimizer):
        assert _quadratic_descent(optimizer) < 0.05

    @pytest.mark.parametrize("cls", [RMSProp, Adam])
    def test_clipping_leaves_the_callers_gradients_untouched(self, cls):
        grads = [np.full(3, 4.0), np.full((2, 2), -3.0)]
        before = [grad.copy() for grad in grads]
        params = [np.zeros(3), np.zeros((2, 2))]
        cls(clip_norm=0.1).step(list(zip(params, grads)))
        for grad, want in zip(grads, before):
            np.testing.assert_array_equal(grad, want)
        assert all(np.all(param != 0.0) for param in params)

    def test_step_updates_in_place(self):
        w = np.ones(3)
        original = w
        Adam(learning_rate=0.5).step([(w, np.ones(3))])
        assert original is w
        np.testing.assert_allclose(w, 0.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            Adam().step([(np.ones(3), np.ones(4))])

    def test_reset_clears_state(self):
        opt = Adam(learning_rate=0.1)
        w = np.ones(2)
        opt.step([(w, np.ones(2))])
        assert opt.iterations == 1
        opt.reset()
        assert opt.iterations == 0
        fresh, again = np.ones(2), np.ones(2)
        Adam(learning_rate=0.1).step([(fresh, np.ones(2))])
        opt.step([(again, np.ones(2))])
        np.testing.assert_array_equal(again, fresh)

    def test_get_optimizer_by_name(self):
        assert isinstance(get_optimizer("rmsprop"), RMSProp)
        assert isinstance(get_optimizer("adam"), Adam)
        assert isinstance(get_optimizer(None), RMSProp)

    def test_get_optimizer_kwargs_forwarded(self):
        opt = get_optimizer("rmsprop", learning_rate=0.25, rho=0.5)
        assert opt.learning_rate == 0.25
        assert opt.rho == 0.5

    def test_get_optimizer_unknown(self):
        with pytest.raises(ConfigurationError):
            get_optimizer("adagradzilla")

    @pytest.mark.parametrize(
        "cls, kwargs, name",
        [
            (RMSProp, {"rho": 1.5}, "rho"),
            (Adam, {"beta_1": 1.0}, "beta_1"),
            (Adam, {"learning_rate": 0.0}, "learning_rate"),
            (RMSProp, {"rho": 0.0}, "rho"),
            (RMSProp, {"rho": 1.0}, "rho"),
            (RMSProp, {"epsilon": 0.0}, "epsilon"),
            (RMSProp, {"learning_rate": float("nan")}, "learning_rate"),
            (Adam, {"beta_1": -0.1}, "beta_1"),
            (Adam, {"beta_2": 1.0}, "beta_2"),
            (Adam, {"epsilon": -1e-8}, "epsilon"),
            (Adam, {"clip_norm": 0.0}, "clip_norm"),
            (Adam, {"clip_norm": float("inf")}, "clip_norm"),
        ],
    )
    def test_invalid_hyperparameters(self, cls, kwargs, name):
        with pytest.raises(ConfigurationError, match=name):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "optimizer",
        [
            RMSProp(),
            RMSProp(learning_rate=0.01, rho=0.5, epsilon=1e-4, clip_norm=2.0),
            Adam(),
            Adam(learning_rate=0.01, beta_1=0.0, beta_2=0.9, epsilon=1e-6, clip_norm=1.0),
        ],
    )
    def test_config_rebuilds_an_equal_optimizer(self, optimizer):
        config = optimizer.get_config()
        rebuilt = get_optimizer(config["type"], **{k: v for k, v in config.items() if k != "type"})
        assert type(rebuilt) is type(optimizer)
        assert rebuilt.get_config() == config

    def test_config_contains_type(self):
        assert Adam().get_config()["type"] == "Adam"
        assert "rho" in RMSProp().get_config()


# -- the in-place, cache-blocked step against the formulas it replaced ---------
#
# The references below are the allocate-per-step updates the optimisers used
# before the step went in place: one fresh array per sub-expression, state per
# parameter.  The arithmetic is unchanged, so the results must be *equal*.


def _clipped(grads, clip_norm):
    if clip_norm is None:
        return grads
    total = float(np.sqrt(sum(float(np.sum(np.square(g))) for g in grads)))
    if total <= clip_norm or total == 0.0:
        return grads
    return [g * (clip_norm / total) for g in grads]


def _reference_rmsprop(params, grads, state, step, learning_rate=0.001, rho=0.9, epsilon=1e-7):
    for index, (param, grad) in enumerate(zip(params, grads)):
        mean_square = state.setdefault(index, np.zeros_like(param))
        mean_square *= rho
        mean_square += (1.0 - rho) * np.square(grad)
        param -= learning_rate * grad / (np.sqrt(mean_square) + epsilon)


def _reference_adam(
    params, grads, state, step, learning_rate=0.001, beta_1=0.9, beta_2=0.999, epsilon=1e-8
):
    for index, (param, grad) in enumerate(zip(params, grads)):
        m, v = state.setdefault(index, (np.zeros_like(param), np.zeros_like(param)))
        m *= beta_1
        m += (1.0 - beta_1) * grad
        v *= beta_2
        v += (1.0 - beta_2) * np.square(grad)
        m_hat = m / (1.0 - beta_1 ** float(step))
        v_hat = v / (1.0 - beta_2 ** float(step))
        param -= learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)


class _PerParameterStep:
    """The step before small parameters were packed: each parameter walked on
    its own, block by block, through ``optimizer._update_block``."""

    def __init__(self, optimizer):
        self.optimizer = optimizer
        self.moments = None
        self.scratch = np.empty((2, _BLOCK))

    def step(self, pairs):
        optimizer = self.optimizer
        if self.moments is None:
            self.moments = [np.zeros((optimizer._n_moments, p.size)) for p, _ in pairs]
        if optimizer.clip_norm is not None:
            total = float(np.sqrt(sum(float(np.sum(np.square(g))) for _, g in pairs)))
            if total > optimizer.clip_norm:
                pairs = [(p, g * (optimizer.clip_norm / total)) for p, g in pairs]
        optimizer.iterations += 1
        optimizer._moment_steps += 1
        for (param, grad), rows in zip(pairs, self.moments):
            flat, flat_grad = param.reshape(-1), grad.reshape(-1)
            for at in range(0, param.size, _BLOCK):
                where = slice(at, at + _BLOCK)
                target = flat[where]
                target -= optimizer._update_block(
                    flat_grad[where], *rows[:, where], *self.scratch[:, : param.size - at]
                )
            if not param.flags.c_contiguous:
                param[...] = flat.reshape(param.shape)


#: Two packed small parameters, three large ones in place, a run of small ones
#: that sums past one block, and (replaced in the test) a non-contiguous member.
_MIXED_SHAPES = [
    (1,), (3,), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,),
    (50, 80), (50, 80), (50, 80), (50, 80), (50, 80), (7,), (30, 40),
]
#: The paper-scale cloud autoencoder's tensors (672-512-256-128-256-512-672),
#: past ``_SPLIT``, with a non-contiguous tensor across the element midpoint
#: (replaced in the test) and a packed run of small tensors.
_AE_CLOUD_SHAPES = [
    (672, 512), (512,), (512, 256), (256,), (256, 128), (128,),
    (128, 256), (256,), (256, 512), (512,), (512, 672), (672,),
]
_SPLIT_SHAPES = [
    *_AE_CLOUD_SHAPES[:6], (300, 300), (50, 80), (50, 80), (50, 80), (7,), *_AE_CLOUD_SHAPES[6:],
]
_STEP_SHAPES = [(1,), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (3 * _BLOCK + 7,), (37, 911)]
_STEP_CASES = [
    pytest.param(RMSProp, {}, _reference_rmsprop, id="rmsprop"),
    pytest.param(Adam, {}, _reference_adam, id="adam"),
    # Off the defaults, so a kernel that read a default instead of its own
    # hyperparameter would differ.
    pytest.param(RMSProp, {"learning_rate": 0.01, "rho": 0.5, "epsilon": 1e-4},
                 _reference_rmsprop, id="rmsprop-tuned"),
    pytest.param(Adam, {"learning_rate": 0.01, "beta_1": 0.5, "beta_2": 0.9, "epsilon": 1e-6},
                 _reference_adam, id="adam-tuned"),
    pytest.param(Adam, {"beta_1": 0.0}, _reference_adam, id="adam-no-momentum"),
]
#: The per-parameter walk is the reference for a packed layout below
#: ``_SPLIT`` under every case, and for a split one under both optimisers.
_PER_PARAMETER_CASES = [
    pytest.param(*case.values[:2], "mixed", id=case.id) for case in _STEP_CASES
] + [
    pytest.param(*case.values[:2], "split", id=f"{case.id}-split") for case in _STEP_CASES[:2]
]


class TestInPlaceStep:
    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    @pytest.mark.parametrize("cls, kwargs, reference", _STEP_CASES)
    def test_equals_the_allocating_formulas_bit_for_bit(self, cls, kwargs, reference, clip_norm):
        rng = np.random.default_rng(0)
        params = [rng.normal(size=shape) for shape in _STEP_SHAPES]
        expected = [param.copy() for param in params]
        optimizer, state = cls(clip_norm=clip_norm, **kwargs), {}
        for step in range(1, 21):
            # Every other step is small enough that clip_norm=0.5 does not clip.
            scale = 1e-4 if step % 2 else 1.0
            grads = [scale * rng.normal(size=shape) for shape in _STEP_SHAPES]
            reference(expected, _clipped(grads, clip_norm), state, step, **kwargs)
            optimizer.step(list(zip(params, grads)))
        for got, want in zip(params, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("cls, kwargs, reference", _STEP_CASES)
    def test_non_contiguous_parameter_is_still_updated(self, cls, kwargs, reference):
        rng = np.random.default_rng(1)
        storage = rng.normal(size=(5, 3))
        view = storage.T  # reshape(-1) of this view is a copy
        assert not view.flags.c_contiguous
        expected = [view.copy()]
        optimizer, state = cls(**kwargs), {}
        for step in range(1, 4):
            grad = rng.normal(size=view.shape)
            reference(expected, [grad], state, step, **kwargs)
            optimizer.step([(view, grad)])
        np.testing.assert_array_equal(view, expected[0])
        np.testing.assert_array_equal(storage, expected[0].T)

    def test_unclipped_step_reads_the_gradients_it_was_given(self):
        seen = []

        class Recording(Adam):
            def _update_block(self, grad, *buffers):
                seen.append(grad)
                return super()._update_block(grad, *buffers)

        # One large parameter (two blocks, read in place), then two small ones
        # that share a block (gathered into the scratch row).
        grads = [np.full(_BLOCK + 5, 1e-3), np.full(1000, 1e-3), np.full((10, 100), 1e-3)]
        params = [np.zeros(grad.shape) for grad in grads]
        optimizer = Recording()
        optimizer.step(list(zip(params, grads)))  # lays the state out
        seen.clear()
        tracemalloc.start()
        optimizer.step(list(zip(params, grads)))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < grads[1].nbytes // 2  # no array the size of any parameter
        assert [np.shares_memory(block, grads[0]) for block in seen] == [True, True, False]
        assert not any(np.shares_memory(seen[-1], grad) for grad in grads[1:])
        seen.clear()
        Recording(clip_norm=1.0).step(list(zip(params, grads)))
        assert [np.shares_memory(block, grads[0]) for block in seen] == [True, True, False]
        seen.clear()
        Recording(clip_norm=1e-6).step(list(zip(params, grads)))
        assert not any(np.shares_memory(block, grad) for block in seen for grad in grads)

    @pytest.mark.parametrize("cls, kwargs, reference", _STEP_CASES)
    def test_every_unclipped_step_allocates_nothing(self, cls, kwargs, reference):
        grads = [np.full(_BLOCK + 5, 1e-3), np.full(1000, 1e-3), np.full((10, 100), 1e-3)]
        params = [np.zeros(grad.shape) for grad in grads]
        optimizer = cls(**kwargs)
        optimizer.step(list(zip(params, grads)))
        tracemalloc.start()
        optimizer.step(list(zip(params, grads)))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < grads[1].nbytes // 2

    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    @pytest.mark.parametrize("cls, kwargs, layout", _PER_PARAMETER_CASES)
    def test_packed_blocks_equal_the_per_parameter_step(
        self, cls, kwargs, layout, clip_norm, optimizer_cpus
    ):
        rng = np.random.default_rng(2)
        if layout == "mixed":
            params = [rng.normal(size=shape) for shape in _MIXED_SHAPES]
            params[-1] = rng.normal(size=(40, 30)).T  # a non-contiguous member of a packed run
            params.append(rng.normal(size=(130, 130)).T)  # ... and a large one, in place
            odd = -1
        else:
            params = [rng.normal(size=shape) for shape in _SPLIT_SHAPES]
            odd = 6
            params[odd] = rng.normal(size=(300, 300)).T  # straddles the midpoint
        expected = [param.copy(order="K") for param in params]
        assert not params[odd].flags.c_contiguous and not expected[odd].flags.c_contiguous
        optimizer = cls(clip_norm=clip_norm, **kwargs)
        per_parameter = _PerParameterStep(cls(clip_norm=clip_norm, **kwargs))
        optimizer_cpus(2)
        with optimizer.worker():
            for step in range(1, 21):
                scale = 1e-4 if step % 2 else 1.0
                grads = [scale * rng.normal(size=param.shape) for param in params]
                per_parameter.step(list(zip(expected, grads)))
                optimizer.step(list(zip(params, grads)))
        for got, want in zip(params, expected):
            np.testing.assert_array_equal(got, want)
        plan, cut = optimizer._plan, optimizer._cut
        packed = [members for members, gathered, _ in plan if gathered is not None]
        if layout == "mixed":
            assert cut == len(plan)  # below _SPLIT: one half, on the calling thread
            assert [[index for index, _, _ in members] for members in packed] == [
                [0, 1], [5, 6, 7, 8], [9, 10, 11]
            ]
            return
        halves = [
            {index for index, gathered, _ in entries if gathered is None}
            for entries in (plan[:cut], plan[cut:])
        ]
        assert odd in halves[0] and odd in halves[1]  # the non-contiguous one is cut
        assert [[index for index, _, _ in members] for members in packed] == [[7, 8, 9, 10]]

    def test_state_is_positional_so_a_changed_parameter_list_is_refused(self):
        optimizer = Adam()
        pairs = [(np.ones(3), np.ones(3)), (np.ones((2, 2)), np.ones((2, 2)))]
        optimizer.step(pairs)
        with pytest.raises(ConfigurationError, match="laid out"):
            optimizer.step(pairs[:1])
        with pytest.raises(ConfigurationError, match="laid out"):
            optimizer.step([pairs[0], (np.ones(4), np.ones(4))])
        with pytest.raises(ConfigurationError, match="laid out"):
            optimizer.step(pairs + [(np.ones(1), np.ones(1))])
        assert optimizer.iterations == 1
        optimizer.reset()
        optimizer.step(pairs[:1])

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))])
    def test_a_copy_carries_config_and_iterations_but_no_moments(self, duplicate):
        size = 4 * _BLOCK
        optimizer = Adam(learning_rate=0.05, clip_norm=3.0)
        weights = np.ones(size)
        for _ in range(3):
            optimizer.step([(weights, np.ones(size))])
        assert len(pickle.dumps(optimizer)) < 1024  # not 2 x 8 x size bytes of moments
        packed = Adam()
        packed.step([(np.ones(1000), np.ones(1000)), (np.ones(2000), np.ones(2000))])
        assert len(pickle.dumps(packed)) < 1024  # nor a pack's gather row
        clone = duplicate(optimizer)
        assert clone.get_config() == optimizer.get_config()
        assert clone.iterations == 3
        # A continued step on the copy starts from zero moments, like a new optimiser ...
        continued, fresh = np.ones(size), np.ones(size)
        clone.step([(continued, np.full(size, 0.5))])
        Adam(learning_rate=0.05, clip_norm=3.0).step([(fresh, np.full(size, 0.5))])
        np.testing.assert_array_equal(continued, fresh)
        assert clone.iterations == 4
        # ... and the original keeps its own.
        before = weights.copy()
        optimizer.step([(weights, np.full(size, 0.5))])
        assert not np.array_equal(before - weights, 1.0 - fresh)


# -- a split step on two threads ----------------------------------------------


def _optimizer_threads():
    return [t for t in threading.enumerate() if t.name.startswith("optimizer-step")]


@pytest.fixture()
def optimizer_cpus(monkeypatch):
    """``optimizer_cpus(n)``: the CPU count ``Optimizer.worker`` sees."""
    return lambda n: monkeypatch.setattr(optimizers, "available_cpus", lambda: n)


def _fit_ae_edge(epochs=2):
    """An AE-Edge-shaped detector (672-512-256-512-672, past ``_SPLIT``), fitted."""
    from repro.detectors.autoencoder import AutoencoderDetector

    windows = np.random.default_rng(3).normal(size=(40, 672))
    detector = AutoencoderDetector(window_size=672, hidden_sizes=(512, 256, 512), seed=0)
    return detector.fit(windows, epochs=epochs, batch_size=16, early_stopping_patience=None)


class TestTwoThreadStep:
    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_an_error_in_either_half_surfaces_after_both_finish(self, failing, optimizer_cpus):
        optimizer_cpus(2)
        caller, visits = threading.get_ident(), {"caller": 0, "worker": 0}

        class Failing(Adam):
            def _update_block(self, grad, *buffers):
                side = "caller" if threading.get_ident() == caller else "worker"
                if side == failing:
                    raise RuntimeError(f"{side} half failed")
                time.sleep(0.002)
                visits[side] += 1
                return super()._update_block(grad, *buffers)

        optimizer, weights = Failing(), np.zeros(_SPLIT)
        with optimizer.worker():
            with pytest.raises(RuntimeError, match=f"{failing} half failed"):
                optimizer.step([(weights, np.ones(_SPLIT))])
            # The other half ran all four of its blocks before step raised.
            assert visits == {"caller": 0, "worker": 4} if failing == "caller" else {
                "caller": 4, "worker": 0
            }

    def test_a_fit_with_the_worker_equals_one_on_one_cpu(self, optimizer_cpus, monkeypatch):
        threads = set()
        walk = Optimizer._walk

        def spy(self, entries, pairs, flats):
            threads.add(threading.get_ident())
            return walk(self, entries, pairs, flats)

        monkeypatch.setattr(Optimizer, "_walk", spy)
        optimizer_cpus(1)
        alone = _fit_ae_edge()
        assert threads == {threading.get_ident()}
        optimizer_cpus(2)
        split = _fit_ae_edge()
        assert len(threads) == 2  # the second fit's steps ran on a worker too
        for got, want in zip(split.model.parameters_and_gradients(),
                             alone.model.parameters_and_gradients()):
            np.testing.assert_array_equal(got[0], want[0])
        assert split.model.history.losses == alone.model.history.losses
        assert split.scorer.threshold == alone.scorer.threshold
        assert not _optimizer_threads()

    def test_no_thread_outlives_fit_when_it_raises_mid_epoch(self, optimizer_cpus, monkeypatch):
        optimizer_cpus(2)
        steps, alive = [], []
        update = Adam._update_block

        def failing(self, grad, *buffers):
            alive.append(bool(_optimizer_threads()))
            if self._moment_steps == 3:
                raise RuntimeError("step 3 failed")
            steps.append(self._moment_steps)
            return update(self, grad, *buffers)

        monkeypatch.setattr(Adam, "_update_block", failing)
        with pytest.raises(RuntimeError, match="step 3 failed"):
            _fit_ae_edge()
        assert steps and max(steps) == 2 and any(alive)  # mid-epoch, worker running
        assert not _optimizer_threads()

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))])
    def test_a_copy_carries_no_worker(self, duplicate, optimizer_cpus):
        optimizer_cpus(2)
        detector = _fit_ae_edge(epochs=1)
        assert detector.model.optimizer._worker is None and not _optimizer_threads()
        assert duplicate(detector).model.optimizer._worker is None
        optimizer = Adam()
        with optimizer.worker():
            optimizer.step([(np.zeros(_SPLIT), np.ones(_SPLIT))])
            assert optimizer._worker is not None and _optimizer_threads()
            assert duplicate(optimizer)._worker is None
        assert optimizer._worker is None and not _optimizer_threads()

    def test_steps_below_split_or_outside_worker_stay_on_the_caller(self, optimizer_cpus):
        optimizer_cpus(2)
        small = Adam()
        with small.worker():
            small.step([(np.zeros(_SPLIT - 1), np.ones(_SPLIT - 1))])
        assert small._cut == len(small._plan)
        outside = Adam()
        outside.step([(np.zeros(_SPLIT), np.ones(_SPLIT))])
        assert outside._cut < len(outside._plan) and outside._worker is None
        assert not _optimizer_threads()

"""What the traced run wraps, and how spans become per-layer metrics.

Layers are the ``src/repro/`` packages.  ``BOUNDARIES`` lists the public
callables wrapped at each layer boundary; :func:`layer_metrics` turns the
tracer's totals (plus the few numbers only the workloads can see, passed as
``extras``) into every ``per_layer`` metric of ``BENCHMARK.json``.  A layer a
workload never enters reports 0 — that is the prediction, not a gap.
"""

from __future__ import annotations

from typing import Dict

from benchmarks.perf.tracing import Boundary, Tracer


def _rows(index: int):
    """Work units = leading dimension of positional argument ``index``."""
    return lambda args, kwargs, result: len(args[index])


def _result_n(args, kwargs, result) -> float:
    return 0 if result is None else int(result.n)


def _epochs(args, kwargs, result) -> float:
    return args[0].history.epochs


def _dataset_windows(args, kwargs, result) -> float:
    return len(args[0].state.all_windows.windows)


_RUNNER = "repro.experiments.runner:ExperimentRunner."
_STAGES = "repro.experiments.stages:"
_AE = "repro.detectors.autoencoder:AutoencoderDetector."
_S2S = "repro.detectors.lstm_seq2seq:Seq2SeqDetector."
_POLICY = "repro.bandit.policy_network:PolicyNetwork."
_HEC = "repro.hec.simulation:HECSystem."

BOUNDARIES: tuple[Boundary, ...] = (
    # experiments
    (_RUNNER + "prepare_data", "experiments.prepare_data", _dataset_windows),
    (_RUNNER + "fit_detectors", "experiments.fit_detectors", None),
    (_RUNNER + "deploy", "experiments.deploy", None),
    (_RUNNER + "train_policy", "experiments.train_policy", None),
    (_RUNNER + "evaluate", "experiments.evaluate", None),
    (_STAGES + "compute_reward_table", "experiments.reward_table", None),
    # evaluation / schemes (stages resolves evaluate_scheme in its own namespace)
    (_STAGES + "evaluate_scheme", "evaluation.evaluate_scheme", None),
    ("repro.schemes.successive:SuccessiveScheme.run_batch", "schemes.successive", None),
    ("repro.schemes.adaptive:AdaptiveScheme.run_batch", "schemes.adaptive", None),
    # detectors
    (_AE + "fit", "detectors.fit", None),
    (_S2S + "fit", "detectors.fit", None),
    (_AE + "detect", "detectors.ae_detect", _rows(1)),
    (_AE + "detect_arrays", "detectors.ae_detect", _rows(1)),
    (_S2S + "detect", "detectors.seq2seq_detect", _rows(1)),
    (_S2S + "detect_arrays", "detectors.seq2seq_detect", _rows(1)),
    (
        "repro.detectors.scoring:GaussianLogPDScorer.log_probability_density",
        "detectors.scorer_logpd",
        None,
    ),
    # nn
    ("repro.nn.models.sequential:Sequential.fit", "nn.fit", _epochs),
    ("repro.nn.models.seq2seq:Seq2SeqAutoencoder.fit", "nn.fit", _epochs),
    ("repro.nn.models.sequential:Sequential.train_on_batch", "nn.train_on_batch", None),
    ("repro.nn.models.seq2seq:Seq2SeqAutoencoder.train_on_batch", "nn.train_on_batch", None),
    ("repro.nn.optimizers:Optimizer.step", "nn.optimizer_step", None),
    ("repro.nn.layers.dense:Dense.forward", "nn.dense_forward", _rows(1)),
    ("repro.nn.layers.dense:Dense.backward", "nn.dense_backward", _rows(1)),
    ("repro.nn.layers.lstm:LSTM.forward", "nn.lstm_forward", _rows(1)),
    ("repro.nn.layers.lstm:LSTM.backward", "nn.lstm_backward", _rows(1)),
    ("repro.nn.layers.bidirectional:Bidirectional.forward", "nn.bidirectional_forward", _rows(1)),
    ("repro.nn.layers.bidirectional:Bidirectional.backward", "nn.bidirectional_backward", _rows(1)),
    # bandit
    ("repro.bandit.context:UnivariateContextExtractor.extract", "bandit.context_extract", _rows(1)),
    ("repro.bandit.context:EncoderContextExtractor.extract", "bandit.context_extract", _rows(1)),
    (_POLICY + "select_actions", "bandit.policy_select", _rows(1)),
    (_POLICY + "policy_gradient_step", "bandit.reinforce_step", None),
    (_POLICY + "policy_gradient_step_batch", "bandit.reinforce_step", None),
    ("repro.bandit.reinforce:ReinforceTrainer.train", "bandit.reinforce_train", None),
    # hec
    (_HEC + "detect_batch", "hec.detect_batch", _rows(2)),
    (_HEC + "detect_batch_columnar", "hec.detect_batch", _rows(2)),
    # fleet
    ("repro.fleet.devices:DeviceFleet.__init__", "fleet.build", None),
    ("repro.fleet.devices:DeviceFleet.arrivals_columnar", "fleet.arrivals", _result_n),
    ("repro.fleet.metrics:StreamingMetrics.observe", "fleet.metrics_observe", None),
    ("repro.fleet.engine:FleetEngine.run", "fleet.engine_run", None),
)

#: Wrapped only around the checkpoint guard pass of ``stream-warm``.
CHECKPOINT_BOUNDARY: Boundary = (
    "repro.fleet.checkpoint:CheckpointStore.save",
    "fleet.checkpoint_save",
    None,
)

#: Replaced by a lag recorder, not a span: ``submit`` is a coroutine function,
#: thousands of which are in flight at once, so it has no place on a stack.
SUBMIT_TARGET = "repro.serving.server:IngestServer.submit"


def install_submit_lag(tracer: Tracer) -> None:
    """Record how late each ``IngestServer.submit`` was entered (ms after its
    scheduled arrival) into ``tracer.samples['submit_lag_ms']``."""
    lags = tracer.samples.setdefault("submit_lag_ms", [])

    def make(original):
        def submit(self, device_id, window, label=None, arrival_time=None, tick=None):
            if arrival_time is not None:
                lags.append((self._loop.time() - arrival_time) * 1000.0)
            return original(
                self, device_id, window, label=label, arrival_time=arrival_time, tick=tick
            )

        return submit

    tracer.replace(SUBMIT_TARGET, make)


_STAGE_SPANS = tuple(
    f"experiments.{stage}"
    for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy", "evaluate")
)


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from the tracer's totals and the workload's extras.

    ``*_s`` and count metrics are means per traced operation; ``*_per_window``
    metrics divide a boundary's busy time by the windows that crossed it.
    """
    t = tracer
    ops = max(1, n_ops)
    detect_units = t.units("detectors.ae_detect") + t.units("detectors.seq2seq_detect")
    fleet_windows = t.units("fleet.arrivals", parent="fleet.engine_run")
    fleet_ticks = t.calls("fleet.arrivals", parent="fleet.engine_run")
    metrics = {
        # experiments
        **{name + "_s": t.busy(name) / ops for name in _STAGE_SPANS},
        "experiments.reward_table_s": t.busy("experiments.reward_table") / ops,
        "experiments.self_s": sum(t.self_s(name) for name in _STAGE_SPANS) / ops,
        # data
        "data.windows": t.units("experiments.prepare_data") / ops,
        "data.prepare_ns_per_window": _per(
            t.busy("experiments.prepare_data"), t.units("experiments.prepare_data"), 1e9
        ),
        # nn
        "nn.train_batches": t.calls("nn.train_on_batch") / ops,
        "nn.epochs_run": t.units("nn.fit") / ops,
        "nn.optimizer_steps": t.calls("nn.optimizer_step") / ops,
        "nn.train_on_batch_ms": _per(
            t.busy("nn.train_on_batch"), t.calls("nn.train_on_batch"), 1e3
        ),
        "nn.fit_self_s": t.self_s("nn.fit") / ops,
        "nn.optimizer_step_us": _per(
            t.busy("nn.optimizer_step"), t.calls("nn.optimizer_step"), 1e6
        ),
        **{
            f"nn.{layer}_{way}_ns_per_window": _per(
                t.busy(f"nn.{layer}_{way}"), t.units(f"nn.{layer}_{way}"), 1e9
            )
            for layer in ("dense", "lstm", "bidirectional")
            for way in ("forward", "backward")
        },
        # detectors
        "detectors.fit_self_s": t.self_s("detectors.fit") / ops,
        "detectors.ae_detect_ns_per_window": _per(
            t.busy("detectors.ae_detect"), t.units("detectors.ae_detect"), 1e9
        ),
        "detectors.ae_detect_calls": t.calls("detectors.ae_detect") / ops,
        "detectors.seq2seq_detect_ns_per_window": _per(
            t.busy("detectors.seq2seq_detect"), t.units("detectors.seq2seq_detect"), 1e9
        ),
        "detectors.scorer_logpd_ns_per_window": _per(
            t.busy("detectors.scorer_logpd"), detect_units, 1e9
        ),
        "detectors.detect_self_ns_per_window": _per(
            t.self_s("detectors.ae_detect") + t.self_s("detectors.seq2seq_detect"),
            detect_units,
            1e9,
        ),
        # bandit
        "bandit.context_extract_ns_per_window": _per(
            t.busy("bandit.context_extract"), t.units("bandit.context_extract"), 1e9
        ),
        "bandit.policy_select_ns_per_window": _per(
            t.busy("bandit.policy_select"), t.units("bandit.policy_select"), 1e9
        ),
        "bandit.reinforce_steps": t.calls("bandit.reinforce_step") / ops,
        "bandit.reinforce_step_us": _per(
            t.busy("bandit.reinforce_step"), t.calls("bandit.reinforce_step"), 1e6
        ),
        "bandit.reinforce_train_s": t.busy("bandit.reinforce_train") / ops,
        # hec
        "hec.detect_batch_calls": t.calls("hec.detect_batch") / ops,
        "hec.detect_batch_mean_windows": _per(
            t.units("hec.detect_batch"), t.calls("hec.detect_batch")
        ),
        "hec.detect_batch_self_ns_per_window": _per(
            t.self_s("hec.detect_batch"), t.units("hec.detect_batch"), 1e9
        ),
        # evaluation / schemes
        "evaluation.evaluate_scheme_s": t.busy("evaluation.evaluate_scheme") / ops,
        "evaluation.self_s": t.self_s("evaluation.evaluate_scheme") / ops,
        "schemes.successive_s": t.busy("schemes.successive") / ops,
        "schemes.adaptive_s": t.busy("schemes.adaptive") / ops,
        # fleet
        "fleet.windows": fleet_windows / ops,
        "fleet.ticks": fleet_ticks / ops,
        "fleet.windows_per_tick": _per(fleet_windows, fleet_ticks),
        "fleet.build_s": _per(t.busy("fleet.build"), t.calls("fleet.build")),
        "fleet.arrivals_ns_per_window": _per(
            t.busy("fleet.arrivals"), t.units("fleet.arrivals"), 1e9
        ),
        "fleet.metrics_observe_ns_per_window": _per(
            t.busy("fleet.metrics_observe"), fleet_windows, 1e9
        ),
        "fleet.engine_self_ns_per_window": _per(
            t.self_s("fleet.engine_run"), fleet_windows, 1e9
        ),
        # serving
        "serving.self_us_per_request": _per(
            # Children on the event-loop thread (loadgen arrivals, context,
            # policy) are already outside self time; detection runs on the
            # server's executor thread, whose spans have no parent.
            t.self_s("serving.serve_workload") - t.busy("hec.detect_batch", parent=None),
            t.units("serving.serve_workload"),
            1e6,
        ),
        "serving.submit_calls": len(tracer.samples.get("submit_lag_ms", ())) / ops,
        # harness
        "trace.unattributed_share": _per(t.self_s("op"), t.busy("op")),
    }
    metrics.update(extras)
    return metrics

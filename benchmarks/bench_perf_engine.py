"""Perf benchmark — the batched execution engine.

Times the two hot paths the execution engine vectorises, on the fig-2
univariate workload:

* **policy training** — per-sample REINFORCE (``batch_size=1``, the paper's
  loop) against the minibatched trainer (one fused forward/backward/optimizer
  step per minibatch);
* **scheme evaluation** — each scheme's ``run_batch`` driver (one batched
  detector call per layer) over the tiled test set, as a wall-clock
  trajectory.  Scheme *outcomes* are pinned by ``tests/goldens/schemes/``,
  not here.

The workload is tiled to a few hundred windows so the timings are stable on a
shared CI runner; every timing is the best of several repeats.  Results are
written machine-readable to ``benchmarks/results/perf_engine.json`` so future
PRs have a performance trajectory to regress against.

On top of the kernel timings, the report records one **end-to-end wall-clock
entry per built-in fast scenario** (``scenario_runs``): a single
``ExperimentRunner(spec).run()`` per scenario, so the trajectory also catches
whole-pipeline regressions, not just kernel slowdowns.  The standalone entry
point accepts ``--scenario`` to run the kernel benchmarks against any
registered scenario's pipeline result.

Equivalence policy: minibatched policy training samples actions from the same
distribution as the per-sample loop but with a different RNG stream, so it is
held to a documented stochastic tolerance on the final greedy reward.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bandit.policy_network import PolicyNetwork
from repro.bandit.reinforce import ReinforceTrainer
from repro.evaluation.experiment import evaluate_scheme
from repro.experiments import SCENARIOS, ExperimentRunner, get_scenario
from repro.experiments.stages import TIERS, compute_reward_table
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.fixed import FixedLayerScheme
from repro.schemes.successive import SuccessiveScheme

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Training episodes per timed run (small: the *ratio* is what matters).
TRAIN_EPISODES = 6
#: Minibatch sizes to compare against the sequential (batch_size=1) path.
TRAIN_BATCH_SIZES = (8, 32, 64)
#: Tile factors: blow the small fixture workload up to a stable-timing size.
TRAIN_TILE = 8
EVAL_TILE = 8
#: Timings take the best of this many repeats.
REPEATS = 5
#: Acceptance thresholds (see ISSUE/acceptance criteria).
MIN_TRAINING_SPEEDUP = 5.0
#: Stochastic-equivalence tolerance on the final greedy mean reward between
#: sequential and minibatched training (sampled actions, different RNG stream).
TRAINING_REWARD_TOLERANCE = 0.3


def _best_of(fn, repeats: int = REPEATS):
    """(best wall-clock seconds, last result) over ``repeats`` runs of ``fn``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _fig2_workload(result):
    """Tiled contexts/reward table of the fig-2 policy-training benchmark."""
    windows = result.test_windows
    labels = result.test_labels
    contexts = result.context_extractor.extract(windows)
    detectors_by_layer = [result.detectors[tier] for tier in TIERS]
    rewards = compute_reward_table(
        result.system, detectors_by_layer, windows, labels, result.reward_fn
    )
    contexts = np.tile(contexts, (TRAIN_TILE, 1))
    rewards = np.tile(rewards, (TRAIN_TILE, 1))
    return contexts, rewards


def _timed_training(contexts, rewards, batch_size):
    def run():
        policy = PolicyNetwork(
            context_dim=contexts.shape[1],
            n_actions=rewards.shape[1],
            hidden_units=100,
            learning_rate=5e-3,
            seed=1,
        )
        trainer = ReinforceTrainer(policy, rng=1, batch_size=batch_size)
        trainer.train(contexts, rewards, episodes=TRAIN_EPISODES)
        return trainer
    return _best_of(run)


def _scheme_factories(result, windows):
    extractor = result.context_extractor
    policy = result.policy
    factories = {}
    for layer in range(result.system.n_layers):
        scheme = FixedLayerScheme(result.system, layer)
        factories[scheme.name] = (
            lambda chosen=layer: FixedLayerScheme(result.system, chosen)
        )
    factories["Successive"] = lambda: SuccessiveScheme(result.system)
    factories["Our Method"] = lambda: AdaptiveScheme(result.system, policy, extractor)
    return factories


def _evaluation_fingerprint(evaluation):
    return {
        "f1": evaluation.f1,
        "accuracy": evaluation.accuracy,
        "mean_delay_ms": evaluation.mean_delay_ms,
        "mean_reward": evaluation.mean_reward,
        "layer_usage": {str(k): v for k, v in evaluation.layer_usage.items()},
    }


def run_perf_engine(result) -> dict:
    """Time both hot paths; returns the JSON-ready report."""
    report: dict = {
        "generated_by": "benchmarks/bench_perf_engine.py",
        "dataset": result.dataset_name,
        "config": {
            "train_episodes": TRAIN_EPISODES,
            "repeats": REPEATS,
            "train_tile": TRAIN_TILE,
            "eval_tile": EVAL_TILE,
        },
    }

    # -- policy training: per-sample loop vs minibatched engine ---------------
    contexts, rewards = _fig2_workload(result)
    sequential_seconds, sequential_trainer = _timed_training(contexts, rewards, batch_size=1)
    sequential_reward = sequential_trainer.evaluate(contexts, rewards)["mean_reward"]

    minibatched = []
    for batch_size in TRAIN_BATCH_SIZES:
        seconds, trainer = _timed_training(contexts, rewards, batch_size=batch_size)
        minibatched.append(
            {
                "batch_size": batch_size,
                "seconds": seconds,
                "speedup": sequential_seconds / seconds,
                "final_greedy_mean_reward": trainer.evaluate(contexts, rewards)["mean_reward"],
            }
        )
    report["policy_training"] = {
        "n_contexts": int(contexts.shape[0]),
        "context_dim": int(contexts.shape[1]),
        "sequential_seconds": sequential_seconds,
        "sequential_final_greedy_mean_reward": sequential_reward,
        "minibatched": minibatched,
        "stochastic_equivalence": {
            "tolerance_mean_reward": TRAINING_REWARD_TOLERANCE,
            "note": (
                "sampled actions use a different RNG stream than the sequential "
                "loop; equivalence is on the learned policy's greedy reward"
            ),
        },
    }

    # -- scheme evaluation: the run_batch drivers ---------------------------------
    windows = np.tile(result.test_windows, (EVAL_TILE,) + (1,) * (result.test_windows.ndim - 1))
    labels = np.tile(result.test_labels, EVAL_TILE)
    schemes = []
    for name, factory in _scheme_factories(result, windows).items():
        seconds, evaluation = _best_of(
            lambda: evaluate_scheme(factory(), windows, labels, result.reward_fn)
        )
        schemes.append(
            {
                "scheme": name,
                "n_windows": int(windows.shape[0]),
                "seconds": seconds,
                "evaluation": _evaluation_fingerprint(evaluation),
            }
        )
    report["scheme_evaluation"] = schemes
    return report


def time_scenario_runs(names=None) -> list:
    """End-to-end wall clock of one ``ExperimentRunner(spec).run()`` per scenario.

    ``names`` defaults to the *built-in* fast scenarios (``builtin`` tag, not
    ``paper-scale``) so the recorded trajectory has a stable shape regardless
    of what example/test code has registered in the session (one run each —
    these are full train+evaluate pipelines, so no repeats).
    """
    if names is None:
        names = SCENARIOS.names(tags=("builtin",), exclude_tags=("paper-scale",))
    entries = []
    for name in names:
        spec = get_scenario(name)
        start = time.perf_counter()
        result = ExperimentRunner(spec).run()
        seconds = time.perf_counter() - start
        adaptive = result.evaluations.get("Our Method")
        entries.append(
            {
                "scenario": name,
                "seconds": seconds,
                "n_layers": result.system.n_layers,
                "n_test_windows": int(result.test_labels.shape[0]),
                "adaptive_f1": adaptive.f1 if adaptive is not None else None,
                "adaptive_mean_delay_ms": (
                    adaptive.mean_delay_ms if adaptive is not None else None
                ),
            }
        )
    return entries


def write_report(report: dict, name: str = "perf_engine") -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def _assert_report(report: dict) -> None:
    training = report["policy_training"]
    by_batch = {entry["batch_size"]: entry for entry in training["minibatched"]}
    assert any(
        entry["speedup"] >= MIN_TRAINING_SPEEDUP
        for size, entry in by_batch.items()
        if size >= 32
    ), f"minibatched training speedup below {MIN_TRAINING_SPEEDUP}x: {by_batch}"
    for entry in training["minibatched"]:
        difference = abs(
            entry["final_greedy_mean_reward"]
            - training["sequential_final_greedy_mean_reward"]
        )
        assert difference <= TRAINING_REWARD_TOLERANCE, (
            f"batch_size={entry['batch_size']} diverged from the sequential "
            f"trainer by {difference:.3f} mean reward"
        )


@pytest.mark.benchmark(group="perf-engine")
def test_perf_engine(univariate_result):
    """Time both hot paths, persist the JSON trajectory, enforce the training floor."""
    report = run_perf_engine(univariate_result)
    report["scenario_runs"] = time_scenario_runs()
    for entry in report["scenario_runs"]:
        print(f"  scenario {entry['scenario']:<28s} {entry['seconds']:7.2f} s end-to-end")
    path = write_report(report)
    print(f"\nperf-engine report written to {path}")
    training = report["policy_training"]
    for entry in training["minibatched"]:
        print(
            f"  policy training batch={entry['batch_size']:<3d} "
            f"{entry['seconds']*1e3:8.1f} ms  ({entry['speedup']:5.1f}x vs sequential "
            f"{training['sequential_seconds']*1e3:.1f} ms)"
        )
    for entry in report["scheme_evaluation"]:
        print(f"  scheme eval {entry['scheme']:<12s} {entry['seconds']*1e3:8.1f} ms")
    _assert_report(report)


def main() -> None:
    """Standalone entry point: run the perf engine against a scenario's pipeline."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        default="univariate-power",
        help="registered scenario providing the benchmark workload "
        f"(one of: {', '.join(SCENARIOS.names())})",
    )
    parser.add_argument(
        "--skip-scenario-runs",
        action="store_true",
        help="skip the end-to-end wall-clock sweep over the fast scenarios",
    )
    args = parser.parse_args()

    result = ExperimentRunner(get_scenario(args.scenario)).run()
    report = run_perf_engine(result)
    if not args.skip_scenario_runs:
        report["scenario_runs"] = time_scenario_runs()
    # Non-default workloads get their own results file so the canonical
    # univariate trajectory (perf_engine.json) is never overwritten with
    # incomparable numbers.
    if args.scenario == "univariate-power":
        path = write_report(report)
    else:
        path = write_report(report, name=f"perf_engine_{args.scenario}")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {path}")
    # The training speedup floor is calibrated on the univariate workload.
    if args.scenario == "univariate-power":
        _assert_report(report)


if __name__ == "__main__":
    main()

"""Table-II goldens: every scheme's outcomes against the recorded oracle.

The files under ``tests/goldens/schemes/`` were recorded on commit 840c2f8
through the one-window-at-a-time path that no longer ships
(``SelectionScheme.run`` → ``handle_window`` → ``HECSystem.detect_at``); see
DESIGN.md, "Goldens".  The tests here reach only ``run_batch`` — the one
driver left — and must reproduce those files: predictions, layers, escalation
chains and every integer counter exactly, delays and the float accumulators
at the ``tests/goldens.py`` tolerance.
"""

import copy

import numpy as np
import pytest

from repro.bandit.context import UnivariateContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.bandit.reward import DelayCost, RewardFunction
from repro.evaluation.experiment import evaluate_outcomes
from repro.experiments.stages import build_hec_system, build_schemes
from repro.hec.network import paper_link_edge_cloud, paper_link_iot_edge
from repro.hec.topology import build_three_layer_topology
from repro.schemes.successive import SuccessiveScheme

REWARD = RewardFunction(cost=DelayCost(alpha=0.0005))


def scheme_payload(scheme, windows, labels, reward_fn, prepare=None):
    """One scheme's run as the flat ``{"<scheme>/<field>": array}`` golden payload.

    ``prepare(system)`` runs after the reset and before the first request
    (link faults do not survive ``HECSystem.reset``).
    """
    system = scheme.system
    system.reset()
    if prepare is not None:
        prepare(system)
    outcomes = scheme.run_batch(windows, labels)
    evaluation = evaluate_outcomes(scheme.name, outcomes, labels, reward_fn)
    attempts = [record for outcome in outcomes for record in outcome.records]
    counters = [system.layer_counters[layer] for layer in range(system.n_layers)]
    links = system.topology.links
    fields = {
        "predictions": evaluation.predictions,
        "layers": evaluation.layers,
        "delays_ms": evaluation.delays_ms,
        "f1": evaluation.f1,
        "accuracy": evaluation.accuracy,
        "mean_delay_ms": evaluation.mean_delay_ms,
        "total_reward": evaluation.total_reward,
        "layer_usage": [evaluation.layer_usage.get(layer, 0) for layer in range(system.n_layers)],
        # Escalation chains: attempts per window, then every attempt in order.
        "attempts": [len(outcome.records) for outcome in outcomes],
        "attempt_layers": [record.layer for record in attempts],
        "attempt_confident": [record.confident for record in attempts],
        # What the run left behind on the system.
        "counters/requests": [c.requests for c in counters],
        "counters/anomalies_reported": [c.anomalies_reported for c in counters],
        "counters/redirected": [c.redirected for c in counters],
        "counters/total_execution_ms": [c.total_execution_ms for c in counters],
        "counters/total_delay_ms": [c.total_delay_ms for c in counters],
        "clock_now_ms": system.clock.now_ms,
        "links/transfer_count": [link.transfer_count for link in links],
        "links/transferred_bytes": [link.transferred_bytes for link in links],
    }
    return {f"{scheme.name}/{key}": np.asarray(value) for key, value in fields.items()}


def table2_payload(schemes, windows, labels, reward_fn, prepare=None):
    payload = {}
    for scheme in schemes:
        payload.update(scheme_payload(scheme, windows, labels, reward_fn, prepare))
    return payload


# ---------------------------------------------------------------------------
# The four scenarios, at the sizes their own tests run them at
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "fixture_name, scenario",
    [
        ("univariate_result", "univariate-power"),
        ("multivariate_result", "multivariate-mhealth"),
        ("four_tier_result", "hierarchical-edge-4tier"),
        ("mixed_result", "mixed-detectors"),
    ],
)
def test_scenario_matches_golden(request, golden, fixture_name, scenario):
    result = request.getfixturevalue(fixture_name)
    system = copy.deepcopy(result.system)  # the session's run keeps its own state
    fixed_names = list(result.evaluations)[: system.n_layers]
    schemes = build_schemes(system, result.policy, result.context_extractor, fixed_names)
    payload = table2_payload(
        schemes, result.test_windows, result.test_labels, result.reward_fn
    )
    golden(f"schemes/{scenario}.npz", payload)
    # What the runner's evaluate stage reported is that same run.
    assert [scheme.name for scheme in schemes] == list(result.evaluations)
    for name, evaluation in result.evaluations.items():
        assert np.array_equal(evaluation.predictions, payload[f"{name}/predictions"])
        assert np.array_equal(evaluation.layers, payload[f"{name}/layers"])
        assert np.array_equal(evaluation.delays_ms, payload[f"{name}/delays_ms"])


# ---------------------------------------------------------------------------
# Variants on the shared univariate HEC fixture
# ---------------------------------------------------------------------------

def _five_schemes(system, windows):
    extractor = UnivariateContextExtractor(segments=7)
    extractor.fit(windows)
    policy = PolicyNetwork(
        context_dim=extractor.context_dim, n_actions=3, hidden_units=8, seed=0
    )
    return build_schemes(system, policy, extractor)


def test_jittery_links_match_golden(golden, univariate_hec):
    """Every link jittery under a fixed seed: pins the per-transfer draw order.

    One system and one pair of link generators for all five schemes, so a
    scheme that made one draw too many or too few would also shift every
    scheme after it.
    """
    _system, _deployments, detectors, windows, labels = univariate_hec
    links = [paper_link_iot_edge(rng=11), paper_link_edge_cloud(rng=12)]
    for link in links:
        link.jitter_ms = 0.25
    system, _ = build_hec_system(
        detectors, workload="univariate", topology=build_three_layer_topology(links=links)
    )
    payload = table2_payload(_five_schemes(system, windows), windows, labels, REWARD)
    assert len(set(payload["Successive/delays_ms"])) > 3  # jitter actually varied
    golden("schemes/hec-jittery-links.npz", payload)


def test_down_link_matches_golden(golden, univariate_hec):
    """Edge–cloud link down: cloud requests are redirected to the edge and
    charged the retry penalty, through all five schemes."""
    system, _deployments, _detectors, windows, labels = univariate_hec
    system = copy.deepcopy(system)
    payload = table2_payload(
        _five_schemes(system, windows), windows, labels, REWARD,
        prepare=lambda s: s.topology.links[1].set_status("down"),
    )
    assert payload["Cloud/counters/redirected"].tolist() == [0, len(labels), 0]
    golden("schemes/hec-link-down.npz", payload)


def test_successive_from_the_edge_matches_golden(golden, univariate_hec):
    system, _deployments, _detectors, windows, labels = univariate_hec
    scheme = SuccessiveScheme(copy.deepcopy(system), start_layer=1)
    payload = scheme_payload(scheme, windows, labels, REWARD)
    assert payload["Successive/attempt_layers"].min() == 1
    golden("schemes/hec-successive-from-edge.npz", payload)

"""Quickstart: run the full univariate experiment end to end in under a minute.

This script runs the built-in ``univariate-power`` scenario (fast defaults):

1. generate a synthetic power-consumption series and cut it into weekly windows;
2. train the three autoencoder detectors (AE-IoT / AE-Edge / AE-Cloud);
3. deploy them on the simulated three-layer HEC testbed;
4. train the contextual-bandit policy network with REINFORCE;
5. evaluate the five model-selection schemes of the paper and print the
   Table I / Table II style results.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running straight from a source checkout without installation.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.evaluation.tables import format_table
from repro.experiments import ExperimentRunner, get_scenario


def main() -> None:
    print("Running the univariate (power-consumption) scenario with the fast configuration...")
    result = ExperimentRunner(get_scenario("univariate-power")).run()

    print()
    print(
        format_table(
            [row.as_dict() for row in result.table1_rows],
            title="Table I (univariate): per-model comparison",
        )
    )

    print()
    print(
        format_table(
            [row.as_dict() for row in result.table2_rows],
            title="Table II (univariate): per-scheme comparison",
        )
    )

    adaptive = result.evaluations["Our Method"]
    cloud = result.evaluations["Cloud"]
    delay_reduction = 100.0 * (1.0 - adaptive.mean_delay_ms / cloud.mean_delay_ms)
    print()
    print(
        f"Adaptive scheme vs always-offload-to-cloud: "
        f"{delay_reduction:.1f}% lower detection delay at "
        f"{100.0 * (cloud.accuracy - adaptive.accuracy):.2f} pp accuracy difference."
    )
    print(f"Adaptive layer usage (IoT/Edge/Cloud requests): {adaptive.layer_usage}")


if __name__ == "__main__":
    main()

"""Dataset generators and preprocessing.

The paper evaluates on two public datasets that are not redistributable inside
this offline reproduction, so this subpackage provides synthetic generators
with the same structure (see DESIGN.md, "Substitutions"):

* :mod:`repro.data.power` — a univariate power-consumption series with a
  strongly weekly-periodic normal regime and anomalous days/weeks, standing in
  for the UCR power-demand dataset.
* :mod:`repro.data.mhealth` — a multivariate (18-channel, 50 Hz) human-activity
  dataset with 10 subjects and 12 activities, standing in for UCI MHEALTH.

Windowing, standardisation and the paper's train/test splits are implemented
in :mod:`repro.data.windowing`, :mod:`repro.data.preprocessing` and
:mod:`repro.data.splits`.
"""

from repro.data.datasets import LabeledWindows, TimeSeriesDataset
from repro.data.power import PowerDatasetConfig, generate_power_dataset
from repro.data.mhealth import MHealthConfig, generate_mhealth_dataset, ACTIVITY_NAMES
from repro.data.windowing import sliding_windows, window_labels
from repro.data.preprocessing import StandardScaler
from repro.data.splits import anomaly_detection_split, policy_training_split

__all__ = [
    "LabeledWindows",
    "TimeSeriesDataset",
    "PowerDatasetConfig",
    "generate_power_dataset",
    "MHealthConfig",
    "generate_mhealth_dataset",
    "ACTIVITY_NAMES",
    "sliding_windows",
    "window_labels",
    "StandardScaler",
    "anomaly_detection_split",
    "policy_training_split",
]

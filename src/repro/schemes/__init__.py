"""Model-selection schemes.

The five schemes the paper evaluates (Section III-C, "User Actions"):

1. **IoT Device** — always detect at layer 0 (:class:`FixedLayerScheme`);
2. **Edge** — always offload to the edge server (:class:`FixedLayerScheme`);
3. **Cloud** — always offload to the cloud (:class:`FixedLayerScheme`);
4. **Successive** — detect at the IoT device first, escalate to the next layer
   whenever the detection is not confident, until a confident output or the
   cloud is reached (:class:`SuccessiveScheme`);
5. **Adaptive** — the paper's contextual-bandit scheme: the policy network
   picks one layer per window based on its context
   (:class:`AdaptiveScheme`).

All schemes share the :class:`SelectionScheme` interface so the evaluation
harness can run them interchangeably against the same
:class:`~repro.hec.simulation.HECSystem`.
"""

from repro.schemes.base import SelectionScheme, SchemeRun
from repro.schemes.fixed import FixedLayerScheme
from repro.schemes.successive import SuccessiveScheme
from repro.schemes.adaptive import AdaptiveScheme

__all__ = [
    "SelectionScheme",
    "SchemeRun",
    "FixedLayerScheme",
    "SuccessiveScheme",
    "AdaptiveScheme",
]

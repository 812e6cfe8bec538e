"""Scenario registry: named, discoverable experiment-spec factories.

Keyed by scenario name, it stores zero-argument factories so heavy spec
construction stays lazy; :meth:`ScenarioRegistry.register` works as a call
or as a decorator::

    @register_scenario("my-scenario", description="...", tags=("fast",))
    def my_scenario() -> ExperimentSpec:
        return ExperimentSpec(...)

    spec = get_scenario("my-scenario")

The module-level :data:`SCENARIOS` registry backs the CLI's ``repro run`` /
``repro list`` / ``repro describe`` commands, and the benchmark harness
builds each workload's spec from a registered scenario
(``get_scenario`` plus ``apply_overrides``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.spec import ExperimentSpec

SpecFactory = Callable[[], ExperimentSpec]


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: a named factory plus display metadata."""

    name: str
    factory: SpecFactory
    description: str = ""
    tags: Tuple[str, ...] = ()


class ScenarioRegistry:
    """A name -> spec-factory mapping with duplicate protection."""

    def __init__(self) -> None:
        self._entries: Dict[str, ScenarioEntry] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Optional[SpecFactory] = None,
        *,
        description: str = "",
        tags: Sequence[str] = (),
    ):
        """Register a factory under ``name``; usable directly or as a decorator."""
        if not name or name != name.strip() or " " in name:
            raise ConfigurationError(
                f"scenario names must be non-empty and whitespace-free, got {name!r}"
            )
        if name in self._entries:
            raise ConfigurationError(
                f"scenario {name!r} is already registered; pick a different name "
                "or build the spec directly"
            )

        def _register(fn: SpecFactory) -> SpecFactory:
            resolved = description
            if not resolved:
                doc_lines = (fn.__doc__ or "").strip().splitlines()
                resolved = doc_lines[0] if doc_lines else ""
            self._entries[name] = ScenarioEntry(
                name=name, factory=fn, description=resolved, tags=tuple(tags)
            )
            return fn

        if factory is not None:
            return _register(factory)
        return _register

    # -- access -----------------------------------------------------------------

    def entry(self, name: str) -> ScenarioEntry:
        """The registered entry for ``name`` (unknown names raise)."""
        try:
            return self._entries[name]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown scenario {name!r}; available: {self.names()}"
            ) from exc

    def spec(self, name: str) -> ExperimentSpec:
        """Build the spec for ``name`` via its factory."""
        spec = self.entry(name).factory()
        if not isinstance(spec, ExperimentSpec):
            raise ConfigurationError(
                f"scenario {name!r} factory returned {type(spec).__name__}, "
                "expected an ExperimentSpec"
            )
        return spec

    def describe(self, name: str) -> dict:
        """A JSON-ready description of one scenario: metadata plus full spec.

        The payload always carries the spec's *optional* nodes explicitly —
        ``fleet``, ``adapt`` and ``serve`` appear as top-level keys (``None``
        when the scenario has none), so fleet/adapt/serving scenarios are
        fully described and consumers need not know which nested nodes are
        optional.
        """
        entry = self.entry(name)
        spec = self.spec(name)
        payload = spec.to_dict()
        return {
            "name": entry.name,
            "description": entry.description,
            "tags": list(entry.tags),
            "fleet": payload.get("fleet"),
            "adapt": payload.get("adapt"),
            "serve": payload.get("serve"),
            "spec": payload,
        }

    def names(
        self,
        tags: Optional[Sequence[str]] = None,
        exclude_tags: Optional[Sequence[str]] = None,
    ) -> List[str]:
        """Sorted scenario names, optionally filtered by tags."""
        selected = []
        for name, entry in sorted(self._entries.items()):
            if tags and not set(tags) & set(entry.tags):
                continue
            if exclude_tags and set(exclude_tags) & set(entry.tags):
                continue
            selected.append(name)
        return selected

    def entries(self) -> List[ScenarioEntry]:
        """All entries sorted by name."""
        return [self._entries[name] for name in sorted(self._entries)]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScenarioEntry]:
        return iter(self.entries())


#: The default registry the CLI, benchmarks and examples register into.
SCENARIOS = ScenarioRegistry()


def register_scenario(
    name: str,
    factory: Optional[SpecFactory] = None,
    *,
    description: str = "",
    tags: Sequence[str] = (),
):
    """Register a scenario in the default registry (decorator-friendly)."""
    return SCENARIOS.register(name, factory, description=description, tags=tags)


def get_scenario(name: str) -> ExperimentSpec:
    """Build the spec of a scenario registered in the default registry."""
    return SCENARIOS.spec(name)

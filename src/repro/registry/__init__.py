"""Unified strategy-plugin registry: typed specs, capabilities, sweeps.

Every strategy family in the reproduction — the paper's core strategies
and the heterogeneous/memory/robust/adaptive extensions — registers
itself here with a typed parameter schema and a set of
:class:`Capabilities`.  From that single declaration the package
derives:

* :func:`make_strategy` — spec-string parsing for *all* families (the
  regex parser it replaces knew only ``core/strategies``);
* :func:`describe_strategy` / :func:`canonical_spec` — canonical spec
  round-tripping (``parse(spec) -> strategy -> describe(strategy)``),
  which the cell cache fingerprints so ``selective[0.50]`` and
  ``selective[0.5]`` share an entry;
* :func:`capabilities_of` / :func:`select_strategies` — capability
  queries the engine enforces structurally (``CapabilityError``) and the
  CLI exposes (``repro strategies``);
* :func:`strategy_names` / :func:`full_sweep` — the Figure-3 sweep
  enumeration, now driven by per-entry :class:`SweepRule`\\ s;
* the generated ``docs/strategies.md`` catalog and the registry-driven
  ``unknown strategy spec`` help text.

Registration is decorator-driven::

    @register_strategy(
        "ls_group",
        params=(Int("k", ge=1),),
        capabilities=Capabilities(replication_factor="group"),
        family="core",
        theorem="Theorem 4",
    )
    class LSGroup(TwoPhaseStrategy): ...

Built-in families load lazily on first query, so importing this package
never drags the whole strategy tree in (and cannot cycle).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.registry import builtins as _builtins
from repro.registry import entry as _entry
from repro.registry.capabilities import Capabilities, CapabilityError
from repro.registry.entry import (
    StrategyEntry,
    SweepRule,
    UnrepresentableStrategy,
    register_strategy,
)
from repro.registry.params import REQUIRED, Choice, Flag, Float, Int, ParamSpec, StrategyRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import TwoPhaseStrategy

__all__ = [
    # registration
    "register_strategy",
    "StrategyEntry",
    "SweepRule",
    "Capabilities",
    "CapabilityError",
    "UnrepresentableStrategy",
    # param schema types
    "ParamSpec",
    "Int",
    "Float",
    "Choice",
    "Flag",
    "StrategyRef",
    "REQUIRED",
    # queries
    "make_strategy",
    "describe_strategy",
    "try_describe_strategy",
    "canonical_spec",
    "strategy_entries",
    "get_entry",
    "entry_for",
    "capabilities_of",
    "select_strategies",
    "strategy_names",
    "full_sweep",
    "spec_help",
]


def make_strategy(spec: str) -> "TwoPhaseStrategy":
    """Build any registered strategy from its spec string.

    Accepts every historical form (``"lpt_no_choice"``,
    ``"ls_group[k=3]"``, ``"selective[0.4,work]"`` ...) plus the
    previously spec-less families (``"sabo[delta=0.5]"``,
    ``"risk_aware[0.3]"``, ``"refined[ls_group[k=3],eta=0.5]"`` ...).  Unknown or malformed
    specs raise ``ValueError`` starting with ``unknown strategy spec``
    and listing the registry-generated accepted forms.
    """
    _builtins.load()
    return _entry.build(spec)


def describe_strategy(strategy: Any) -> str:
    """Canonical spec of a strategy instance (raises if unrepresentable)."""
    _builtins.load()
    return _entry.describe(strategy)


def try_describe_strategy(strategy: Any) -> str | None:
    """:func:`describe_strategy`, or ``None`` when no spec can express it."""
    _builtins.load()
    return _entry.try_describe(strategy)


def canonical_spec(spec: str) -> str:
    """Canonicalize a spec string (``"selective[0.50]" -> "selective[0.5,count]"``)."""
    _builtins.load()
    return _entry.canonical(spec)


def strategy_entries() -> list[StrategyEntry]:
    """Every registered entry, in name order."""
    _builtins.load()
    return _entry.entries()


def get_entry(name: str) -> StrategyEntry:
    """Entry for a spec name (``KeyError`` when unknown)."""
    _builtins.load()
    return _entry.get_entry(name)


def entry_for(strategy_or_cls: Any) -> StrategyEntry | None:
    """Entry registered for an instance's exact class, or ``None``."""
    _builtins.load()
    return _entry.entry_for(strategy_or_cls)


def capabilities_of(strategy: Any) -> Capabilities | None:
    """Declared capabilities of an instance (``None`` if unregistered).

    Entries may specialize per instance (``refined[...]`` inherits its
    base strategy's flags); plain entries return their static set.
    """
    entry = entry_for(strategy)
    if entry is None:
        return None
    if entry.instance_capabilities is not None and not isinstance(strategy, type):
        return entry.instance_capabilities(strategy)
    return entry.capabilities


def select_strategies(
    *,
    supports_faults: bool | None = None,
    supports_releases: bool | None = None,
    supports_hetero: bool | None = None,
    memory_aware: bool | None = None,
    replication_factor: str | None = None,
    family: str | None = None,
) -> list[StrategyEntry]:
    """Capability query: entries matching every given filter (``None`` = any)."""
    selected = []
    for entry in strategy_entries():
        caps = entry.capabilities
        if supports_faults is not None and caps.supports_faults != supports_faults:
            continue
        if supports_releases is not None and caps.supports_releases != supports_releases:
            continue
        if supports_hetero is not None and caps.supports_hetero != supports_hetero:
            continue
        if memory_aware is not None and caps.memory_aware != memory_aware:
            continue
        if (
            replication_factor is not None
            and caps.replication_factor != replication_factor
        ):
            continue
        if family is not None and entry.family != family:
            continue
        selected.append(entry)
    return selected


def strategy_names(m: int, *, include_ablation: bool = False) -> list[str]:
    """The Figure-3 sweep specs for ``m`` machines, via the sweep rules.

    Entries without a :class:`SweepRule` (the extension families) do not
    appear — the sweep reproduces the paper's Figure 3, not the whole
    catalog.  Order follows each rule's declared ``order``, so output is
    independent of import order.  See ``docs/strategies.md`` for the
    intentional endpoint overlaps in the ablation sweep
    (``lpt_group[k=1]`` ≡ ``lpt_no_restriction``, ``lpt_group[k=m]`` ≡
    ``lpt_no_choice``).
    """
    ruled = sorted(
        (e for e in strategy_entries() if e.sweep is not None),
        key=lambda e: e.sweep.order,
    )
    names: list[str] = []
    for entry in ruled:
        if entry.sweep.ablation and not include_ablation:
            continue
        names.extend(entry.sweep.enumerate(m))
    return names


def full_sweep(m: int, *, include_ablation: bool = False) -> list["TwoPhaseStrategy"]:
    """Instantiate every sweep strategy applicable to ``m`` machines."""
    return [
        make_strategy(s) for s in strategy_names(m, include_ablation=include_ablation)
    ]


def spec_help() -> str:
    """Registry-generated accepted-forms list for error messages and docs."""
    _builtins.load()
    return _entry.spec_help()

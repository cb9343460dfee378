"""The strategy registry proper: entries, registration, parse/describe.

One table maps spec names to :class:`StrategyEntry` records, read back
in name order so no listing depends on which family module a process
imported first.  Family modules register their classes with the
:func:`register_strategy` decorator; the registry derives from each entry

* the **parser** (``parse``/``build``) for that family's spec strings,
* the **canonical renderer** (``describe``/``canonical``) that
  round-trips ``parse(spec) -> strategy -> describe(strategy)``,
* the **generated help** listing every accepted spec form, and
* the **sweep enumeration** behind ``strategy_names``/``full_sweep``.

This module deliberately imports nothing from the strategy families —
they import *it* — so the registry can sit below every layer that names a
strategy.  Loading the built-in families is the caller's concern (see
:mod:`repro.registry.builtins`, triggered lazily by the public API in
:mod:`repro.registry`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.registry.capabilities import Capabilities
from repro.registry.params import REQUIRED, Flag, ParamSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.strategy import TwoPhaseStrategy

__all__ = [
    "StrategyEntry",
    "SweepRule",
    "UnrepresentableStrategy",
    "register_strategy",
    "entries",
    "get_entry",
    "entry_for",
    "parse",
    "build",
    "describe",
    "try_describe",
    "canonical",
    "split_spec",
    "spec_help",
    "unknown_spec_error",
]


class UnrepresentableStrategy(LookupError):
    """The strategy instance carries state its spec grammar cannot express.

    Raised by :func:`describe` when an entry's extractor declines —
    e.g. a :class:`~repro.hetero.strategies.RiskAwareReplication` built
    around an explicit per-task uncertainty profile.  Callers that only
    *prefer* canonical specs (the cell cache) catch this and fall back to
    their legacy identity key.
    """


@dataclass(frozen=True)
class SweepRule:
    """How (and whether) an entry appears in the Figure-3 strategy sweep.

    ``order`` fixes the position among sweep entries (registration order
    must not matter); ``enumerate`` maps a machine count ``m`` to the spec
    strings to run; ``ablation`` gates the entry behind
    ``include_ablation=True``.
    """

    order: int
    enumerate: Callable[[int], list[str]]
    ablation: bool = False


@dataclass(frozen=True)
class StrategyEntry:
    """Everything the registry knows about one strategy family.

    ``builder`` (default: the class itself) receives the parsed parameter
    values keyed by :attr:`ParamSpec.attr`; ``extract`` (default:
    per-parameter ``getattr`` on :attr:`ParamSpec.attr`) recovers those
    values from an instance for :func:`describe`;
    ``instance_capabilities`` optionally specializes the static
    :attr:`capabilities` per instance (delegating wrappers).
    """

    name: str
    cls: type
    params: tuple[ParamSpec, ...]
    capabilities: Capabilities
    family: str
    summary: str
    theorem: str | None = None
    builder: Callable[..., Any] | None = None
    extract: Callable[[Any], dict[str, Any]] | None = None
    instance_capabilities: Callable[[Any], Capabilities] | None = None
    sweep: SweepRule | None = None

    # -- spec rendering ----------------------------------------------------
    def render(self, values: dict[str, Any]) -> str:
        """The canonical spec for parameter ``values`` (keyed by spec key)."""
        parts: list[str] = []
        for param in self.params:
            value = values.get(param.key, param.default)
            if isinstance(param, Flag) and not value:
                continue
            if param.omit_default and not param.required and value == param.default:
                continue
            parts.append(param.render(value))
        return f"{self.name}[{','.join(parts)}]" if parts else self.name

    def template(self) -> str:
        """Accepted-form template for the generated help text."""
        parts = [p.template() for p in self.params]
        return f"{self.name}[{','.join(parts)}]" if parts else self.name

    def values_of(self, strategy: Any) -> dict[str, Any]:
        """Recover the spec parameter values from a built instance."""
        if self.extract is not None:
            return self.extract(strategy)
        return {p.key: getattr(strategy, p.attr) for p in self.params}

    def construct(self, values: dict[str, Any]) -> Any:
        """Instantiate the strategy from parsed values (keyed by spec key)."""
        kwargs = {}
        for param in self.params:
            value = values.get(param.key, param.default)
            if value is REQUIRED:  # pragma: no cover - guarded by parse
                raise ValueError(f"{param.key} is required")
            kwargs[param.attr] = value
        factory = self.builder if self.builder is not None else self.cls
        return factory(**kwargs)

#: name -> entry; :func:`entries` reads it back in name order.
_ENTRIES: dict[str, StrategyEntry] = {}
#: exact class -> entry, for describe()/capability lookups.
_BY_CLASS: dict[type, StrategyEntry] = {}


def register_strategy(
    name: str,
    *,
    params: Sequence[ParamSpec] = (),
    capabilities: Capabilities = Capabilities(),
    family: str,
    theorem: str | None = None,
    builder: Callable[..., Any] | None = None,
    extract: Callable[[Any], dict[str, Any]] | None = None,
    instance_capabilities: Callable[[Any], Capabilities] | None = None,
    sweep: SweepRule | None = None,
) -> Callable[[type], type]:
    """Class decorator: declare a strategy family to the registry.

    The decorated class is returned unchanged (plus a
    ``__registry_name__`` marker the completeness check uses).  Duplicate
    names raise immediately — two families must never contest a spec.
    """

    def _register(cls: type) -> type:
        if name in _ENTRIES:
            raise ValueError(
                f"strategy name {name!r} already registered by "
                f"{_ENTRIES[name].cls.__qualname__}"
            )
        doc = (cls.__doc__ or "").strip().splitlines()
        entry = StrategyEntry(
            name=name,
            cls=cls,
            params=tuple(params),
            capabilities=capabilities,
            family=family,
            summary=doc[0] if doc else "",
            theorem=theorem,
            builder=builder,
            extract=extract,
            instance_capabilities=instance_capabilities,
            sweep=sweep,
        )
        _ENTRIES[name] = entry
        _BY_CLASS[cls] = entry
        cls.__registry_name__ = name
        return cls

    return _register


def entries() -> list[StrategyEntry]:
    """All registered entries, in name order (never import order)."""
    return sorted(_ENTRIES.values(), key=lambda e: e.name)


def get_entry(name: str) -> StrategyEntry:
    """Entry for spec name ``name`` (raises ``KeyError`` when unknown)."""
    return _ENTRIES[name]


def entry_for(strategy_or_cls: Any) -> StrategyEntry | None:
    """Entry registered for an instance's exact class, or ``None``.

    Exact-type lookup on purpose: ``LPTGroup`` subclasses ``LSGroup`` but
    owns its own entry, and an *unregistered* subclass must not silently
    inherit its parent's spec.
    """
    cls = strategy_or_cls if isinstance(strategy_or_cls, type) else type(strategy_or_cls)
    return _BY_CLASS.get(cls)


# -- spec parsing ----------------------------------------------------------


def split_spec(spec: str) -> tuple[str, list[str]]:
    """Split ``name[a,b,...]`` into ``(name, args)``, depth-aware.

    Commas only separate at bracket depth 0, so nested specs like
    ``refined[ls_group[k=3],eta=0.5]`` keep their inner arguments intact.
    Malformed bracketing raises ``ValueError``.
    """
    if "[" not in spec:
        if "]" in spec:
            raise ValueError("unbalanced ']'")
        return spec, []
    open_at = spec.index("[")
    if not spec.endswith("]"):
        raise ValueError("expected spec to end with ']'")
    name, body = spec[:open_at], spec[open_at + 1 : -1]
    args: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced ']'")
        if ch == "," and depth == 0:
            args.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError("unbalanced '['")
    args.append("".join(current))
    return name, args


def _split_keyed(arg: str) -> tuple[str | None, str]:
    """``("k", "3")`` for ``k=3`` at depth 0, ``(None, arg)`` otherwise."""
    depth = 0
    for pos, ch in enumerate(arg):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "=" and depth == 0:
            return arg[:pos], arg[pos + 1 :]
    return None, arg


def parse(spec: str) -> tuple[StrategyEntry, dict[str, Any]]:
    """Parse a spec into its entry and parameter values (keyed by spec key).

    Every failure raises ``ValueError`` whose message starts with
    ``unknown strategy spec`` — the stable prefix callers and tests match
    on — followed by the specific reason and the generated accepted-forms
    list for unknown names.
    """
    try:
        name, args = split_spec(spec)
        entry = _ENTRIES.get(name)
        if entry is None:
            raise LookupError
        values = _bind(entry, args)
    except LookupError:
        raise ValueError(unknown_spec_error(spec)) from None
    except ValueError as exc:
        raise ValueError(f"unknown strategy spec {spec!r}: {exc}") from None
    return entry, values


def _bind(entry: StrategyEntry, args: list[str]) -> dict[str, Any]:
    """Bind raw spec arguments to the entry's parameters."""
    by_key = {p.key: p for p in entry.params}
    values: dict[str, Any] = {}
    positional = [p for p in entry.params if p.positional]
    for arg in args:
        key, text = _split_keyed(arg)
        if key is not None:
            param = by_key.get(key)
            if param is None:
                raise ValueError(
                    f"unknown parameter {key!r} (accepted: {entry.template()})"
                )
            if param.key in values:
                raise ValueError(f"duplicate parameter {param.key!r}")
            values[param.key] = param.parse(text)
            continue
        # Bare token: a Flag/Choice word, else the next unbound positional.
        token = arg
        bare = next(
            (
                p
                for p in entry.params
                if p.key not in values
                and not p.positional
                and p.accepts_token(token)
            ),
            None,
        )
        if bare is not None:
            values[bare.key] = (
                True if isinstance(bare, Flag) else bare.parse(token)
            )
            continue
        target = next((p for p in positional if p.key not in values), None)
        if target is None:
            raise ValueError(
                f"unexpected argument {token!r} (accepted: {entry.template()})"
            )
        values[target.key] = target.parse(token)
    missing = [p.key for p in entry.params if p.required and p.key not in values]
    if missing:
        raise ValueError(
            f"missing required parameter(s) {', '.join(missing)} "
            f"(accepted: {entry.template()})"
        )
    return values


def build(spec: str) -> "TwoPhaseStrategy":
    """Parse a spec and instantiate the strategy."""
    entry, values = parse(spec)
    return entry.construct(values)


def describe(strategy: Any) -> str:
    """The canonical spec of a built strategy instance.

    Raises :class:`UnrepresentableStrategy` when the instance's class is
    not registered or carries state the spec grammar cannot express.
    """
    entry = entry_for(strategy)
    if entry is None:
        raise UnrepresentableStrategy(
            f"{type(strategy).__qualname__} is not registered; "
            "add a @register_strategy decorator"
        )
    return entry.render(entry.values_of(strategy))


def try_describe(strategy: Any) -> str | None:
    """:func:`describe`, or ``None`` for unrepresentable instances."""
    try:
        return describe(strategy)
    except UnrepresentableStrategy:
        return None


def canonical(spec: str) -> str:
    """Canonicalize a spec without building the strategy.

    ``canonical("selective[0.50]") == "selective[0.5,count]"`` — the form
    the cell cache fingerprints, so non-canonical spellings share entries.
    """
    entry, values = parse(spec)
    return entry.render(values)


def spec_help() -> str:
    """Generated accepted-forms list, one template per entry, name order."""
    return ", ".join(repr(e.template()) for e in entries())


def unknown_spec_error(spec: str) -> str:
    """The full unknown-spec message (stable prefix + generated forms)."""
    return f"unknown strategy spec {spec!r}; expected one of: {spec_help()}"

"""Load (import) every built-in strategy family so its entries register.

The registry core imports nothing from the families — *they* decorate
themselves into it — so something must import the family modules before
the first query.  The public API in :mod:`repro.registry` calls
:func:`load` lazily on first use, which keeps ``import repro.registry``
cycle-free and cheap while guaranteeing a fully-populated table by the
time anyone parses a spec.

Import order does not matter: entries are listed in name order and the
sweep follows each :class:`~repro.registry.entry.SweepRule`'s ``order``,
so every listing is the same whichever module a process imported first.
"""

from __future__ import annotations

_loaded = False


def load() -> None:
    """Import all built-in families exactly once (reentrancy-safe)."""
    global _loaded
    if _loaded:
        return
    _loaded = True  # set first: family imports may themselves touch the API
    import repro.adaptive.refinement  # noqa: F401
    import repro.core.strategies  # noqa: F401
    import repro.hetero.strategies  # noqa: F401
    import repro.memory.abo  # noqa: F401
    import repro.memory.capped  # noqa: F401
    import repro.memory.sabo  # noqa: F401
    import repro.robust.placement  # noqa: F401

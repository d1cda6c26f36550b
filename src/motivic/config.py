"""Session-wide tunables.

Defaults match the documented contract; the CLI overlays environment variables
(prefix MOTIVIC_) and then command-line flags, flags winning.
"""

from __future__ import annotations

import os

from .errors import WorkbenchError
from .records import Record

ENV_PREFIX = "MOTIVIC_"
_FIELDS = ("max_variables", "max_degree", "max_candidates", "horizon",
           "window", "skeletal_level", "max_cells")


class Config(Record):
    """The caps and defaults a session runs under:

    max_variables   cap on nontrivial reduced-basis instances
    max_degree      cap on input generator degree
    max_candidates  cap on point-enumeration candidate count
    horizon         members materialized for limit measures
    window          trailing agreement window for stabilization
    skeletal_level  default simplicial truncation
    max_cells       cap on homology chain-complex size
    """

    __slots__ = _FIELDS

    def __init__(self, max_variables: int = 12, max_degree: int = 8,
                 max_candidates: int = 1 << 20, horizon: int = 8,
                 window: int = 3, skeletal_level: int = 4,
                 max_cells: int = 512):
        object.__setattr__(self, "max_variables", max_variables)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "max_candidates", max_candidates)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "skeletal_level", skeletal_level)
        object.__setattr__(self, "max_cells", max_cells)

    def with_overrides(self, **kw) -> "Config":
        live = {k: v for k, v in kw.items() if v is not None}
        return Config(**dict(zip(_FIELDS, self._values()), **live)) if live else self


def from_environment(base: Config | None = None) -> Config:
    cfg = base or Config()
    found = {}
    for name in _FIELDS:
        var = ENV_PREFIX + name.upper()
        raw = os.environ.get(var)
        if raw is not None:
            try:
                found[name] = int(raw)
            except ValueError:
                raise WorkbenchError("%s must be an integer, got %r"
                                     % (var, raw)) from None
    return cfg.with_overrides(**found)


DEFAULT = Config()

"""Session-wide tunables.

Defaults match the documented contract; the CLI overlays environment variables
(prefix MOTIVIC_) and then command-line flags, flags winning.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import WorkbenchError

ENV_PREFIX = "MOTIVIC_"


@dataclass(frozen=True)
class Config:
    max_variables: int = 12        # cap on nontrivial reduced-basis instances
    max_degree: int = 8            # cap on input generator degree
    max_candidates: int = 1 << 20  # cap on point-enumeration candidate count
    horizon: int = 8               # members materialized for limit measures
    window: int = 3                # trailing agreement window for stabilization
    skeletal_level: int = 4        # default simplicial truncation
    battery_size: int = 20         # default size for randomized check batteries
    seed: int = 0                  # RNG seed for generated batteries
    max_cells: int = 512           # cap on homology chain-complex size

    def with_overrides(self, **kw) -> "Config":
        live = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **live) if live else self


_FIELDS = (
    "max_variables", "max_degree", "max_candidates", "horizon", "window",
    "skeletal_level", "battery_size", "seed", "max_cells",
)


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

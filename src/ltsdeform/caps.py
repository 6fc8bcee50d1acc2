"""Size guards for cochain-space computations.

Defaults: degree up to 7 (the codomain of the degree-5 coboundary), cochain
tensors up to 10^7 entries, groups up to 64 elements.  Each cap can be
overridden by flag arguments or the LTSDEFORM_MAX_* environment variables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


class CapExceeded(RuntimeError):
    """A requested computation exceeds the configured size caps."""


@dataclass(frozen=True)
class Caps:
    max_degree: int = 7
    max_ambient: int = 10_000_000
    max_group: int = 64

    def __post_init__(self):
        for name in ("max_degree", "max_ambient", "max_group"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative, got %d"
                                 % (name, getattr(self, name)))

    @classmethod
    def from_env(cls, max_degree=None, max_ambient=None, max_group=None):
        """Caps from explicit values, else LTSDEFORM_MAX_* variables, else
        the defaults; ValueError on a malformed or negative value."""
        def pick(explicit, var, default):
            if explicit is not None:
                return explicit
            raw = os.environ.get(var)
            if not raw:
                return default
            try:
                return int(raw)
            except ValueError:
                raise ValueError("%s must be a non-negative integer, got %r"
                                 % (var, raw)) from None

        return cls(
            max_degree=pick(max_degree, "LTSDEFORM_MAX_DEGREE", cls.max_degree),
            max_ambient=pick(max_ambient, "LTSDEFORM_MAX_AMBIENT", cls.max_ambient),
            max_group=pick(max_group, "LTSDEFORM_MAX_GROUP", cls.max_group),
        )

    def check_degree(self, degree):
        if degree > self.max_degree:
            raise CapExceeded("degree %d exceeds cap %d" % (degree, self.max_degree))

    def check_ambient(self, entries, what="cochain tensor"):
        if entries > self.max_ambient:
            raise CapExceeded("%s with %d entries exceeds cap %d"
                              % (what, entries, self.max_ambient))

    def check_group(self, size):
        if size > self.max_group:
            raise CapExceeded("group of order %d exceeds cap %d" % (size, self.max_group))


DEFAULT_CAPS = Caps()

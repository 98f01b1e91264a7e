"""Warnings attributed to the first caller outside the package."""

import sys
import warnings


def warn_caller(message: str) -> None:
    """Emit a UserWarning at the first frame outside this package and dataclasses.

    The skipped frames include a generated dataclass __init__ and the replace
    that calls it, so repeats from one call site print once under the default
    filter.  A module run with python -m is known by its __spec__ name.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None:
        spec = frame.f_globals.get("__spec__")
        name = spec.name if spec is not None else frame.f_globals.get("__name__", "")
        if name.partition(".")[0] not in (__package__, "dataclasses"):
            break
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)

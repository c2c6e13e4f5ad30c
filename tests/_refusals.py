"""One reading of a refusal, shared by the per-module refusal tables."""

import pytest

from infovalue.errors import InfoValueError, ProblemFileError


def refusal(build) -> tuple[type, str, str]:
    """The error ``build()`` raises: its exact type, where, and its message.

    A problem-file error names its own location.  Any other error is placed
    at the frame that raised it, as ``Class.method`` or a bare function name.
    """
    with pytest.raises(InfoValueError) as excinfo:
        build()
    error = excinfo.value
    if isinstance(error, ProblemFileError):
        return type(error), error.location, error.message
    entry = excinfo.traceback[-1]
    owner = entry.frame.f_locals.get("self")
    where = entry.name if owner is None else f"{type(owner).__name__}.{entry.name}"
    return type(error), where, str(error)

"""Pluggable array backends for the numeric core (`repro.backend`).

The hot kernels of the stack -- CSR SpMV/SpMM, the level-set and
supernodal triangular solves, the FastILU sweeps, the one-level Schwarz
scatter/gather and the Krylov vector operations -- are written against
the thin :class:`~repro.backend.base.Backend` array API instead of
importing numpy directly.  Numpy is the default (and bit-identical to
the pre-refactor kernels) and the only backend shipped: a backend no
test or CI job can execute is not kept (the torch backend was removed
for that reason).  A new backend subclasses ``Backend`` and is passed as
an instance.

Selection: kernels ask ``get_backend(x)`` for the backend of their
operand.  The innermost ``use_backend(bk)`` scope (a context manager;
``SolverSession(backend=bk)`` opens one around its solve) answers, and
numpy is the package default outside any scope.

::

    from repro.backend import get_backend, use_backend

    bk = get_backend()            # ambient default (numpy)
    with use_backend(MyBackend()):
        result = session.solve()  # kernels run on MyBackend arrays
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Union

from repro.backend.base import Backend, check_out_dtype
from repro.backend.numpy_backend import NumpyBackend

__all__ = [
    "Backend",
    "NumpyBackend",
    "available_backends",
    "check_out_dtype",
    "get_backend",
    "resolve_backend",
    "to_numpy",
    "use_backend",
]

#: the package-default backend (bit-identity contract)
_NUMPY = NumpyBackend()

#: lazily constructed singletons keyed by name
_INSTANCES: Dict[str, Backend] = {"numpy": _NUMPY}

_STATE = threading.local()


def available_backends() -> List[str]:
    """Names of the backends that can activate in this environment."""
    return list(_INSTANCES)


def resolve_backend(backend: Union[None, str, Backend]) -> Backend:
    """Normalize a backend selector to a :class:`Backend` instance.

    ``None`` resolves to the ambient default; a string must name an
    *available* backend (anything else raises with the list of valid
    values, matching the API-validation idiom of :mod:`repro.api`).
    """
    if backend is None:
        return get_backend()
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str):
        if backend in _INSTANCES:
            return _INSTANCES[backend]
        raise ValueError(
            f"backend {backend!r} is unavailable; valid values: "
            + ", ".join(repr(n) for n in available_backends())
        )
    raise TypeError(
        f"backend must be None, a name, or a Backend instance, got "
        f"{type(backend).__name__}"
    )


def get_backend(x: Any = None) -> Backend:
    """The backend a kernel should run operand ``x`` on.

    The innermost :func:`use_backend` scope, defaulting to numpy.  The
    operand is the kernels' calling convention (they follow their data);
    with numpy the only registered backend there is no foreign array
    type to detect, and array-likes (lists, scalars) are absorbed as
    ``np.asarray`` would absorb them.
    """
    stack = getattr(_STATE, "stack", None)
    if stack:
        return stack[-1]
    return _NUMPY


@contextmanager
def use_backend(backend: Union[None, str, Backend]):
    """Set the ambient default backend for the enclosed scope."""
    bk = resolve_backend(backend)
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = _STATE.stack = []
    stack.append(bk)
    try:
        yield bk
    finally:
        stack.pop()


def to_numpy(x: Any, backend: Optional[Backend] = None) -> Any:
    """Materialize any backend's array as host numpy (numpy: no-op)."""
    bk = backend if backend is not None else get_backend(x)
    return bk.to_numpy(x)

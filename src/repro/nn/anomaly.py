"""Runtime anomaly detection for the autodiff tape.

The numpy autodiff engine in :mod:`repro.nn.tensor` is fast but silent: a
NaN born in one op propagates through the whole graph and only surfaces —
if at all — as a non-finite loss many steps later, by which point the
originating op is long gone.  This module is the reproduction's analog of
``torch.autograd.set_detect_anomaly``: an **opt-in** mode that

* records, on every tensor an op creates, the op's name, the
  ``file:line`` of the code that invoked it, and the modules whose
  ``forward`` was running;
* checks every forward output for NaN/Inf as it is created;
* checks every gradient a backward function writes, right after it runs;

and raises :class:`~repro.runtime.errors.NumericalAnomalyError` naming the
offending op, call site and module path the moment the first non-finite
value appears.

The mode is one :class:`~repro.nn.tensor.Observer`, installed in the
engine's single observer slot while :class:`detect_anomaly` is active.  It
is designed to be zero-cost when off: the tensor engine guards the slot
behind one ``_observer is not None`` check, records no creation context,
and performs no finiteness scans, so training output with the mode
disabled is bit-identical to an engine without the observer.

Usage::

    with repro.nn.detect_anomaly():
        loss = model(batch)
        loss.backward()          # raises NumericalAnomalyError at the source

or from the CLI: ``python -m repro train --detect-anomaly ...``.
"""

from __future__ import annotations

import sys
from typing import Optional, Tuple

import numpy as np

from ..runtime.errors import NumericalAnomalyError
from . import tensor as _tensor

__all__ = ["detect_anomaly", "is_anomaly_enabled", "NumericalAnomalyError"]


class _AnomalyDetector(_tensor.Observer):
    """Records creation context on every op and checks it for NaN/Inf."""

    def __init__(self) -> None:
        #: Modules whose ``forward`` is running, outermost first; ops record
        #: them, so an anomaly in either pass reports *where in the model*
        #: it surfaced.
        self.modules: list = []

    def note_op(self, out, parents) -> None:
        """Record creation context on ``out`` and check the forward output."""
        op, site = _creation_context()
        modules = tuple(self.modules)
        out._anomaly_ctx = (op, site, modules)
        if not np.isfinite(out.data).all():
            raise _error(
                f"forward op {op!r} produced non-finite values (called at {site})",
                op, site, "forward", modules,
            )

    def check_backward(self, node) -> None:
        """Check the gradients ``node``'s backward function just wrote.

        Runs while ``node._parents`` is still intact; a non-finite gradient
        on any parent is attributed to ``node``'s creating op and the
        modules it ran in.
        """
        for parent in node._parents:
            grad = parent.grad
            if grad is not None and not np.isfinite(grad).all():
                op, site, modules = getattr(node, "_anomaly_ctx", None) or (
                    node.name or "<unrecorded>",
                    "<tensor created outside detect_anomaly>",
                    (),
                )
                raise _error(
                    f"backward of op {op!r} (called at {site}) produced a "
                    "non-finite gradient",
                    op, site, "backward", modules,
                )

    def call_module(self, module, args, kwargs):
        self.modules.append(module)
        try:
            return module.forward(*args, **kwargs)
        finally:
            self.modules.pop()


_DETECTOR = _AnomalyDetector()


def is_anomaly_enabled() -> bool:
    """Return whether anomaly detection is currently active."""
    return _tensor._observer is _DETECTOR


class detect_anomaly:
    """Context manager enabling NaN/Inf anomaly detection on the tape.

    Re-entrant and restores the previous observer on exit, so nesting (or
    enabling inside an already-enabled region) behaves sensibly.
    """

    def __enter__(self) -> "detect_anomaly":
        self._prev = _tensor._set_observer(_DETECTOR)
        return self

    def __exit__(self, *exc) -> None:
        _tensor._set_observer(self._prev)


def _creation_context() -> Tuple[str, str]:
    """(op name, caller file:line) for a tensor being created by an op.

    Stack when this runs: [0] here, [1] ``note_op``, [2] ``Tensor._make``,
    [3] the op method (``__add__``, ``tanh``, ``concat``, ...), [4] its caller.
    """
    op_frame = sys._getframe(3)
    op = op_frame.f_code.co_name
    caller = op_frame.f_back
    if caller is not None:
        site = f"{caller.f_code.co_filename}:{caller.f_lineno}"
    else:  # pragma: no cover - an op invoked with no caller frame
        site = "<unknown>"
    return op, site


def _module_path(modules: tuple) -> Optional[str]:
    """Dotted attribute path of nested modules, e.g. ``GnnNodeNetwork.lstm``.

    Starts at the outermost module's class name; a module that is not a
    registered child of the one calling it is named by its class.
    """
    if not modules:
        return None
    parts = [type(modules[0]).__name__]
    for parent, child in zip(modules, modules[1:]):
        name = next(
            (key for key, value in parent._modules.items() if value is child),
            type(child).__name__,
        )
        parts.append(name)
    return ".".join(parts)


def _error(message: str, op: str, site: str, phase: str, modules: tuple):
    return NumericalAnomalyError(
        message,
        op=op,
        site=site,
        phase=phase,
        module_chain=[type(m).__name__ for m in reversed(modules)],
        module_path=_module_path(modules),
    )

"""Buffered JSONL trace writer and the process-wide activation stack.

One :class:`TraceWriter` owns one trace file.  Events are dicts appended to
an in-memory buffer and flushed in batches (every ``FLUSH_EVERY`` events, on
``flush()``, and on ``close()``); each event gets a monotonic timestamp
``t`` measured from writer creation, so timelines are immune to wall-clock
steps.  The full event vocabulary is documented in ``TRACE_FORMAT.md``.

Activation follows the ``capture_solver_telemetry`` pattern: a process-wide
stack of active writers.  ``with trace_to(path):`` pushes a writer; every
``SolveSession`` constructed inside the block attaches its solver to the
innermost writer; :func:`trace_event` lets attack loops drop round markers
without caring whether tracing is on (it is a no-op when the stack is
empty).  The stack is intentionally not thread-local — campaign workers are
*processes*, matching the telemetry capture design.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from types import TracebackType
from typing import Dict, Iterator, List, Optional, Type, Union

from contextlib import contextmanager

#: Bump when an event's fields change incompatibly; readers check this.
TRACE_SCHEMA_VERSION = 1

#: Default conflict-sampling stride: one ``conflict`` event per this many
#: conflicts.  Stride 1 records every conflict; larger strides bound trace
#: size and overhead on long solves (200k conflicts → ~3k events at 64).
DEFAULT_STRIDE = 64

#: Buffered events between writes; keeps tracing off the syscall hot path.
FLUSH_EVERY = 256

Event = Dict[str, object]

#: Innermost-last stack of active writers (mirrors telemetry's
#: ``_CAPTURE_FRAMES``).  Removal is by identity so re-entrant use of the
#: same writer object cannot pop the wrong frame.
_ACTIVE: List["TraceWriter"] = []


def active_tracer() -> Optional["TraceWriter"]:
    """The innermost active writer, or None when tracing is off."""
    return _ACTIVE[-1] if _ACTIVE else None


def trace_event(kind: str, **fields: object) -> None:
    """Emit one event to the active writer; no-op when tracing is off.

    This is the hook attack loops call for round markers — callers never
    need to know whether a trace is being recorded.
    """
    writer = active_tracer()
    if writer is not None:
        writer.emit(kind, **fields)


class TraceWriter:
    """Buffered writer for one JSONL trace file.

    ``stride`` is the conflict-sampling stride the attached solvers use;
    it is recorded in the leading ``meta`` event so readers can interpret
    sampled counters.  ``metadata`` is free-form context (job key, attack
    name, locked netlist) folded into the ``meta`` event.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        stride: int = DEFAULT_STRIDE,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        if stride < 1:
            raise ValueError(f"trace stride must be >= 1, got {stride}")
        self.path = Path(path)
        self.stride = int(stride)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self._buffer: List[str] = []
        self._events_written = 0
        self._closed = False
        self._t0 = time.perf_counter()
        self.emit(
            "meta",
            schema=TRACE_SCHEMA_VERSION,
            stride=self.stride,
            **(metadata or {}),
        )

    # ------------------------------------------------------------------ emit
    def now(self) -> float:
        """Monotonic seconds since writer creation."""
        return time.perf_counter() - self._t0

    def emit(self, kind: str, /, **fields: object) -> None:
        """Append one event; timestamps and serialisation happen here.

        ``kind`` is positional-only so free-form metadata (e.g. a job's own
        ``"kind"`` field) can never collide with the event envelope; a field
        named ``kind`` or ``t`` would shadow the envelope and is dropped.
        """
        if self._closed:
            return
        event: Event = {"kind": kind, "t": round(self.now(), 6)}
        event.update(
            (key, value) for key, value in fields.items()
            if key not in ("kind", "t")
        )
        self._buffer.append(json.dumps(event, default=str))
        if len(self._buffer) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Write buffered events through to the file."""
        if self._buffer and not self._closed:
            self._handle.write("".join(line + "\n" for line in self._buffer))
            self._handle.flush()
            self._events_written += len(self._buffer)
            self._buffer.clear()

    def close(self) -> None:
        """Flush and close; further emits become no-ops."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._handle.close()

    @property
    def events_written(self) -> int:
        return self._events_written + len(self._buffer)

    # --------------------------------------------------------------- context
    def __enter__(self) -> "TraceWriter":
        _ACTIVE.append(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        # Identity-based removal: tolerates (mis-)nested exits the same way
        # telemetry capture frames do.
        for index in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[index] is self:
                del _ACTIVE[index]
                break
        self.close()


@contextmanager
def trace_to(
    path: Union[str, Path],
    *,
    stride: int = DEFAULT_STRIDE,
    metadata: Optional[Dict[str, object]] = None,
) -> Iterator[TraceWriter]:
    """Record a trace of everything solved inside the ``with`` block.

    Usage::

        with trace_to("run.trace.jsonl", metadata={"attack": "sat"}):
            result = sat_attack(...)
    """
    writer = TraceWriter(path, stride=stride, metadata=metadata)
    with writer:
        yield writer

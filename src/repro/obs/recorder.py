"""The event bus: :class:`Recorder`, spans, and the ambient recorder.

A :class:`Recorder` fans typed events out to pluggable sinks and stamps
each event with the current span path.  The module-level
:data:`NULL_RECORDER` is the disabled bus: emitters guard their hot paths
on ``recorder.active`` (a plain class attribute), so the instrumentation
cost with recording off is one attribute load and branch — within the
< 5 % overhead budget enforced by ``benchmarks/perf/bench_perf_obs.py``.

The *ambient* recorder makes the spine reach code that predates it:
:func:`install` pushes a recorder for the duration of a ``with`` block and
every Engine / ledger / framework run constructed inside resolves it via
:func:`current_recorder` (unless handed an explicit one).  This is how
``python -m repro trace`` instruments experiments whose ``run()`` signature
never mentions observability.  The ambient stack is process-global and not
thread-safe; the engine itself is single-threaded.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, fields
from typing import Iterable, List, Optional

from .events import EVENT_TYPES, SpanEvent


class Recorder:
    """Dispatches typed events to sinks, tracking a span (phase) stack.

    Besides :meth:`emit` and :meth:`span`, every event class other than
    :class:`~repro.obs.events.SpanEvent` gets an emitter named after its
    kind (``serve.request`` -> ``serve_request``) that takes the event's
    fields in declaration order, minus ``span``, and stamps the current
    span path: ``rec.round(round_no, messages, bits, mode="", model="")``,
    ``rec.deliver(round_no, src, dst, bits, value=None)``, and so on.
    """

    #: Emitters skip event construction entirely when this is False.
    active = True

    def __init__(self, sinks: Optional[Iterable] = None):
        self.sinks: List = list(sinks) if sinks is not None else []
        self._span_stack: List[str] = []
        self._span_path = ""

    # -- sink management ------------------------------------------------

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def close(self) -> None:
        """Close every sink that holds a resource (e.g. JSONL files)."""
        for sink in self.sinks:
            sink.close()

    def fork(self, *extra_sinks) -> "Recorder":
        """A recorder feeding this one's sinks plus ``extra_sinks``.

        The fork starts at this recorder's current span path, so events
        emitted through it attribute to the phase that was open when the
        fork was made.  An inactive recorder contributes no sinks.
        """
        sinks = list(self.sinks) if self.active else []
        sinks.extend(extra_sinks)
        fork = Recorder(sinks)
        fork._span_stack = list(self._span_stack)
        fork._span_path = self._span_path
        return fork

    # -- emission -------------------------------------------------------

    def emit(self, event) -> None:
        for sink in self.sinks:
            sink.handle(event)

    # -- spans ----------------------------------------------------------

    @property
    def span_path(self) -> str:
        """The ``/``-joined path of currently open spans ("" at top level)."""
        return self._span_path

    @contextmanager
    def span(self, name: str):
        """Open a named phase; events emitted inside carry its path."""
        self._span_stack.append(name)
        self._span_path = "/".join(self._span_stack)
        self.emit(SpanEvent(name, "begin", self._span_path))
        try:
            yield self
        finally:
            self.emit(SpanEvent(name, "end", self._span_path))
            self._span_stack.pop()
            self._span_path = "/".join(self._span_stack)


def _add_emitter(cls) -> None:
    """Compile and attach the :class:`Recorder` method emitting ``cls``.

    Generated source, like the ``__init__`` of a dataclass, so the hot
    path is one positional constructor call with the real signature.
    """
    name = cls.kind.replace(".", "_")
    params, args, namespace = ["self"], [], {"_cls": cls}
    for f in fields(cls)[:-1]:  # every field but the trailing span
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_{f.name}"] = f.default
            params.append(f"{f.name}=_{f.name}")
        args.append(f.name)
    exec(
        f"def {name}({', '.join(params)}):\n"
        f"    self.emit(_cls({', '.join(args)}, self._span_path))\n",
        namespace,
    )
    method = namespace[name]
    method.__qualname__ = f"Recorder.{name}"
    method.__doc__ = f"Emit one :class:`{cls.__name__}` at the open span."
    setattr(Recorder, name, method)


for _cls in EVENT_TYPES:
    if _cls is not SpanEvent:
        _add_emitter(_cls)
del _cls


class NullRecorder(Recorder):
    """The disabled bus: no sinks, a no-op :meth:`emit`, inert spans.

    Emitters should still guard on :attr:`active` so the disabled path
    never constructs event objects; the inherited emitters stay callable
    as a backstop for call sites that don't, their events dropped here.
    """

    active = False

    def add_sink(self, sink) -> None:  # pragma: no cover - defensive
        raise ValueError("cannot attach sinks to the null recorder")

    def emit(self, event) -> None:
        pass

    def span(self, name: str):
        return nullcontext(self)


#: The process-wide disabled recorder (shared; stateless).
NULL_RECORDER = NullRecorder()

#: Ambient recorder stack; the top entry is what unparameterized
#: constructors pick up.  Bottom entry is the null recorder, so recording
#: is off unless something :func:`install`\ s a live recorder.
_AMBIENT: List[Recorder] = [NULL_RECORDER]


def current_recorder() -> Recorder:
    """The recorder new engines/ledgers adopt when none is passed."""
    return _AMBIENT[-1]


@contextmanager
def install(recorder: Recorder):
    """Make ``recorder`` ambient for the duration of the ``with`` block."""
    _AMBIENT.append(recorder)
    try:
        yield recorder
    finally:
        _AMBIENT.pop()

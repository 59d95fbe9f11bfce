"""In-memory span tracer and the self-time ledger built from its spans.

The benchmark never edits the program to trace it. :class:`Tracer`
replaces module and class attributes with timing wrappers
(:meth:`Tracer.install`) and puts the original objects back
(:meth:`Tracer.remove`). Each wrapped call records one :class:`Span`
in memory; :func:`ledger` turns the spans into self times per layer
once the run is over.

Self time is computed per thread: a span's children are the spans that
opened inside it on the same thread. Work the supervisor runs on its
worker thread therefore does not reduce the self time of the parent
thread's waiting span; it is reported on its own as off-thread time.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One wrapped call: ``end`` is None while the call is open."""

    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    thread: int
    run: object
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Target:
    """One attribute to wrap.

    Attributes:
        owner: The module or class that holds the attribute.
        attr: Attribute name.
        span: Span name (the layer it is charged to), or None to only
            count calls without recording a span.
        count: Optional ``count(tracer, span, args, kwargs, result)``
            hook run after the call returns, outside the span.
        tag: Optional ``tag(args, kwargs)`` stored on the span before
            the call, so hooks of nested calls can read it.
    """

    owner: object
    attr: str
    span: str | None
    count: object = None
    tag: object = None


@dataclass
class Tracer:
    """Records spans for the calls of the installed wrappers.

    Wrappers only record in the process that installed them: pool
    workers forked from a traced parent run the original code path at
    the cost of one ``getpid`` per call.
    """

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    run: object = None

    def __post_init__(self) -> None:
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def stack(self) -> list:
        """Open spans of the calling thread, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount=1) -> None:
        """Add to one work counter (hooks run on worker threads too)."""
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str, tag=None) -> Span:
        stack = self.stack()
        span = Span(id=next(self._ids), name=name, start=time.perf_counter(),
                    end=None, parent=stack[-1].id if stack else None,
                    thread=threading.get_ident(), run=self.run, tag=tag)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack().pop()

    def _wrap(self, target: Target, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            span = None
            if target.span is not None:
                tag = target.tag(args, kwargs) if target.tag else None
                span = tracer.open(target.span, tag)
            try:
                result = original(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.close(span)
            if target.count is not None:
                target.count(tracer, span, args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, targets) -> None:
        """Replace every target attribute with a recording wrapper."""
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for target in targets:
            original = vars(target.owner)[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))

    def remove(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Self time of every closed span: its duration minus the time its
    same-thread children cover (children run sequentially inside their
    parent, so their durations add)."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) \
                + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0)
            for span in spans}


def ledger(spans, wall: float, main_thread: int) -> dict:
    """Split a traced wall into self time per span name.

    Args:
        spans: Closed spans recorded inside the traced windows.
        wall: Total length of the traced windows on the main thread.
        main_thread: Thread ident the wall was measured on.

    Returns a dict with ``self`` and ``inclusive`` seconds per name
    (all threads), ``main_self`` (main thread only), ``unattributed``
    (main-thread wall no span covers) and ``offthread`` (self time of
    spans on other threads, which overlaps the main thread's wall).
    By construction ``sum(main_self) + unattributed == wall``.
    """
    own = self_times(spans)
    totals: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    main_self: dict[str, float] = {}
    covered = 0.0
    offthread = 0.0
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
        inclusive[span.name] = inclusive.get(span.name, 0.0) \
            + span.duration
        if span.thread == main_thread:
            main_self[span.name] = main_self.get(span.name, 0.0) \
                + own[span.id]
            if span.parent is None:
                covered += span.duration
        else:
            offthread += own[span.id]
    return {"self": totals, "inclusive": inclusive, "main_self": main_self,
            "unattributed": wall - covered, "offthread": offthread,
            "wall": wall}

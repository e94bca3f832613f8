"""In-memory span tracer that wraps library entry points for one traced pass.

A span records (id, name, start, end, parent id, op id, extra counters).
Wrapping replaces a function everywhere the library holds a reference to it
(the defining module and every ``bqrelax`` module that imported it by name),
and ``restore`` puts every original back, so untraced runs never pay for the
wrappers.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    extra: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: span ``name`` around ``owner.attr``.

    ``before(args, kwargs)`` and ``after(result)`` return counters stored on
    the span (for example array shapes or solution fields)."""

    name: str
    owner: object
    attr: str
    before: object = None
    after: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        def traced(*args, **kwargs):
            extra = target.before(args, kwargs) if target.before else {}
            with self.span(target.name, **extra) as span:
                result = fn(*args, **kwargs)
            if target.after:
                span.extra.update(target.after(result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, **extra):
        """One span around the block; nested spans get it as their parent."""
        sid = len(self.spans)
        span = Span(sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, extra)
        self.spans.append(span)
        self._stack.append(sid)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def install(self, targets) -> None:
        library = [m for name, m in sys.modules.items()
                   if name == "bqrelax" or name.startswith("bqrelax.")]
        for target in targets:
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(target, original)
            holders = [(target.owner, target.attr)]
            for mod in library:
                for name, obj in list(vars(mod).items()):
                    if obj is original and (mod, name) != holders[0]:
                        holders.append((mod, name))
            for owner, attr in holders:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()


def children(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_time(span: Span, kids: dict[int, list[Span]]) -> float:
    """Duration minus the part of it that child spans cover (children of one
    span never overlap: the program is single-threaded)."""
    return span.dur - sum(c.dur for c in kids.get(span.sid, []))

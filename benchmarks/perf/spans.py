"""In-memory span recorder and the wrappers that feed it.

The harness never edits the program: it replaces *instance* attributes
(``obj.method = wrapped``) on the objects a workload built, so every
span comes from outside and disappears with the instance.  A span is
``(bucket, start_ns, end_ns, parent)``; spans are kept in memory and
aggregated once, after the traced run has ended.

Self time is a span's duration minus the part its child spans cover;
with one driver thread children never overlap, so that is simply the
sum of the children's durations.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["BucketStats", "SpanRecorder", "aggregate"]

#: ``on_return(result, args, kwargs)`` hook signature: counts are taken
#: at the same boundary the span is recorded at.
ReturnHook = Callable[[Any, tuple, dict], None]
#: ``bucket(args, kwargs)``: pick the span's bucket from the call.
BucketChooser = Callable[[tuple, dict], str]


class SpanRecorder:
    """Records nested spans from wrapped calls.

    ``spans`` grows by one ``[bucket, start_ns, end_ns, parent]`` entry
    per wrapped call; ``parent`` is the index of the enclosing span or
    ``-1``.  ``counts`` are plain named counters bumped by return hooks.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        #: > 0 while paused: wrapped calls run straight through and
        #: record nothing.
        self._muted = 0

    # -- recording -------------------------------------------------------

    def open(self, bucket: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([bucket, perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {index} closed while span {popped} was innermost"
            )

    def count(self, name: str, by: float = 1) -> None:
        if not self._muted:
            self.counts[name] = self.counts.get(name, 0) + by

    def pause(self) -> None:
        """Stop recording (warm-up rounds run with the wrappers on)."""
        self._muted += 1

    def resume(self) -> None:
        self._muted -= 1

    # -- wrapping --------------------------------------------------------

    def wrap(
        self,
        obj: Any,
        method: str,
        bucket: Union[str, BucketChooser],
        on_return: Optional[ReturnHook] = None,
    ) -> None:
        """Replace ``obj.method`` with a span-recording pass-through.

        The wrapper returns what the method returns and re-raises what
        it raises; the span is closed either way.  ``bucket`` may be a
        function of the call's ``(args, kwargs)`` when one method does
        two kinds of work (a layer's training and inference forward).
        """
        inner = getattr(obj, method)
        recorder = self
        choose = bucket if callable(bucket) else None

        def wrapped(*args, **kwargs):
            if recorder._muted:
                return inner(*args, **kwargs)
            index = recorder.open(
                bucket if choose is None else choose(args, kwargs)
            )
            try:
                result = inner(*args, **kwargs)
            finally:
                recorder.close(index)
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        wrapped.__wrapped__ = inner
        setattr(obj, method, wrapped)

    def wrap_generator(self, obj: Any, method: str, bucket: str) -> None:
        """Like :meth:`wrap` for a method that returns a generator.

        Calling a generator function does no work; the work happens in
        each ``next``.  One span is recorded per resumption, so the
        bucket holds exactly the time spent producing items and none of
        the time the consumer spends between them.
        """
        inner = getattr(obj, method)
        recorder = self

        def wrapped(*args, **kwargs):
            iterator = iter(inner(*args, **kwargs))
            while True:
                if recorder._muted:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                else:
                    index = recorder.open(bucket)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(index)
                yield item

        wrapped.__wrapped__ = inner
        setattr(obj, method, wrapped)


class BucketStats:
    """What one bucket's spans add up to."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0

    @property
    def mean_us(self) -> float:
        return self.total_ns / self.calls / 1e3 if self.calls else 0.0


def aggregate(spans: List[list]) -> Tuple[Dict[str, BucketStats], int]:
    """Per-bucket call counts, inclusive and self time; plus the wall.

    The wall is the summed duration of the root spans (``parent ==
    -1``), so the buckets' self times add up to it exactly: every
    nanosecond of a root belongs to exactly one span's self time.
    """
    self_ns = [span[2] - span[1] for span in spans]
    for index, (_, start, end, parent) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {index} was never closed")
        if parent >= 0:
            self_ns[parent] -= end - start
    buckets: Dict[str, BucketStats] = {}
    wall_ns = 0
    for (bucket, start, end, parent), own in zip(spans, self_ns):
        stats = buckets.get(bucket)
        if stats is None:
            stats = buckets[bucket] = BucketStats()
        stats.calls += 1
        stats.total_ns += end - start
        stats.self_ns += own
        if parent < 0:
            wall_ns += end - start
    return buckets, wall_ns

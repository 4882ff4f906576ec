"""Lightweight metric primitives used across the reproduction.

These are intentionally simple: the evaluation harness mostly reads the
resource ledgers directly, but components also expose counters (messages
sent, rules fired, jobs dispatched) and time series (queue depth over time)
through a :class:`MetricRegistry`.
"""

import bisect


def _labeled_name(name, labels):
    """Canonical registry key for a labelled metric: ``name{k=v,...}``."""
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join(
        "%s=%s" % (key, value) for key, value in sorted(labels.items())))


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError("Counter can only increase (got %r)" % amount)
        self.value += amount

    def __repr__(self):
        return "Counter(%s=%g)" % (self.name, self.value)


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "value")

    def __init__(self, name, value=0.0):
        self.name = name
        self.value = value

    def set(self, value):
        self.value = value

    def add(self, delta):
        self.value += delta

    def __repr__(self):
        return "Gauge(%s=%g)" % (self.name, self.value)


class TimeSeries:
    """An append-only series of ``(time, value)`` observations."""

    __slots__ = ("name", "points")

    def __init__(self, name):
        self.name = name
        self.points = []

    def record(self, time, value):
        if self.points and time < self.points[-1][0]:
            raise ValueError("time must be non-decreasing")
        self.points.append((time, value))

    def __len__(self):
        return len(self.points)

    def values(self):
        return [value for _, value in self.points]

    def times(self):
        return [time for time, _ in self.points]

    def last(self):
        if not self.points:
            return None
        return self.points[-1][1]

    def mean(self):
        if not self.points:
            return 0.0
        return sum(value for _, value in self.points) / len(self.points)

    def maximum(self):
        if not self.points:
            return 0.0
        return max(value for _, value in self.points)

    def snapshot(self, window=None, max_points=None):
        """A bounded copy of the points: the long-run-safe view.

        ``record`` is O(1) but naive exports copy the whole point list --
        ruinous on long diurnal (X13) runs where one series accumulates
        hundreds of thousands of points.  This copies only what leaves:

        * ``window`` -- keep points within the trailing ``window`` seconds
          of the last observation (located by bisection, so the cost is
          O(log n + returned), not O(n));
        * ``max_points`` -- decimate to at most this many points, evenly
          strided, always keeping the first and last of the selection.

        Both ``None`` returns a plain full copy (the legacy behaviour).
        """
        points = self.points
        if window is not None and points:
            if window < 0:
                raise ValueError("window must be >= 0")
            start = points[-1][0] - window
            low = bisect.bisect_left(points, (start,))
            selected_start, selected_end = low, len(points)
        else:
            selected_start, selected_end = 0, len(points)
        count = selected_end - selected_start
        if max_points is not None and count > max_points:
            if max_points < 1:
                raise ValueError("max_points must be >= 1")
            if max_points == 1:
                return [points[selected_end - 1]]
            last = count - 1
            step = last / (max_points - 1)
            return [
                points[selected_start + round(index * step)]
                for index in range(max_points)
            ]
        return points[selected_start:selected_end]

    def time_weighted_mean(self, horizon=None):
        """Mean of a step function defined by the observations."""
        if not self.points:
            return 0.0
        end = horizon if horizon is not None else self.points[-1][0]
        total = 0.0
        for (t0, v0), (t1, _) in zip(self.points, self.points[1:]):
            total += v0 * (t1 - t0)
        last_t, last_v = self.points[-1]
        if end > last_t:
            total += last_v * (end - last_t)
        span = end - self.points[0][0]
        if span <= 0:
            return self.points[-1][1]
        return total / span

    def __repr__(self):
        return "TimeSeries(%s, n=%d)" % (self.name, len(self.points))


class MetricRegistry:
    """Namespaced factory/lookup for counters, gauges and series."""

    __slots__ = ("_counters", "_gauges", "_series")

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._series = {}

    def counter(self, name, labels=None):
        name = _labeled_name(name, labels)
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name, labels=None):
        name = _labeled_name(name, labels)
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def series(self, name, labels=None):
        name = _labeled_name(name, labels)
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def snapshot(self, series_window=None, series_max_points=None):
        """Plain-dict dump of every metric (counters/gauges by value).

        ``series_window`` / ``series_max_points`` bound the exported point
        lists via :meth:`TimeSeries.snapshot` (long diurnal runs would
        otherwise copy every observation on every snapshot).
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "series": {
                n: s.snapshot(window=series_window,
                              max_points=series_max_points)
                for n, s in sorted(self._series.items())
            },
        }

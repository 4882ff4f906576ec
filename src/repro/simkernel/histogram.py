"""Log-bucketed streaming latency histogram.

The flight recorder can answer forensic percentile questions after a
run by sorting every recorded value (O(n log n) per query, O(n)
memory).  That shape cannot back a *live*
health layer: an operator asking "what is the ship-stage p99 right now"
on a grid pushing millions of spans needs O(1) ingest, bounded memory
and cheap quantile reads -- and the per-shard/per-site histograms must
merge exactly so the root and the federation gateways can aggregate.

:class:`LatencyHistogram` is the standard log-bucketed sketch (DDSketch
/ HdrHistogram family): values land in geometrically spaced buckets
``[growth**i, growth**(i+1))`` and a quantile query walks the sparse
bucket table returning each bucket's geometric midpoint.  The relative
error of any reported quantile is therefore bounded by the bucket shape
alone::

    max relative error = sqrt(growth) - 1

The default ``growth=1.015`` bounds error at ~0.75%, comfortably inside
the 1% contract pinned by the property tests, while a full nanosecond-
to-hour dynamic range (13 decades) still fits in ~2000 sparse buckets.
"""

import math

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Mergeable streaming histogram with bounded relative quantile error.

    Args:
        growth: geometric bucket growth factor (> 1).  Quantile error is
            bounded by ``sqrt(growth) - 1``; memory is bounded by the
            number of *occupied* buckets, O(log(max/min) / log(growth)).

    ``record`` is O(1) (one ``math.log`` + dict update), ``quantile`` is
    O(buckets log buckets), ``merge`` is O(buckets of other) and exact:
    merging is commutative and associative because buckets are integer
    counters, so sharded histograms aggregate without error inflation.
    """

    __slots__ = ("growth", "_inv_log_growth", "_log_growth", "_buckets",
                 "_zero", "count", "total", "_min", "_max")

    def __init__(self, growth=1.015):
        if growth <= 1.0:
            raise ValueError("growth must be > 1 (got %r)" % (growth,))
        self.growth = growth
        self._log_growth = math.log(growth)
        self._inv_log_growth = 1.0 / self._log_growth
        self._buckets = {}  # bucket index -> count
        self._zero = 0      # values == 0 get their own exact bucket
        self.count = 0
        self.total = 0.0
        self._min = None
        self._max = None

    # -- ingest -----------------------------------------------------------

    def record(self, value):
        """Record one non-negative latency value.  O(1)."""
        if value < 0:
            raise ValueError("latency cannot be negative (got %r)" % (value,))
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value == 0:
            self._zero += 1
            return
        index = int(math.floor(math.log(value) * self._inv_log_growth))
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    # -- queries ----------------------------------------------------------

    @property
    def min(self):
        return self._min

    @property
    def max(self):
        return self._max

    @property
    def mean(self):
        if not self.count:
            return None
        return self.total / self.count

    def _representative(self, index):
        # Geometric midpoint of [growth**i, growth**(i+1)): equidistant
        # (in relative terms) from both edges, hence the sqrt(growth)-1
        # error bound.
        return math.exp(self._log_growth * (index + 0.5))

    def quantile(self, q):
        """Value at percentile ``q`` in [0, 100], or None when empty.

        q=0 and q=100 return the exact observed min/max; interior
        quantiles use nearest-rank over the bucket table and carry the
        ``sqrt(growth) - 1`` relative error bound.
        """
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100] (got %r)" % (q,))
        if not self.count:
            return None
        if q == 0:
            return self._min
        if q == 100:
            return self._max
        # Nearest-rank: the smallest bucket whose cumulative count
        # covers rank ceil(q/100 * count) >= 1.
        rank = int(math.ceil(q / 100.0 * self.count))
        if rank <= self._zero:
            return 0.0
        seen = self._zero
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                value = self._representative(index)
                # The true value lies inside [min, max]; clamping can
                # only shrink the error of edge buckets.
                if self._max is not None and value > self._max:
                    value = self._max
                if self._min is not None and value < self._min:
                    value = self._min
                return value
        return self._max  # numeric safety net; unreachable in practice

    def percentiles(self, qs=(50, 95, 99)):
        """Mapping ``q -> quantile(q)`` for each q in ``qs``."""
        return {q: self.quantile(q) for q in qs}

    # -- merge / serialisation -------------------------------------------

    def merge(self, other):
        """Fold ``other`` into self (in place).  Exact: integer counter
        addition, so merge order never changes any reported quantile."""
        if not isinstance(other, LatencyHistogram):
            raise TypeError("can only merge LatencyHistogram instances")
        if other.growth != self.growth:
            raise ValueError(
                "cannot merge histograms with different growth factors "
                "(%r vs %r)" % (self.growth, other.growth))
        buckets = self._buckets
        for index, count in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + count
        self._zero += other._zero
        self.count += other.count
        self.total += other.total
        if other._min is not None:
            if self._min is None or other._min < self._min:
                self._min = other._min
        if other._max is not None:
            if self._max is None or other._max > self._max:
                self._max = other._max
        return self

    def to_dict(self):
        """JSON-serialisable snapshot (round-trips via :meth:`from_dict`)."""
        return {
            "growth": self.growth,
            "buckets": {str(index): count
                        for index, count in sorted(self._buckets.items())},
            "zero": self._zero,
            "count": self.count,
            "total": self.total,
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_dict(cls, payload):
        histogram = cls(growth=payload["growth"])
        histogram._buckets = {int(index): count
                              for index, count in payload["buckets"].items()}
        histogram._zero = payload["zero"]
        histogram.count = payload["count"]
        histogram.total = payload["total"]
        histogram._min = payload["min"]
        histogram._max = payload["max"]
        return histogram

    def summary(self, qs=(50, 95, 99)):
        """Compact stats dict used by ``pipeline_report`` and the CLI."""
        stats = {
            "count": self.count,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
        }
        for q, value in self.percentiles(qs).items():
            stats["p%g" % q] = value
        return stats

    def __len__(self):
        return self.count

    def __repr__(self):
        return ("LatencyHistogram(count=%d, min=%r, max=%r, buckets=%d)"
                % (self.count, self._min, self._max,
                   len(self._buckets) + (1 if self._zero else 0)))

"""Deterministic, named random streams.

Every stochastic component pulls its randomness from a named stream derived
from the master seed, so adding a new component (or reordering event
processing) never perturbs the draws seen by existing ones.  This is the
standard multi-stream design for reproducible simulation experiments.
"""

import hashlib
import random


def derive_seed(master_seed, stream_name):
    """Derive a 64-bit child seed from ``(master_seed, stream_name)``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (unlike ``hash()``).
    """
    digest = hashlib.sha256(
        ("%s/%s" % (master_seed, stream_name)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named random stream with the distributions the simulation needs."""

    def __init__(self, master_seed, name):
        self.name = name
        self.seed = derive_seed(master_seed, name)
        self._random = random.Random(self.seed)
        #: ``gauss(mu, sigma)``: the generator's own method, called with no
        #: wrapper frame (devices draw it on every read).
        self.gauss = self._random.gauss

    def uniform(self, low, high):
        return self._random.uniform(low, high)

    def random(self):
        return self._random.random()

    def bounded_gauss(self, mu, sigma, low, high):
        """Gaussian sample clamped into [low, high]."""
        return min(high, max(low, self._random.gauss(mu, sigma)))

    def randint(self, low, high):
        return self._random.randint(low, high)

    def __repr__(self):
        return "RngStream(%r)" % (self.name,)

"""Unit tests for RNG streams."""

from repro.simkernel.rng import RngStream, derive_seed


class TestRng:
    def test_same_seed_same_stream_reproduces(self):
        a = RngStream(7, "dev")
        b = RngStream(7, "dev")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_differ(self):
        a = RngStream(7, "dev1")
        b = RngStream(7, "dev2")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_bounded_gauss_respects_bounds(self):
        stream = RngStream(1, "g")
        values = [stream.bounded_gauss(50, 100, 0, 100) for _ in range(200)]
        assert all(0 <= value <= 100 for value in values)

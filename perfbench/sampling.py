"""Seeded, evenly spread choices shared by the workloads."""

GOLDEN = (5 ** 0.5 - 1) / 2


def spread(rng):
    """An endless sequence in [0, 1) that fills the interval evenly from a seeded start."""
    u = rng.random()
    while True:
        yield u
        u = (u + GOLDEN) % 1


def pick(u, lo, hi):
    """The integer in [lo, hi] at position u of the interval."""
    return lo + int(u * (hi - lo + 1))

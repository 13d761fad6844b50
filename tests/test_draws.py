"""The seeded draws of :func:`rwcolor.lab.random_balanced_bipartition`
against the generator methods they stand for: the owned Fisher-Yates loop
against ``random.Random.shuffle``, and the one-call coin mask against one
``random() < 0.5`` per coin.  Each must give the same outcome and leave the
generator in the same state, checked by the next ``random()``.

Needs no pytest: ``PYTHONPATH=src python tests/test_draws.py`` runs the
same checks on an interpreter that has none.
"""

import random

from rwcolor.lab import _coin_mask, _shuffle

SEEDS = range(30)


def test_shuffle_is_random_shuffle():
    for length in (0, 1, 2, 3, 144, 576, 1296, 5184):
        for seed in SEEDS:
            ref, own = random.Random(seed), random.Random(seed)
            expected, got = list(range(length)), list(range(length))
            ref.shuffle(expected)
            _shuffle(own, got)
            assert got == expected, (length, seed)
            assert own.random() == ref.random(), (length, seed)


def test_coin_mask_is_random_below_half():
    for count in (1, 2, 3, 8, 288, 1152, 2592, 10368):
        for seed in SEEDS:
            ref, own = random.Random(seed), random.Random(seed)
            expected = sum(1 << v for v in range(count) if ref.random() < 0.5)
            assert _coin_mask(own, count) == expected, (count, seed)
            assert own.random() == ref.random(), (count, seed)


if __name__ == "__main__":
    import sys

    test_shuffle_is_random_shuffle()
    test_coin_mask_is_random_below_half()
    print(f"draws match on Python {sys.version.split()[0]}")

"""Golden digests of the closed forms: every average pinned bit for bit.

Each scheme's digest is the first 16 hex digits of a SHA-256 over the
float.hex of its average on a fixed, seeded grid of PER vectors, or over
the ValueError message where the average exceeds float range.  The grid
is drawn with the standard library's random module, and aockit.analysis
and aockit.domain import no numpy, so the digests can be checked on any
interpreter by putting just those two files on a path:

    python tests/test_analysis_golden.py

prints the three digests.  A change that keeps every average keeps every
digest; regenerate one only on a deliberate change of that scheme's
arithmetic, and record it in CHANGES.md.
"""

import hashlib
import random

from aockit.analysis import (
    fdma_avg_aoc_rounds,
    tdma_nr_avg_aoc_slots,
    tdma_r_avg_aoc_slots,
)
from aockit.domain import make_per_vector

NS = (1, 2, 3, 5, 8, 16, 33, 64, 128, 256, 700, 1500)
KINDS = ("zero", "equal", "low", "band", "wide", "mixed", "tiny", "near-one")


def _probs(kind, n, rng):
    if kind == "zero":
        return [0.0] * n
    if kind == "equal":
        return [rng.uniform(0.01, 0.5)] * n
    if kind == "low":         # inside the benchmark's theory scan
        return [rng.uniform(0.0, min(0.2, 8.0 / n)) for _ in range(n)]
    if kind == "band":        # one SNR row of the sweeps: width 0.1
        return [rng.uniform(0.05, 0.15) for _ in range(n)]
    if kind == "wide":
        return [rng.uniform(0.0, 0.9) for _ in range(n)]
    if kind == "mixed":       # exact zeros among PERs up to 0.99
        return [rng.choice((0.0, rng.uniform(0.0, 0.99))) for _ in range(n)]
    if kind == "tiny":
        return [rng.uniform(0.0, 1e-12) for _ in range(n)]
    return [1.0 - rng.uniform(1e-9, 1e-3) for _ in range(n)]  # near-one


def grid():
    rng = random.Random(19)
    return [make_per_vector(_probs(kind, n, rng)) for n in NS for kind in KINDS]


SCHEMES = {
    "tdma-nr": tdma_nr_avg_aoc_slots,
    "tdma-r": tdma_r_avg_aoc_slots,
    "fdma": fdma_avg_aoc_rounds,
}


def digest(scheme):
    fn = SCHEMES[scheme]
    h = hashlib.sha256()
    for p in grid():
        try:
            h.update(float.hex(fn(p)).encode())
        except ValueError as exc:
            h.update(str(exc).encode())
        h.update(b";")
    return h.hexdigest()[:16]


GOLDEN = {
    "tdma-nr": "b8702e83dd86f35c",
    "tdma-r": "896a016ab3de1d94",
    "fdma": "22ad0ae7425205d1",
}


def test_tdma_nr_digest():
    assert digest("tdma-nr") == GOLDEN["tdma-nr"]


def test_tdma_r_digest():
    assert digest("tdma-r") == GOLDEN["tdma-r"]


def test_fdma_digest():
    assert digest("fdma") == GOLDEN["fdma"]


if __name__ == "__main__":
    for name in SCHEMES:
        print(name, digest(name))

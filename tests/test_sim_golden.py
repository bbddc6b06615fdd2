"""Golden trace digests: every kernel's output pinned bit for bit.

Each case runs simulate() on one (scheme, N, PER kind) with _CHUNK set to
7 or 65536 and a horizon that straddles chunk boundaries, and pins the
first 16 hex digits of a SHA-256 over the trace's times and ages and the
float.hex of avg_aoc and ci_halfwidth, or over the ValueError message
when the run collects too little.  A kernel rewrite that keeps the draw
convention keeps every digest; regenerate them only on a deliberate
change of the seed-to-trace mapping, and record it in CHANGES.md.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from aockit import sim
from aockit.domain import SchemeKind, make_per_vector
from aockit.sim import SimConfig, simulate

NS = (1, 2, 6, 11, 17, 48)
KINDS = ("zero", "equal", "band", "mixed")


def _probs(kind, n):
    if kind == "zero":
        return (0.0,) * n
    rng = np.random.default_rng(100 + n)
    if kind == "equal":       # no draw depends on the sending device
        return (round(float(rng.uniform(0.05, 0.2)), 4),) * n
    if kind == "band":        # one SNR row of the workloads: width 0.1
        return tuple(round(float(x), 4) for x in rng.uniform(0.05, 0.15, n))
    # "mixed": a lossless device, a 0.99 device and the rest in [0, 0.5)
    probs = [round(float(x), 4) for x in rng.uniform(0.0, 0.5, n)]
    probs[0] = 0.0
    probs[-1] = 0.99 if n > 1 else probs[-1]
    return tuple(probs)


def _case(scheme, n, kind):
    # (probs, chunk, horizon, seed); each kind meets both chunk sizes
    # across N, and each horizon ends inside a chunk
    chunk = 7 if (NS.index(n) + KINDS.index(kind)) % 2 else 65536
    if chunk == 7:
        horizon = 600 + n
    elif scheme is SchemeKind.FDMA:
        horizon = 2 * (chunk // n) + 17
    else:
        horizon = 2 * chunk + 17
    return _probs(kind, n), chunk, horizon, 1000 * n + KINDS.index(kind)


def digest(scheme, n, kind):
    probs, chunk, horizon, seed = _case(scheme, n, kind)
    config = SimConfig(scheme, make_per_vector(probs), horizon, seed)
    h = hashlib.sha256()
    with mock.patch.object(sim, "_CHUNK", chunk):
        try:
            res = simulate(config)
        except ValueError as exc:
            h.update(str(exc).encode())
        else:
            h.update(res.trace.times.tobytes())
            h.update(res.trace.ages.tobytes())
            h.update(float.hex(res.avg_aoc).encode())
            h.update(float.hex(res.ci_halfwidth).encode())
    return h.hexdigest()[:16]


GOLDEN = {
    ("tdma-nr", 1, "zero"): "6358e93cb967c3d4",
    ("tdma-nr", 1, "equal"): "dd870e7af4ac2ce3",
    ("tdma-nr", 1, "band"): "fdca8ed9c9c950a2",
    ("tdma-nr", 1, "mixed"): "195cf038efe833d3",
    ("tdma-nr", 2, "zero"): "9693d7b0310d9315",
    ("tdma-nr", 2, "equal"): "b2a4084a0660fd58",
    ("tdma-nr", 2, "band"): "7472ca006aa6aa78",
    ("tdma-nr", 2, "mixed"): "e0843e5338641776",
    ("tdma-nr", 6, "zero"): "09be570ca1260684",
    ("tdma-nr", 6, "equal"): "5328a009b356f507",
    ("tdma-nr", 6, "band"): "52a7710b83577a45",
    ("tdma-nr", 6, "mixed"): "4ae69a8acafc33c8",
    ("tdma-nr", 11, "zero"): "4eb2521a98654862",
    ("tdma-nr", 11, "equal"): "224a38b737a59c4f",
    ("tdma-nr", 11, "band"): "6ad0aeba47aee8b6",
    ("tdma-nr", 11, "mixed"): "d03fe29ed68a65fc",
    ("tdma-nr", 17, "zero"): "e3ca61b8ea9593a6",
    ("tdma-nr", 17, "equal"): "94e64791d3d8b208",
    ("tdma-nr", 17, "band"): "2fe31e43ac1efd45",
    ("tdma-nr", 17, "mixed"): "adcc62b00a308562",
    ("tdma-nr", 48, "zero"): "fbf8cf81bbeb6348",
    ("tdma-nr", 48, "equal"): "75c6c5432d031bdb",
    ("tdma-nr", 48, "band"): "ef9f33798abde025",
    ("tdma-nr", 48, "mixed"): "92db73195911ff44",
    ("tdma-r", 1, "zero"): "6358e93cb967c3d4",
    ("tdma-r", 1, "equal"): "dd870e7af4ac2ce3",
    ("tdma-r", 1, "band"): "fdca8ed9c9c950a2",
    ("tdma-r", 1, "mixed"): "195cf038efe833d3",
    ("tdma-r", 2, "zero"): "9693d7b0310d9315",
    ("tdma-r", 2, "equal"): "82e29ebb4ce696cc",
    ("tdma-r", 2, "band"): "f217b9dfc53b60c8",
    ("tdma-r", 2, "mixed"): "da6bd1aae5b9b87f",
    ("tdma-r", 6, "zero"): "09be570ca1260684",
    ("tdma-r", 6, "equal"): "651627ab2838ab9b",
    ("tdma-r", 6, "band"): "11196f36815ab941",
    ("tdma-r", 6, "mixed"): "c53d59fbc25ac8ef",
    ("tdma-r", 11, "zero"): "4eb2521a98654862",
    ("tdma-r", 11, "equal"): "82c154753e751a4c",
    ("tdma-r", 11, "band"): "9213a624f7969fbe",
    ("tdma-r", 11, "mixed"): "2a1862ef96a34213",
    ("tdma-r", 17, "zero"): "e3ca61b8ea9593a6",
    ("tdma-r", 17, "equal"): "2c135d6b32a383a1",
    ("tdma-r", 17, "band"): "301827995b2e7351",
    ("tdma-r", 17, "mixed"): "970181178ba6552e",
    ("tdma-r", 48, "zero"): "fbf8cf81bbeb6348",
    ("tdma-r", 48, "equal"): "c0c221c6787d7927",
    ("tdma-r", 48, "band"): "bd6c0507bdf17c3d",
    ("tdma-r", 48, "mixed"): "f5969f664a6db294",
    ("fdma", 1, "zero"): "6358e93cb967c3d4",
    ("fdma", 1, "equal"): "dd870e7af4ac2ce3",
    ("fdma", 1, "band"): "fdca8ed9c9c950a2",
    ("fdma", 1, "mixed"): "195cf038efe833d3",
    ("fdma", 2, "zero"): "adedc24921df05bd",
    ("fdma", 2, "equal"): "157f6ae9fe6dfee5",
    ("fdma", 2, "band"): "f7a3ac2e7c01a5ce",
    ("fdma", 2, "mixed"): "4cd348e14e306046",
    ("fdma", 6, "zero"): "96bc80595deb407f",
    ("fdma", 6, "equal"): "94439b05fb69d3a4",
    ("fdma", 6, "band"): "73d04b92c27fad37",
    ("fdma", 6, "mixed"): "95f3e27037491dac",
    ("fdma", 11, "zero"): "ae29056cdc84587e",
    ("fdma", 11, "equal"): "ead03c55a5d48ba5",
    ("fdma", 11, "band"): "01f960908317a2b7",
    ("fdma", 11, "mixed"): "219aad6355ba6a7b",
    ("fdma", 17, "zero"): "31323fe207508a8f",
    ("fdma", 17, "equal"): "e84c0ff8e9a527fa",
    ("fdma", 17, "band"): "a244d46569f81320",
    ("fdma", 17, "mixed"): "f0b357606495a930",
    ("fdma", 48, "zero"): "69c268c0af660730",
    ("fdma", 48, "equal"): "92154bc1c0b2befb",
    ("fdma", 48, "band"): "142d14442234567d",
    ("fdma", 48, "mixed"): "77bdf9d69477c6d9",
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda k: k.token)
def test_trace_digest(scheme, n, kind):
    assert digest(scheme, n, kind) == GOLDEN[scheme.token, n, kind]

"""Golden transcripts: sha256 digests of CLI outputs for fixed seeds.

A digest pins the whole RNG stream of a command and every digit it prints,
so any change to a draw, a table or a summation order shows up here.  The
``coeffs``, ``asymptotics`` and ``diagnose`` digests pin the exact series
job: every printed coefficient, the radius fit and both ratio constants.
The ``mixed`` digests pin the node kinds the forest spec does not use:
DERIVE, UNION, SEQ and integral and rational WEIGHT.  The
``tv`` digests assume TV sums taken with ``math.fsum``, which makes them
independent of the order of the keys.
"""

import hashlib

import pytest

from polyagibbs.cli import main

FOREST = "T := ATOM * SET(T); F := COMPOSE(SET, T);"
SEQ_FOREST = "T := ATOM * SET(T); F := COMPOSE(SEQ, T);"
# DERIVE, a rational WEIGHT, SEQ and UNION inside a SET composite
MIXED = (
    "T := ATOM * SET(T); "
    "D := ATOM * DERIVE(T) + WEIGHT(ATOM, 1/3) * SEQ(ATOM + ATOM * ATOM); "
    "F := COMPOSE(SET, D);"
)
# an integral WEIGHT over a UNION of an atom and a SEQ, under SET and SEQ
MIXED_INNER = "B := ATOM + WEIGHT(ATOM, 2) * SEQ(ATOM + ATOM * ATOM);"

GOLDEN = {
    "coeffs": (
        ["coeffs", "--spec", FOREST, "--trunc", "120"],
        "6d78779662d3d736ac77775703947245233552bf432e59894023caf485398760",
    ),
    "coeffs-mixed": (
        ["coeffs", "--spec", MIXED, "--trunc", "40"],
        "69553ceba38b187085981ca3f9ef3866fcea0df7a4376ae416b9d388d5f94285",
    ),
    "asymptotics": (
        ["asymptotics", "--spec", FOREST, "--trunc", "150"],
        "d6c86c5a59e7414f879912215b06131adead51723d0022c52559de1bc06d83fe",
    ),
    "diagnose": (
        ["diagnose", "--spec", FOREST, "--trunc", "150"],
        "b79a3a2ea553b77fccdbf7148c5f3ef2920c84137844e15e53b965412a4cfab9",
    ),
    "sample-exact": (
        ["sample", "--spec", FOREST, "--trunc", "60", "--sizes", "8", "15",
         "--samples", "1200", "--seed", "11", "--workers", "2"],
        "9cd1aa0206579b912ace7325b73894839666d3a0cedb3db07ec1bf5f1292092c",
    ),
    "sample-exact-mixed": (
        ["sample", "--spec", MIXED_INNER + " F := COMPOSE(SET, B);", "--trunc", "60",
         "--sizes", "7", "13", "--samples", "600", "--seed", "17"],
        "1f67bc7d4bd434422dd4d6fa2fa6df5fef634244e10942a121e3f7938cdf8b3a",
    ),
    "sample-exact-mixed-seq": (
        ["sample", "--spec", MIXED_INNER + " F := COMPOSE(SEQ, B);", "--trunc", "60",
         "--sizes", "7", "13", "--samples", "600", "--seed", "18"],
        "b69bd09525de0377b14ea34f98b3dbed42f76dc7a25b8485e7486a4aad1e8e52",
    ),
    "sample-rejection-set": (
        ["sample", "--spec", FOREST, "--trunc", "60", "--sizes", "6", "10",
         "--samples", "150", "--seed", "12", "--method", "rejection"],
        "59c4af67c3b80668ea73da267b55d1b7015ba4203dbd5ee711544a0aa605f24c",
    ),
    "sample-rejection-seq": (
        ["sample", "--spec", SEQ_FOREST, "--trunc", "60", "--sizes", "6", "9",
         "--samples", "150", "--seed", "13", "--method", "rejection"],
        "88815048bb333bb04151e99ed468a1705a18d82d0106ff4c2a286e4ea91289fb",
    ),
    "limit": (
        ["limit", "--spec", FOREST, "--trunc", "60", "--cap", "7", "--seed", "14"],
        "c4a5f2eebf5547a179c157df8380f6beff8916c14462de15ab298d94728b41e2",
    ),
    "tv-remainder": (
        ["tv", "--spec", FOREST, "--trunc", "60", "--sizes", "8", "10",
         "--samples", "2100", "--cap", "7", "--seed", "15", "--workers", "2",
         "--method", "rejection"],
        "8a3058abd2b0297290871816599661bcfc3bd01269baa9346e848e95afdf3225",
    ),
    "tv-components": (
        ["tv", "--spec", FOREST, "--trunc", "60", "--sizes", "8",
         "--samples", "2500", "--cap", "7", "--seed", "16", "--workers", "2",
         "--experiment", "components"],
        "99a4f737d239b84a4a85a74b9c45910c16f5b9005830659bcdadd0d7aba8aca5",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    path = tmp_path / "out"
    assert main(argv + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

"""Golden transcripts: sha256 digests of CLI outputs for fixed seeds.

A digest pins the whole RNG stream of a command and every digit it prints,
so any change to a draw, a table or a summation order shows up here.  The
``coeffs``, ``asymptotics`` and ``diagnose`` digests pin the exact series
job: every printed coefficient, the radius fit and both ratio constants.
The ``mixed`` digests pin the node kinds the forest spec does not use:
DERIVE, UNION, SEQ and integral and rational WEIGHT.  The
``tv`` digests assume TV sums taken with ``math.fsum``, which makes them
independent of the order of the keys.  The ``csv`` digests pin the CSV
writer of every table command, and ``tv-components-sizes`` a components
run whose sizes share one chunk plan.  ``limit-cap12`` pins the limit law
at the cap and truncation of the ``tv-rejection`` benchmark: 20,299 orbit
probabilities, the tail and the radius sensitivity.  ``limit-seq`` pins a
SEQ limit law, whose remainder is a pair of sequences of linear objects.
``limit-weighted`` pins a limit law whose orbit weights are not 1: rooted
trees weighted 1/3 per atom.  ``sample-exact-bench`` pins the exact draws
and transcript lines of the ``sample-forest`` benchmark's sizes, 20 to 160
under truncation 200, with their many repeated SET children.
``sample-exact-seq-leaves`` pins draws of trees whose leaves are empty
SEQs, ``(o|[])``, each drawn at size 0.
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
    "sample-exact-bench": (
        ["sample", "--spec", FOREST, "--trunc", "200", "--sizes", "20", "40", "80", "160",
         "--samples", "100", "--seed", "24"],
        "18c7866955637fdc386d45fef8e7aaefbe6dff25a832214fabcd0cb12baa3454",
    ),
    "sample-exact-seq-leaves": (
        ["sample", "--spec", "L := ATOM * SEQ(L); F := COMPOSE(SET, L);", "--trunc", "80",
         "--sizes", "30", "60", "--samples", "200", "--seed", "25"],
        "0a12c23f3c37c8dde1b8c75f9141bb43eabed7520bdbb5eb1510da7762fe442a",
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
        "50261d858afcd8501b92d811a5f10a102d5727b13fd788ff68b06f4dbbcea76c",
    ),
    "sample-rejection-seq": (
        ["sample", "--spec", SEQ_FOREST, "--trunc", "60", "--sizes", "6", "9",
         "--samples", "150", "--seed", "13", "--method", "rejection"],
        "477363a203546abeb8221bb5a811b7513df2c47f0b61f2f7a46da4dd3a3de2c4",
    ),
    "limit": (
        ["limit", "--spec", FOREST, "--trunc", "60", "--cap", "7", "--seed", "14"],
        "c4a5f2eebf5547a179c157df8380f6beff8916c14462de15ab298d94728b41e2",
    ),
    "limit-cap12": (
        ["limit", "--spec", FOREST, "--trunc", "200", "--cap", "12", "--seed", "14"],
        "3fe6a0348d6693c5ac2afd3ae531445e0d81252f1fe1ebe32e9291483b65f018",
    ),
    "limit-seq": (
        ["limit", "--spec", "L := ATOM * SEQ(L); F := COMPOSE(SEQ, L);", "--trunc", "60",
         "--cap", "8", "--seed", "14"],
        "30ba73f532f11473e924dc2ed7dea6fe6e02d895222dcb01f75b1f662d3236cd",
    ),
    "limit-weighted": (
        ["limit", "--spec", "T := ATOM * SET(T); W := WEIGHT(T, 1/3); F := COMPOSE(SET, W);",
         "--trunc", "100", "--cap", "8", "--seed", "14"],
        "668ef601bfe160003d37258490db3bbef72b1df10051f95ae29611c7c0fb3871",
    ),
    "tv-remainder": (
        ["tv", "--spec", FOREST, "--trunc", "60", "--sizes", "8", "10",
         "--samples", "2100", "--cap", "7", "--seed", "15", "--workers", "2",
         "--method", "rejection"],
        "37ef60b43cfe5e77bb09a30941c026e069916d3812308f0a04b4ef9f28ab47ba",
    ),
    "tv-components": (
        ["tv", "--spec", FOREST, "--trunc", "60", "--sizes", "8",
         "--samples", "2500", "--cap", "7", "--seed", "16", "--workers", "2",
         "--experiment", "components"],
        "99a4f737d239b84a4a85a74b9c45910c16f5b9005830659bcdadd0d7aba8aca5",
    ),
    "coeffs-csv": (
        ["coeffs", "--spec", FOREST, "--trunc", "120", "--format", "csv"],
        "ccb5977720e9c1a72579dc535c221b9e43c6614856e6e446efb0b70a888924d2",
    ),
    "limit-csv": (
        ["limit", "--spec", FOREST, "--trunc", "60", "--cap", "7", "--seed", "14",
         "--format", "csv"],
        "071ff5f9ae6512e5d010c85b0ac28041c116814eebdab484b88bae553ff31a3d",
    ),
    "asymptotics-csv": (
        ["asymptotics", "--spec", FOREST, "--trunc", "150", "--format", "csv"],
        "6d0721c34fc302fc0e6d8f6e72e8dbc3f08f8f43345f7e7ab0f30f9c323f55dd",
    ),
    "diagnose-csv": (
        ["diagnose", "--spec", FOREST, "--trunc", "150", "--format", "csv"],
        "a2d363c386a4d0993cc5c11815f8bdbce4c51f91d7eb2d5d78a92a7ca12f28c8",
    ),
    "tv-remainder-csv": (
        ["tv", "--spec", FOREST, "--trunc", "60", "--sizes", "8", "10",
         "--samples", "2100", "--cap", "7", "--seed", "15", "--workers", "2",
         "--method", "rejection", "--format", "csv"],
        "3817aaa88ceb105c4ba93c69732dd1d2123406015ac972a5868815857575fb91",
    ),
    "tv-components-csv": (
        ["tv", "--spec", FOREST, "--trunc", "60", "--sizes", "8",
         "--samples", "2500", "--cap", "7", "--seed", "16", "--workers", "2",
         "--experiment", "components", "--format", "csv"],
        "e4bd8099937c2cdb165460b475d38060b93a668bef0c93e5aadba5998b2e7af3",
    ),
    "tv-components-sizes": (
        ["tv", "--spec", FOREST, "--trunc", "60", "--sizes", "8", "10", "12",
         "--samples", "2100", "--cap", "7", "--seed", "19", "--workers", "2",
         "--experiment", "components", "--method", "rejection"],
        "b3a24ec90b76d1211de17f3e2b9cf320528b0ade372e1a25f7f4ab4e811de24a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    path = tmp_path / "out"
    assert main(argv + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

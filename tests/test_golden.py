"""Golden transcripts: sha256 digests of CLI outputs for fixed seeds.

A digest pins the whole RNG stream of a command and every digit it prints,
so any change to a draw, a table or a summation order shows up here.  The
``tv`` digests assume TV sums taken with ``math.fsum``, which makes them
independent of the order of the keys.
"""

import hashlib

import pytest

from polyagibbs.cli import main

FOREST = "T := ATOM * SET(T); F := COMPOSE(SET, T);"
SEQ_FOREST = "T := ATOM * SET(T); F := COMPOSE(SEQ, T);"

GOLDEN = {
    "sample-exact": (
        ["sample", "--spec", FOREST, "--trunc", "60", "--sizes", "8", "15",
         "--samples", "1200", "--seed", "11", "--workers", "2"],
        "9cd1aa0206579b912ace7325b73894839666d3a0cedb3db07ec1bf5f1292092c",
    ),
    "sample-rejection-set": (
        ["sample", "--spec", FOREST, "--trunc", "60", "--sizes", "6", "10",
         "--samples", "150", "--seed", "12", "--method", "rejection"],
        "9314a870e5a8a1826d9930a2475ecabddf8cb3fe5b6846e9fa67289c67bcfa30",
    ),
    "sample-rejection-seq": (
        ["sample", "--spec", SEQ_FOREST, "--trunc", "60", "--sizes", "6", "9",
         "--samples", "150", "--seed", "13", "--method", "rejection"],
        "6c1298f190b149df54aaf2fe57fbc4ffd2c26bb6e81bf40220c0440e9b6baa80",
    ),
    "limit": (
        ["limit", "--spec", FOREST, "--trunc", "60", "--cap", "7", "--seed", "14"],
        "056f7d3e663e0265d0f74893ec3a23abed576a4882a3dddfb015226dea301f32",
    ),
    "tv-remainder": (
        ["tv", "--spec", FOREST, "--trunc", "60", "--sizes", "8", "10",
         "--samples", "2100", "--cap", "7", "--seed", "15", "--workers", "2",
         "--method", "rejection"],
        "395b7a31d685549ab9d03646691d0e90493702f259b83c22ecc816eca2374e2b",
    ),
    "tv-components": (
        ["tv", "--spec", FOREST, "--trunc", "60", "--sizes", "8",
         "--samples", "2500", "--cap", "7", "--seed", "16", "--workers", "2",
         "--experiment", "components"],
        "3acc561fd4ae7c2625587430045e3313cc9b52cec56fa8d1df93a05793e8b95b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    path = tmp_path / "out"
    assert main(argv + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

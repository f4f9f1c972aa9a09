"""Golden pins on the random streams.

A failure here means a change moved what a fixed seed draws: sampled
inputs, mask draws, whole simulate reports or protocol transcripts. Such a change must be
deliberate, re-record these pins, and say so in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from nofkit.core import run
from nofkit.distributions import make_dist
from nofkit.harness import ExperimentConfig, simulate
from nofkit.matrices import InputMatrix
from nofkit.protocols import disj_protocol, gip_protocol, mod3_protocol
from nofkit.tape import RandomTape


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "name, n, k, ell, want",
    [
        ("upsilon", 5, 12, 0, "39a50c356ad682fa"),
        ("upsilon", 5, 12, 3, "ef0e4f6036c71c56"),
        ("upsilon", 5, 12, 12, "6ad13e5b8ab450c0"),
        ("upsilon", 4, 70, 70, "fd3504637f38ca2a"),  # band above 2^63: byte draws
        ("sigma0_ell", 5, 12, 3, "b02f9ec05d873161"),
        ("sigma1_ell", 5, 12, 3, "80316a4d786aee4f"),
        ("nu", 7, 12, None, "12f7f447729a8266"),
        ("uniform", 5, 12, None, "6ad13e5b8ab450c0"),  # = upsilon at ell = k
        ("uniform", 3, 70, None, "5171a4572fad6bcd"),
        ("mu", 5, 12, None, "6498b21f43546c86"),
        ("mu", 1, 1, None, "a0e04662a257c9d1"),  # empty prefix: the row is free
        ("sigma0", 5, 12, None, "0d740ed843f43c79"),
        ("sigma1", 5, 12, None, "63a9c7843fdc0597"),
        ("sigma", 5, 12, None, "f2bcd1744e0fb21b"),
        ("sigma", 4, 70, None, "f6f81efd1410f202"),  # plain ints above 2^63
        ("sigma_ell", 5, 12, 3, "41c8ed65e7ca258c"),
        ("sigma_ell", 5, 12, 12, "787df1d09f1e7767"),  # band draws, unlike sigma
        ("sigma0_ell", 5, 12, 12, "eda1452961e98d76"),
        ("sigma1_ell", 5, 12, 12, "9d088e3a42582245"),
    ],
)
def test_sampled_rows_are_pinned(name, n, k, ell, want):
    rng = np.random.default_rng(2026)
    dist = make_dist(name, n, k, ell=ell)
    assert digest([list(dist.sample(rng).rows) for _ in range(20)]) == want


@pytest.mark.parametrize(
    "protocol, n, k, source, trials, want",
    [
        ("gip", 256, 256, "dist:uniform", 1, "bdc689cb3d5e0f4a"),
        ("disj", 16, 16, "dist:sigma", 10, "dd89de416c44c268"),
        ("mod3", 128, 8, "dist:uniform", 2, "881ebb07e72bf7bd"),
    ],
)
def test_simulate_reports_are_pinned(protocol, n, k, source, trials, want):
    cfg = ExperimentConfig(protocol=protocol, n=n, k=k, source=source, trials=trials, seed=1)
    report = simulate(cfg)
    del report["wall_clock_s"]
    assert digest(report) == want


@pytest.mark.parametrize(
    "n, k, want",
    [
        (128, 8, "eeeb5ea2ab00bdaa"),  # 2 blocks x 9 repetitions, k_eff 8
        (4, 8, "e18f2bcc64523224"),  # one block, columns 4..8 folded
        (3, 4, "73afb6ada8564306"),  # one block, k_eff = k
        (3, 2, "c3220447c977ffc1"),  # gap regime: one-row blocks x 13 repetitions
    ],
)
def test_mod3_transcripts_are_pinned(n, k, want):
    # every (player, bits) entry and the output of 50 runs: a changed
    # message bit shows here even when no report changes
    protocol = mod3_protocol(n, k)
    rng = np.random.default_rng(n * 1000 + k)
    master = RandomTape(master_seed=2026)
    runs = []
    for t in range(50):
        x = InputMatrix(k=k, rows=tuple(int(r) for r in rng.integers(0, 1 << k, size=n)))
        outcome = run(protocol, x, master.sub(f"run{t}"))
        runs.append([[list(e) for e in outcome.transcript.entries], outcome.output])
    assert digest(runs) == want


@pytest.mark.parametrize(
    "build, n, k, want",
    [
        (gip_protocol, 3, 2, "6817456f4ae7c68f"),  # one-row blocks x 13 repetitions
        (gip_protocol, 16, 4, "309a428a30db80ea"),  # 4 blocks x 39 repetitions
        (disj_protocol, 16, 16, "7fe278e599b7b70f"),  # one-block subcalls
        (disj_protocol, 8, 3, "6f5796b994490f66"),  # blocked subcalls
    ],
)
def test_gip_disj_transcripts_are_pinned(build, n, k, want):
    protocol = build(n, k)
    rng = np.random.default_rng(n * 1000 + k)
    master = RandomTape(master_seed=2026)
    runs = []
    for t in range(50):
        x = InputMatrix(k=k, rows=tuple(int(r) for r in rng.integers(0, 1 << k, size=n)))
        outcome = run(protocol, x, master.sub(f"run{t}"))
        runs.append([[list(e) for e in outcome.transcript.entries], outcome.output])
    assert digest(runs) == want

"""Golden pins on the random streams.

A failure here means a change moved what a fixed seed draws: sampled
inputs, mask draws or whole simulate reports. Such a change must be
deliberate, re-record these pins, and say so in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from nofkit.distributions import make_dist
from nofkit.harness import ExperimentConfig, simulate


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

"""Plan-first runs: a protocol's plan is built once per run and is the only
thing its rules read.

The references here rebuild the plan for every rule call, which is only
sound because building a plan is pure in (tape, ns).
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nofkit.core import Transcript, amplify, plurality, run
from nofkit.matrices import InputMatrix, player_view
from nofkit.protocols import disj_protocol, gip_protocol, mod3_protocol
from nofkit.tape import RandomTape

BUILDS = {"gip": gip_protocol, "disj": disj_protocol, "mod3": mod3_protocol}
SMALL = [("gip", 3, 2), ("gip", 5, 4), ("disj", 3, 2), ("disj", 4, 3),
         ("mod3", 3, 2), ("mod3", 6, 4)]


@lru_cache(maxsize=None)
def spec(name, n, k):
    return BUILDS[name](n, k)


def random_input(rng, n, k):
    return InputMatrix(k=k, rows=tuple(int(r) for r in rng.integers(0, 1 << k, size=n)))


def count_draws(monkeypatch):
    counts = {"draws": 0}
    for name in ("randbelow", "bitvector", "stream"):
        real = getattr(RandomTape, name)

        def counted(self, *args, _real=real):
            counts["draws"] += 1
            return _real(self, *args)

        monkeypatch.setattr(RandomTape, name, counted)
    return counts


@pytest.mark.parametrize("name, n, k", [("mod3", 128, 8), ("gip", 16, 4), ("disj", 8, 3)])
def test_one_run_draws_what_one_plan_build_draws(name, n, k, monkeypatch):
    p = spec(name, n, k)
    x = random_input(np.random.default_rng(n + k), n, k)
    tape = RandomTape(master_seed=77)
    counts = count_draws(monkeypatch)
    p.plan(tape, "")
    per_plan = counts["draws"]
    counts["draws"] = 0
    run(p, x, tape)
    assert per_plan > 0 and counts["draws"] == per_plan


def rebuilt_plan_run(p, x, tape):
    """(transcript entries, output) with a fresh plan for every rule call."""
    entries = []
    for i in range(1, p.k + 1):
        msg = p.message_rule(i, player_view(x, i), (), p.plan(tape, ""), "")
        assert len(msg) == p.length_rule(i, p.plan(tape, ""), "")
        if msg:
            entries.append((i, msg))
    transcript = Transcript(entries=tuple(entries))
    return transcript.entries, p.output_rule(transcript, p.plan(tape, ""), "")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_run_equals_a_run_that_rebuilds_the_plan_per_rule_call(shape, seed, input_seed):
    name, n, k = shape
    p = spec(name, n, k)
    x = random_input(np.random.default_rng(input_seed), n, k)
    tape = RandomTape(master_seed=seed)
    out = run(p, x, tape)
    assert (out.transcript.entries, out.output) == rebuilt_plan_run(p, x, tape)


@pytest.mark.parametrize("name, n, k", [("gip", 3, 2), ("disj", 4, 3), ("mod3", 6, 4)])
def test_amplified_plan_protocol_is_three_base_runs_and_their_majority(name, n, k):
    base = spec(name, n, k)
    amplified = amplify(base, 3)
    rng = np.random.default_rng(5)
    for t in range(6):
        x = random_input(rng, n, k)
        tape = RandomTape(master_seed=1000 + t)
        reps = [run(base, x, tape, ns=f"rep{r}/") for r in range(3)]
        said = {i: "".join(dict(o.transcript.entries).get(i, "") for o in reps)
                for i in range(1, k + 1)}
        out = run(amplified, x, tape)
        assert out.transcript.entries == tuple((i, b) for i, b in said.items() if b)
        assert out.output == plurality([o.output for o in reps], 2)

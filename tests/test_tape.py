import hashlib
import pickle
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nofkit import tape
from nofkit.tape import RandomTape, _digest


def test_same_seed_label_same_draw():
    a = RandomTape(42)
    b = RandomTape(42)
    assert a.randbelow("x", 1000) == b.randbelow("x", 1000)
    assert a.bitvector("v", 17) == b.bitvector("v", 17)


def test_labels_separate_streams():
    t = RandomTape(7)
    draws = {t.randbelow(f"label{i}", 1 << 30) for i in range(50)}
    assert len(draws) == 50  # collisions astronomically unlikely


def test_seed_changes_draws():
    assert RandomTape(1).randbelow("x", 1 << 40) != RandomTape(2).randbelow("x", 1 << 40)


def test_sub_tape_is_stable_and_distinct():
    t = RandomTape(9)
    assert t.sub("trial3").master_seed == t.sub("trial3").master_seed
    assert t.sub("trial3").master_seed != t.sub("trial4").master_seed
    assert t.sub("trial3").master_seed != t.master_seed


def test_randbelow_range_and_bound_one():
    t = RandomTape(5)
    for i in range(200):
        assert 0 <= t.randbelow(f"r{i}", 7) < 7
    assert t.randbelow("anything", 1) == 0
    with pytest.raises(ValueError):
        t.randbelow("bad", 0)


def test_randbelow_roughly_uniform():
    t = RandomTape(11)
    counts = Counter(t.randbelow(f"u{i}", 4) for i in range(4000))
    for v in range(4):
        assert 800 < counts[v] < 1200


def test_bitvector_length_and_balance():
    t = RandomTape(13)
    bits = t.bitvector("bits", 2000)
    assert len(bits) == 2000
    assert set(bits) <= {0, 1}
    assert 850 < sum(bits) < 1150


def test_stream_reproducible_and_label_keyed():
    t = RandomTape(21)
    a = t.stream("s").integers(0, 1 << 30, size=5)
    b = t.stream("s").integers(0, 1 << 30, size=5)
    c = t.stream("other").integers(0, 1 << 30, size=5)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_seed_must_fit_64_bits():
    with pytest.raises(ValueError):
        RandomTape(1 << 64)
    with pytest.raises(ValueError):
        RandomTape(-1)


def test_digest_equals_a_freshly_keyed_blake2b():
    # more seeds than the keyed-state memo holds, so evicted states are rebuilt
    for seed in range(0, 1 << 64, (1 << 64) // 1500 + 1):
        key = seed.to_bytes(8, "little")
        for size in (8, 16, 32, 64):
            for label in ("", "sub:trial0", f"rank#{seed % 7}", "\u00e9@3"):
                fresh = hashlib.blake2b(label.encode(), digest_size=size, key=key).digest()
                assert _digest(seed, label, size) == fresh, (seed, size, label)


def chained_randbelow(seed: int, label: str, bound: int) -> int:
    """randbelow as first written: chain freshly keyed 32-byte digests of
    label#0, label#1, ... until they hold 192 bits more than the bound."""
    key = seed.to_bytes(8, "little")
    counter, acc = 0, b""
    while 8 * len(acc) < bound.bit_length() + 192:
        acc += hashlib.blake2b(f"{label}#{counter}".encode(), digest_size=32, key=key).digest()
        counter += 1
    return int.from_bytes(acc, "little") % bound


@pytest.mark.parametrize("bound", [2, 137, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 64) + 1,
                                   1 << 200, 1 << 300])
def test_randbelow_equals_the_chained_digest_loop(bound, monkeypatch):
    labels = ("gip/b0/r0/mask", "disj/t15/gip/b0/r20/mask", "mod3/b1/r8/point", "", "\u00e9#1")
    for seed in (0, 1, 2026, (1 << 64) - 1):
        t = RandomTape(seed)
        want = [chained_randbelow(seed, label, bound) for label in labels]
        assert [t.randbelow(label, bound) for label in labels] == want, seed
        # the block draw is element-wise the same, whatever the batch holds
        assert t.randbelow_each(labels, bound) == want, seed
        assert t.randbelow_each(labels[::-1], bound) == want[::-1], seed
        assert t.randbelow_each((), bound) == []
    # one digest below 2^64, two from 2^64 to 2^320: every digest copies the
    # keyed state once
    digests = []

    class Counted:
        def __init__(self, state):
            self.state = state

        def copy(self):
            digests.append(1)
            return self.state.copy()

    real = tape._keyed
    monkeypatch.setattr(tape, "_keyed", lambda *args: Counted(real(*args)))
    RandomTape(5).randbelow("x", bound)
    assert len(digests) == (1 if bound < 1 << 64 else 2)


def looped_bitvector(seed: int, label: str, count: int) -> tuple[int, ...]:
    """bitvector as first written: chain digests of label@0, label@1, ...
    and read bit i % 8 of byte i // 8, one expression per bit."""
    need = (count + 7) // 8
    out, counter = b"", 0
    while len(out) < need:
        out += _digest(seed, f"{label}@{counter}", size=min(64, need - len(out) + 8))
        counter += 1
    return tuple((out[i // 8] >> (i % 8)) & 1 for i in range(count))


def test_bitvector_equals_the_per_bit_loop():
    for seed in (0, 3, (1 << 64) - 1):
        t = RandomTape(seed)
        for count in [*range(1, 131), 511, 512, 513, 2000]:
            for label in ("disj/t0/subset", "disj/t15/subset"):
                assert t.bitvector(label, count) == looped_bitvector(seed, label, count), count
    assert RandomTape(1).bitvector("x", 0) == ()


def test_randbelow_each_refuses_a_bound_below_one():
    t = RandomTape(3)
    assert t.randbelow_each(["a", "b"], 1) == [0, 0]
    with pytest.raises(ValueError):
        t.randbelow_each(["a"], 0)


def test_tape_pickles_to_an_equal_tape():
    t = RandomTape(12345)
    t.randbelow("warm", 10)
    u = pickle.loads(pickle.dumps(t))
    assert u == t and u.randbelow("x", 1 << 40) == t.randbelow("x", 1 << 40)


seeds = st.integers(0, (1 << 64) - 1)
labels = st.text(max_size=20)


@settings(max_examples=40, deadline=None)
@given(seeds, labels)
def test_same_seed_label_same_draws_property(seed, label):
    a, b = RandomTape(seed), RandomTape(seed)
    assert a.randbelow(label, 1 << 70) == b.randbelow(label, 1 << 70)
    assert a.bitvector(label, 33) == b.bitvector(label, 33)
    assert list(a.stream(label).integers(0, 1 << 62, size=4)) == list(
        b.stream(label).integers(0, 1 << 62, size=4))


@settings(max_examples=40, deadline=None)
@given(seeds, labels, labels)
def test_sub_labels_stable_property(seed, label, other):
    t = RandomTape(seed)
    child = t.sub(label)
    assert child == RandomTape(seed).sub(label)
    assert child.sub(other) == RandomTape(seed).sub(label).sub(other)
    assume(label != other)
    assert child != t.sub(other)

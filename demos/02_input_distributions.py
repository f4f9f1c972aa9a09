"""
Input distribution families
===========================

The experiment harness draws inputs from a small set of named families.
This script prints their exact probability mass at a desk-size shape and
confirms that seeded sampling tracks the mass function.
"""

from collections import Counter

from nofkit import InputMatrix, RandomTape, make_dist

n, k = 2, 2
space = 1 << (n * k)

print(f"shape n={n}, k={k}: {space} matrices\n")

families = [
    ("uniform over the full space", make_dist("uniform", n, k)),
    ("upsilon ell=1 (rows carry at most one zero each)",
     make_dist("upsilon", n, k, ell=1)),
    ("mu (exactly one row all-ones on its first k-1 entries)",
     make_dist("mu", n, k)),
    ("sigma (even mix of zero and one all-ones rows)", make_dist("sigma", n, k)),
    ("nu (inputs summing to 0 mod 3 weighted double)", make_dist("nu", n, k)),
]

for label, dist in families:
    masses = []
    for code in range(space):
        x = InputMatrix.from_code(n, k, code)
        w = dist.pmf(x)
        if w:
            masses.append((code, w))
    head = ", ".join(f"{code}:{w}" for code, w in masses[:6])
    print(f"{label}")
    print(f"  support {len(masses)} of {space}; first cells {head}")

# sampling frequencies follow the exact masses
dist = make_dist("sigma", n, k)
tape = RandomTape(2026)
draws = Counter()
trials = 6000
for t in range(trials):
    x = dist.sample(tape.stream(f"t{t}"))
    draws[x.code()] += 1

print("\nsigma sampling check over", trials, "seeded draws:")
for code in sorted(draws)[:8]:
    x = InputMatrix.from_code(n, k, code)
    expect = float(dist.pmf(x))
    print(f"  code {code:2d}: drawn {draws[code] / trials:.4f}, exact {expect:.4f}")

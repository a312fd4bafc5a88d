"""Fixed reference work, timed next to the CLI commands.

It starts an interpreter, imports numpy and runs a small-array loop plus some
text formatting, the same mix of costs as a regretlab command, but it never
changes with the program under test. The benchmark divides command wall
times by this one's, so that drift in the speed of a shared host cancels.
"""

import json

import numpy as np

ROUNDS = 5000


def main() -> None:
    rng = np.random.Generator(np.random.PCG64(20150701))
    weights = np.ones(11)
    hits = np.zeros(11, dtype=np.int64)
    rows = []
    for t in range(ROUNDS):
        cdf = np.cumsum(weights / weights.sum())
        j = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), 10)
        hits[j] += 1
        weights *= np.exp(0.01 * (np.arange(11) == j))
        weights /= weights.max()
        rows.append(f"{t + 1},{j},{float(cdf[j])!r}")
    text = "\n".join(rows) + json.dumps([int(h) for h in hits])
    if len(text) < ROUNDS:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

"""A seed's PCG64 stream in plain numpy. It gives bit for bit what numpy's
``Generator(PCG64(seed))`` gives the simulator: ``SeedSequence`` seeding, the
step and XSL-RR output, ``random``, ``advance``, and ``integers(0, k)`` by
Lemire's rejection on 32-bit halves, low half first, an odd half kept. numpy's
random package is the tests' oracle; ``simulate`` does not load it (~5 MB of
peak RSS). After k steps from s the state is A_k*s + C_k*inc mod 2**128 (A_k =
M**k, C_k the sum of M**j for j < k); a block of TABLE states comes from
per-process tables of both as (high, low) pairs of uint64 arrays, with uint64
operands only, which numpy's value-based casting and NEP 50 treat alike.
"""

import numpy as np

# Outputs per block: the length of the jump tables.
TABLE = 4096

MULT = 0x2360ED051FC65DA44385DF649FCCF645
MOD = 1 << 128
_W32, _W64 = (1 << 32) - 1, (1 << 64) - 1
_Z, _M32, _S11, _S32, _S58, _S63 = map(np.uint64, (0, _W32, 11, 32, 58, 63))


def _hasher(h: int, mult: int):
    """``SeedSequence``'s 32-bit hash, whose constant h carries across calls."""
    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _W32
        v = v * h & _W32
        return v ^ v >> 16
    return hashmix


def jump(n: int) -> tuple[int, int]:
    """(A_n, C_n): n steps take the state s to A_n*s + C_n*inc."""
    a, c, m, p = 1, 0, MULT, 1
    for bit in bin(n)[:1:-1]:  # low bit first
        if bit == "1":
            a, c = a * m % MOD, (c * m + p) % MOD
        m, p = m * m % MOD, (m + 1) * p % MOD
    return a, c


def _mul(hi, lo, x: int, bh=_Z, bl=_Z) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * x + (bh, bl) mod 2**128. The high word of the low words'
    product comes from their 32-bit halves, no partial sum past 2**64."""
    xl, xh = np.uint64(x & _W64), np.uint64(x >> 64 & _W64)
    x0, x1, a0, a1 = xl & _M32, xl >> _S32, lo & _M32, lo >> _S32
    t = a1 * x0 + (a0 * x0 >> _S32)
    u = a0 * x1 + (t & _M32)
    low = lo * xl + bl
    return a1 * x1 + (t >> _S32) + (u >> _S32) + hi * xl + lo * xh + bh + (low < bl), low


def _tables(n: int) -> list[np.ndarray]:
    """A_k, C_k (hi, lo), k = 1 .. n, doubled: A_(L+k) = A_k*A_L, C_(L+k) = A_k*C_L + C_k."""
    t = [np.array([x], np.uint64) for x in (MULT >> 64, MULT & _W64, 0, 1)]
    while len(t[0]) < n:
        a, c = jump(len(t[0]))
        new = (*_mul(t[0], t[1], a), *_mul(t[0], t[1], c, t[2], t[3]))
        t = [np.concatenate(p) for p in zip(t, new)]
    return t


_A_HI, _A_LO, _C_HI, _C_LO = _tables(TABLE)


class Stream:
    """PCG64's ``state`` and ``inc``, the kept 32-bit ``half`` or None, C_k*inc ``steps``."""

    def __init__(self, seed: int):
        """The (state, inc) of numpy's PCG64 seeded by ``SeedSequence(seed)``."""
        words = [seed >> s & _W32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _W32
            return r ^ r >> 16
        pool = [hashmix(w) for w in (words + [0] * 3)[:4]]
        for s, d in [(s, d) for s in range(4) for d in range(4) if d != s]:
            pool[d] = mix(pool[d], hashmix(pool[s]))
        for e, d in [(e, d) for e in words[4:] for d in range(4)]:
            pool[d] = mix(pool[d], hashmix(e))
        out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
        w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
        self.inc = ((w[2] << 64 | w[3]) << 1 | 1) % MOD
        self.state = (((w[0] << 64 | w[1]) + self.inc) * MULT + self.inc) % MOD
        self.half = None
        self.steps = _mul(_C_HI, _C_LO, self.inc)

    def advance(self, n: int) -> None:
        """Skip n outputs; a kept half is dropped."""
        a, c = jump(n)
        self.state, self.half = (a * self.state + c * self.inc) % MOD, None

    def _block(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next n <= TABLE states (hi, lo) and outputs, not stepped past."""
        hi, lo = _mul(_A_HI[:n], _A_LO[:n], self.state, *(s[:n] for s in self.steps))
        x, r = hi ^ lo, hi >> _S58
        return hi, lo, x >> r | x << (_Z - r & _S63)

    def random(self, size: int) -> np.ndarray:
        """The next ``size`` doubles, each an output's top 53 bits * 2**-53."""
        out = np.empty(size)
        for a in range(0, size, TABLE):
            hi, lo, x = self._block(min(TABLE, size - a))
            np.multiply(x >> _S11, np.float64(2.0**-53), out=out[a:a + len(x)])
            self.state = int(hi[-1]) << 64 | int(lo[-1])
        return out

    def integers(self, k: int, size: int) -> np.ndarray:
        """``size`` draws of ``integers(0, k)``, 1 <= k <= 2**32, as int64: a
        word u gives u*k >> 32 unless u*k mod 2**32 < (2**32 - k) mod k."""
        out = np.zeros(size, dtype=np.int64)
        kk, floor, got = np.uint64(k), np.uint64((2**32 - k) % k), 0
        while got < size and k > 1:
            head = [] if self.half is None else [self.half]
            hi, lo, x = self._block(min(TABLE, (size - got - len(head) + 1) // 2))
            halves = np.stack((x & _M32, x >> _S32), axis=1).reshape(-1)
            m = np.concatenate((np.array(head, np.uint64), halves)) * kk
            ok = np.flatnonzero((m & _M32) >= floor)[:size - got]
            out[got:got + len(ok)] = m[ok] >> _S32
            got += len(ok)
            fresh = (int(ok[-1]) + 1 if got == size else len(m)) - len(head)
            if fresh:
                self.state = int(hi[(fresh - 1) // 2]) << 64 | int(lo[(fresh - 1) // 2])
            self.half = int(halves[fresh]) if fresh % 2 else None
        return out

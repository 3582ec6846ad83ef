"""Brute-force verification sweeps.

Every bound, identity, monotonicity claim, and extremum location exposed by
the library has a registry entry here that re-checks it by dense sampling
and against the oracles in `optimize`, which share no code with the closed
forms under test. Each sweep emits a Certificate.

Randomized targets draw from a Halton sequence scrambled with random digit
permutations (Owen 2017, "A randomized Halton algorithm in R",
arXiv:1706.02808) under a fixed seed (0x5EED, overridable through the
HYPLAM_SEED environment variable), so certificates are reproducible. The
digit permutations come from a pure-Python PCG64 that reproduces numpy's
draws for the seed, so the sampler loads no numpy.random, and its samples
still equal those of scipy.stats.qmc.Halton for the same seed bit for bit.

Each sweep is declared once, by the @claim decorator that adds it to
REGISTRY with its claim and the cap on its sample count.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from . import _rows
from . import lambert as lam
from . import qcbounds as qcb
from .errors import ConfigurationError
from .geometry import (
    Geodesic,
    MoebiusMap,
    _arc,
    _moebius,
    absolute_ratio,
    geodesic_distance,
    geodesic_through,
    hyperbolic_midpoint,
    rho_disk,
    rho_halfplane,
    rho_via_crossratio,
)
from .optimize import _agm_mu, _distance_rows, _mu_inverse_bisect, _sides, _sides_cs
from .optimize import golden_max, golden_min
from .specfun import (
    SQRT2_2,
    arth,
    arth_complement,
    aux_slope_ratio,
    aux_g_le2,
    aux_g_pq,
    aux_h,
    aux_h1,
    aux_h_p,
    big_C_of_p,
    classify_convexity,
    ConvexityClass,
    distortion_A,
    distortion_bracket,
    g_range,
    grotzsch_mu,
    holder_mean,
    lemma_f_c,
    lemma_F_c,
    lemma_G_c,
    mu_inverse,
    phi_K,
    rprime,
    threshold_C,
)

np = _rows.numpy()

DEFAULT_SEED = 0x5EED


def default_seed() -> int:
    """HYPLAM_SEED as an integer literal (24301, 0x5EED), or DEFAULT_SEED
    when it is unset; ConfigurationError unless it is a non-negative integer,
    the seeds numpy's SeedSequence takes, of any size, and hashes as
    _pcg64_words does."""
    raw = os.environ.get("HYPLAM_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        seed = int(raw, 0)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise ConfigurationError(f"HYPLAM_SEED must be a non-negative integer, not {raw!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep to run: the claim's name and the grid size, which the
    claim's @claim may cap. No sweep reads ``params`` or ``tolerance``; they
    stay for callers that build a spec from a RegistryEntry.
    """

    target: str
    grid_size: int
    params: dict = field(default_factory=dict)
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.grid_size < 2:
            raise ConfigurationError("grid_size must be >= 2")
        if not self.tolerance > 0.0:
            raise ConfigurationError("tolerance must be positive")

    def to_dict(self) -> dict:
        return vars(self) | {"params": dict(self.params)}


@dataclass(frozen=True)
class Certificate:
    spec: SweepSpec
    passed: bool
    observed_extremum: float
    witness: tuple
    margin: float
    runtime_ms: int

    def to_dict(self) -> dict:
        """The fields as they are, the spec as its dict; the CLI's JSON
        writer writes a NaN or infinite number as null."""
        return vars(self) | {"spec": self.spec.to_dict()}


@dataclass(frozen=True)
class RegistryEntry:
    """One claim of the paper and its sweep, ``sweep(n, chk)``, which draws
    n = ``samples(grid_size)`` samples and records its sub-checks in chk.

    ``target``, ``params`` and ``tolerance`` are what a caller passes to
    SweepSpec; no sweep reads the last two.
    """

    name: str
    claim: str
    sweep: Callable[[int, _Checker], None] = field(repr=False, compare=False)
    cap: int | None = None

    def samples(self, grid_size: int) -> int:
        """The sample count the sweep draws for a grid size: at most the cap."""
        return grid_size if self.cap is None else min(grid_size, self.cap)

    @property
    def target(self) -> str:
        return self.name

    @property
    def params(self) -> dict:
        return {}

    @property
    def tolerance(self) -> float:
        return SweepSpec.tolerance


_ENTRIES: list[RegistryEntry] = []


def claim(name: str, text: str, cap: int | None = None):
    """Register the decorated sweep as the check of the claim `text`, with at most `cap` samples."""

    def register(sweep):
        _ENTRIES.append(RegistryEntry(name, text, sweep, cap))
        return sweep

    return register


class _Checker:
    """Owns a certificate's facts: its margin, observed value and witness.

    A sub-check passes iff its signed deviation is at most its allowance, so
    a NaN deviation fails it. The margin is the smallest allowance -
    deviation, and NaN while no sub-check has run or once one gave NaN. So
    the certificate passes iff ``margin >= 0``: at least one sub-check ran
    and none failed.

    The observed value is the extremum the sweep hands to ``locate``, as it
    is, whatever sub-checks run after it; without one, it is the largest
    finite deviation of the sub-checks, or 0.0 if none is positive. The
    witness is the located one if non-empty, else that of the sub-check with
    the smallest slack.
    """

    def __init__(self):
        self.margin = math.nan
        self._witness: tuple = ()  # of the smallest-slack sub-check
        self._largest = 0.0
        self._located: tuple[float, tuple] | None = None
        self._count = 0  # sub-checks run

    def require(self, deviation: float, allowance: float, witness: tuple = ()):
        slack = allowance - deviation
        if not self._count or slack < self.margin or math.isnan(slack):
            self.margin, self._witness = slack, witness
        if self._largest < deviation < math.inf:
            self._largest = deviation
        self._count += 1

    def require_all(self, deviations, allowances, witnesses):
        """``require`` once per row, in row order, with the same outcome.

        ``witnesses`` is a (rows, fields) array, one witness per row;
        ``deviations`` and ``allowances`` broadcast to its rows. Only the row
        that would stand goes through ``require``: the first smallest slack,
        or the last NaN if a slack is NaN.
        """
        witnesses = np.asarray(witnesses, dtype=float)
        rows = len(witnesses)
        if rows == 0:
            return
        deviations = np.broadcast_to(deviations, (rows,))
        allowances = np.broadcast_to(allowances, (rows,))
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN slack, as in require
            slack = allowances - deviations
        nan = np.flatnonzero(np.isnan(slack))
        i = nan[-1] if nan.size else int(np.argmin(slack))
        self.require(float(deviations[i]), float(allowances[i]), tuple(witnesses[i].tolist()))
        self._count += rows - 1
        finite = deviations[deviations < math.inf]
        if finite.size:
            self._largest = max(self._largest, float(finite.max()))

    def require_true(self, ok: bool, witness: tuple = ()):
        """A yes/no sub-check: a pass leaves the margin as it is, and neither
        outcome becomes the observed value."""
        self.require(-math.inf if ok else math.inf, 0.0, witness)

    def locate(self, value: float, witness: tuple = ()):
        """Hand over the extremum the sweep located; a later call replaces it."""
        self._located = (value, witness)

    def observed(self) -> tuple[float, tuple]:
        """The certificate's observed value and witness."""
        value, witness = self._located or (self._largest, ())
        return value, witness or self._witness


# ---------------------------------------------------------------------------
# sampling helpers


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _pcg64_words(seed: int):
    """The 32-bit words that numpy's default Generator, made from the integer
    seed, draws one by one, in pure Python: numpy's SeedSequence hash of the
    seed (its 32-bit words into a 4-word pool), PCG64 seeded with
    ``generate_state(4, uint64)``, and each XSL-RR output handed out low half
    first, as numpy's next_uint32 buffers it (O'Neill 2014, "PCG: A family of
    simple fast space-efficient statistically good algorithms for random
    number generation").
    """
    m32, m64, hash_const = 2**32 - 1, 2**64 - 1, 0x43B0D7E5

    def hashmix(value: int, mult: int = 0x931E8875) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & m32
        value = value * hash_const & m32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & m32
        return value ^ value >> 16

    entropy = [seed & m32]
    while seed := seed >> 32:
        entropy.append(seed & m32)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    # generate_state's eight 32-bit words, read in pairs as four uint64, low word first
    state = [hashmix(value, 0x58F38DED) for value in pool * 2]
    s0, s1, i0, i1 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    mult, m128, inc = 0x2360ED051FC65DA44385DF649FCCF645, 2**128 - 1, (i0 << 64 | i1) << 1 | 1
    pcg = (inc + (s0 << 64 | s1)) * mult + inc  # state 0, a step, the seed added, a step
    while True:
        pcg = pcg * mult + inc & m128
        xor, rot = (pcg >> 64 ^ pcg) & m64, pcg >> 122
        out = (xor >> rot | xor << 64 - rot) & m64
        yield out & m32
        yield out >> 32


def _permutation(words, base: int) -> list[int]:
    """0..base-1 shuffled as ``Generator.shuffle`` does with the same draws:
    for i from base-1 down to 1, swap i with a j drawn from [0, i] as the
    first word whose low bits, masked to i's bit length, are at most i."""
    perm = list(range(base))
    for i in range(base - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while (j := next(words) & mask) > i:
            pass
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _halton(n: int, dim: int, seed: int) -> np.ndarray:
    """First n points of the scrambled Halton sequence in [0, 1)^dim: the
    one block of ``_halton_blocks(n, dim, seed, n)``.

    This reproduces the samples of
    ``scipy.stats.qmc.Halton(d=dim, scramble=True, seed=seed).random(n)`` bit
    for bit, memory layout included.
    """
    return next(_halton_blocks(n, dim, seed, n))


def _halton_blocks(n: int, dim: int, seed: int, size: int):
    """The first n points of the scrambled Halton sequence in [0, 1)^dim, as
    consecutive (rows, dim) blocks of ``size`` rows (the last may be
    shorter), each with the bits of those rows of ``_halton(n, dim, seed)``.

    Digit j of the index in the base of dimension k goes through the j-th of
    that base's random permutations (Owen 2017, arXiv:1706.02808), one for
    each b^-j above 2^-54. The permutations are _permutation's draws from
    _pcg64_words(seed), the pure-Python PCG64 that reproduces numpy's bit for
    bit. The draws and the sum follow the order of
    ``scipy.stats.qmc.Halton(d=dim, scramble=True, seed=seed).random(n)``.

    A sample is the left-to-right sum, from 0.0, of the terms
    perm_j[digit_j] * w_j, with w_j = b^-(j+1) by repeated division. With
    ndig the digits that cover the indices 0..n-1 and k the most of them with
    b^k <= _BLOCK, an index is q = hi * b^k + lo. The sum of the first k terms
    depends on lo alone, so it is tabled once for every lo < b^k, whatever n.
    Each of the next ndig - k terms depends on hi alone, and is added as a
    column to the rows of that table that a block spans; each term after
    those is that of digit 0, a constant added to the block's samples. Every
    sample goes through the same additions of the same operands, in the same
    order, as digit by digit, so the bits are the same, whatever the block or k.
    """
    words = _pcg64_words(seed)
    dims = []  # per dimension: b, the table of lo, the terms of hi, the constant terms
    for base in _primes(dim):
        perms = np.array([_permutation(words, base) for _ in range(math.ceil(54 / math.log2(base)) - 1)])
        # terms[j, d] = perm_j[d] * w_j, the product the sum adds for digit d
        terms = np.empty(perms.shape)
        weight = 1.0 / base
        for term, perm in zip(terms, perms):
            term[:] = perm * weight
            weight /= base
        ndig = k = 0
        while base**ndig < n:
            ndig += 1
        while k < ndig and base ** (k + 1) <= _BLOCK:
            k += 1
        low = np.zeros(1)  # the sums of the first j terms, at every lo < b^j
        for term in terms[:k]:
            low = (low[None, :] + term[:, None]).ravel()
        # every digit after the first ndig is 0
        dims.append((base, low, terms[k:ndig], terms[ndig:, 0].tolist()))
    for start in range(0, n, size):
        stop = min(start + size, n)
        out = np.empty((dim, stop - start))
        for row, (base, low, hi_terms, tail) in zip(out, dims):
            width = len(low)
            first = start // width
            hi = np.arange(first, (stop - 1) // width + 1)
            table = np.empty((len(hi), width))
            table[:] = low
            for term in hi_terms:
                hi, digit = np.divmod(hi, base)
                table += term[digit][:, None]
            row[:] = table.ravel()[start - first * width : stop - first * width]
            for term in tail:
                row += term
        yield out.T


#: rows per block in the sweeps that draw pairs of points, Halton samples or
#: grid points block by block. No sweep holds n rows, so the pair sweeps'
#: per-block temporaries set the thorough profile's peak memory, whatever n
_BLOCK = 4096


class _Linspace:
    """np.linspace(start, stop, num, endpoint=endpoint)[first:], for a nonzero
    step, bit for bit, _BLOCK points at a time: point i is i * step + start,
    and the last is stop where endpoint holds."""

    def __init__(self, start, stop, num: int, endpoint: bool = True, first: int = 0):
        self.start, self.stop, self.num, self.endpoint, self.first = start, stop, num, endpoint, first
        self.step = (stop - start) / max(num - 1 if endpoint else num, 1)

    def points(self, lo: int, hi: int) -> np.ndarray:  # points lo, ..., hi - 1
        x = np.arange(lo, hi) * self.step + self.start
        if self.endpoint and hi == self.num > 1:
            x[-1] = self.stop
        return x

    def blocks(self):
        """(i, points i, ..., i + _BLOCK - 1 or the last), block by block."""
        for lo in range(self.first, self.num, _BLOCK):
            yield lo, self.points(lo, min(lo + _BLOCK, self.num))

    def neighbours(self, i: int):
        """Where a golden search refines an extremum at point i: between its neighbours, or i at an end."""
        return tuple(self.points(max(i - 1, self.first), min(i + 2, self.num))[[0, -1]])


class _Extrema:
    """The largest and smallest value, and the indices of the first largest and first smallest, of
    values handed over block by block: those of np.max, np.min, argmax and argmin on all of them,
    so NaN once a value is NaN, and the first NaN both the argmax and the argmin. With steps, its
    ``steps`` are the _Extrema of np.diff of all the values, step i from point i."""

    def __init__(self, steps: bool = False):
        self.max, self.min, self.argmax, self.argmin = -math.inf, math.inf, -1, -1
        self.steps, self._last = _Extrema() if steps else None, np.empty(0)

    def add(self, first: int, vals: np.ndarray):  # the values at points first, first + 1, ...
        if self.steps is not None and len(steps := np.diff(vals, prepend=self._last)):  # from the last value before
            self.steps.add(first - len(self._last), steps)
        self._last = vals[-1:].copy()
        i, j = int(vals.argmax()), int(vals.argmin())
        if self.argmax < 0 or not (self.max >= vals[i] or math.isnan(self.max)):
            self.max, self.argmax = float(vals[i]), first + i
        if self.argmin < 0 or not (self.min <= vals[j] or math.isnan(self.min)):
            self.min, self.argmin = float(vals[j]), first + j


def _grid_extrema(grid: _Linspace, keys, f, prep=None, steps=()) -> dict:
    """Per key, the _Extrema, with its steps for the keys in steps, of f(key, prep(x)), f(key, x) if
    prep is None, over the grid's points x, block by block; prep is taken once a block for all keys."""
    extrema = {key: _Extrema(key in steps) for key in keys}
    for first, x in grid.blocks():
        x = x if prep is None else prep(x)
        for key, ext in extrema.items():
            ext.add(first, f(key, x))
    return extrema


def _require_monotone(chk, grid: _Linspace, ext: _Extrema, increasing: bool, allowance: float, tag: float):
    """ext's values on grid rise, or fall, up to allowance a step; the witness is where the worst step starts."""
    dev, k = (-ext.steps.min, ext.steps.argmin) if increasing else (ext.steps.max, ext.steps.argmax)
    chk.require(dev, allowance, (tag, float(grid.points(k, k + 1)[0])))


def _rises_and_falls(ext: _Extrema) -> bool:  # ext's values rise by over 1e-12 in a step and fall so in another
    return ext.steps.max > 1e-12 and ext.steps.min < -1e-12


def _coords(*zs) -> np.ndarray:
    """The (rows, 2 len(zs)) witness array re z, im z, ... of complex rows."""
    return np.column_stack([part for z in zs for part in (z.real, z.imag)])


def _disk_points(u: np.ndarray) -> np.ndarray:
    """One point of the disk |z| <= 0.98 per row of the 2-dimensional Halton
    samples u, spread uniformly over the disk: radius 0.98 sqrt(u0), angle
    2 pi u1."""
    radius = 0.98 * np.sqrt(u[:, 0])
    angle = 2.0 * math.pi * u[:, 1]
    # the bits of radius * exp(1j * angle), with no complex exp or product
    z = np.empty(len(u), dtype=complex)
    z.real, z.imag = radius * np.cos(angle), radius * np.sin(angle)
    return z


def _point_pairs(n: int, seed: int, gap: float):
    """n pairs of consecutive _disk_points of the seed's 2n Halton samples,
    drawn and mapped _BLOCK pairs at a time: arrays (z1, z2), in draw order,
    with the pairs less than gap apart dropped."""
    for u in _halton_blocks(2 * n, 2, seed, 2 * _BLOCK):
        z = _disk_points(u)
        z1, z2 = z[::2], z[1::2]
        keep = abs(z1 - z2) >= gap
        yield z1[keep], z2[keep]


# ---------------------------------------------------------------------------
# geometry targets


@claim("arc-orthogonality", "arc geodesics meet the unit circle at right angles")
def _t_arc_orthogonality(n: int, chk: _Checker):
    for z1, z2 in _point_pairs(n, default_seed(), 1e-6):
        cross = z1.real * z2.imag - z1.imag * z2.real
        # near-collinear pairs give huge carrier circles where the
        # orthogonality residual is numerically meaningless
        keep = abs(cross) >= 1e-3
        z1, z2 = z1[keep], z2[keep]
        center, radius, e1, e2 = _arc(z1, z2, _rows.rows())
        arc = radius != 0.0
        z1, z2, center, radius, e1, e2 = z1[arc], z2[arc], center[arc], radius[arc], e1[arc], e2[arc]
        dev = abs(abs(center) ** 2 - radius**2 - 1.0) / (1.0 + abs(center) ** 2)
        for e in (e1, e2):
            dev = np.maximum(dev, np.maximum(abs(abs(e) - 1.0), abs(abs(e - center) - radius)))
        # z1 lies on the carrier circle
        dev = np.maximum(dev, np.where(abs(abs(z1 - center) - radius) <= 1e-9, 0.0, 1.0))
        chk.require_all(dev, 1e-9, _coords(z1, z2))


@claim("crossratio-distance", "log cross-ratio with geodesic endpoints equals the disk metric")
def _t_crossratio_distance(n: int, chk: _Checker):
    for z1, z2 in _point_pairs(n, default_seed() + 1, 1e-9):
        dev = abs(rho_via_crossratio(z1, z2) - rho_disk(z1, z2))
        cross = z1.real * z2.imag - z1.imag * z2.real
        chk.require_all(dev, np.where(abs(cross) >= 1e-3, 1e-10, 1e-7), _coords(z1, z2))


@claim("crossratio-invariance", "the absolute ratio is Moebius invariant")
def _t_crossratio_invariance(n: int, chk: _Checker):
    for row in _halton_blocks(n, 12, default_seed() + 2, _BLOCK):
        quad = (4 * row[:, 0:8:2] - 2) + 1j * (4 * row[:, 1:8:2] - 2)
        gap = np.min([abs(quad[:, i] - quad[:, j]) for i in range(4) for j in range(i + 1, 4)], axis=0)
        coeffs = (2 * row[:, 8::2] - 1) + 1j * (2 * row[:, 9::2] - 1)
        a_m, b_m, c_m = 1.0 + coeffs[:, 0], coeffs[:, 1], 0.2 * coeffs[:, 0].conjugate()
        keep = (gap >= 1e-3) & (abs(a_m - b_m * c_m) >= 1e-3)
        quad, a_m, b_m, c_m = quad[keep], a_m[keep, None], b_m[keep, None], c_m[keep, None]
        # one map per row, so the kernel that MoebiusMap calls, which takes
        # per-row coefficients; |c_m| <= 0.2 sqrt 2 puts the pole -1/c_m
        # outside the square [-2, 2]^2 of the quad
        image = _moebius(a_m, b_m, c_m, 1.0, quad)
        before = absolute_ratio(*quad.T)
        after = absolute_ratio(*image.T)
        chk.require_all(abs(after - before), 1e-9 * np.maximum(1.0, before), quad.real)


@claim("isometry", "disk automorphisms and the Cayley map preserve hyperbolic distance", cap=1000)
def _t_isometry(n: int, chk: _Checker):
    n_maps = min(max(n // 10, 10), 100)
    pts = _disk_points(_halton(2 * n, 2, default_seed() + 3))
    mu = _halton(n_maps, 3, default_seed() + 4)
    maps = [
        MoebiusMap.disk_automorphism(
            0.95 * math.sqrt(a) * complex(math.cos(2 * math.pi * b), math.sin(2 * math.pi * b)),
            2 * math.pi * c,
        )
        for a, b, c in mu
    ]
    cay = MoebiusMap.cayley()
    z1, z2 = pts[::2], pts[1::2]
    base = rho_disk(z1, z2)
    witness = _coords(z1, z2)
    # one map per row, as in crossratio-invariance: a block of maps, each on
    # every pair, in one call of the kernel MoebiusMap calls; the automorphisms
    # send the disk |z| <= 0.98 inside the disk, far from their poles
    coeffs = np.array([(m.a, m.b, m.c, m.d) for m in maps])
    per_block = max(1, _BLOCK // len(z1))
    for i in range(0, len(maps), per_block):
        a, b, c, d = coeffs[i : i + per_block].T[:, :, None]
        dev = abs(rho_disk(_moebius(a, b, c, d, z1), _moebius(a, b, c, d, z2)) - base)
        chk.require_all(np.ravel(dev), 1e-10, np.tile(witness, (len(a), 1)))
    chk.require_all(abs(rho_halfplane(cay(z1), cay(z2)) - base), 1e-10, witness[:, :2])


def _chord_samples(n: int, seed: int):
    """Arrays (alpha, s, b, a) over n Halton points: b = cos alpha + i s sin
    alpha on the chord between e^{+-i alpha}, and a the cut of the ray [0, b]
    with the geodesic between e^{+-i alpha}."""
    u = _halton(n, 2, seed)
    alpha = 0.05 + 1.45 * u[:, 0]
    s_chord = -0.95 + 1.9 * u[:, 1]
    b = np.cos(alpha) + 1j * (s_chord * np.sin(alpha))
    w = 1.0 / np.cos(alpha)  # carrier center (real), radius sqrt(w^2 - 1)
    beta = np.arctan2(b.imag, b.real)
    # |t e^{i beta} - w| = r with w^2 - r^2 = 1
    t = w * np.cos(beta) - np.sqrt(w * w * np.cos(beta) ** 2 - 1.0)
    return alpha, s_chord, b, t * (np.cos(beta) + 1j * np.sin(beta))


@claim("midpoint", "midpoint construction halves distances; chord cut is the midpoint of [0,b]")
def _t_midpoint(n: int, chk: _Checker):
    for z1, z2 in _point_pairs(n, default_seed() + 5, 1e-9):
        p = hyperbolic_midpoint(z1, z2)
        half = 0.5 * rho_disk(z1, z2)
        dev = np.maximum(abs(rho_disk(z1, p) - half), abs(rho_disk(p, z2) - half))
        chk.require_all(dev, 1e-10, _coords(z1, z2))
    # chord construction: b on the chord [c, d], a = [0,b] cut with the
    # geodesic between c and d; then rho(0,b) = 2 rho(0,a)
    alpha, s_chord, b, a = _chord_samples(min(n, 200), default_seed() + 6)
    chk.require_all(abs(rho_disk(0.0, b) - 2.0 * rho_disk(0.0, a)), 1e-10, np.column_stack([alpha, s_chord]))


@claim("chord-midpoint-circle", "the Euclidean chord midpoint lies on the hyperbolic circle through 0 around the cut point", cap=500)
def _t_chord_midpoint_circle(n: int, chk: _Checker):
    alpha, s_chord, _, a = _chord_samples(n, default_seed() + 7)
    s = np.cos(alpha)  # Euclidean midpoint of the chord
    chk.require_all(abs(rho_disk(s, a) - rho_disk(0.0, a)), 1e-9, np.column_stack([alpha, s_chord]))


def _symmetric_geodesics(alpha: float):
    """The two pairs of geodesics joining e^{+-i alpha} and -e^{-+i alpha}:
    the pair symmetric about the real axis, then the pair symmetric about
    the imaginary axis."""
    e_a = complex(math.cos(alpha), math.sin(alpha))
    return (
        (geodesic_through(e_a, e_a.conjugate()), geodesic_through(-e_a.conjugate(), -e_a)),
        (geodesic_through(e_a, -e_a.conjugate()), geodesic_through(-e_a, e_a.conjugate())),
    )


@claim("symmetric-geodesic-distance", "numerical geodesic distance matches closed forms for boundary-symmetric pairs")
def _t_symmetric_geodesic_distance(n: int, chk: _Checker):
    alphas = (math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3, 5 * math.pi / 12)
    pairs = [pair for alpha in alphas for pair in _symmetric_geodesics(alpha)]
    dist = _distance_rows(*zip(*pairs))
    for alpha, (d_real, d_imag) in zip(alphas, dist.reshape(-1, 2)):
        # pair symmetric about the real axis: distance 2 arth(cos alpha)
        chk.require(abs(d_real - 2.0 * arth(math.cos(alpha))), 1e-8, (alpha, 1.0))
        # pair symmetric about the imaginary axis: distance 2 log((1+t)/(1-t))
        # with i t the cut of the first geodesic with the imaginary axis: its
        # carrier has center i/sin(alpha) and radius cot(alpha), so that
        # t = (1 - cos(alpha))/sin(alpha) = tan(alpha/2)
        t = math.tan(alpha / 2.0)
        chk.require(abs(d_imag - 2.0 * math.log((1.0 + t) / (1.0 - t))), 1e-8, (alpha, 2.0))


@claim("geodesic-distance-invariance", "the closed-form geodesic distance is invariant under disk automorphisms", cap=64)
def _t_geodesic_distance_invariance(n: int, chk: _Checker):
    # the real-axis symmetric pair moved by automorphisms with |a| <= 0.95: ends within
    # 22 ulp of the circle, distances within 123 ulp (256 allowed) over the first 3 000 seeds
    u = _halton(n, 4, default_seed() + 14)
    alpha, phase = 0.05 + (math.pi / 2.0 - 0.1) * u[:, 0], 2.0 * math.pi * u[:, 3]
    a = 0.95 * np.sqrt(u[:, 1]) * np.exp(2j * math.pi * u[:, 2])
    maps = map(MoebiusMap.disk_automorphism, a.tolist(), phase.tolist())
    ends = [(m(e), m(e.conjugate()), m(-e.conjugate()), m(-e)) for e, m in zip(np.exp(1j * alpha).tolist(), maps)]
    pairs = [(Geodesic(four[:2]), Geodesic(four[2:])) for four in ends]
    rel = abs(geodesic_distance(*zip(*pairs)) / (2.0 * arth(np.cos(alpha))) - 1.0)
    chk.require_all(rel, 256 * 2.0**-52, np.column_stack([alpha, a.real, a.imag, phase]))


# ---------------------------------------------------------------------------
# lemma-function targets

#: a refined extremum's allowed offset from its known place: 4.3 x the worst seen, 2.33e-8
_PLACE_ALLOWANCE = 1e-7


def _check_concave(chk, f, tag: float):
    """Discrete second differences of f, which takes the whole grid, on a 1000-point grid stay nonpositive."""
    vals = f(np.linspace(1e-3, 1.0 - 1e-3, 1000))
    chk.require(float(np.max(vals[2:] - 2.0 * vals[1:-1] + vals[:-2])), 1e-12, (tag,))


def _check_peak(chk, n: int, keys, f):
    """Per key, f(key, r) rises on n points from 1e-3 to sqrt2/2 and falls on n from there to 1 - 1e-3, up to 1e-13."""
    for lo, hi, increasing in ((1e-3, SQRT2_2, True), (SQRT2_2, 1.0 - 1e-3, False)):
        grid = _Linspace(lo, hi, n)
        for key, ext in _grid_extrema(grid, keys, f, steps=keys).items():
            _require_monotone(chk, grid, ext, increasing, 1e-13, key)


@claim("fc-decreasing", "f_c is strictly decreasing (concave at c=1) with the stated ranges", cap=10_000)
def _t_fc_decreasing(n: int, chk: _Checker):
    grid, cs = _Linspace(1e-3, 1.0 - 1e-3, n), (0.3, 0.8, 1.0)
    for c, ext in _grid_extrema(grid, cs, lemma_f_c, steps=cs).items():
        _require_monotone(chk, grid, ext, False, 1e-13, c)
    _check_concave(chk, lambda r: lemma_f_c(1.0, r), 1.0)
    # range checks at c = 1: limit 1 at 0, decay toward 0 at 1
    chk.require(abs(lemma_f_c(1.0, 1e-9) - 1.0), 8.0 * 2.0**-52, (1.0, 0.0))  # f_1 = 1 - r^2/3 + ...: 1 ulp seen
    chk.require(lemma_f_c(1.0, 1.0 - 1e-9), 0.1, (1.0, 1.0))
    chk.locate(float(lemma_f_c(1.0, 0.5)), (0.5,))


@claim("fc-product-unimodal", "arth(cr) arth(cr') peaks exactly at r = sqrt2/2", cap=10_000)
def _t_fc_product_unimodal(n: int, chk: _Checker):
    _check_peak(chk, n, (0.8, 1.0), lemma_F_c)
    for c in (0.8, 1.0):
        _, peak = golden_max(lambda r: lemma_F_c(c, r), 0.5, 0.9, tol=1e-13)
        closed = arth(SQRT2_2 * c) ** 2
        chk.require(abs(peak - closed), 8.0 * 2.0**-52 * closed, (c,))  # 2.43 ulp seen
        # symmetry under r <-> r'
        for r in (0.1, 0.3, 0.6):
            chk.require(abs(lemma_F_c(c, r) - lemma_F_c(c, rprime(r))), 1e-12, (c, r))
    chk.locate(peak, (1.0,))


@claim("gc-sum-range", "the range of arth(cr)+arth(cr') matches the four-regime closed form", cap=20_001)
def _t_gc_sum_range(n: int, chk: _Checker):
    grid = _Linspace(1e-6, 1.0 - 1e-6, n)
    for c, ext in _grid_extrema(grid, (0.5, lam.SUM_CASE1_MAX, 0.85, lam.SUM_CASE3_MIN, 0.95, 1.0), lemma_G_c).items():
        rng = g_range(c)
        _, peak = golden_max(lambda r: lemma_G_c(c, r), *grid.neighbours(ext.argmax), tol=1e-13)
        if math.isfinite(rng.upper):
            chk.require(abs(peak - rng.upper), 8.0 * 2.0**-52 * rng.upper, (c, 1.0))  # 3.04 ulp seen
        if rng.case in (3, 4):
            chk.require(abs(lemma_G_c(c, SQRT2_2) - rng.lower), 8.0 * 2.0**-52 * rng.lower, (c, 0.0))  # 2.27 ulp
            chk.require_true(ext.min >= rng.lower - 1e-10, (c, 0.0))
        else:
            # open infimum arth(c), approached at the endpoints
            chk.require_true(ext.min > rng.lower, (c, 0.0))
            chk.require(abs(lemma_G_c(c, 1e-9) - rng.lower), 1e-3, (c, 0.0))
    chk.locate(peak, (1.0,))


@claim("h1-h-shape", "r'/arth r' increasing/concave; the two-term sum peaks at sqrt2/2", cap=10_000)
def _t_h1_h(n: int, chk: _Checker):
    grid = _Linspace(1e-3, 1.0 - 1e-3, n)
    extrema = _grid_extrema(grid, (aux_h1, aux_h), lambda f, r: f(r), steps=(aux_h1,))
    _require_monotone(chk, grid, extrema[aux_h1], True, 1e-13, 1.0)
    _check_peak(chk, n, (2.0,), lambda _, r: aux_h(r))
    peak = aux_h(SQRT2_2)
    chk.require(abs(peak - math.sqrt(2.0) / math.log(math.sqrt(2.0) + 1.0)), 1e-12, (2.0,))
    _check_concave(chk, aux_h1, 1.0)
    _check_concave(chk, aux_h, 2.0)
    chk.require_true(extrema[aux_h].min > 1.0, (2.0,))
    chk.locate(peak, (SQRT2_2,))


@claim("gle2-monotonicity", "g is decreasing for p<=0, increasing for p>=C, non-monotone between", cap=10_000)
def _t_gle2(n: int, chk: _Checker):
    grid, c_thr = _Linspace(1e-3, 1.0 - 1e-3, n), threshold_C()
    ps = (-1.0, 0.0, c_thr, 1.0, 0.2)
    extrema = _grid_extrema(grid, ps, aux_g_le2, steps=ps)
    for p in (-1.0, 0.0, c_thr, 1.0):
        _require_monotone(chk, grid, extrema[p], p >= c_thr, 1e-13, p)
    chk.require_true(_rises_and_falls(extrema[0.2]), (0.2,))
    chk.require(abs(c_thr - 0.376775), 1e-6, (c_thr,))
    # the threshold equals the peak of 1 - 1/h
    chk.require(abs(c_thr - (1.0 - 1.0 / aux_h(SQRT2_2))), 1e-12, (c_thr,))
    chk.locate(c_thr, (0.2,))


@claim("slope-ratio-decreasing", "the auxiliary ratio is strictly decreasing with values below -2", cap=10_000)
def _t_slope_ratio(n: int, chk: _Checker):
    grid = _Linspace(1e-3, 1.0 - 1e-3, n)
    ext = _grid_extrema(grid, (0.0,), lambda _, r: aux_slope_ratio(r), steps=(0.0,))[0.0]
    _require_monotone(chk, grid, ext, False, 1e-13, 0.0)
    chk.require_true(ext.max < -2.0, (0.0,))
    chk.require(abs(aux_slope_ratio(1e-5) + 2.0), 2.0 * 0.8e-10, (0.0,))  # twice 4r^2/5 of -2 - 4r^2/5 + ...
    chk.locate(aux_slope_ratio(1e-3), (1e-3,))  # the first point, whose row is its scalar call


@claim("hp-range", "h_p decreasing below p for p>=-2; attained sup C(p) in (p,-1) for p<-2", cap=10_000)
def _t_hp_range(n: int, chk: _Checker):
    grid = _Linspace(1e-4, 1.0 - 1e-4, n)
    extrema = _grid_extrema(grid, (-2.0, -1.0, 0.0, -3.0), aux_h_p, steps=(-2.0, -1.0, 0.0))
    # p >= -2: strictly decreasing, everything below p (at p = -2 the gap
    # near 0 is quartic in r, so give float-noise headroom)
    for p in (-2.0, -1.0, 0.0):
        _require_monotone(chk, grid, extrema[p], False, 1e-12, p)
        chk.require(extrema[p].max - p, 1e-12, (p,))
    # p < -2: attained supremum in (p, -1), limits -2 and -inf; near -2, C(p) = p + 5 (p + 2)^2/12 + ...
    c3 = big_C_of_p(-3.0)
    chk.require_true(-3.0 < c3 < -1.0, (-3.0,))
    chk.require(abs(big_C_of_p(-2.000001) + 2.000001), 2.0 * 5.0 / 12.0 * 1e-12, (-2.000001,))  # twice that term
    chk.require_true(big_C_of_p(-10.0) < c3, (-10.0,))
    chk.require(extrema[-3.0].max - c3, 1e-10, (-3.0,))
    # the root of h_p' against the grid-and-golden oracle, both ways
    r_star, oracle = golden_max(lambda r: aux_h_p(-3.0, r), *grid.neighbours(extrema[-3.0].argmax))
    chk.require(abs(oracle - c3), 1e-12 * abs(c3), (-3.0, r_star))
    chk.locate(c3, (-3.0,))


@claim("gpq-monotonicity", "g_pq increasing iff q clears p (or C(p)); sign change below", cap=10_000)
def _t_gpq(n: int, chk: _Checker):
    grid = _Linspace(1e-3, 1.0 - 1e-3, n)
    c3 = big_C_of_p(-3.0)
    rising = ((-2.0, -2.0), (1.0, 1.0), (-2.0, 0.0), (2.0, 3.0), (-3.0, 0.0), (-3.0, c3))
    changing = ((1.0, 0.0), (2.0, 1.0), (-3.0, c3 - 0.05))
    extrema = _grid_extrema(grid, rising + changing, lambda pq, r: aux_g_pq(*pq, r), steps=rising + changing)
    for p, q in rising:
        _require_monotone(chk, grid, extrema[p, q], True, 1e-12, p)
    for pq in changing:
        chk.require_true(_rises_and_falls(extrema[pq]), pq)
    chk.locate(c3, (-3.0, c3))


@claim("arth-mean-extremum", "power means of arth r, arth r' peak/bottom at sqrt2/2 per the order p", cap=20_001)
def _t_arth_mean_extremum(n: int, chk: _Checker):
    target = arth(SQRT2_2)
    grid = _Linspace(1e-6, 1.0 - 1e-6, n)

    def sides(r):  # arth r and arth r', taken once a block for every p
        return arth(r), arth(rprime(r))

    # a peak for p <= 0, a bottom from c_thr on; at p_mid the bound fails on both
    # sides, and the first argmax of "below the target" is the first point below it
    c_thr, p_mid = threshold_C(), 0.2
    mean = lambda p, a: holder_mean(p, *a) < target - 1e-6 if p == p_mid else holder_mean(p, *a)  # noqa: E731
    extrema = _grid_extrema(grid, (-1.0, -0.5, 0.0, c_thr, 1.0, p_mid), mean, sides)
    below = extrema.pop(p_mid)
    for p, ext in extrema.items():
        search, i = (golden_max, ext.argmax) if p <= 0.0 else (golden_min, ext.argmin)
        r_star, top = search(lambda r: holder_mean(p, *sides(r)), *grid.neighbours(i), tol=1e-13)
        chk.require(abs(top - target), 8.0 * 2.0**-52 * target, (p, r_star))  # 1.13 ulp seen
        # at c_thr the second derivative vanishes at sqrt2/2, so the bottom is quartic
        # and its place known to about eps^(1/4) only: 1.69e-4 seen at n = 20 001
        chk.require(abs(r_star - SQRT2_2), 1e-3 if p == c_thr else _PLACE_ALLOWANCE, (p, r_star))
    # values above the target only appear where arth r' is huge, i.e. at
    # extremely small r, so sample log-spaced radii with the cancellation-free complement
    tiny = np.logspace(-30.0, -2.0, 300)
    above = tiny[holder_mean(p_mid, arth(tiny), arth_complement(tiny)) > target + 1e-6]
    chk.require_true(below.max == 1.0 and above.size > 0, (p_mid,))
    first = float(grid.points(below.argmax, below.argmax + 1)[0]) if below.max else 0.0
    chk.locate(target, (first, float(above[0]) if above.size else 0.0))


@claim("arth-convexity-region", "arth is H_{p,q}-convex exactly on the two-piece region", cap=10_000)
def _t_convexity_region(n: int, chk: _Checker):
    u = _halton(n, 2, default_seed() + 8)
    x = 1e-3 + (1.0 - 2e-3) * u[:, 0]
    y = 1e-3 + (1.0 - 2e-3) * u[:, 1]
    ax, ay = np.arctanh(x), np.arctanh(y)
    c3 = big_C_of_p(-3.0)
    convex_pairs = [(-2.0, -2.0), (-2.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (-3.0, c3), (-3.0, 0.0)]
    for p, q in convex_pairs:
        lhs = np.arctanh(holder_mean(p, x, y))
        rhs = holder_mean(q, ax, ay)
        dev = float(np.max(lhs - rhs))
        chk.require(dev, 1e-12, (p, q))
        chk.require_true(classify_convexity(p, q) is not ConvexityClass.NOT_CONVEX, (p, q))
    # outside the region a violation pair must exist
    grid = np.concatenate([np.logspace(-4, -0.31, 40), np.linspace(0.5, 0.999, 40)])
    for p, q in ((1.0, 0.0), (2.0, 1.0)):
        gx, gy = np.meshgrid(grid, grid)
        lhs = np.arctanh(holder_mean(p, gx, gy))
        rhs = holder_mean(q, np.arctanh(gx), np.arctanh(gy))
        chk.require_true(bool(np.any(lhs > rhs + 1e-12)), (p, q))
        chk.require_true(classify_convexity(p, q) is ConvexityClass.NOT_CONVEX, (p, q))


@claim("hyperbolic-mean-bound", "rho(0, .) respects power means of moduli for p >= -2", cap=10_000)
def _t_hyperbolic_mean_bound(n: int, chk: _Checker):
    u = _halton(n, 3, default_seed() + 9)
    p = -2.0 + 5.0 * u[:, 2]
    rx = 1e-3 + 0.996 * u[:, 0]
    ry = 1e-3 + 0.996 * u[:, 1]
    lhs = rho_disk(0.0, holder_mean(p, rx, ry))
    rhs = holder_mean(p, rho_disk(0.0, rx), rho_disk(0.0, ry))
    chk.require_all(lhs - rhs, 1e-12, np.column_stack([p, rx, ry]))


#: relative agreement of mu_inverse with the oracle, per unit of 1 + y: the
#: oracle inherits the AGM's rounding, a few ulp of y, as a relative error of
#: about y ulp in r
_MU_INVERSE_REL = 8.0 * 2.0**-52
#: relative agreement of grotzsch_mu with the AGM oracle, each a few ulp off mu
_MU_AGM_REL = 8.0 * 2.0**-52


@claim("mu-identities", "mu functional identity, round-trip inverse, distortion closed forms", cap=1000)
def _t_mu_identities(n: int, chk: _Checker):
    chk.require(abs(grotzsch_mu(1.0 / math.sqrt(2.0)) - math.pi / 2.0), 1e-12, (SQRT2_2,))
    xs = np.linspace(1e-3, 1.0 - 1e-3, n)
    mu = grotzsch_mu(xs)
    dev = np.abs(mu * grotzsch_mu(rprime(xs)) - math.pi**2 / 4.0)
    chk.require_all(dev, 1e-10, xs[:, None])
    # the closed form against the AGM, which shares no code with it
    agm_mu = _agm_mu(xs)
    chk.require_all(np.abs(mu - agm_mu) / agm_mu, _MU_AGM_REL, xs[:, None])
    chk.require_true(grotzsch_mu(0.1) > grotzsch_mu(0.9), ())
    rs = np.array([0.05, 0.4, 0.9])
    chk.require_all(np.abs(mu_inverse(grotzsch_mu(rs)) - rs), 1e-12, rs[:, None])
    chk.require_all(np.abs(phi_K(1.0, rs) - rs), 1e-12, rs[:, None])
    chk.require_all(np.where(phi_K(2.0, rs) > rs, -math.inf, math.inf), 0.0, rs[:, None])
    n_sub = min(max(n // 10, 20), 100)
    rs = np.linspace(0.01, 0.99, n_sub)
    chk.require_all(np.abs(phi_K(2.0, rs) - 2.0 * np.sqrt(rs) / (1.0 + rs)), 1e-10, rs[:, None])
    # the closed-form inverse against the bisection oracle, on both sides of
    # the switch to the complementary nome at y = pi/2
    ys = np.concatenate([np.geomspace(0.05, 20.0, n_sub), math.pi / 2.0 + np.array([-1e-9, 0.0, 1e-9])])
    oracle = _mu_inverse_bisect(ys)
    chk.require_all(np.abs(mu_inverse(ys) - oracle) / oracle, _MU_INVERSE_REL * (1.0 + ys), ys[:, None])


@claim("distortion-bracket", "A(K) sits inside its two-sided linear/log bracket")
def _t_distortion_bracket(n: int, chk: _Checker):
    chk.require(abs(distortion_A(1.0) - 1.0), 1e-10, (1.0,))
    Ks = np.array([1.0, 1.5, 2.0, 5.0, 14.0, 20.0, 50.0, 1000.0])
    chain = distortion_bracket(Ks)
    # chain with a small slack for the all-equal K = 1 endpoint
    for lo, hi in zip(chain, chain[1:]):
        chk.require_all(lo - hi, 1e-9, Ks[:, None])
    arch_e = math.acosh(math.e)
    u = arch_e * math.tanh(arch_e)
    v = math.log(2.0 * (1.0 + math.sqrt(1.0 - 1.0 / math.e**2)))
    chk.require_true(1.5412 < u < 1.5413, (u,))
    chk.require_true(1.3506 < v < 1.3507, (v,))
    # the library's linear ends are these u and v by the same operations: the
    # difference measured is 0, so is any multiple of it, and a row passes
    # only if equal (a yes/no check, which leaves the margin as it is)
    for end, ref in ((chain[1], u * (Ks - 1.0) + 1.0), (chain[4], v * (Ks - 1.0) + Ks)):
        chk.require_all(np.where(end == ref, -math.inf, math.inf), 0.0, Ks[:, None])
    chk.locate(float(chain[3][-1]), (1000.0,))


# ---------------------------------------------------------------------------
# Lambert / ideal targets


def _side_extrema(n: int, ls, combine):
    """The n-point theta grid on [1e-7, pi/2 - 1e-7] of product-sharpness and sum-cases,
    and per L of ls the _Extrema of combine(d1, d2) on it; cos and sin are taken once a block."""
    grid = _Linspace(1e-7, math.pi / 2.0 - 1e-7, n)
    with np.errstate(divide="ignore"):  # arth 1 = inf, where L cos theta rounds to 1
        extrema = _grid_extrema(grid, ls, lambda L, cs: combine(*_sides_cs(L, *cs)), lambda t: (np.cos(t), np.sin(t)))
    return grid, extrema


@claim("product-sharpness", "d1*d2 bound is attained at theta = pi/4 for every L")
def _t_product_sharpness(n: int, chk: _Checker):
    grid, extrema = _side_extrema(n, [round(0.1 * k, 1) for k in range(1, 11)], np.multiply)
    for L, ext in extrema.items():
        bound = lam.product_bound(L)
        chk.require(ext.max - bound, 1e-12, (L,))
        chk.require(bound - ext.max, 1e-4, (L,))
        th_star, ref = golden_max(lambda t: math.prod(_sides(L, t)), *grid.neighbours(ext.argmax), tol=1e-13)
        chk.require(abs(th_star - math.pi / 4.0), _PLACE_ALLOWANCE, (L, th_star))
        chk.require(abs(ref - bound), 8.0 * 2.0**-52 * bound, (L,))  # the refined maximum: 3.65 ulp seen
    chk.locate(ref, (L, th_star))


@claim("sum-cases", "d1+d2 range matches the four-case formulas with the stated witnesses", cap=200_001)
def _t_sum_cases(n: int, chk: _Checker):
    grid, extrema = _side_extrema(n, (0.5, 0.85, 0.95, 1.0), np.add)
    for L, ext in extrema.items():
        rep = lam.sum_bounds(L)
        if L < 1.0:
            th_star, gmax = golden_max(lambda t: sum(_sides(L, t)), *grid.neighbours(ext.argmax), tol=1e-13)
            chk.require(abs(gmax - rep.upper), 8.0 * 2.0**-52 * rep.upper, (L, th_star))  # 2.03 ulp seen
            if rep.case_label in ("case 2", "case 3"):
                w1 = rep.equality_witness
                w2 = math.pi / 2.0 - w1  # arccos r0' by symmetry
                chk.require(min(abs(th_star - w1), abs(th_star - w2)), _PLACE_ALLOWANCE, (L, th_star))
            chk.locate(gmax, (L, th_star))
        if rep.case_label in ("case 3", "case 4"):
            at_pi4 = sum(_sides(L, math.pi / 4.0))
            chk.require(abs(at_pi4 - rep.lower), 8.0 * 2.0**-52 * rep.lower, (L, math.pi / 4.0))  # 2.27 ulp seen
            chk.require_true(bool(ext.min >= rep.lower - 1e-10), (L,))
        else:
            # open infimum arth(L), approached as theta -> 0 or pi/2
            chk.require_true(bool(ext.min > rep.lower), (L,))
            chk.require(abs(sum(_sides(L, 1e-7)) - rep.lower), 1e-3, (L,))


@claim("thsq-identity", "th^2 d1 + th^2 d2 = L^2", cap=100_000)
def _t_thsq_identity(n: int, chk: _Checker):
    for u in _halton_blocks(n, 2, default_seed() + 10, _BLOCK):
        L = 1e-3 + (1.0 - 1e-3) * u[:, 0]
        theta = 1e-6 + (math.pi / 2.0 - 2e-6) * u[:, 1]
        d1, d2 = lam.side_distances(L, theta)
        chk.require_all(np.abs(np.tanh(d1) ** 2 + np.tanh(d2) ** 2 - L * L), 1e-12, np.column_stack([L, theta]))


def _vertex_angle(q: lam.LambertQuad) -> float:
    """Angle at the fourth vertex from the carrier tangents i (z - c) of its
    two sides, c the center (e1 + e2)/(1 + Re(e1 conj(e2))) of the circle
    orthogonal to the unit circle through a side's ends e1 and e2."""
    z = q.vertices[2]
    tangents = []
    for v in (q.vertices[1], q.vertices[3]):
        e1, e2 = geodesic_through(v, z).endpoints
        tangents.append(1j * (z - (e1 + e2) / (1.0 + (e1 * e2.conjugate()).real)))
    u1, u2 = tangents
    cosang = abs((u1 * u2.conjugate()).real) / (abs(u1) * abs(u2))
    return math.acos(min(1.0, cosang))


@claim("beardon-identity", "sh d1 sh d2 = cos phi; equals 1 when the far vertex is ideal", cap=2000)
def _t_beardon(n: int, chk: _Checker):
    theta = np.array([math.pi / 6.0, math.pi / 4.0, math.pi / 3.0])
    d1, d2 = lam.side_distances(1.0, theta)
    at_one = np.column_stack([np.ones(3), theta])
    chk.require_all(np.abs(np.sinh(d1) * np.sinh(d2) - 1.0), 1e-12, at_one)
    chk.require_all(np.abs(lam.beardon_phi(d1, d2)), 1e-6, at_one)
    u = _halton(n, 2, default_seed() + 11)
    L, theta = 0.05 + 0.94 * u[:, 0], 0.05 + (math.pi / 2.0 - 0.1) * u[:, 1]
    d1, d2 = lam.side_distances(L, theta)
    dev = np.abs(np.sinh(d1) * np.sinh(d2) - np.cos(lam.beardon_phi(d1, d2)))
    chk.require_all(dev, 1e-12, np.column_stack([L, theta]))
    for L, theta in zip(L[:100].tolist(), theta[:100].tolist()):
        # independent route: measure the angle of the quadrilateral geometrically
        q = lam.lambert_from(L, theta)
        chk.require(abs(_vertex_angle(q) - q.phi), 1e-8, (L, theta))


@claim("lambert-oracle-agreement", "numerical geodesic distance reproduces arth(L cos theta)")
def _t_lambert_oracle(n: int, chk: _Checker):
    n_cfg = min(60, max(8, n // 100))
    u = _halton(n_cfg, 2, default_seed() + 12)
    pairs, expected = [], []  # in sub-check order: two geodesics; their distance and witness
    for idx, (ua, ub) in enumerate(u):
        L = 0.2 + 0.79 * ua
        theta = 0.15 + (math.pi / 2.0 - 0.3) * ub
        q = lam.lambert_from(L, theta)
        g_ad = geodesic_through(q.vertices[3], -q.vertices[3])  # the imaginary axis
        g_bc = geodesic_through(q.vertices[1], q.vertices[2])
        pairs.append((g_ad, g_bc))
        expected.append((q.d1, (L, theta)))
        if idx < 4:
            g_ab = geodesic_through(q.vertices[1], -q.vertices[1])  # the real axis
            g_dc = geodesic_through(q.vertices[3], q.vertices[2])
            pairs.append((g_ab, g_dc))
            expected.append((q.d2, (L, theta)))
    for d, (side, witness) in zip(_distance_rows(*zip(*pairs)), expected):
        chk.require(abs(d - side), 1e-8, witness)


@claim("ideal-extrema", "ideal product max / sum min hit their sharp constants at alpha = pi/4", cap=20_001)
def _t_ideal_extrema(n: int, chk: _Checker):
    grid = _Linspace(1e-6, math.pi / 2.0 - 1e-6, n)

    def sides(a):  # of the ideal quadrilateral at alpha: the Lambert sides at L = 1, doubled
        return [2.0 * d for d in _sides(1.0, a)]

    extrema = _grid_extrema(grid, (math.prod, sum), lambda combine, s: combine(s), sides)
    a_star, pmax = golden_max(lambda a: math.prod(sides(a)), *grid.neighbours(extrema[math.prod].argmax), tol=1e-13)
    chk.require(abs(pmax - lam.IDEAL_PRODUCT_BOUND), 8.0 * 2.0**-52 * lam.IDEAL_PRODUCT_BOUND, (a_star,))  # 1.29 ulp
    chk.require(abs(a_star - math.pi / 4.0), _PLACE_ALLOWANCE, (a_star,))
    a_min, smin = golden_min(lambda a: sum(sides(a)), *grid.neighbours(extrema[sum].argmin), tol=1e-13)
    chk.require(abs(smin - lam.IDEAL_SUM_BOUND), 8.0 * 2.0**-52 * lam.IDEAL_SUM_BOUND, (a_min,))  # 1.14 ulp
    chk.require(abs(a_min - math.pi / 4.0), _PLACE_ALLOWANCE, (a_min,))
    chk.require(abs(lam.alpha_from_quadruple(1, 1j, -1, -1j) - math.pi / 4.0), 1e-12, ())
    alpha = math.pi / 6.0
    e_a = complex(math.cos(alpha), math.sin(alpha))
    round_trip = lam.alpha_from_quadruple(e_a, -e_a.conjugate(), -e_a, e_a.conjugate())
    chk.require(abs(round_trip - alpha), 1e-12, (alpha,))
    chk.locate(pmax, (a_star,))


@claim("ideal-subdivision", "ideal side distances agree with the geodesic-distance oracle")
def _t_ideal_subdivision(n: int, chk: _Checker):
    alphas = (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0)
    pairs = [pair for alpha in alphas for pair in _symmetric_geodesics(alpha)]
    dist = _distance_rows(*zip(*pairs))
    for alpha, (d_real, d_imag) in zip(alphas, dist.reshape(-1, 2)):
        d1, d2 = lam.ideal_quad(alpha)
        chk.require(max(abs(d_real - d1), abs(d_imag - d2)), 1e-6, (alpha,))


# ---------------------------------------------------------------------------
# quasiconformal targets


@claim("qc-ml-exceeds-one", "the branch threshold M_L exceeds 1 throughout", cap=1000)
def _t_qc_ml(n: int, chk: _Checker):
    L = np.linspace(qcb.TH1 + 1e-6, 1.0, n)
    ml = qcb.M_L_of(L)
    chk.require_all(np.where(ml > 1.0, -math.inf, math.inf), 0.0, np.column_stack([L, ml]))
    chk.locate(float(np.min(ml)))


@claim("qc-branch-continuity", "the bound is continuous across K = M_L")
def _t_qc_branch_continuity(n: int, chk: _Checker):
    for L in (0.8, 0.9, 1.0):
        ml = qcb.M_L_of(L)
        k_hi = ml * (1.0 + 1e-6)
        r_lk = qcb.solve_r_LK(k_hi, L)
        dev = abs(qcb.T_of(r_lk, L, k_hi) - qcb.T_of(qcb.r_L_of(L), L, k_hi))
        chk.require(dev, 1e-8, (L, k_hi))
        # no jump beyond the local slope across the branch switch
        b_m3 = qcb.qc_product_bound(qcb.QcBoundInput(ml * (1.0 - 3e-6), L)).bound
        b_m1 = qcb.qc_product_bound(qcb.QcBoundInput(ml * (1.0 - 1e-6), L)).bound
        b_p1 = qcb.qc_product_bound(qcb.QcBoundInput(k_hi, L)).bound
        chk.require(abs((b_p1 - b_m1) - (b_m1 - b_m3)), 1e-6, (L, ml))


@claim("qc-k1-reduction", "K = 1 reduces to the unmapped sharp bounds", cap=1000)
def _t_qc_k1_reduction(n: int, chk: _Checker):
    # K = 1 leaves both bounds as they are: 0 ulp seen at every L and at the ideal bound, 2 allowed
    for L in np.linspace(0.01, 1.0, max(n, 100)).tolist():
        bound = lam.product_bound(L)
        chk.require(abs(qcb.qc_product_bound(qcb.QcBoundInput(1.0, L)).bound - bound), 2.0 * 2.0**-52 * bound, (L,))
    chk.require(abs(qcb.qc_ideal_bound(1.0) - lam.IDEAL_PRODUCT_BOUND), 2.0 * 2.0**-52 * lam.IDEAL_PRODUCT_BOUND, (1.0,))


@claim("qc-k-monotonicity", "the bounds are nondecreasing in K")
def _t_qc_monotone(n: int, chk: _Checker):
    ks = np.linspace(1.0, 6.0, 41)
    for L in (0.3, 0.7615, 0.8, 0.95, 1.0):
        vals = [qcb.qc_product_bound(qcb.QcBoundInput(float(K), L)).bound for K in ks]
        dev = -min(b - a for a, b in zip(vals, vals[1:]))
        chk.require(dev, 1e-12, (L,))
    ivals = [qcb.qc_ideal_bound(float(K)) for K in ks]
    dev = -min(b - a for a, b in zip(ivals, ivals[1:]))
    chk.require(dev, 1e-12, (0.0,))


@claim("qc-domination", "the assembled bound dominates the pointwise distortion estimate", cap=10_000)
def _t_qc_domination(n: int, chk: _Checker):
    u = _halton(n, 2, default_seed() + 13)
    # L quantised to 65 levels, so that the (expensive) bound is shared across thetas
    L = np.minimum(0.05 + 0.95 * np.round(64.0 * u[:, 0]) / 64.0, 1.0)
    theta = 1e-3 + (math.pi / 2.0 - 2e-3) * u[:, 1]
    levels, level_of = np.unique(L, return_inverse=True)
    d1, d2 = _sides(L, theta)
    for K in (1.5, 2.0, 5.0):
        bound = np.array([qcb.qc_product_bound(qcb.QcBoundInput(K, x)).bound for x in levels.tolist()])
        lhs = distortion_A(K) ** 2 * np.maximum(d1, d1 ** (1.0 / K)) * np.maximum(d2, d2 ** (1.0 / K))
        chk.require_all(lhs - bound[level_of], 1e-10, np.column_stack([np.full(n, K), L, theta]))


@claim("qc-branch-decided", "the T terms the QC bounds skip lie below the unmapped bounds that win their max")
def _t_qc_branch_decided(n: int, chk: _Checker):
    # K <= M_L: T(r_L, L) <= arth(L/sqrt2)^(2/K) is, for every K,
    # arth(sqrt(L^2 - th^2 1)) <= arth(L/sqrt2)^2; the slack is its relative headroom
    th1 = np.tanh(1.0)
    for _, L in _Linspace(th1, 1.0, n + 1, first=1).blocks():
        headroom = 1.0 - np.arctanh(np.sqrt(L * L - th1 * th1)) / np.arctanh(L / np.sqrt(2.0)) ** 2
        chk.require_all(-headroom, 0.0, L[:, None])
    # the ideal bound: 2^(1+1/K) T is the sup of 2 arth x (2 arth x')^(1/K) over
    # [r_1, 1), nondecreasing in K, so below the cut it suffices at the cut
    ideal = (2.0 * np.arcsinh(1.0)) ** 2
    xs = _Linspace(np.sqrt(1.0 - np.tanh(0.5) ** 2), 1.0, n, endpoint=False)

    def f(K, x):
        return 2.0 * np.arctanh(x) * (2.0 * np.arctanh(np.sqrt(1.0 - x * x))) ** (1.0 / K)

    K = qcb.IDEAL_K_CUT
    extrema = _grid_extrema(xs, (K, 3.0), f)

    def sup(K):  # the refined sup over x at K, and its place
        return tuple(map(float, golden_max(lambda x: f(K, x), *xs.neighbours(extrema[K].argmax), tol=1e-13)))

    x_star, top = sup(K)
    chk.require(top / ideal - 1.0, 0.0, (K, x_star))
    # above the cut, where the bound computes T, the sup is its T term
    x3, t3 = sup(3.0)
    chk.require_true(abs(qcb.qc_ideal_bound(3.0) / distortion_A(3.0) ** 2 / t3 - 1.0) < 1e-12, (3.0, x3))
    chk.locate(top, (K, x_star))


# ---------------------------------------------------------------------------
# runners

#: every claim, in definition order
REGISTRY: tuple[RegistryEntry, ...] = tuple(_ENTRIES)


def run_sweep(spec: SweepSpec) -> Certificate:
    """Execute one sweep; deterministic given the spec and the seed."""
    entry = next((e for e in REGISTRY if e.name == spec.target), None)
    if entry is None:
        raise ConfigurationError(f"unknown sweep target: {spec.target!r}")
    chk = _Checker()
    start = time.perf_counter()
    entry.sweep(entry.samples(spec.grid_size), chk)
    runtime_ms = int((time.perf_counter() - start) * 1000.0)
    observed, witness = chk.observed()
    return Certificate(
        spec=spec,
        passed=bool(chk.margin >= 0.0),
        observed_extremum=float(observed),
        witness=witness,
        margin=float(chk.margin),
        runtime_ms=runtime_ms,
    )


_PROFILE_GRIDS = {"fast": 1000, "thorough": 100000}


def run_all(profile: str = "fast") -> list[Certificate]:
    """Run the whole registry; failures are collected, not raised."""
    if profile not in _PROFILE_GRIDS:
        raise ConfigurationError(f"unknown profile: {profile!r}")
    grid = _PROFILE_GRIDS[profile]
    return [run_sweep(SweepSpec(e.name, grid)) for e in REGISTRY]

"""Stochastic primitives for a drift-mixture GBM stock universe.

Every stock starts at 1.0 and follows a geometric Brownian motion with a
stock-specific drift ``mu_i`` drawn once from ``N(mu_hat, sigma_hat**2)``
and a shared volatility ``sigma``.  Only the terminal value at the horizon
matters to anything downstream, so the exact solution is sampled directly:

    S_T = exp((mu_i - sigma**2 / 2) * T + sigma * sqrt(T) * z),  z ~ N(0, 1)

where ``mu_i = mu_hat + sigma_hat * x`` for a second standard normal x.  One
kernel, ``_gross_values``, evaluates this formula: ``draw_universe`` on the
normals it draws, and ``ModelParams`` on the extreme normals, to bound every
value that can be drawn.

Marginally (drift integrated out) the terminal value is lognormal with
log-mean ``mu_hat*T - sigma**2*T/2`` and log-variance
``sigma**2*T + sigma_hat**2*T**2``.

Randomness is reproducible and parallel-safe: every draw comes from a
substream identified by ``SeedSpec(master_seed, stream_index)``.  A
substream is bit-identical to numpy's
``PCG64(SeedSequence([master_seed, stream_index]))``; the SeedSequence hash
is computed here, vectorised over a window of SEED_WINDOW consecutive
stream indices at a time, so a trial's substreams cost one table lookup
each instead of one hash each, and ``seed.generator(offset)`` builds a
substream's generator without a SeedSpec of its own.  Normal variates
are produced by the inverse-CDF transform of a 52-bit midpoint uniform, so
each variate consumes exactly one 64-bit word from its substream and
results never depend on how work is split across workers.

The inverse CDF is scipy.special's Cephes ``ndtri`` (Moshier 1989).  A process
skips scipy's 0.2 s import until its port work reaches SCIPY_VARIATES: ``_cephes_ndtri``
gives the same bits, with ``math.log`` for the C library's log scipy calls.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Substream layout: callers that draw a universe and pick a subset reserve
# STREAM_STRIDE consecutive stream indices per trial and add a purpose offset.
STREAM_STRIDE = 4
DRIFT_STREAM = 0
SHOCK_STREAM = 1
PICK_STREAM = 2

# _midpoint_uniforms: the bits of 1.0, and what maps 1 + j * 2**-52 to (j + 0.5) * 2**-52.
_ONE_BITS = 0x3FF0000000000000
_MIDPOINT_SHIFT = 1.0 - 2.0 ** -53
# standard_normals' uniforms run from 2**-53 to 1 - 2**-53: |z| <= _Z_LIMIT,
# which is ndtri(1 - 2**-53).
_Z_LIMIT = 8.209536151601387

# The port's cost beyond scipy's ndtri is counted in values: a call costs CALL_VARIATES
# more.  A process imports scipy.special once its port work reaches SCIPY_VARIATES.  On
# 2 vCPUs (Python 3.11, numpy 2.4, scipy 1.17) the port took 54 us a call and 0.107 us
# a value beyond scipy, and the import took 0.19-0.30 s, which is 1.8-2.8 million values.
CALL_VARIATES = 500
SCIPY_VARIATES = 2_000_000
_port_work = 0  # this process's port work so far, in values

# Cephes ndtri's constants: P0/Q0 in the centre, P1/Q1 and P2/Q2 in the tails for x < 8 and x >= 8.
_S2PI = 2.5066282746310007
_EXPM2 = 0.1353352832366127
_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703, 13.931260938727968, -1.2391658386738125)
_Q0 = (1.9544885833814176, 4.676279128988815, 86.36024213908905, -225.46268785411937, 200.26021238006066,
       -82.03722561683334, 15.90562251262117, -1.1833162112133)
_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213, 44.08050738932008, 14.684956192885803,
       2.1866330685079025, -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854)
_Q1 = (15.779988325646675, 45.39076351288792, 41.3172038254672, 15.04253856929075, 2.504649462083094,
       -0.14218292285478779, -0.03808064076915783, -0.0009332594808954574)
_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444, 1.3330346081580755, 0.20148538954917908,
       0.012371663481782003, 0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09)
_Q2 = (6.02427039364742, 3.6798356385616087, 1.3770209948908132, 0.21623699359449663, 0.013420400608854318,
       0.00032801446468212774, 2.8924786474538068e-06, 6.790194080099813e-09)

# Substream seeds are computed SEED_WINDOW stream indices at a time.  2**32
# is a multiple of the window, so every index in a window has the same high
# 32-bit word.
SEED_WINDOW = 2048

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@lru_cache(maxsize=16)
def _seed_window(master_seed: int, window: int) -> np.ndarray:
    """PCG64 seed words of the SEED_WINDOW stream indices from window * SEED_WINDOW.

    Row r equals ``SeedSequence([master_seed, window * SEED_WINDOW + r])
    .generate_state(4, np.uint64)``.  The body follows numpy's two loops,
    mix_entropy and then generate_state, line for line, with one running
    ``hash_const`` as in numpy's ``hashmix(value, &hash_const)``; each value
    is a row holding the whole window, in wrapping uint32 arithmetic.
    """
    start = window * SEED_WINDOW
    # Entropy: the seed's one or two 32-bit words, then the index's two; numpy
    # hashes a missing word as 0, so writing a high word of 0 changes nothing.
    seed_words = [master_seed & _MASK32] + [master_seed >> 32] * (master_seed > _MASK32)
    entropy = np.zeros((_POOL_SIZE, SEED_WINDOW), np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
    entropy[len(seed_words)] = np.arange(SEED_WINDOW, dtype=np.uint32) + (start & _MASK32)
    entropy[len(seed_words) + 1] = start >> 32

    def hashmix(value: np.ndarray, mult: int) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        return value

    # mix_entropy: hash each pool word, then mix every word into every other.
    hash_const = _INIT_A
    pool = [hashmix(row, _MULT_A) for row in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = pool[dst] * np.uint32(_MIX_MULT_L)
                mixed -= hashmix(pool[src], _MULT_A) * np.uint32(_MIX_MULT_R)
                pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, uint64): hash 8 words cycling over the pool, pair them little-endian.
    hash_const = _INIT_B
    state = np.stack([hashmix(word, _MULT_B) for word in pool + pool], axis=1)
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    seeds.flags.writeable = False
    return seeds


def as_integer(name: str, value) -> int:
    """value as a Python int if it is an int or numpy integer; a float is an error, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class _SeedWords(ISeedSequence):
    """Precomputed PCG64 seed words, offered through numpy's seeding interface."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_SIZE or dtype is not np.uint64:
            raise ValueError("only PCG64's generate_state(4, np.uint64) is precomputed")
        return self.words


@dataclass(frozen=True)
class ModelParams:
    """The five constants governing the universe.

    n_stocks: number of stocks N in the index, at most 2**32.
    horizon: years T until the terminal date.
    sigma: annual volatility, shared by all stocks (per sqrt-year).
    mu_hat: mean of the cross-sectional drift distribution (per year).
    sigma_hat: standard deviation of the drift distribution (per year).
    """

    n_stocks: int
    horizon: float
    sigma: float
    mu_hat: float
    sigma_hat: float

    def __post_init__(self):
        object.__setattr__(self, "n_stocks", as_integer("n_stocks", self.n_stocks))
        if not 1 <= self.n_stocks <= 2 ** 32:
            raise ValueError(f"n_stocks must lie in [1, 2**32], got {self.n_stocks!r}")
        for name in ("horizon", "sigma", "mu_hat", "sigma_hat"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma!r}")
        if self.sigma_hat < 0:
            raise ValueError(f"sigma_hat must be >= 0, got {self.sigma_hat!r}")
        # A terminal value grows with both of its variates, so these two bound
        # every value drawn, and n_stocks times the highest every sum of them.
        # An overflowing or NaN bound fails the check below, so numpy need not warn.
        z = np.array([-_Z_LIMIT, _Z_LIMIT])
        with np.errstate(over="ignore", invalid="ignore"):
            low, high = _gross_values(self, z.copy(), z).tolist()
        if not (low > 0 and high * self.n_stocks < math.inf):
            raise ValueError("terminal values must be positive and finite")


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one independent random substream.

    Equal (master_seed, stream_index) pairs always reproduce the same draw
    sequence; distinct pairs give statistically independent streams.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        # each trial and each subset_frequencies call builds one, almost always from Python ints
        if type(self.master_seed) is not int or type(self.stream_index) is not int:
            object.__setattr__(self, "master_seed", as_integer("master_seed", self.master_seed))
            object.__setattr__(self, "stream_index", as_integer("stream_index", self.stream_index))
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}")
        if not 0 <= self.stream_index < 2 ** 64:
            raise ValueError(f"stream_index must be a 64-bit unsigned integer, got {self.stream_index!r}")

    def generator(self, offset: int = 0) -> np.random.Generator:
        """The generator of stream ``stream_index + offset``; offsets are purposes (see STREAM_STRIDE).

        ``Generator(PCG64(SeedSequence([master_seed, stream_index + offset])))``, bit for bit.
        """
        if type(offset) is not int:
            offset = as_integer("offset", offset)
        index = self.stream_index + offset
        if not 0 <= index < 2 ** 64:
            raise ValueError(f"stream_index + offset must be a 64-bit unsigned integer, got {index!r}")
        window, row = divmod(index, SEED_WINDOW)
        words = _seed_window(self.master_seed, window)[row]
        return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _ndtri(count: int):
    """scipy.special.ndtri once loaded, else _cephes_ndtri, for a call of count values.

    Each port call adds CALL_VARIATES + count to _port_work; the call that would take it to
    SCIPY_VARIATES imports scipy instead, so the port never costs a process more than the import.
    """
    global _port_work
    ndtri = getattr(sys.modules.get("scipy.special"), "ndtri", None)  # None while another thread imports it
    if ndtri is None:
        _port_work += CALL_VARIATES + count
        if _port_work < SCIPY_VARIATES:
            return _cephes_ndtri
        from scipy.special import ndtri
    return ndtri


def _ratio(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x * polevl(x, p) / p1evl(x, q): Cephes' Horner loops, the leading 1 of q implied."""
    num = p[0]
    for c in p[1:]:
        num = num * x + c
    den = x + q[0]
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's log of each value, as scipy calls it: numpy's log can differ in the last bit."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _cephes_ndtri(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """scipy.special.ndtri(u, out=out) bit for bit, for float64 u strictly inside (0, 1); out may be u.

    Cephes' branches, vectorised: the centre is exp(-2) < u <= 1 - exp(-2), and
    each tail is a function of sqrt(-2 log y), y = min(u, 1 - u), negated below.
    """
    upper = u > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - u, u)
    centre = y > _EXPM2
    c = y[centre] - 0.5
    out[centre] = (c + c * _ratio(c * c, _P0, _Q0)) * _S2PI  # the tails read y and upper, not out
    tail = ~centre
    x = np.sqrt(-2.0 * _log(y[tail]))
    z = 1.0 / x
    x1 = _ratio(z, _P1, _Q1)
    far = x >= 8.0
    x1[far] = _ratio(z[far], _P2, _Q2)
    tail_z = x - _log(x) / x - x1
    out[tail] = np.where(upper[tail], tail_z, -tail_z)
    return out


def standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw standard normals by inverse CDF of open-interval uniforms.

    Uniforms are bin midpoints (j + 0.5) / 2**52 for a 52-bit integer j, so
    every value lies strictly inside (0, 1) and the transform is exact in
    floating point.  One 64-bit word is consumed per variate: its top 52
    bits are j, which is exactly ``rng.integers(0, 2**52)`` because Lemire's
    bounded method never rejects on a power-of-two range.  ``rng`` must
    have a 64-bit bit generator such as the PCG64 of SeedSpec.generator.
    The transform is ``_ndtri(count)``: scipy's ndtri once scipy.special is
    loaded and its in-module port before, with the same bits either way.
    """
    u = _midpoint_uniforms(rng.bit_generator.random_raw(count))
    return _ndtri(count)(u, out=u)


def _midpoint_uniforms(words: np.ndarray) -> np.ndarray:
    """(j + 0.5) * 2**-52 for j = each uint64 word's top 52 bits, in the words' buffer.

    j becomes the mantissa of the float 1 + j * 2**-52; subtracting
    1 - 2**-53 from it is exact (Sterbenz), which leaves the midpoint.
    """
    words >>= 12
    words |= _ONE_BITS
    u = words.view(np.float64)
    u -= _MIDPOINT_SHIFT
    return u


def _gross_values(params: ModelParams, drifts: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """Gross terminal values from drift normals ``drifts`` and shock normals ``shocks``.

    The module's one value formula: each drift is ``mu_hat + sigma_hat * drifts``
    and each value exp((drift - sigma*sigma/2) * horizon + sigma*sqrt(horizon) * shocks).
    It is computed in place on float arrays of one shape: the values are written
    over ``drifts`` and returned, and ``shocks`` is overwritten too.
    """
    drifts *= params.sigma_hat
    drifts += params.mu_hat
    drifts -= 0.5 * params.sigma * params.sigma
    drifts *= params.horizon
    shocks *= params.sigma * math.sqrt(params.horizon)
    drifts += shocks
    return np.exp(drifts, out=drifts)


def draw_universe(params: ModelParams, seed: SeedSpec) -> np.ndarray:
    """Draw a full cross-section: the n_stocks gross terminal values, read-only.

    The drifts, i.i.d. N(mu_hat, sigma_hat**2), are ``mu_hat + sigma_hat * z``
    for the normals z of ``seed.generator(DRIFT_STREAM)``, and the shocks are
    the normals of ``seed.generator(SHOCK_STREAM)``; callers running many
    trials should space their base stream indices by STREAM_STRIDE.
    ModelParams guarantees that the values and their sum are positive and finite.
    """
    drifts = standard_normals(seed.generator(DRIFT_STREAM), params.n_stocks)
    shocks = standard_normals(seed.generator(SHOCK_STREAM), params.n_stocks)
    values = _gross_values(params, drifts, shocks)
    values.flags.writeable = False
    return values


def _plan_draws(params: ModelParams, universes: int) -> None:
    """Import scipy.special now if this many universes, two calls of n_stocks values each, reach SCIPY_VARIATES."""
    if 2 * universes * (CALL_VARIATES + params.n_stocks) >= SCIPY_VARIATES:
        import scipy.special  # noqa: F401


def index_value(values) -> float:
    """Gross value of the index: the plain mean of the terminal values.

    ``values`` is any non-empty 1-d collection.  Summation is numpy's
    pairwise scheme over ascending index order, so the result is
    reproducible run-to-run and across worker counts.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("expected a non-empty 1-d collection of gross values")
    return float(np.add.reduce(values) / values.size)

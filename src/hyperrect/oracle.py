"""Exact ground truth on small hypercubes.

Everything here is finite-n and fully enumerable: explicit subsets of
{0,1}^n, pairwise Hamming-distance profiles, rectangle probabilities under
the correlated-pair kernel, the noise operator, and p-norms.  The rest of
the package is asymptotic; this module is what its formulas are tested
against.

Points of {0,1}^n are Python integers with bit j holding coordinate j
(so the Hamming distance is a popcount of an XOR, exact at any n).
Profile counts are arbitrary-precision integers.  Probabilities come in
two arithmetic modes: log-domain floats with log-sum-exp accumulation
(any n), and exact rationals via `fractions.Fraction` (n <= 64 and
rational correlation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .entropy import NEG_INF, _check_range

__all__ = [
    "MAX_FUNCTION_DIM",
    "MAX_EXACT_DIM",
    "DEFAULT_PAIR_BUDGET",
    "SetFileError",
    "EnumerationBudgetError",
    "CubeSet",
    "DistanceProfile",
    "CubeFunction",
    "pair_distance_profile",
    "sphere_distance_profile",
    "rectangle_prob",
    "rectangle_prob_fraction",
    "rectangle_prob_direct",
    "noise_operator",
    "p_norm",
    "inner_product",
    "complement_set",
    "read_set_file",
    "write_set_file",
]

# Dense function storage is 2**n floats; 20 keeps that to 8 MB.
MAX_FUNCTION_DIM = 20
# Exact-rational rectangle probabilities stay cheap while members fit a word.
MAX_EXACT_DIM = 64
# Ordered pairs examined by the enumeration oracles.
DEFAULT_PAIR_BUDGET = 10**8

# Explicit sets are meant for enumeration; rates only need small n.
_MAX_SET_DIM = 30
_SPHERE_ENUM_LIMIT = 10**7
_PAIR_CHUNK = 1 << 22


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"dimension must be an int, got {n!r}")
    if not 1 <= n <= _MAX_SET_DIM:
        raise ValueError(f"dimension must lie in [1, {_MAX_SET_DIM}], got {n}")


class SetFileError(ValueError):
    """Malformed set file; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EnumerationBudgetError(RuntimeError):
    """An enumeration would exceed the ordered-pair budget."""


@dataclass(frozen=True)
class CubeSet:
    """Nonempty set of distinct points of {0,1}^n.

    Members are stored sorted, as integers.  The string form used by
    constructors and files puts coordinate j at character j, matching
    bit j of the integer encoding.
    """

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dim(self.n)
        members = tuple(self.members)
        if not members:
            raise ValueError("a cube set must be nonempty")
        top = 1 << self.n
        for m in members:
            if not isinstance(m, int) or isinstance(m, bool):
                raise ValueError(f"member {m!r} is not an int")
            if not 0 <= m < top:
                raise ValueError(f"member {m} outside [0, 2^{self.n})")
        if len(set(members)) != len(members):
            raise ValueError("duplicate members")
        object.__setattr__(self, "members", tuple(sorted(members)))

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def from_strings(cls, n: int, lines: Iterable[str]) -> "CubeSet":
        """Build from 0/1 strings of length n (character j = coordinate j)."""
        members = []
        for text in lines:
            if len(text) != n or any(ch not in "01" for ch in text):
                raise ValueError(f"not a length-{n} binary string: {text!r}")
            members.append(sum(1 << j for j, ch in enumerate(text) if ch == "1"))
        return cls(n, tuple(members))

    @classmethod
    def sphere(cls, n: int, weight: int) -> "CubeSet":
        """Hamming sphere of the given weight around the all-zero point."""
        _check_dim(n)
        if not 0 <= weight <= n:
            raise ValueError(f"weight must lie in [0, {n}], got {weight}")
        if math.comb(n, weight) > _SPHERE_ENUM_LIMIT:
            raise EnumerationBudgetError(
                f"sphere of weight {weight} in n={n} has {math.comb(n, weight)} "
                f"points, beyond the enumeration limit {_SPHERE_ENUM_LIMIT}"
            )
        members = tuple(
            sum(1 << j for j in positions)
            for positions in combinations(range(n), weight)
        )
        return cls(n, members)

    @classmethod
    def full(cls, n: int) -> "CubeSet":
        _check_dim(n)
        if n > MAX_FUNCTION_DIM:
            raise ValueError(f"full cube enumeration capped at n={MAX_FUNCTION_DIM}")
        return cls(n, tuple(range(1 << n)))

    def to_strings(self) -> list[str]:
        return [
            "".join("1" if (m >> j) & 1 else "0" for j in range(self.n))
            for m in self.members
        ]

    def rate(self) -> float:
        """log2(size) / n, the per-symbol rate of the set."""
        return math.log2(len(self.members)) / self.n


@dataclass(frozen=True)
class DistanceProfile:
    """Ordered-pair distance counts for a set pair: counts[k] = #{(a,b) : d(a,b)=k}.

    Counts are exact integers of length n+1 and must sum to |A| * |B|;
    each set size is at most 2^n.
    """

    n: int
    counts: tuple[int, ...]
    size_a: int
    size_b: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != self.n + 1:
            raise ValueError(
                f"profile must have n+1 = {self.n + 1} entries, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise ValueError("negative count")
        if not (1 <= self.size_a <= 1 << self.n and 1 <= self.size_b <= 1 << self.n):
            raise ValueError(f"set sizes {self.size_a}, {self.size_b} outside [1, 2^n = {1 << self.n}]")
        if sum(counts) != self.size_a * self.size_b:
            raise ValueError(
                f"counts sum to {sum(counts)}, expected |A||B| = "
                f"{self.size_a * self.size_b}"
            )

    def reversed(self) -> "DistanceProfile":
        """Profile of (A, complement-reflected B): distance k -> n-k."""
        return DistanceProfile(self.n, self.counts[::-1], self.size_a, self.size_b)

    def average_distance(self) -> Fraction:
        """Exact mean ordered-pair distance, in coordinates (not per-symbol)."""
        total = sum(k * c for k, c in enumerate(self.counts))
        return Fraction(total, self.size_a * self.size_b)


def pair_distance_profile(
    a: CubeSet, b: CubeSet, budget: int = DEFAULT_PAIR_BUDGET
) -> DistanceProfile:
    """Exact distance profile of the ordered pairs of A x B."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    pairs = len(a) * len(b)
    if pairs > budget:
        raise EnumerationBudgetError(
            f"{pairs} ordered pairs exceed the budget of {budget}"
        )
    n = a.n
    av = np.array(a.members, dtype=np.uint64)
    bv = np.array(b.members, dtype=np.uint64)
    counts = np.zeros(n + 1, dtype=np.int64)
    rows_per_chunk = max(1, _PAIR_CHUNK // len(b))
    for start in range(0, len(a), rows_per_chunk):
        block = av[start : start + rows_per_chunk, None] ^ bv[None, :]
        dists = np.bitwise_count(block)
        counts += np.bincount(dists.ravel(), minlength=n + 1)
    return DistanceProfile(n, tuple(int(c) for c in counts), len(a), len(b))


def sphere_distance_profile(n: int, i: int, j: int) -> DistanceProfile:
    """Closed-form distance profile for a pair of Hamming spheres S_i x S_j.

    Requires i <= j.  For 0 <= i <= j <= n:

        counts[k] = C(n,i) * C(i, (j+i-k)/2) * C(n-i, (j-i+k)/2)

    when j-i <= k <= j+i with j-i+k even, else 0.  The dataclass sum check
    doubles as a Vandermonde identity cross-check against C(n,i)*C(n,j).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive int, got {n!r}")
    if not 0 <= i <= j <= n:
        raise ValueError(f"radii must satisfy 0 <= i <= j <= n, got i={i}, j={j}")
    counts = [0] * (n + 1)
    base = math.comb(n, i)
    for k in range(j - i, min(j + i, n) + 1):
        if (j - i + k) % 2:
            continue
        back = (j + i - k) // 2
        forward = (j - i + k) // 2
        if back > i or forward > n - i:
            continue
        counts[k] = base * math.comb(i, back) * math.comb(n - i, forward)
    return DistanceProfile(n, tuple(counts), math.comb(n, i), math.comb(n, j))


_UNREALIZABLE = "no pair of sets has this distance profile"


def _log2_fraction(value: Fraction) -> float:
    if value == 0:
        return NEG_INF
    return math.log2(value.numerator) - math.log2(value.denominator)


def _kernel(rho, n: int):
    """The correlated-pair kernel in rho's own arithmetic (exact for a
    Fraction, float otherwise): (((1+rho)/4)^n, (1-rho)/(1+rho)), the
    weight of a pair at distance 0 and the factor per unit of distance."""
    _check_range("correlation", rho, 0, 1)
    return ((1 + rho) / 4) ** n, (1 - rho) / (1 + rho)


def rectangle_prob(profile: DistanceProfile, rho: float) -> float:
    """log2 P[X in A, Y in B] from a distance profile.

    X is uniform on {0,1}^n and Y is rho-correlated with X, so each ordered
    pair at distance k contributes 2^-n ((1+rho)/2)^n ((1-rho)/(1+rho))^k.
    The sum is accumulated in the log domain with log-sum-exp, so any n
    works; rho = 1 needs `rectangle_prob_fraction`.
    """
    _check_range("correlation", rho, 0.0, 1.0, hi_open=True)
    n = profile.n
    base = n * (math.log2(1.0 + rho) - 2.0)
    ratio = math.log2((1.0 - rho) / (1.0 + rho)) if rho > 0.0 else 0.0
    terms = [
        math.log2(c) + base + k * ratio
        for k, c in enumerate(profile.counts)
        if c > 0
    ]
    peak = max(terms)
    total = peak + math.log2(sum(2.0 ** (t - peak) for t in terms))
    # P <= 1 for real sets, so only roundoff may lift the sum above 0.  A
    # term adds parts of size <= 2n (log2 c, c <= 4^n), 2n (base) and n|L|
    # (k ratio), each off by a few ulps of its size: about 2 eps n (5 + |L|)
    # with eps = ulp(1).  The log-sum-exp adds about 0.72 eps (n + 4), so
    # the error stays below 7 eps n (2 + |L|); full cubes reach 0.81 of it.
    if total > 8.0 * math.ulp(1.0) * n * (2.0 + abs(ratio)):
        raise ValueError(f"log2 P = {total!r} > 0: {_UNREALIZABLE}")
    return min(total, 0.0)


def rectangle_prob_fraction(profile: DistanceProfile, rho) -> Fraction:
    """Exact rational P[X in A, Y in B]; rho must be Fraction-convertible.

    Dyadic floats convert exactly; pass `Fraction` or a string like "1/3"
    for non-dyadic correlations.
    """
    if profile.n > MAX_EXACT_DIM:
        raise ValueError(f"exact mode capped at n={MAX_EXACT_DIM}, got {profile.n}")
    term, ratio = _kernel(Fraction(rho), profile.n)
    total = Fraction(0)
    for count in profile.counts:
        if count:
            total += count * term
        term *= ratio
    if total > 1:
        raise ValueError(f"P = {total} > 1: {_UNREALIZABLE}")
    return total


def rectangle_prob_direct(
    a: CubeSet, b: CubeSet, rho, budget: int = DEFAULT_PAIR_BUDGET
) -> float | Fraction:
    """P[X in A, Y in B] by a direct double loop over pairs.

    Independent of the profile route: the kernel value of every pair is
    summed in plain probability space, in rho's arithmetic, so a Fraction
    rho gives the exact Fraction and a float rho a float.  Intended as a
    cross-check at small n.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if len(a) * len(b) > budget:
        raise EnumerationBudgetError(
            f"{len(a) * len(b)} ordered pairs exceed the budget of {budget}"
        )
    weight, ratio = _kernel(rho, a.n)
    powers = [weight]
    for _ in range(a.n):
        powers.append(powers[-1] * ratio)
    total = 0
    for x in a.members:
        for y in b.members:
            total += powers[(x ^ y).bit_count()]
    return total


@dataclass
class CubeFunction:
    """Real-valued function on {0,1}^n, stored densely (values[x] = f(x))."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_FUNCTION_DIM:
            raise ValueError(
                f"dimension must lie in [1, {MAX_FUNCTION_DIM}], got {self.n!r}"
            )
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (1 << self.n,):
            raise ValueError(
                f"values must have shape (2^{self.n},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        self.values = values

    @classmethod
    def indicator(cls, s: CubeSet) -> "CubeFunction":
        if s.n > MAX_FUNCTION_DIM:
            raise ValueError(f"indicator functions capped at n={MAX_FUNCTION_DIM}")
        values = np.zeros(1 << s.n)
        values[list(s.members)] = 1.0
        return cls(s.n, values)

    @classmethod
    def constant(cls, n: int, c: float) -> "CubeFunction":
        return cls(n, np.full(1 << n, float(c)))

    def mean(self) -> float:
        return float(self.values.mean())


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform; self-inverse up to 2^n."""
    out = values.copy()
    size = out.size
    h = 1
    while h < size:
        out = out.reshape(size // (2 * h), 2, h)
        top = out[:, 0, :] + out[:, 1, :]
        bottom = out[:, 0, :] - out[:, 1, :]
        out = np.stack((top, bottom), axis=1).reshape(size)
        h *= 2
    return out


def noise_operator(f: CubeFunction, rho: float) -> CubeFunction:
    """Noise operator T_rho: Fourier level k is damped by rho^k.

    (T_rho f)(x) = E[f(Y) | X = x] for the rho-correlated pair.  Computed
    by a Walsh-Hadamard transform, levelwise damping, and a transform back.
    """
    _check_range("correlation", rho, 0.0, 1.0)
    coeffs = _fwht(f.values)
    levels = np.bitwise_count(np.arange(coeffs.size, dtype=np.uint64))
    coeffs *= np.float64(rho) ** levels
    return CubeFunction(f.n, _fwht(coeffs) / coeffs.size)


def p_norm(f: CubeFunction, p: float) -> float:
    """Norm (E|f|^p)^(1/p) under the uniform measure; requires finite p >= 1."""
    _check_range("norm index", p, 1.0, math.inf, hi_open=True)
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def inner_product(f: CubeFunction, g: CubeFunction) -> float:
    """E[f g] under the uniform measure."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    return float(np.mean(f.values * g.values))


def complement_set(s: CubeSet) -> CubeSet:
    """Coordinatewise complement of every member (reflection through 1^n)."""
    mask = (1 << s.n) - 1
    return CubeSet(s.n, tuple(m ^ mask for m in s.members))


def read_set_file(path) -> CubeSet:
    """Read a set file: first line ``n=<int>``, then one 0/1 line per member.

    Member lines must have exactly n characters; duplicates are rejected.
    Errors carry the 1-based line number.
    """
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise SetFileError("empty file, expected 'n=<int>' header", 1)
    header = lines[0].strip()
    if not header.startswith("n=") or not header[2:].isdigit():
        raise SetFileError(f"expected 'n=<int>' header, got {header!r}", 1)
    n = int(header[2:])
    if not 1 <= n <= _MAX_SET_DIM:
        raise SetFileError(f"dimension must lie in [1, {_MAX_SET_DIM}], got {n}", 1)
    members = []
    seen: set[int] = set()
    for offset, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if len(text) != n or any(ch not in "01" for ch in text):
            raise SetFileError(
                f"expected {n} characters from {{0,1}}, got {text!r}", offset
            )
        value = sum(1 << j for j, ch in enumerate(text) if ch == "1")
        if value in seen:
            raise SetFileError(f"duplicate member {text!r}", offset)
        seen.add(value)
        members.append(value)
    if not members:
        raise SetFileError("no members after the header", 1)
    return CubeSet(n, tuple(members))


def write_set_file(path, s: CubeSet) -> None:
    """Write the set in the format read by `read_set_file` (LF endings)."""
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(f"n={s.n}\n")
        for line in s.to_strings():
            handle.write(line + "\n")

"""Exact ground truth on small hypercubes.

Everything here is finite-n and exact: explicit subsets of {0,1}^n
(n <= MAX_FUNCTION_DIM), Hamming-distance profiles of set pairs by XOR
convolution, rectangle probabilities under the correlated-pair kernel,
the noise operator, and p-norms.  The rest of the package is asymptotic;
this module is what its formulas are tested against.

Points of {0,1}^n are Python integers with bit j holding coordinate j
(so the Hamming distance is a popcount of an XOR).  Profile counts are
exact integers.  Probabilities from a profile come in two arithmetic
modes, at any n: log-domain floats with log-sum-exp accumulation and
exact rationals via `fractions.Fraction` (rational correlation).
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

# Dense storage is 2**n entries (functions, and the transforms behind
# distance profiles); 20 keeps a float array to 8 MB.
MAX_FUNCTION_DIM = 20
# Ordered pairs visited by the direct double loop.
DEFAULT_PAIR_BUDGET = 10**8


def _is_int(value) -> bool:
    """An int, and not a bool, although True == 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_function_dim(n: int) -> None:
    """Dense storage takes 2^n entries; checked before they are allocated."""
    if not _is_int(n) or not 1 <= n <= MAX_FUNCTION_DIM:
        raise ValueError(f"dimension must lie in [1, {MAX_FUNCTION_DIM}], got {n!r}")


class SetFileError(ValueError):
    """Malformed set file; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EnumerationBudgetError(ValueError):
    """An enumeration would exceed its budget: over-budget input is bad input."""


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
        _check_function_dim(self.n)
        members = tuple(self.members)
        if not members:
            raise ValueError("a cube set must be nonempty")
        top = 1 << self.n
        for m in members:
            if not _is_int(m):
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
        _check_function_dim(n)
        if not _is_int(weight) or not 0 <= weight <= n:
            raise ValueError(f"weight must be an int in [0, {n}], got {weight!r}")
        members = tuple(
            sum(1 << j for j in positions)
            for positions in combinations(range(n), weight)
        )
        return cls(n, members)

    @classmethod
    def full(cls, n: int) -> "CubeSet":
        _check_function_dim(n)
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
    each set size is at most 2^n.  A count may be given as an int, a
    numpy integer or a whole finite float; anything else, a fractional
    float included, is a ValueError, never a truncated count.
    """

    n: int
    counts: tuple[int, ...]
    size_a: int
    size_b: int

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"dimension must be an int >= 1, got {self.n!r}")
        counts = tuple(map(_exact_count, self.counts))
        object.__setattr__(self, "counts", counts)
        if len(counts) != self.n + 1:
            raise ValueError(
                f"profile must have n+1 = {self.n + 1} entries, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise ValueError("negative count")
        top = 1 << self.n
        if not all(_is_int(size) and 1 <= size <= top for size in (self.size_a, self.size_b)):
            raise ValueError(f"set sizes {self.size_a!r}, {self.size_b!r} outside [1, 2^n = {top}]")
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


def _exact_count(count) -> int:
    """A profile count as an int: ints and numpy integers (not bools), and
    whole floats (never NaN or +-inf)."""
    if isinstance(count, np.integer) or _is_int(count):
        return int(count)
    if isinstance(count, (float, np.floating)) and float(count).is_integer():
        return int(count)
    raise ValueError(f"count {count!r} is not a whole number")


def _check_same_dim(a, b) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


def pair_distance_profile(a: CubeSet, b: CubeSet) -> DistanceProfile:
    """Exact distance profile of the ordered pairs of A x B.

    counts[k] sums the XOR convolution (1_A * 1_B)(z) = #{(x, y) : x ^ y = z}
    over the z of weight k.  By the convolution theorem on the cube it is
    the transform of the product of the two indicators' transforms, over 2^n:
    three transforms of 2^n float64 entries that all stay exact integers
    below 2^40, whatever the set sizes.
    """
    _check_same_dim(a, b)
    n = a.n
    product = _fwht(_indicator(a)) * _fwht(_indicator(b))
    # Exact in float64: every value the last transform forms, in any
    # summation order, is a signed sum of a subset of the products
    # 1_A^(S) 1_B^(S), so by Cauchy-Schwarz and Parseval at most
    # 2^n sqrt(|A||B|) <= 2^40 < 2^53 for n <= 20.  The level sums are
    # integers of at most |A||B| <= 2^40 too; DistanceProfile refuses a
    # count that is not whole.
    convolution = _fwht(product) / (1 << n)
    levels = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
    counts = np.bincount(levels, weights=convolution, minlength=n + 1)
    return DistanceProfile(n, counts.tolist(), len(a), len(b))


def sphere_distance_profile(n: int, i: int, j: int) -> DistanceProfile:
    """Closed-form distance profile for a pair of Hamming spheres S_i x S_j.

    Requires i <= j.  For 0 <= i <= j <= n:

        counts[k] = C(n,i) * C(i, (j+i-k)/2) * C(n-i, (j-i+k)/2)

    when j-i <= k <= j+i with j-i+k even, else 0.  The dataclass sum check
    doubles as a Vandermonde identity cross-check against C(n,i)*C(n,j).
    """
    if not _is_int(n) or n < 1:
        raise ValueError(f"dimension must be a positive int, got {n!r}")
    if not (_is_int(i) and _is_int(j) and 0 <= i <= j <= n):
        raise ValueError(f"radii must be ints with 0 <= i <= j <= n, got i={i!r}, j={j!r}")
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


def _kernel_sum(counts: Sequence[int], rho):
    """P from the pair counts at distances 0..n, in rho's own arithmetic
    (exact for a Fraction, float otherwise): one kernel product per
    distance, ((1+rho)/4)^n ((1-rho)/(1+rho))^k per pair at distance k."""
    _check_range("correlation", rho, 0, 1)
    term, ratio = ((1 + rho) / 4) ** (len(counts) - 1), (1 - rho) / (1 + rho)
    total = 0
    for count in counts:
        total += count * term
        term *= ratio
    return total


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
    try:
        rho = Fraction(rho)
    except (OverflowError, TypeError):
        raise ValueError(f"correlation must be a finite rational, got {rho!r}") from None
    total = _kernel_sum(profile.counts, rho)
    if total > 1:
        raise ValueError(f"P = {total} > 1: {_UNREALIZABLE}")
    return total


def rectangle_prob_direct(a: CubeSet, b: CubeSet, rho) -> float | Fraction:
    """P[X in A, Y in B] by a direct double loop over pairs.

    Independent of the profile route: a pure-Python histogram of the pair
    distances, then one kernel product per distance, summed in plain
    probability space in rho's arithmetic, so a Fraction rho gives the
    exact Fraction and a float rho a float.  Intended as a cross-check at
    small n; at most DEFAULT_PAIR_BUDGET ordered pairs, read at call time.
    """
    _check_same_dim(a, b)
    pairs = len(a) * len(b)
    if pairs > DEFAULT_PAIR_BUDGET:
        raise EnumerationBudgetError(
            f"{pairs} ordered pairs exceed the budget of {DEFAULT_PAIR_BUDGET}"
        )
    counts = [0] * (a.n + 1)
    for x in a.members:
        for y in b.members:
            counts[(x ^ y).bit_count()] += 1
    return _kernel_sum(counts, rho)


@dataclass
class CubeFunction:
    """Real-valued function on {0,1}^n, stored densely (values[x] = f(x))."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_function_dim(self.n)
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
        return cls(s.n, _indicator(s))

    @classmethod
    def constant(cls, n: int, c: float) -> "CubeFunction":
        _check_function_dim(n)
        return cls(n, np.full(1 << n, float(c)))

    def mean(self) -> float:
        return float(self.values.mean())


def _indicator(s: CubeSet) -> np.ndarray:
    values = np.zeros(1 << s.n)
    values[list(s.members)] = 1.0
    return values


# Sylvester-Hadamard H_16 = H_2 (x) H_2 (x) H_2 (x) H_2: entry (i, j) is
# (-1)^|i & j|, and its top-left 2^k x 2^k block is H_{2^k}.
_H16 = 1.0 - 2.0 * (np.bitwise_count(np.arange(16)[:, None] & np.arange(16)) & 1)


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of 2^n entries, n >= 1;
    self-inverse up to 2^n.  Returns a new float64 array.

    A pass transforms the k <= 4 lowest coordinates at once: it views the
    vector as a 2^(n-k) x 2^k matrix X and forms H_{2^k} X^T, which also
    rotates those coordinates to the top.  After ceil(n/4) passes every
    coordinate is transformed and back in place.  Integer input stays
    exact while every partial sum is below 2^53."""
    out = values
    n = values.size.bit_length() - 1
    for done in range(0, n, 4):
        width = 1 << min(4, n - done)
        out = (_H16[:width, :width] @ out.reshape(-1, width).T).ravel()
    return out


def noise_operator(f: CubeFunction, rho: float) -> CubeFunction:
    """Noise operator T_rho: Fourier level k is damped by rho^k.

    (T_rho f)(x) = E[f(Y) | X = x] for the rho-correlated pair.  Computed
    by a Walsh-Hadamard transform, levelwise damping read from a table of
    rho^0..rho^n, and a transform back.
    """
    _check_range("correlation", rho, 0.0, 1.0)
    coeffs = _fwht(f.values)
    levels = np.bitwise_count(np.arange(coeffs.size, dtype=np.uint64))
    coeffs *= np.take(np.float64(rho) ** np.arange(f.n + 1), levels)
    return CubeFunction(f.n, _fwht(coeffs) / coeffs.size)


def p_norm(f: CubeFunction, p: float) -> float:
    """Norm (E|f|^p)^(1/p) under the uniform measure; requires finite p >= 1."""
    _check_range("norm index", p, 1.0, math.inf, hi_open=True)
    try:
        p = float(p)
    except OverflowError:
        raise ValueError(f"norm index {p!r} exceeds the float range") from None
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def inner_product(f: CubeFunction, g: CubeFunction) -> float:
    """E[f g] under the uniform measure."""
    _check_same_dim(f, g)
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
    try:
        _check_function_dim(n)
    except ValueError as exc:
        raise SetFileError(str(exc), 1) from None
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

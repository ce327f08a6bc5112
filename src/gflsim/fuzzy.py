"""Mamdani fuzzy inference with centroid defuzzification.

Crisp inputs are fuzzified through piecewise-linear membership functions,
a complete antecedent grid fires with min-AND, per-output-term strengths
are max-aggregated, and the clip-implication composite is defuzzified by
a midpoint-rule centroid over the output universe.

Everything here is immutable after construction and every operation is a
pure function, so instances can be shared freely between the live
simulation loop and parallel fitness replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "FuzzyDefinitionError",
    "NoActivationError",
    "MembershipFunction",
    "triangle",
    "trapezoid",
    "LinguisticVariable",
    "FuzzySystem",
    "DEFAULT_CONSEQUENTS",
    "default_velocity",
    "default_distance",
    "default_channels",
    "default_output",
    "default_system",
]

DEFAULT_RESOLUTION = 1001
# Output samples at most: a table of samples per term is built per system.
MAX_RESOLUTION = 100_000


class FuzzyDefinitionError(ValueError):
    """A membership function, variable, or fuzzy system is malformed."""


class NoActivationError(ValueError):
    """Defuzzification was requested for an all-zero activation."""


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular or trapezoidal fuzzy set, defined by 3 or 4 breakpoints."""

    label: str
    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) not in (3, 4):
            raise FuzzyDefinitionError(
                f"term {self.label!r}: expected 3 or 4 breakpoints, got {len(pts)}"
            )
        if any(not math.isfinite(p) for p in pts):
            raise FuzzyDefinitionError(f"term {self.label!r}: non-finite breakpoint")
        if any(b < a for a, b in zip(pts, pts[1:])):
            raise FuzzyDefinitionError(
                f"term {self.label!r}: breakpoints must be non-decreasing: {pts}"
            )
        if pts[0] == pts[-1]:
            raise FuzzyDefinitionError(f"term {self.label!r}: support is empty")

    @property
    def support(self) -> tuple[float, float]:
        return self.points[0], self.points[-1]

    @property
    def peak(self) -> float:
        """Midpoint of the top plateau (the peak itself for a triangle)."""
        if len(self.points) == 3:
            return self.points[1]
        return 0.5 * (self.points[1] + self.points[2])

    def _edges(self) -> tuple[float, float, float, float]:
        pts = self.points
        if len(pts) == 3:
            return pts[0], pts[1], pts[1], pts[2]
        return pts

    def degree(self, x: float) -> float:
        """Membership degree of ``x``, in [0, 1]; 0 outside the support."""
        a, b, c, z = self._edges()
        if x < a or x > z:
            return 0.0
        if b <= x <= c:
            return 1.0
        if x < b:
            return (x - a) / (b - a)
        return (z - x) / (z - c)


def triangle(label: str, a: float, b: float, c: float) -> MembershipFunction:
    return MembershipFunction(label, (a, b, c))


def trapezoid(label: str, a: float, b: float, c: float, d: float) -> MembershipFunction:
    return MembershipFunction(label, (a, b, c, d))


@dataclass(frozen=True)
class LinguisticVariable:
    """Named variable over a closed universe with an ordered term set.

    Construction enforces full coverage (every universe point belongs
    to at least one term with positive degree) and strictly increasing
    term peaks, so downstream inference can never see an empty activation.
    """

    name: str
    lo: float
    hi: float
    terms: tuple[MembershipFunction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.lo < self.hi:
            raise FuzzyDefinitionError(f"variable {self.name!r}: need lo < hi")
        if not self.terms:
            raise FuzzyDefinitionError(f"variable {self.name!r}: no terms")
        labels = [t.label for t in self.terms]
        if len(set(labels)) != len(labels):
            raise FuzzyDefinitionError(f"variable {self.name!r}: duplicate term labels")
        peaks = [t.peak for t in self.terms]
        if any(q <= p for p, q in zip(peaks, peaks[1:])):
            raise FuzzyDefinitionError(
                f"variable {self.name!r}: term peaks must strictly increase"
            )
        self._check_coverage()

    def _check_coverage(self) -> None:
        # A coverage gap is an interval where every term is zero.  Its
        # boundary is made of support endpoints, so it suffices to probe
        # each endpoint plus the midpoint between adjacent endpoints.
        pts = {self.lo, self.hi}
        for t in self.terms:
            pts.update(p for p in t.support if self.lo <= p <= self.hi)
        pts = sorted(pts)
        probes = list(pts) + [0.5 * (p + q) for p, q in zip(pts, pts[1:])]
        for x in probes:
            if all(t.degree(x) == 0.0 for t in self.terms):
                raise FuzzyDefinitionError(
                    f"variable {self.name!r}: no term covers x={x}"
                )

    @cached_property
    def _term_edges(self) -> tuple[np.ndarray, ...]:
        """Per term, :func:`_degrees`'s universe bounds and edges."""
        a, b, c, z = np.array([t._edges() for t in self.terms]).T
        return np.full(len(a), self.lo), np.full(len(a), self.hi), a, b - a, z, z - c

    def degrees(self, xs) -> np.ndarray:
        """Degree per term of each value (:func:`_degrees`); terms on a new last axis."""
        return _degrees(np.asarray(xs, dtype=float)[..., None], *self._term_edges)


def _degrees(x, lo, hi, a, rise, z, fall) -> np.ndarray:
    """Degree of each ``x`` in its column's term, taken at the nearest point of [lo, hi].
    :meth:`MembershipFunction.degree`'s arithmetic: a shoulder's 0/0 or x/0 loses the min,
    and NaN has degree 0."""
    x = np.minimum(np.maximum(x, lo), hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.minimum(np.fmax(np.fmin((x - a) / rise, (z - x) / fall), 0.0), 1.0)


@lru_cache(maxsize=64)
def _output_grid(var: LinguisticVariable, resolution: int):
    """Midpoint sample positions, per-term degree table, and per-term
    nonzero sample-index ranges, all read-only.  Every term needs a sample
    of positive degree, else a decision on that term alone has no centroid."""
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise FuzzyDefinitionError(f"resolution must be in 1..{MAX_RESOLUTION}, got {resolution}")
    xs = var.lo + (np.arange(resolution) + 0.5) * ((var.hi - var.lo) / resolution)
    table = np.ascontiguousarray(var.degrees(xs).T)
    spans = []
    for term, row in zip(var.terms, table):
        nz = np.flatnonzero(row)
        if not len(nz):
            raise FuzzyDefinitionError(f"output term {term.label!r} has no sample of positive "
                                       f"degree at resolution {resolution}")
        spans.append((int(nz[0]), int(nz[-1]) + 1))
    xs.setflags(write=False)
    table.setflags(write=False)
    return xs, table, tuple(spans)


@lru_cache(maxsize=64)
def _overlap_sums(var: LinguisticVariable, resolution: int):
    """Tables for the closed-form midpoint sums of a clipped composite.

    By inclusion-exclusion, max_t min(s_t, T_t,i) is the signed sum over
    non-empty term subsets S of min(m_S, V_S,i), where m_S is the least
    strength in S and V_S the elementwise min of its term rows.  Summed
    over the samples, min(m, V_S,i) is the sum of the V_S values below m
    plus m times the count of the rest (and likewise weighted by x), so
    each subset keeps its nonzero V_S values in ascending order with
    prefix sums of V and V*x and suffix sums of x.  Subsets whose rows
    never overlap contribute nothing and are left out, as are all their
    supersets.

    Returns, one row per kept subset: its term indices (padded by repeats
    to the longest), its sign (+1 for odd sizes), its sorted values v,
    len(v), and tables whose entry [j, k] is the sum of the first k
    values of v, the same for v * x, and the sum of x from the k-th value
    on, all read-only.
    """
    xs, table, _ = _output_grid(var, resolution)
    subsets, vs, sums = [], [], []
    frontier = [((t,), table[t]) for t in range(len(table))]
    while frontier:
        grown = []
        for terms, row in frontier:
            nz = np.flatnonzero(row)
            if not len(nz):
                continue
            order = nz[np.argsort(row[nz], kind="stable")]
            v, x = row[order], xs[order]
            subsets.append(terms)
            vs.append(v)
            sums.append((np.cumsum(v), np.cumsum(v * x), np.cumsum(x[::-1])[::-1]))
            grown.extend((terms + (t,), np.minimum(row, table[t]))
                         for t in range(terms[-1] + 1, len(table)))
        frontier = grown
    widest = max(len(t) for t in subsets)
    width = max(len(v) for v in vs) + 1
    cum_v, cum_vx, tail_x = (np.zeros((len(subsets), width)) for _ in range(3))
    for j, (cv, cvx, tx) in enumerate(sums):
        n = len(cv)
        cum_v[j, 1:n + 1], cum_vx[j, 1:n + 1], tail_x[j, :n] = cv, cvx, tx
    terms = np.array([t + t[-1:] * (widest - len(t)) for t in subsets])
    sign = np.array([1.0 if len(t) % 2 else -1.0 for t in subsets])
    count = np.array([len(v) for v in vs])
    for a in (terms, sign, count, *vs, cum_v, cum_vx, tail_x):
        a.setflags(write=False)
    return terms, sign, tuple(vs), count, cum_v, cum_vx, tail_x


def _centroid_row(
    strengths: Sequence[float],
    xs: np.ndarray,
    table: np.ndarray,
    spans: tuple[tuple[int, int], ...],
) -> float:
    """Midpoint Riemann centroid of the clipped, max-aggregated composite.

    Zero-strength terms clip to an all-zero row and cannot change the max,
    so only the activated rows participate, restricted to the samples
    where they are nonzero (adding exact zeros elsewhere cannot change
    either Riemann sum).  Every term has a sample of positive degree
    (``_output_grid``), so only all-zero strengths have no centroid.
    """
    active = [t for t, v in enumerate(strengths) if v > 0.0]
    if not active:
        raise NoActivationError("all firing strengths are zero")
    i0 = min(spans[t][0] for t in active)
    i1 = max(spans[t][1] for t in active)
    if len(active) == 1:
        t = active[0]
        comp = np.minimum(strengths[t], table[t, i0:i1])
    else:
        clipped = np.array([strengths[t] for t in active])
        comp = np.maximum.reduce(
            np.minimum(clipped[:, None], table[active, i0:i1]), axis=0
        )
    return float(np.dot(comp, xs[i0:i1]) / np.add.reduce(comp))


# Threshold region codes of a crisp value v against (s_min, s_th):
#   0: v < s_min    1: v == s_min    2: s_min < v < s_th    3: v >= s_th
_BELOW_MIN, _AT_MIN, _MID, _ABOVE_TH = 0, 1, 2, 3

# A centroid estimate closer than this (times the largest of 1 and the output
# universe's end magnitudes) to s_min or s_th is settled by the exact centroid.
# The estimate's error is about 2 * (overlapping term subsets) * resolution *
# 2**-53 of that scale at most: under 7e-12 for five terms at the default resolution.
_ESTIMATE_TOL = 1e-9

# Rows that ``settle`` and ``settle_levels`` estimate at once, which bounds temporaries.
_SETTLE_ROWS = 512


def region_codes(values, s_min: float, s_th: float) -> np.ndarray:
    """Threshold region code of every crisp value; NaN reads ``_BELOW_MIN``."""
    v = np.asarray(values)
    return (v >= s_min).view(np.int8) + (v > s_min) + (v >= s_th)


def check_genes(genes: Sequence[int], length: int, hi: int) -> np.ndarray:
    """``genes`` as an int64 array, if it has ``length`` >= 1 entries, each an integer
    consequent 1..hi; an error names the first bad entry and its index."""
    g = np.asarray(genes)
    if g.shape != (length,) or not length:
        raise ValueError(f"expected {length or 'at least 1'} consequents, got shape {g.shape}")
    if g.dtype.kind not in "iu":  # as in the config schema, 2.0 is not an integer
        for i, x in enumerate(genes):
            if not isinstance(x, (int, np.integer)):
                raise ValueError(f"consequent {x} at index {i} is not an integer")
    bad = np.flatnonzero((g < 1) | (g > hi))
    if len(bad):
        raise ValueError(f"consequent {g[bad[0]]} at index {bad[0]} is outside 1..{hi}")
    return g.astype(np.int64, copy=False)


class FuzzySystem:
    """Fixed input/output variables plus the full inference pipeline.

    Every input universe is covered and every output term has a sample of
    positive degree, so any input fires a cell and every fired strength row
    has a centroid.  Decisions ask for threshold regions, which
    :meth:`centroid_estimates` settles mostly without :meth:`crisp_from_strengths`.
    """

    def __init__(
        self,
        input_vars: Sequence[LinguisticVariable],
        output_var: LinguisticVariable,
        resolution: int = DEFAULT_RESOLUTION,
    ) -> None:
        self.input_vars = tuple(input_vars)
        self.output_var = output_var
        self.resolution = int(resolution)
        if not self.input_vars:
            raise FuzzyDefinitionError("at least one input variable required")
        self.levels = tuple(len(v.terms) for v in self.input_vars)
        self.n_cells = math.prod(self.levels)
        self.n_output_terms = len(output_var.terms)
        self._xs, self._table, self._spans = _output_grid(output_var, self.resolution)

    def fire(self, inputs: Sequence) -> np.ndarray:
        """Min-AND firing weight per grid cell, row-major over levels, at
        broadcast arrays of crisp values, one per input variable; the cells
        on a new last axis."""
        if len(inputs) != len(self.input_vars):
            raise FuzzyDefinitionError(f"expected {len(self.input_vars)} inputs, "
                                       f"got {len(inputs)}")
        edges, term_input, cells = self._input_terms
        x = np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in inputs)), axis=-1)
        degrees = _degrees(x[..., term_input], *edges)  # every input term in one pass
        return np.minimum.reduce(degrees[..., cells], axis=-2)

    @cached_property
    def _input_terms(self) -> tuple:
        """Every input term's :func:`_degrees` arguments, stacked; each term's input; and,
        one row per input, each grid cell's term."""
        n, first = len(self.levels), np.cumsum((0,) + self.levels[:-1])
        edges = [np.concatenate(e) for e in zip(*(v._term_edges for v in self.input_vars))]
        cells = np.indices(self.levels).reshape(n, -1) + first[:, None]
        return edges, np.repeat(np.arange(n), self.levels), cells

    def term_strengths(self, consequents: Sequence[int], fired: np.ndarray) -> np.ndarray:
        """Strength per output term (on the last axis) of :meth:`fire`'s cell weights under
        ``consequents``: the largest weight of a cell whose consequent is the term, else 0."""
        genes = tuple(consequents)  # keyed with their types: 2.0 == 2, yet 2.0 is rejected
        cells, unused = _term_groups(genes, tuple(map(type, genes)), self.n_cells,
                                     self.n_output_terms)
        strengths = fired[..., cells].max(axis=-1)
        strengths[..., unused] = 0.0
        return strengths

    def crisp_from_strengths(self, strengths) -> float:
        """Exact centroid of one strength row; ``NoActivationError`` if all are zero."""
        s = strengths.tolist() if isinstance(strengths, np.ndarray) else list(strengths)
        return _centroid_row(s, self._xs, self._table, self._spans)

    def centroid_estimates(self, strengths: np.ndarray) -> np.ndarray:
        """Closed-form centroid per row of a (rows, output terms) strength
        array, NaN where no sample is activated.

        The value is the midpoint centroid of :meth:`crisp_from_strengths`
        summed in another order, so it can differ from it in the last few
        ulps; callers that compare against a threshold fall back to the
        exact value near it.  The tables are built on first use.
        """
        terms, sign, vs, count, cum_v, cum_vx, tail_x = _overlap_sums(
            self.output_var, self.resolution)
        m = strengths[:, terms].min(axis=2)
        k = np.empty(m.shape, dtype=np.int64)
        for j, v in enumerate(vs):
            k[:, j] = np.searchsorted(v, m[:, j])
        flat = k + np.arange(len(vs)) * cum_v.shape[1]  # entry [j, k] of each table
        den = (cum_v.take(flat) + m * (count - k)) @ sign
        num = (cum_vx.take(flat) + m * tail_x.take(flat)) @ sign
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

    def settle(self, strengths: np.ndarray, s_min: float, s_th: float) -> np.ndarray:
        """Region code per (rows, output terms) strength row: the estimate's, or where it
        is not finite or near a threshold the exact centroid's (which an all-zero row lacks)."""
        values = np.empty(len(strengths))
        for lo in range(0, len(strengths), _SETTLE_ROWS):
            values[lo:lo + _SETTLE_ROWS] = self.centroid_estimates(strengths[lo:lo + _SETTLE_ROWS])
        return self._codes(values, strengths.__getitem__, s_min, s_th)

    def level_sums(self, levels: np.ndarray) -> tuple:
        """``levels`` (ascending strengths) and, flat over (overlapping term subset,
        level), the denominator and numerator terms of :meth:`centroid_estimates`."""
        _, _, vs, count, cum_v, cum_vx, tail_x = _overlap_sums(self.output_var, self.resolution)
        sub, k = np.arange(len(vs))[:, None], np.array([np.searchsorted(v, levels) for v in vs])
        return (levels, (cum_v[sub, k] + levels * (count[:, None] - k)).ravel(),
                (cum_vx[sub, k] + levels * tail_x[sub, k]).ravel())

    def settle_levels(self, rows: np.ndarray, sums: tuple, s_min: float,
                      s_th: float) -> np.ndarray:
        """:meth:`settle` of strength rows ``levels[rows]`` by gathers from ``sums``, the
        :meth:`level_sums` at ``levels``: a subset's least index gives its least level."""
        terms, sign = _overlap_sums(self.output_var, self.resolution)[:2]
        levels, den_at, num_at = sums
        at, values = np.arange(len(sign)) * len(levels), np.empty(len(rows))
        for lo in range(0, len(rows), _SETTLE_ROWS):
            k = rows[lo:lo + _SETTLE_ROWS][:, terms].min(axis=2) + at
            with np.errstate(divide="ignore", invalid="ignore"):
                values[lo:lo + _SETTLE_ROWS] = (num_at.take(k) @ sign) / (den_at.take(k) @ sign)
        return self._codes(values, lambda i: levels[rows[i]], s_min, s_th)

    def _codes(self, values: np.ndarray, row, s_min: float, s_th: float) -> np.ndarray:
        """Region codes of centroid estimates; where one is not finite or near a
        threshold, of the exact centroid of strength row ``row(i)``."""
        tol = _ESTIMATE_TOL * max(1.0, abs(self.output_var.lo), abs(self.output_var.hi))
        near = ~np.isfinite(values) | (np.abs(values - s_min) <= tol) | (
            np.abs(values - s_th) <= tol)
        for i in np.flatnonzero(near).tolist():
            values[i] = self.crisp_from_strengths(row(i))
        return region_codes(values, s_min, s_th)

    def check_consequents(self, consequents: Sequence[int]) -> np.ndarray:
        """The consequents as an array, if each grid cell has one term number 1..n_output_terms."""
        return check_genes(consequents, self.n_cells, self.n_output_terms)


@lru_cache(maxsize=64)
def _term_groups(consequents: tuple, types: tuple, n_cells: int, n_terms: int):
    """Per output term, its cells repeated to the largest group's size (cells 0 for a term
    no cell names), and the terms no cell names.  Only a cache miss checks the
    consequents (:func:`check_genes`): no bad grid is cached."""
    genes = check_genes(consequents, n_cells, n_terms)
    groups = [np.flatnonzero(genes == term) for term in range(1, n_terms + 1)]
    cells = np.array([np.resize(g, max(map(len, groups))) for g in groups])
    unused = np.flatnonzero([not len(g) for g in groups])
    for a in (cells, unused):
        a.setflags(write=False)
    return cells, unused


# Consequents for the shipped 3x3x3 grid, velocity-major then distance then
# channels, encoded 1 (very low) .. 5 (very high).  This is also the seed
# chromosome for consequent evolution.
DEFAULT_CONSEQUENTS: tuple[int, ...] = (
    2, 2, 3, 3, 3, 4, 4, 5, 5,
    1, 2, 2, 3, 3, 3, 4, 4, 4,
    1, 1, 2, 2, 2, 3, 3, 4, 4,
)


def default_velocity(name: str = "velocity") -> LinguisticVariable:
    return LinguisticVariable(name, 0.0, 30.0, (
        triangle("slow", 0.0, 0.0, 15.0),
        triangle("medium", 5.0, 15.0, 25.0),
        triangle("fast", 15.0, 30.0, 30.0),
    ))


def default_distance(name: str = "distance") -> LinguisticVariable:
    return LinguisticVariable(name, 0.0, 1.0, (
        triangle("near", 0.0, 0.0, 0.4),
        triangle("medium", 0.2, 0.5, 0.8),
        triangle("far", 0.6, 1.0, 1.0),
    ))


def default_channels(name: str = "channels") -> LinguisticVariable:
    return LinguisticVariable(name, 0.0, 1.0, (
        triangle("low", 0.0, 0.0, 0.5),
        triangle("medium", 0.25, 0.5, 0.75),
        triangle("high", 0.5, 1.0, 1.0),
    ))


def default_output(name: str = "rss_threshold") -> LinguisticVariable:
    return LinguisticVariable(name, 0.0, 1.0, (
        triangle("very_low", 0.0, 0.0, 0.25),
        triangle("low", 0.0, 0.25, 0.5),
        triangle("medium", 0.25, 0.5, 0.75),
        triangle("high", 0.5, 0.75, 1.0),
        triangle("very_high", 0.75, 1.0, 1.0),
    ))


def default_system(resolution: int = DEFAULT_RESOLUTION) -> FuzzySystem:
    """Three-input system over the default universes."""
    return FuzzySystem(
        (default_velocity(), default_distance(), default_channels()),
        default_output(),
        resolution,
    )

"""Lattice domains and grid functions.

Everything downstream works on a uniform lattice of spacing ``h_grid``
covering the bounding box of a ball or a box, extended by the stencil
radius so that every stencil read from an interior node stays on the
lattice.  :func:`build_domain` is the only reader of a region description;
the :class:`Domain` it returns keeps the node classes and axis coordinates,
not the region, and every later question about the domain (interior, band,
distance to the boundary) is answered from them.  Nodes are classified as

* ``INTERIOR`` -- lattice nodes strictly inside the region (the open set);
  the unknowns live here,
* ``BAND``     -- nodes outside the region but within Chebyshev distance
  ``stencil_radius`` (in lattice steps) of an interior node; Dirichlet
  data lives here,
* ``EXTERIOR`` -- everything else; exterior nodes carry no values (NaN).

A :class:`GridFunction` stores one float per non-exterior node at a fixed
time.  File round-trips use ``%.17g`` formatting so float64 values survive
save/load bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable

import numpy as np

EXTERIOR, BAND, INTERIOR = 0, 1, 2

_CLASS_NAMES = {EXTERIOR: "exterior", BAND: "band", INTERIOR: "interior"}
_CLASS_CODES = {v: k for k, v in _CLASS_NAMES.items()}


def fmt17(x: float) -> str:
    """``x`` with 17 significant digits (``%.17g``): every float64 reads
    back exactly, though the form is not always the shortest that does
    (``fmt17(0.1)`` is ``0.10000000000000001``)."""
    return format(float(x), ".17g")


def write_table(path, header: str | None, rows) -> None:
    """Write a comma-separated table: the ``header`` line (none when None),
    then one line per row; floats go through :func:`fmt17`, everything else
    through ``str``."""
    lines = [] if header is None else [header]
    lines += [",".join(fmt17(c) if isinstance(c, float) else str(c)
                       for c in row) for row in rows]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# region descriptions
# ---------------------------------------------------------------------------

def _as_vec(v, n: int | None = None, name: str = "vector") -> np.ndarray:
    try:
        a = np.asarray(v, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} {v!r} is not a list of numbers") from exc
    if n is not None and a.size != n:
        raise ValueError(f"expected a length-{n} {name}, got {v!r}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} {v!r} is not finite")
    return a


# the keys each region kind takes besides ``kind``, sorted
_REGION_KEYS = {"ball": ["center", "radius"], "box": ["lower", "upper"]}


def _region(desc: dict) -> tuple[np.ndarray, np.ndarray, Callable]:
    """Bounding box ``(lo, hi)`` and strict-inside test (points of shape
    (..., n) to booleans) of a region description."""
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _REGION_KEYS:
        raise ValueError(f"unknown region kind {kind!r}: must be 'ball' or "
                         "'box'")
    keys = sorted(set(desc) - {"kind"})
    if keys != _REGION_KEYS[kind]:
        raise ValueError(f"a {kind} region takes {_REGION_KEYS[kind]}, "
                         f"got {keys}")
    if kind == "ball":
        c = _as_vec(desc["center"], name="center")
        r = _as_vec(desc["radius"], 1, "radius")[0]
        return c - r, c + r, \
            lambda pts: np.einsum("...i,...i->...", pts - c, pts - c) < r * r
    lo = _as_vec(desc["lower"], name="lower")
    hi = _as_vec(desc["upper"], lo.size, "upper")
    return lo, hi, lambda pts: np.all((pts > lo) & (pts < hi), axis=-1)


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """A classified uniform lattice over a convex region."""

    h_grid: float
    classes: np.ndarray           # uint8 lattice array of EXTERIOR/BAND/INTERIOR
    stencil_radius: int
    # node coordinates per axis; a restored lattice keeps the stored ones,
    # so node positions survive a save/load cycle bit for bit
    axis_coords: tuple

    def __post_init__(self):
        if tuple(len(a) for a in self.axis_coords) != self.classes.shape:
            raise ValueError("axis coordinates do not match the lattice "
                             f"shape {self.classes.shape}")

    @property
    def n(self) -> int:
        return self.classes.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.classes.shape

    @property
    def origin(self) -> np.ndarray:
        """Physical position of lattice index (0, .., 0)."""
        return np.array([a[0] for a in self.axis_coords])

    def axes(self) -> list[np.ndarray]:
        return list(self.axis_coords)

    # The class masks, interior positions and offsets, and core box are
    # cached per domain (it is frozen) and handed out read-only, so the
    # time-stepping loop never rebuilds them; copy before modifying.

    @cached_property
    def _interior(self) -> np.ndarray:
        return _read_only(self.classes == INTERIOR)

    @cached_property
    def _band(self) -> np.ndarray:
        return _read_only(self.classes == BAND)

    @cached_property
    def interior_positions(self) -> np.ndarray:
        """Physical coordinates of the interior nodes, shape (N, n)."""
        return _read_only(self.positions(self._interior))

    @cached_property
    def core(self) -> slice:
        """Span of the flattened (row-major) lattice covering the box
        ``[r:-r, ...]``, r = stencil_radius.

        Every interior node lies in that box, so a stencil read of width up
        to r from any node of the span stays on the lattice.
        """
        r = self.stencil_radius
        box = tuple(slice(r, s - r) for s in self.shape)
        rim = np.ones(self.shape, dtype=bool)
        rim[box] = False
        if np.any(self._interior & rim):
            raise ValueError(f"interior node within {r} nodes of the lattice "
                             "edge; the stencil would leave the lattice")
        strides = [math.prod(self.shape[d + 1:]) for d in range(self.n)]
        first = sum(r * st for st in strides)
        stop = sum((s - r - 1) * st for s, st in zip(self.shape, strides)) + 1
        return slice(first, max(first, stop))

    @cached_property
    def interior_index(self) -> np.ndarray:
        """Offsets of the interior nodes in the flattened lattice, in the
        row-major order of ``interior_positions``."""
        return _read_only(np.flatnonzero(self._interior))

    @cached_property
    def span_cache(self) -> dict:
        """What operator kernels derive from the lattice, their config and
        the number of stacked members alone, kept between calls: the frame
        loop's plans, each with the work rows it reuses from call to call
        and the views on the last values it read.  Calls that share a plan
        must not run concurrently."""
        return {}

    def interior_mask(self) -> np.ndarray:
        return self._interior

    def band_mask(self) -> np.ndarray:
        return self._band

    def active_mask(self) -> np.ndarray:
        return self.classes != EXTERIOR

    def positions(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Physical coordinates of masked nodes, shape (N, n)."""
        if mask is None:
            mask = self.active_mask()
        return self.coordinates(np.argwhere(mask))

    def coordinates(self, indices) -> np.ndarray:
        """Physical coordinates of lattice indices: an index of length n
        gives shape (n,), an index array of shape (k, n) gives (k, n)."""
        idx = np.asarray(indices, dtype=int)
        ax = self.axes()
        out = np.empty(idx.shape)
        for d in range(self.n):
            out[..., d] = ax[d][idx[..., d]]
        return out

    def grids(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays (one per axis, lattice-shaped)."""
        return list(np.meshgrid(*self.axes(), indexing="ij", sparse=True))

    def index_of(self, point, lowest: int = BAND) -> tuple[int, ...]:
        """Lattice index of the node nearest to a physical point; refuses a
        point off the lattice and a node of a class below ``lowest``."""
        p = _as_vec(point, self.n, "point")
        idx = tuple(int(i) for i in np.rint((p - self.origin) / self.h_grid))
        if any(not 0 <= i < s for i, s in zip(idx, self.shape)):
            where = "it is outside the lattice"
        elif self.classes[idx] < lowest:
            where = f"it is in the {_CLASS_NAMES[int(self.classes[idx])]}"
        else:
            return idx
        need = "an interior" if lowest == INTERIOR else "an active"
        raise ValueError(f"point {tuple(map(float, p))} is not {need} "
                         f"lattice node: {where}")

    def same_lattice(self, other: "Domain") -> bool:
        """Same spacing, node classes and interior positions as ``other``."""
        return other is self or (
            self.h_grid == other.h_grid
            and np.array_equal(self.classes, other.classes)
            and np.array_equal(self.interior_positions,
                               other.interior_positions))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _chebyshev_dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation by the Chebyshev ball, done separably per axis."""
    out = mask.copy()
    for axis in range(mask.ndim):
        acc = out.copy()
        for step in range(1, radius + 1):
            lo = [slice(None)] * mask.ndim
            hi = [slice(None)] * mask.ndim
            lo[axis] = slice(None, -step)
            hi[axis] = slice(step, None)
            acc[tuple(lo)] |= out[tuple(hi)]
            acc[tuple(hi)] |= out[tuple(lo)]
        out = acc
    return out


def build_domain(description: dict, h_grid: float,
                 stencil_radius: int = 2) -> Domain:
    """Build a classified lattice for a ball or box region description.

    ``description`` is ``{"kind": "ball", "center", "radius"}`` or
    ``{"kind": "box", "lower", "upper"}``; it is read here only, and the
    returned lattice does not keep it.  Raises ``ValueError`` for any other
    kind or set of keys, and ``ValueError("degenerate domain: ...")`` when
    the region is too small to contain a usable interior at this
    resolution.
    """
    if not (h_grid > 0 and math.isfinite(h_grid)):
        raise ValueError(f"h_grid must be positive and finite: {h_grid}")
    if stencil_radius < 1:
        raise ValueError("stencil_radius must be at least 1")
    lo, hi, inside = _region(description)
    if np.any(hi <= lo):
        raise ValueError("degenerate domain: empty bounding box")
    origin = lo - stencil_radius * h_grid
    counts = np.floor((hi - lo) / h_grid + 1e-9).astype(int) + 1 + 2 * stencil_radius
    axes = tuple(_read_only(o + float(h_grid) * np.arange(c))
                 for o, c in zip(origin, counts))
    member = inside(np.stack(np.broadcast_arrays(
        *np.meshgrid(*axes, indexing="ij", sparse=True)), axis=-1))
    if not member.any():
        raise ValueError("degenerate domain: no lattice node lies strictly inside")
    ext = np.argwhere(member)
    span = ext.max(axis=0) - ext.min(axis=0)
    if np.any(span < 1):
        raise ValueError(
            "degenerate domain: interior is a single lattice layer along axis "
            f"{int(np.argmin(span))}; refine h_grid or enlarge the region")
    near = _chebyshev_dilate(member, stencil_radius)
    classes = np.where(member, INTERIOR, np.where(near, BAND, EXTERIOR))
    return Domain(h_grid=float(h_grid), classes=classes.astype(np.uint8),
                  stencil_radius=int(stencil_radius), axis_coords=axes)


# ---------------------------------------------------------------------------
# GridFunction
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Node values on a Domain at a fixed time; NaN on exterior nodes."""

    domain: Domain
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise ValueError("values shape does not match the lattice")

    def validate(self) -> None:
        active = self.domain.active_mask()
        bad = ~np.isfinite(self.values[active])
        if bad.any():
            where = tuple(map(float, self.domain.positions(active)[bad][0]))
            raise ValueError(f"non-finite value at node {where}")

    def copy(self, values: np.ndarray | None = None,
             t: float | None = None) -> "GridFunction":
        return GridFunction(self.domain,
                            self.values.copy() if values is None else values,
                            self.t if t is None else t)

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at physical points, shape (N, n).

        Returns NaN where any surrounding cell corner is exterior or the
        point leaves the lattice.
        """
        dom = self.domain
        pts = np.asarray(points, dtype=float)
        rel = (pts - dom.origin) / dom.h_grid
        base = np.floor(rel).astype(int)
        frac = rel - base
        # points sitting exactly on the last node of an axis still need a cell
        top = np.array(dom.shape) - 1
        at_top = base >= top
        base = np.where(at_top, top - 1, base)
        frac = np.where(at_top, 1.0, frac)
        out = np.zeros(len(pts))
        valid = np.all((base >= 0) & (base + 1 <= top), axis=1)
        out[~valid] = np.nan
        if valid.any():
            b = base[valid]
            f = frac[valid]
            acc = np.zeros(len(b))
            for off in product((0, 1), repeat=dom.n):
                w = np.ones(len(b))
                for ax, o in enumerate(off):
                    w = w * (f[:, ax] if o else 1.0 - f[:, ax])
                acc += w * self.values[tuple((b + np.array(off)).T)]
            out[valid] = acc
        return out


@dataclass
class GridStack:
    """B grid functions on one domain at one time: ``values`` has shape
    ``(B, *domain.shape)``.

    The operator kernel takes a stack wherever it takes a GridFunction and
    evaluates every member in the same array pass.
    """

    domain: Domain
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[1:] != self.domain.shape:
            raise ValueError("stack values do not match the lattice")


def sample(domain: Domain, f: Callable, t: float = 0.0) -> GridFunction:
    """Evaluate ``f(points, t)`` at all non-exterior nodes."""
    vals = np.full(domain.shape, np.nan)
    mask = domain.active_mask()
    pts = domain.positions(mask)
    vals[mask] = np.asarray(f(pts, t), dtype=float).reshape(-1)
    gf = GridFunction(domain, vals, t)
    gf.validate()
    return gf


def gradient_field(u: GridFunction | GridStack) -> np.ndarray:
    """Central-difference gradient at interior nodes, shape values + (n,).

    NaN away from the interior.
    """
    dom = u.domain
    out = np.full(u.values.shape + (dom.n,), np.nan)
    inner = dom.interior_mask()
    for ax in range(dom.n):
        plus = np.roll(u.values, -1, axis=ax - dom.n)
        minus = np.roll(u.values, 1, axis=ax - dom.n)
        g = (plus - minus) / (2.0 * dom.h_grid)
        out[..., ax][..., inner] = g[..., inner]
    return out


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

@dataclass
class CoefficientField:
    """Spatio-temporal coefficient b(x, t) with pinch bounds 0 < lam <= Lam."""

    evaluator: Callable
    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise ValueError(
                f"coefficient bounds must satisfy 0 < lam <= Lam, "
                f"got lam={self.lam}, Lam={self.Lam}")

    def __call__(self, points: np.ndarray, t: float) -> np.ndarray:
        vals = np.asarray(self.evaluator(points, t), dtype=float)
        if vals.shape != points.shape[:-1]:
            vals = np.broadcast_to(vals, points.shape[:-1]).copy()
        return vals

    def check_bounds(self, vals: np.ndarray, where: str = "") -> None:
        slack = 1e-12 * max(1.0, self.Lam)
        # NaN fails both comparisons, so only values inside pass
        if not np.all((vals >= self.lam - slack) & (vals <= self.Lam + slack)):
            what = ("leaves [lam, Lam]" if np.isfinite(vals).all()
                    else "is not finite")
            raise ValueError(f"coefficient {what} {where}".rstrip())

    @property
    def constant_value(self) -> float | None:
        """The value of a field made by :meth:`constant`, else None."""
        ev = self.evaluator
        return ev.c if isinstance(ev, _Constant) else None

    @staticmethod
    def constant(c: float) -> "CoefficientField":
        """b == c; its bounds are [c, c], so it never needs a bounds check."""
        return CoefficientField(evaluator=_Constant(float(c)),
                                lam=float(c), Lam=float(c))


@dataclass(frozen=True)
class _Constant:
    """Evaluator of a constant coefficient; equal constants compare equal,
    so two configs built with the same constant ``b`` are equal too."""

    c: float

    def __call__(self, points: np.ndarray, t: float) -> np.ndarray:
        return np.full(points.shape[:-1], self.c)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def save_csv(u: GridFunction, path) -> None:
    """Write a node table: header with n, h_grid, t, then one row per
    non-exterior node with columns x_1..x_n, class, value."""
    dom = u.domain
    mask = dom.active_mask()
    # each lattice coordinate is formatted once and shared by its rows
    axes = [[fmt17(x) for x in ax] for ax in dom.axes()]
    cols = [[axes[d][i] for i in col]
            for d, col in enumerate(np.argwhere(mask).T.tolist())]
    cols.append([_CLASS_NAMES[c] for c in dom.classes[mask].tolist()])
    cols.append([fmt17(v) for v in u.values[mask].tolist()])
    with open(path, "w") as fh:
        fh.write("n,h_grid,t\n")
        fh.write(f"{dom.n},{fmt17(dom.h_grid)},{fmt17(u.t)}\n")
        names = [f"x_{i+1}" for i in range(dom.n)] + ["class", "value"]
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cols))


def load_csv(path) -> GridFunction:
    """Rebuild a GridFunction (and its restored Domain) from save_csv output."""
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        if head != ["n", "h_grid", "t"]:
            raise ValueError(f"unrecognized header {head} in {path}")
        n_s, h_s, t_s = fh.readline().strip().split(",")
        n, h, t = int(n_s), float(h_s), float(t_s)
        cols = fh.readline().strip().split(",")
        if cols != [f"x_{i+1}" for i in range(n)] + ["class", "value"]:
            raise ValueError(f"unrecognized column row {cols} in {path}")
        pts, cls, vals = [], [], []
        for line in fh:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            pts.append([float(x) for x in parts[:n]])
            cls.append(_CLASS_CODES[parts[n]])
            vals.append(float(parts[n + 1]))
    pts = np.asarray(pts)
    lo = pts.min(axis=0)
    idx = np.rint((pts - lo) / h).astype(int)
    shape = tuple(int(m) for m in idx.max(axis=0) + 1)
    classes = np.zeros(shape, dtype=np.uint8)
    values = np.full(shape, np.nan)
    classes[tuple(idx.T)] = np.asarray(cls, dtype=np.uint8)
    values[tuple(idx.T)] = vals
    # keep the stored coordinates verbatim per axis, so positions (and with
    # them boundary data, hence restarted runs) are bit-identical; lattice
    # rows with no stored node get arithmetic fill (they are never queried)
    axes = []
    for d in range(n):
        ax = np.full(shape[d], np.nan)
        ax[idx[:, d]] = pts[:, d]
        hole = np.isnan(ax)
        ax[hole] = lo[d] + h * np.flatnonzero(hole)
        axes.append(_read_only(ax))
    # the stored lattice is cut to its active nodes and the band reaches the
    # stencil radius past the interior, so the first interior row is the
    # radius
    inner = (classes == INTERIOR).any(axis=tuple(range(1, n)))
    dom = Domain(h_grid=h, classes=classes,
                 stencil_radius=int(np.argmax(inner)), axis_coords=tuple(axes))
    return GridFunction(dom, values, t)

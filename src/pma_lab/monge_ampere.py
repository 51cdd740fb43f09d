"""Monotone wide-stencil operators for degenerate Monge-Ampere flows.

The flow is u_t = b(x,t) (det D^2 u)^p with 0 < lam <= b <= Lam.  The
determinant of a convex function is discretized as a minimum over
orthogonal stencil frames:

    det_h u(x) = min_F  prod_{e in F}  max(f, Delta^2_e u(x) / (|e|^2 h^2)),

where a frame F is a set of n pairwise-orthogonal integer vectors of
Chebyshev norm <= width, Delta^2_e u = u(x+he) + u(x-he) - 2u(x), and the
floor f is 0 for p >= 1 and the curvature scale h^2 for p < 1.
For a convex quadratic each frame product is the product of second
derivatives in an orthogonal basis, which by Hadamard's inequality is
>= det D^2 u with equality when the frame diagonalizes the Hessian; so
the minimum is exact whenever some frame is eigenaligned (and every
curvature is at least f), and an upper bound otherwise.  Clamping keeps
every product monotone in the neighbor values, which is what the discrete
comparison principle needs.  The floor keeps the slope (below) finite where
a difference vanishes, and shrinks to 0 with h, so the scheme stays
consistent; it lifts every node by at least b (h^(2n))^p per unit time.

Variants:

* plain    -- b (det_h u)^p
* reduced  -- with ``n_full`` set: for profiles u(r, x_n) of an
  axisymmetric function in dimension n_full,
  b ( max(f, u_r/r)^(n_full-2) * det2_h u )^p, with u_r/r replaced by its
  limit u_rr on the axis r = 0.

Every call returns, alongside the value, a slope field in curvature
units (multiply by 1/h^2) that bounds how fast F(x) can fall when u(x)
rises: the time step ``h^2 / max slope`` keeps the explicit update
monotone at every p (see ``evolution``).  Raise the centre by t h^2 / 2:
every raw difference D'_e (below) falls by t h^2, so its clamped value
stays >= D'_e(0) max(0, 1 - t h^2 / D'_e(0)), and by Weierstrass's product
inequality each frame's product x_F stays >= x_F(0) max(0, 1 - k_F t) with
k_F = h^2 sum_{e in F} 1/D'_e (the radial factor adds its own term, see
:func:`_radial_factors`).  Then g_F = b (c_F x_F)^p >= g_F(0) max(0, 1 -
max(p, 1) k_F t): by Bernoulli's inequality for p >= 1, and for p < 1
because x^p is concave with 0^p = 0, so x(t)^p >= x(0)^p x(t) / x(0).
With the value m = min_F g_F(0), every chord (m - min_F g_F(t)) / t is at
most m max(p, 1) max_F k_F.  So the slope at a node is the tangent bound
2 max(p, 1) h^2 m max_F sum_{e in F} 1/D'_e, in every dimension and for
both variants, and 0 where m = 0 (m never falls below 0).  At p >= 1 it
is at most the all-frame slope, twice the largest |dg_F/dt| at t = 0 over
every frame, and at least the active frame's.

Units.  The work rows hold raw differences D'_e = max(|e|^2 h^2 f,
Delta^2_e u), the floor |e|^2 h^4 at p < 1; a frame's product is scaled
once by c_F = prod_{e in F} 1/(|e|^2 h^2).  A raw product loses range only
for curvatures below about 1e-100 (3-D, h = 0.05).

Evaluation.  :func:`ma_field` takes one grid function or a
:class:`~pma_lab.grid.GridStack` of B of them on one lattice at one time,
laid end to end and differenced on one contiguous span: a stack costs the
array operations of one grid function, and each member's output is bit for
bit that of its own call.  Both variants run one frame loop,
:func:`_min_over_frames` (running minimum of the products, running maximum
of the slope factors, argmin frame, into which frame 0 writes directly);
the reduced variant's radial factor is one more factor of every frame.
One recurrence, :func:`_product_and_sum`, builds a frame's product and its
leave-one-out sum.  What the loop needs besides the values is planned
once per lattice, config and stack size (:class:`_Plan`), so a call
runs its array operations and little else.  The loop runs over the span
in equal blocks of at most ``_BLOCK`` = 2^15 columns, so its ten to
fifteen work rows stay near one core's L2 cache, where span-length rows
of a 45^3 lattice (83k columns, 0.66 MB each) stream from memory on
every pass; the blocks change no bit, and every 2-D lattice of the
registry is one block.  Each direction is differenced at the first frame
that reads it, into a block row of its own if several frames read it
(the axes in 3-D and up), else into one of at most n scratch rows that
the next frame reuses; two directions in
consecutive rows (every frame in 2-D, every planar frame in 3-D) form one
(2, columns) block, read through views whose row stride is their offset
step.  The plan keeps those views with the last input array, and keeps
that array alive, until a call passes another one; a time-stepping loop
passes one array, updated in place, on every step.  An input that must be
copied gets new views on every call.  The output stays on the span: an
:class:`OperatorField` holds the span-length values and slopes, computed in
place in the running minimum and maximum, with a no-op (value -0.0, slope
0.0) on every column that is not an interior node, so a time step adds the
whole span to the flat values in one call; the lattice-shaped fields are
built only when they are first read.
b(x, t) is evaluated and bound-checked once per call, at the interior
nodes; a constant b is one scalar, and b = 1 costs no pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .grid import CoefficientField, Domain, GridFunction, GridStack

# The frame loop runs over equal blocks of at most this many span columns,
# so that its work rows stay near one core's L2 cache (module docstring);
# every 2-D lattice of the registry (at most 17,153 columns) is one block.
_BLOCK = 2 ** 15


# ---------------------------------------------------------------------------
# stencil frames
# ---------------------------------------------------------------------------

def _frames_2d(width: int) -> list[tuple[tuple[int, int], ...]]:
    """Orthogonal integer frames in the plane, one per unordered line pair.

    A frame is determined by a primitive direction (a, b) with a >= 1 and
    -a < b <= a (the line within 45 degrees of the first axis); its partner
    is the perpendicular (-b, a).
    """
    frames = []
    for a in range(1, width + 1):
        for b in range(-a + 1, a + 1):
            if math.gcd(a, abs(b)) != 1:
                continue
            frames.append(((a, b), (-b, a)))
    return frames


def orthogonal_frames(n: int, width: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All orthogonal integer frames with Chebyshev norm <= width.

    In the plane these are the rotated pairs from :func:`_frames_2d`.  In
    higher dimension: the axis frame, plus every non-axis planar frame
    embedded in each coordinate plane (the remaining directions stay on
    the axes).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if width < 1 or width > 3:
        raise ValueError("stencil width must be 1, 2 or 3")
    if n == 2:
        return tuple(_frames_2d(width))
    frames = [tuple(tuple(int(i == k) for i in range(n)) for k in range(n))]
    planar = [f for f in _frames_2d(width) if f[0] != (1, 0)]
    for i in range(n):
        for j in range(i + 1, n):
            for u2, v2 in planar:
                vecs = []
                for k in range(n):
                    if k == i:
                        e = [0] * n
                        e[i], e[j] = u2
                        vecs.append(tuple(e))
                    elif k == j:
                        e = [0] * n
                        e[i], e[j] = v2
                        vecs.append(tuple(e))
                    else:
                        vecs.append(tuple(int(m == k) for m in range(n)))
                frames.append(tuple(vecs))
    return tuple(frames)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorConfig:
    """Exponent, stencil width and coefficient of the flow; ``n_full``, the
    dimension of an axisymmetric flow on the (r, x_n) lattice, selects the
    reduced variant, None the plain one."""

    p: float
    width: int = 2
    b: CoefficientField = field(default_factory=lambda: CoefficientField.constant(1.0))
    n_full: int | None = None

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ValueError(f"exponent p must be positive and finite: "
                             f"{self.p}")
        if self.width not in (1, 2, 3):
            raise ValueError(f"stencil width must be 1, 2 or 3, got {self.width}")
        if self.n_full is not None and self.n_full < 3:
            raise ValueError(f"the reduced variant needs n_full >= 3, got "
                             f"{self.n_full}")


@dataclass
class OperatorField:
    """Operator values and slope bounds (and optional argmin frames) on the
    span of the frame loop.

    ``span_values``, ``span_slope`` and ``span_frames`` hold one entry per
    column of the span that covers every member's ``domain.core`` (and the
    rims between), padded to whole members: member m's core starts at
    column m S, S = ``domain.classes.size``.  Every column that is not an
    interior node holds a no-op, value -0.0 and slope 0.0 (x + (-0.0) is x
    for every double), so a time step adds the whole span to the flat
    values.  ``columns`` are the interior nodes' columns, in the order of
    ``domain.interior_positions``, behind a leading batch axis for a
    :class:`GridStack`.  ``values``, ``slope`` and
    ``argmin_frame`` are the same numbers on the lattice, NaN (frame index
    255) off the interior, each built on first read.  The slope is in
    curvature units (divide by h^2 for 1/time).
    """

    domain: Domain
    span_values: np.ndarray
    span_slope: np.ndarray
    columns: np.ndarray
    span_frames: np.ndarray | None = None

    @cached_property
    def values(self) -> np.ndarray:
        return self._on_lattice(self.span_values, np.nan)

    @cached_property
    def slope(self) -> np.ndarray:
        return self._on_lattice(self.span_slope, np.nan)

    @cached_property
    def argmin_frame(self) -> np.ndarray | None:
        return self._on_lattice(self.span_frames, 255)

    def node_at(self, col: int) -> tuple[float, ...]:
        """The position of the interior node at span column ``col``."""
        dom = self.domain
        k = np.searchsorted(dom.interior_index,
                            dom.core.start + col % dom.classes.size)
        return tuple(map(float, dom.interior_positions[k]))

    def _on_lattice(self, a: np.ndarray | None, fill) -> np.ndarray | None:
        # member m's row of the span starts at its lattice offset core.start
        if a is None:
            return None
        dom = self.domain
        S, r = dom.classes.size, dom.core.start
        rows = a.reshape(-1, S)
        out = np.empty_like(rows)
        out[:, r:] = rows[:, :S - r]
        np.copyto(out, fill, where=~dom.interior_mask().reshape(-1))
        return out.reshape(self.columns.shape[:-1] + dom.shape)


# ---------------------------------------------------------------------------
# core evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Stencil:
    """The frames of one operator as indices into their distinct directions.

    Each direction (taken up to sign) carries its offset in the flattened
    lattice and |e|^2; ``frames[k]`` lists the direction indices of frame k
    and ``e2_product[k]`` the product of their |e|^2.  Frame k differences
    every direction it is the first to read into a block row and reads its
    factors from rows ``rows[k]``.  A direction that more than one frame
    reads (``shared``: the axes in 3-D and up, none in 2-D) keeps row
    ``shared.index(d)`` for the whole block; each other direction takes one
    of ``scratch`` rows after them, from the first, which the next frame
    refills.  ``fills[k]`` = ((row, directions), ...) pairs up what frame k
    fills: two directions in consecutive rows of one work array are
    differenced as one (2, columns) block (every frame in 2-D and every
    planar frame in 3-D), any other alone.
    """

    frames: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    e2: tuple[int, ...]
    e2_product: tuple[int, ...]
    shared: tuple[int, ...]
    scratch: int
    fills: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    rows: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _stencil(shape: tuple[int, ...], width: int, radius: int) -> _Stencil:
    frames = orthogonal_frames(len(shape), width)
    if max(max(abs(c) for c in e) for f in frames for e in f) > radius:
        raise ValueError("operator width exceeds the domain stencil radius")
    strides = [math.prod(shape[d + 1:]) for d in range(len(shape))]
    dirs: dict = {}
    for frame in frames:
        for e in frame:
            dirs.setdefault(max(e, tuple(-c for c in e)), len(dirs))
    offsets = tuple(sum(c * s for c, s in zip(e, strides)) for e in dirs)
    e2 = tuple(sum(c * c for c in e) for e in dirs)
    frames = tuple(tuple(dirs[max(e, tuple(-c for c in e))] for e in frame)
                   for frame in frames)
    readers = [sum(d in f for f in frames) for d in range(len(dirs))]
    shared = tuple(d for d in range(len(dirs)) if readers[d] > 1)
    fills, rows, filled = [], [], set()
    for f in frames:
        single = [d for d in f if readers[d] == 1]
        rows.append(tuple(shared.index(d) if d in shared
                          else len(shared) + single.index(d) for d in f))
        groups: list = []
        for r, d in zip(rows[-1], f):
            if d not in filled:
                filled.add(d)
                r0, ds = groups[-1] if groups else (-1, ())
                if len(ds) == 1 and r == r0 + 1 and \
                        (r < len(shared)) == (r0 < len(shared)):
                    groups[-1] = (r0, ds + (d,))
                else:
                    groups.append((r, (d,)))
        fills.append(tuple(groups))
    return _Stencil(
        frames=frames, offsets=offsets,
        e2=e2, e2_product=tuple(math.prod(e2[d] for d in f) for f in frames),
        shared=shared, scratch=max(map(max, rows)) + 1 - len(shared),
        fills=tuple(fills), rows=tuple(rows))


def _span_cached(u: GridFunction | GridStack, name, build):
    """``build(members)`` for this lattice and stack size, built on the
    first call and kept on the domain (``members`` is None for a grid
    function)."""
    members = len(u.values) if isinstance(u, GridStack) else None
    cache = u.domain.span_cache
    key = (name, members)
    if key not in cache:
        cache[key] = build(members)
    return cache[key]


class _Plan:
    """What the frame loop of one operator config needs besides the values,
    built once per lattice and stack size and kept in ``Domain.span_cache``:
    the (lo, hi) bounds of the span's ``blocks``; per frame (groups,
    factors, c_F), each fill group of :func:`_stencil` as its (g, columns)
    block of work rows, its clamp (0.0 at p >= 1, the column of floors
    |e|^2 h^4 at p < 1), first offset and offset step, then the rows the
    product reads; ``inner`` and ``off`` of :class:`OperatorField`; and for
    the reduced variant (``n_full`` set, on a 2-D lattice, else ValueError),
    the rows ``radial`` (ratio, R) and the ratio's clamp (0.0 or h^2), and
    per block the row 2hr (1 on the axis r = 0), the axis entries and the
    radial rate weight (0 off the axis).

    It allocates every block row the loop writes and shares none with
    another plan.
    """

    def __init__(self, dom: Domain, cfg: OperatorConfig, members: int | None):
        st = _stencil(dom.shape, cfg.width, dom.stencil_radius)
        S, start = dom.classes.size, dom.core.start
        self.start, self.padded = start, (members or 1) * S
        L = self.L = dom.core.stop - start + self.padded - S
        blocks = max(1, -(-L // _BLOCK))
        size = -(-L // blocks)
        # equal blocks: the last ends at the span's end and recomputes the
        # few columns it shares with the one before, to the same bits
        self.blocks = [(lo, lo + size) for lo in
                       (min(b * size, L - size) for b in range(blocks))]
        inner = dom.interior_index - start
        if members is not None:
            inner = inner + S * np.arange(members)[:, None]
        inner.flags.writeable = False
        self.inner, self.off = inner, np.ones(self.padded, dtype=bool)
        self.off[inner.reshape(-1)] = False
        hh, ns = dom.h_grid * dom.h_grid, len(st.shared)
        self.hh, below_one = hh, cfg.p < 1.0
        diff, scratch = np.empty((ns, size)), np.empty((st.scratch, size))
        rows = [*diff, *scratch]

        def block(r, g):
            # rows r, ..., r + g - 1, all shared or all scratch (see _stencil)
            return diff[r:r + g] if r < ns else scratch[r - ns:r - ns + g]

        self.twice, self.prod, self.rate = (np.empty(size) for _ in range(3))
        self.radius, self.term, radial = [None] * blocks, None, []
        if cfg.n_full is not None:
            if dom.n != 2:
                raise ValueError(
                    "the reduced operator works on a 2-D (r, x_n) lattice")
            h, self.kr = dom.h_grid, dom.shape[1]   # offset of the first axis
            self.radial = (np.empty(size), np.empty(size),
                           hh if below_one else 0.0)
            radial, self.term = [self.radial[1]], np.empty(size)
            r_all = np.tile(np.repeat(dom.axes()[0], self.kr), members or 1)
            self.radius = []
            for lo, hi in self.blocks:
                r = r_all[start + lo:start + hi]
                two_hr, axis = 2.0 * h * r, np.flatnonzero(np.abs(r) < 0.5 * h)
                two_hr[axis] = 1.0
                self.radius.append((two_hr, axis, np.zeros(size)))
        self.frames, o = [], st.offsets
        for k, (fills, frame) in enumerate(zip(st.fills, st.rows)):
            # each group's clamp: its floors |e|^2 h^4 at p < 1, else 0
            groups = [(block(r, len(ds)),
                       np.array([[st.e2[d] * hh * hh] for d in ds])
                       if below_one else 0.0,
                       o[ds[0]], o[ds[-1]] - o[ds[0]]) for r, ds in fills]
            self.frames.append((groups, [rows[i] for i in frame] + radial,
                                1.0 / (st.e2_product[k] * hh ** dom.n)))
        self.source = None

    def views(self, u: GridFunction | GridStack) -> list:
        """Per block, (lo, hi, centre, fills, radial): its span columns, the
        centre values, per frame each fill group's (plus, minus, out, clamp),
        plus and minus its (g, columns) values at the offsets +-k_i through
        ``np.ndarray`` views (``as_strided`` costs 5x as much), and for the
        reduced variant (u(x + h e_1), u(x - h e_1), *radius).  They are kept
        with ``u.values``, which the plan holds alive until the next rebuild,
        and reused while calls pass that same array object; an input that
        must be copied (not C-contiguous or not float) gets new ones on every
        call, since the copy would not see a later change to it."""
        if u.values is self.source:
            return self.read
        # every member end to end, as one flat float array
        flat = np.ascontiguousarray(u.values, dtype=float).reshape(-1)
        self.source = u.values if np.may_share_memory(flat, u.values) else None
        item, self.read = flat.itemsize, []

        def at(col, step, out):
            # out's shape of values from column col on, step columns per row
            return np.ndarray(out.shape, float, flat, col * item,
                              (step * item, item))

        for (lo, hi), radius in zip(self.blocks, self.radius):
            a, b = self.start + lo, self.start + hi
            fills = [[(at(a + k, m, out), at(a - k, -m, out), out, clamp)
                      for out, clamp, k, m in groups]
                     for groups, *_ in self.frames]
            radial = radius and (flat[a + self.kr:b + self.kr],
                                 flat[a - self.kr:b - self.kr], *radius)
            self.read.append((lo, hi, flat[a:b], fills, radial))
        return self.read


def _clamped_second_differences(fills, twice: np.ndarray) -> None:
    """Fill the work rows ``out`` of each group of ``fills`` = ((plus, minus,
    out, clamp), ...) with the raw clamped second differences
    max(clamp, Delta^2_e u) = max(clamp, plus + minus - ``twice``) of its g
    directions, twice = 2u(x): one (g, columns) block per group.  Entries
    off the cores are computed from wrapped-around neighbours and never
    used."""
    for plus, minus, out, clamp in fills:
        np.add(plus, minus, out=out)
        out -= twice
        np.maximum(out, clamp, out=out)


def _product_and_sum(factors, P: np.ndarray, s: np.ndarray | None = None,
                     weight=None, tmp=None):
    """The product P = prod_i F_i of ``factors`` and, unless ``s`` is None,
    the sum s = sum_i w_i prod_{j != i} F_j, both in place: w_i = 1 but for
    a last factor given a ``weight`` (``tmp``: a work array for its term).

    The recurrence starts from s = F_0 + F_1, P = F_0 F_1 and takes each
    further factor F as s = s F + w P, then P = P F.
    """
    F0, F1, *rest = factors
    if s is not None:
        np.add(F0, F1, out=s)
    np.multiply(F0, F1, out=P)
    for i, F in enumerate(rest, 3):
        if s is not None:
            s *= F
            s += (P if weight is None or i < len(factors)
                  else np.multiply(weight, P, out=tmp))
        P *= F
    return P, s


def ma_field(u: GridFunction | GridStack, cfg: OperatorConfig,
             with_frames: bool = False) -> OperatorField:
    """Evaluate the configured operator and its slope bound at every
    interior node of one grid function, or of every member of a
    :class:`GridStack` in one pass."""
    if cfg.n_full is not None:
        return reduced_ma_field(u, cfg, with_frames=with_frames)
    return _min_over_frames(u, cfg, with_frames)


def _min_over_frames(u: GridFunction | GridStack, cfg: OperatorConfig,
                     with_frames: bool) -> OperatorField:
    """The frame loop of every variant: the running minimum of the frame
    products, the running maximum of their slope factors and the index of
    the first minimising frame, into which frame 0 writes directly, then
    the value ``b * minimum^p`` and the slope in place on the span, with
    the no-op of :class:`OperatorField` off the interior.

    The loop runs over the blocks of the span that its :class:`_Plan` sets,
    one at a time.  Within a block, each frame first fills its groups of
    rows (:func:`_clamped_second_differences`); one :func:`_product_and_sum`
    call gives its raw product P' = P_F / c_F and leave-one-out sum s'.
    The reduced variant's radial factor (:func:`_radial_factors`) is one
    more factor of every frame.

    The slope factor of frame F is s'/P' = sum_{e in F} w_e/D'_e, and the
    slope is the tangent bound of the module docstring, 2 max(p, 1) h^2 F(x)
    times their maximum, with 0 where F(x) <= 0: there no frame can fall
    (F never falls below 0), and the 0/0 and inf of a degenerate frame go
    with it.  At p < 1 every factor is clamped at its floor, so no frame is
    degenerate and F(x) > 0 at every node.
    """
    dom = u.domain
    plan = _span_cached(u, ("plan", cfg.width, cfg.p, cfg.n_full),
                        lambda members: _Plan(dom, cfg, members))
    p, twice = cfg.p, plan.twice
    b = cfg.b.constant_value
    if b is None:
        b = cfg.b(dom.interior_positions, u.t)
        cfg.b.check_bounds(b, f"at t={u.t}")
    # the span padded to whole members (a (member, S) view); the padding
    # holds zeros
    best, best_slope = np.empty(plan.padded), np.empty(plan.padded)
    best[plan.L:] = best_slope[plan.L:] = 0.0
    arg = np.zeros(plan.padded, dtype=np.uint8) if with_frames else None
    weight = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi, centre, fills, radial in plan.views(u):
            np.multiply(2.0, centre, out=twice)
            if radial:
                weight = _radial_factors(plan, cfg.n_full, twice, *radial)
            low, top = best[lo:hi], best_slope[lo:hi]
            for k, ((_, factors, c), reads) in \
                    enumerate(zip(plan.frames, fills)):
                _clamped_second_differences(reads, twice)
                # frame 0 writes its product and slope factor straight into
                # the running minimum and maximum; later frames divide
                # their rate in place
                P = plan.prod if k else low
                _product_and_sum(factors, P, plan.rate, weight, plan.term)
                np.divide(plan.rate, P, out=plan.rate if k else top)
                P *= c
                if not k:
                    continue
                if with_frames:
                    arg[lo:hi][P < low] = k
                # monotone steps need the slope bound over every frame, not
                # just the active one: a frame can take over mid-step
                np.maximum(top, plan.rate, out=top)
                np.minimum(low, P, out=low)
        if p != 1.0:
            np.power(best, p, out=best)
        _scale(best, b, plan.inner)
        np.copyto(best, -0.0, where=plan.off)
        best_slope *= best
        best_slope *= 2.0 * max(p, 1.0) * plan.hh
        np.copyto(best_slope, 0.0, where=best <= 0.0)
    return OperatorField(dom, best, best_slope, plan.inner, arg)


def _scale(a: np.ndarray, b, inner: np.ndarray) -> None:
    """Multiply the span array ``a`` by the coefficient ``b`` in place: a
    scalar on every column (no pass at all for 1.0), a field of interior
    values on the interior columns ``inner``."""
    if np.ndim(b):
        a[inner] *= b
    elif b != 1.0:
        a *= b


# ---------------------------------------------------------------------------
# reduced (axisymmetric) operator
# ---------------------------------------------------------------------------

def _radial_factors(plan: _Plan, nf: int, twice: np.ndarray, up: np.ndarray,
                    um: np.ndarray, two_hr: np.ndarray, axis: np.ndarray,
                    weight: np.ndarray) -> np.ndarray:
    """The reduced variant's radial factor over one block, one more factor
    of every frame, into the row R of ``plan.radial``: R = ratio^(n_full-2)
    with ratio = max(clamp, u_r/r), u_r/r = (``up`` - ``um``) / 2hr and its
    u_rr limit on the ``axis`` entries (where 2hr holds 1), clamped at 0
    for p >= 1 and at h^2 for p < 1.  Returns its rate weight next to the
    raw differences' 1, ``weight`` = (n_full-2) ratio^(n_full-3) / h^2: the
    centre's weight in R through u_rr on the axis, over 2h^2 (0 off it)."""
    ratio, R, clamp = plan.radial
    hh = plan.hh
    np.subtract(up, um, out=ratio)
    ratio /= two_hr
    ratio[axis] = (up[axis] + um[axis] - twice[axis]) / hh
    np.maximum(ratio, clamp, out=ratio)
    np.power(ratio, nf - 2, out=R)
    weight[axis] = (nf - 2) * np.power(ratio[axis], nf - 3) / hh
    return weight


def reduced_ma_field(u: GridFunction | GridStack, cfg: OperatorConfig,
                     with_frames: bool = False) -> OperatorField:
    """Axisymmetric operator on a 2-D (r, x_n) lattice.

    The grid function (or stack) lives on a 2-D domain whose first
    coordinate is the radius (the lattice must be symmetric about r = 0
    with even data, so the axis column can difference across itself);
    `cfg.n_full` is the dimension of the ambient space.  The radial factor
    multiplies every frame product in the frame loop shared with
    :func:`ma_field`.  The plan refuses any other lattice, once per lattice.
    """
    return _min_over_frames(u, cfg, with_frames)

"""Structured grids, ghost cells, discrete calculus, and field storage.

Cell-centered finite volumes on 1-D intervals and 2-D rectangles. Boundaries
are periodic or slip walls. A slip wall is realized by mirror ghosts: the
wall-normal velocity component is mirrored odd (so u·n vanishes at the wall
face) and every other quantity is mirrored even (zero normal derivative, so
the centered wall-face heat flux and the shear traction tangential to the
wall vanish as well).  `fill_ghosts_slip` allocates each ghosted array once
and writes its margins as slice copies of interior layers (reversed for a
mirror, shifted by the period for a wrap), axis after axis.  A fluid state
is one stacked array W (rho, the momentum components, etot on axis 0), and
its ghost fill is the ghosted copy of that array.

`interior_gradient` is the one cell-centered gradient: it fills depth-1
ghosts on an interior field and takes the 2nd-order centered difference
along each axis through `axis_strip`, so it is exact on affine data away
from the walls.

A stored run of either solver is one stack W of its instants, shape
(2 + dim, instants, *cells) as in a solver batch (`StoredRun`).  On disk
it is a snapshot series: files 00000.snap, 00001.snap, ... in time order,
each holding one instant's W (`write_snapshot`), which `write_series` and
`read_series` write from and read into one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import PositivityError, UsageError

_BC_KINDS = ("periodic", "slip-wall")


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid: box extents, cell counts, per-axis boundary kind."""

    extents: tuple
    cells: tuple
    bc: tuple

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(v) for v in np.atleast_1d(self.extents)))
        object.__setattr__(self, "cells", tuple(int(v) for v in np.atleast_1d(self.cells)))
        bc = self.bc
        if isinstance(bc, str):
            bc = (bc,)
        object.__setattr__(self, "bc", tuple(str(v) for v in bc))
        dim = len(self.cells)
        if dim not in (1, 2):
            raise UsageError(f"grid dimension must be 1 or 2, got {dim}")
        if len(self.extents) != dim or len(self.bc) != dim:
            raise UsageError("extents, cells and bc must have one entry per axis")
        if any(n < 8 for n in self.cells):
            raise UsageError(f"need at least 8 cells per axis, got {self.cells}")
        if any(not (L > 0.0) or not math.isfinite(L) for L in self.extents):
            raise UsageError(f"extents must be positive and finite, got {self.extents}")
        for kind in self.bc:
            if kind not in _BC_KINDS:
                raise UsageError(f"unknown boundary kind {kind!r}, expected one of {_BC_KINDS}")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @cached_property
    def spacing(self) -> tuple:
        # computed on first use and kept: the kernels read it on every call
        return tuple(L / n for L, n in zip(self.extents, self.cells))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def _index_plans(self) -> dict:
        # the index plans of axis_strip and the ghost fills, keyed by what
        # they were built for; each is built on first use and kept
        return {}

    @classmethod
    def line(cls, length: float, cells: int, bc: str = "slip-wall") -> "Grid":
        return cls(extents=(length,), cells=(cells,), bc=(bc,))

    @classmethod
    def box(cls, lengths, cells, bc=("slip-wall", "slip-wall")) -> "Grid":
        return cls(extents=tuple(lengths), cells=tuple(cells), bc=tuple(bc))


def cell_centers(grid: Grid):
    """Per-axis 1-D arrays of cell-center coordinates."""
    return tuple(
        (np.arange(n) + 0.5) * h for n, h in zip(grid.cells, grid.spacing)
    )


def mesh(grid: Grid):
    """Cell-center coordinate arrays broadcast to the full grid shape."""
    if grid.dim == 1:
        return cell_centers(grid)
    return tuple(np.meshgrid(*cell_centers(grid), indexing="ij"))


# ---------------------------------------------------------------------------
# state containers


_HALF = np.asarray(0.5)  # a 0-d array: the float's bits, without numpy's per-call conversion


def _sum_sq(comps):
    """The sum of squares of the components along the first axis, as a new
    array: bitwise np.sum(comps * comps, axis=0), whose reduction over at
    most two components adds their squares in this order."""
    total = np.square(comps[0])
    for comp in comps[1:]:
        total += np.square(comp)
    return total


def _kinetic(rho, mom, occupied=None):
    """|mom|^2 / (2 rho) as a new array, the package's one body of it.  Where a
    density can be zero (vacuum cells, reconstructed faces), `occupied`, the
    mask rho > 0, limits the division; other cells keep |mom|^2 / 2."""
    ke = _sum_sq(mom)
    ke *= _HALF
    if occupied is None:
        ke /= rho
    else:
        np.divide(ke, rho, out=ke, where=occupied)
    return ke


class FluidState:
    """Conserved fields on the interior cells, stacked in one array.

    W has shape (2 + dim, *cells): density, the momentum components and
    total energy along its first axis; rho, mom and etot are views into it.
    `FluidState(rho, mom, etot, time)` stacks the three parts into a new W;
    `FluidState.stacked(W, time)` keeps the given W without copying it.
    Both validate the fields, for finiteness alone when `stacked` is given
    an `e_int`: etot - |mom|^2 / (2 rho) as a floor pass formed it and
    proved it positive (`nsf_solver._floor_pass`), which the state keeps
    for its next recovery (None otherwise).  `FluidState.stage(W, time)`
    keeps W as `stacked` does but checks only its shape and times (a
    Runge-Kutta stage, whose fields the next temperature recovery checks).

    A batch of M states on one grid is one FluidState whose W has shape
    (2 + dim, M, *cells) and whose time is an array of shape
    (M, 1, ..., 1), one value per member shaped to broadcast against a
    member field such as rho; a float time means no member axis.
    """

    e_int = None

    def __init__(self, rho, mom, etot, time: float = 0.0):
        rho = np.asarray(rho, dtype=float)
        mom = np.asarray(mom, dtype=float)
        etot = np.asarray(etot, dtype=float)
        if mom.shape != (rho.ndim, *rho.shape) or etot.shape != rho.shape:
            raise UsageError(
                f"inconsistent field shapes rho {rho.shape}, mom {mom.shape}, "
                f"etot {etot.shape}"
            )
        W = np.empty((2 + rho.ndim, *rho.shape))
        W[0] = rho
        W[1:-1] = mom
        W[-1] = etot
        self._set(W, time)
        self._check_fields()

    @classmethod
    def stacked(cls, W, time: float = 0.0, e_int=None) -> "FluidState":
        state = cls.stage(W, time, e_int)
        state._check_fields()
        return state

    @classmethod
    def stage(cls, W, time: float = 0.0, e_int=None) -> "FluidState":
        state = cls.__new__(cls)
        state._set(np.asarray(W, dtype=float), time)
        state.e_int = e_int
        return state

    def _set(self, W, time):
        batch = np.ndim(time) > 0
        if W.ndim < 1 or W.shape[0] != W.ndim + (0 if batch else 1):
            raise UsageError(f"stacked state shape {W.shape} is not "
                             f"{'(2 + dim, M, *cells)' if batch else '(2 + dim, *cells)'}")
        if batch and np.shape(time) != (W.shape[1],) + (1,) * (W.ndim - 2):
            raise UsageError(f"batch times of shape {np.shape(time)} do not match "
                             f"the {W.shape[1]} members")
        self.W = W
        self.time = np.asarray(time, dtype=float) if batch else float(time)

    def _check_fields(self):
        W = self.W
        if np.count_nonzero(np.isfinite(W)) != W.size:
            raise PositivityError("non-finite values in fluid state")
        if self.e_int is not None:  # a floor pass proved rho > 0 and e_int > 0
            return
        rho, mom, etot = W[0], W[1:-1], W[-1]
        occupied = rho > 0.0
        vacuum = np.count_nonzero(occupied) != occupied.size
        if vacuum:
            if np.count_nonzero(rho < 0.0):
                raise PositivityError("negative density")
            if np.count_nonzero(~occupied & np.logical_or.reduce(mom != 0.0, axis=0)):
                raise PositivityError("momentum in a vacuum cell")
        ke = _kinetic(rho, mom, occupied if vacuum else None)
        slack = np.abs(etot)
        np.maximum(1.0, slack, out=slack)
        slack *= 1e-12
        slack += etot  # etot + 1e-12 max(1, |etot|)
        if np.count_nonzero(slack < ke):
            raise PositivityError("total energy below kinetic energy")

    @property
    def rho(self) -> np.ndarray:
        return self.W[0]

    @property
    def mom(self) -> np.ndarray:
        return self.W[1:-1]

    @property
    def etot(self) -> np.ndarray:
        return self.W[-1]

    def velocity(self) -> np.ndarray:
        """Momentum over density; zero in vacuum cells."""
        return np.divide(self.mom, self.rho, out=np.zeros_like(self.mom), where=self.rho > 0.0)

    def copy(self) -> "FluidState":
        return FluidState.stacked(self.W.copy(), self.time)

    def member(self, k: int) -> "FluidState":
        """Member k of a batch state: a view of its W, not validated again,
        since the batch it is part of was."""
        state = FluidState.__new__(FluidState)
        state.W = self.W[:, k]
        state.time = float(self.time.flat[k])
        return state


class StoredRun:
    """A trajectory of either solver: `times`, a list of floats, and `W`, the
    states stored at them stacked on a member axis, (2 + dim, instants, *cells)."""

    def batch(self, lo: int = 0, hi: int = None) -> FluidState:
        """Instants lo .. hi - 1 as one batch state: a view of W, not checked again."""
        times = np.reshape(self.times[lo:hi], (-1,) + (1,) * (self.W.ndim - 2))
        return FluidState.stage(self.W[:, lo:hi], times)

    @property
    def states(self) -> tuple:
        """Each stored instant as a FluidState view of W, not checked again."""
        return tuple(FluidState.stage(self.W[:, k], t) for k, t in enumerate(self.times))


@dataclass
class ReferenceFields:
    """Smooth reference trio (density, temperature, velocity) at cell centers."""

    rho_E: np.ndarray
    theta_E: np.ndarray
    u_E: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.rho_E = np.asarray(self.rho_E, dtype=float)
        self.theta_E = np.asarray(self.theta_E, dtype=float)
        self.u_E = np.asarray(self.u_E, dtype=float)
        self.time = float(self.time)
        dim = self.rho_E.ndim
        if self.theta_E.shape != self.rho_E.shape or self.u_E.shape != (dim, *self.rho_E.shape):
            raise UsageError(
                f"inconsistent reference shapes rho_E {self.rho_E.shape}, "
                f"theta_E {self.theta_E.shape}, u_E {self.u_E.shape}"
            )
        for name, arr in (("rho_E", self.rho_E), ("theta_E", self.theta_E)):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise PositivityError(f"reference field {name} must be strictly positive")
        if not np.all(np.isfinite(self.u_E)):
            raise PositivityError("non-finite reference velocity")


# ---------------------------------------------------------------------------
# ghost cells


def axis_strip(fld: np.ndarray, grid: Grid, ax: int, depth: int,
               widen: int = 0) -> np.ndarray:
    """View of a depth-ghosted field along grid axis ax, with that axis moved last.

    Axis ax keeps all its cells, ghosts included; every other grid axis is
    restricted to the interior widened by `widen` cells on each side.
    Leading component axes are kept as they are.  With at most two grid
    axes, moving axis ax last is a swap with the last axis.  The index is
    built once per grid, leading axis count, ax, depth and widen.
    """
    key = ("strip", fld.ndim, ax, depth, widen)
    plan = grid._index_plans.get(key)
    if plan is None:
        lead = fld.ndim - grid.dim
        sl = [slice(None)] * lead
        for g, n in enumerate(grid.cells):
            sl.append(slice(None) if g == ax else slice(depth - widen, depth + n + widen))
        plan = grid._index_plans[key] = (tuple(sl), lead + ax)
    index, moved = plan
    return fld[index].swapaxes(moved, -1)


_SCALAR, _VECTOR, _STATE = "scalar", "vector", "state"  # what _fill is given


def _fill_plan(grid, depth, shape, kind):
    """(ghosted shape, interior index, ordered slice copies) of `_fill`, after
    checking the depth and the field shape; UsageError when they do not fit.

    The copies are (destination, source) index pairs; a destination with
    source None is negated in place instead.
    """
    if depth < 1:
        raise UsageError("ghost depth must be at least 1")
    if depth > min(grid.cells):
        raise UsageError(f"ghost depth {depth} exceeds the cell counts {grid.cells}")
    cells = grid.cells
    if kind == _VECTOR:
        if shape[0] != grid.dim:
            raise UsageError(
                f"vector field must have {grid.dim} components, got shape {shape}")
        odd = _vector_parity(grid.dim)
    else:
        odd = _vector_parity(grid.dim, 1) if kind == _STATE else ()
    if len(shape) <= grid.dim or shape[-grid.dim:] != cells:
        raise UsageError(f"field shape {shape[1:]} is not the interior {cells} "
                         "behind its leading axes")
    body = (Ellipsis,) + tuple(slice(depth, depth + n) for n in cells)
    copies = []
    for ax, n in enumerate(cells):
        rest = body[2 + ax:]  # interior of the later axes
        lo = (Ellipsis, slice(0, depth)) + rest
        hi = (Ellipsis, slice(depth + n, None)) + rest
        periodic = grid.bc[ax] == "periodic"
        if periodic:
            src_lo, src_hi = slice(n, n + depth), slice(depth, 2 * depth)
        else:
            src_lo, src_hi = slice(2 * depth - 1, depth - 1, -1), slice(depth + n - 1, n - 1, -1)
        copies += [(lo, (Ellipsis, src_lo) + rest), (hi, (Ellipsis, src_hi) + rest)]
        if not periodic:
            copies += [((c,) + side, None) for c, odd_ax in odd if odd_ax == ax
                       for side in (lo, hi)]
    ghosted = shape[:-grid.dim] + tuple(n + 2 * depth for n in cells)
    return ghosted, body, tuple(copies)


def _fill(arr, grid, depth, kind):
    """Ghosted copy of arr, allocated once and filled by slice copies.

    arr holds a leading component axis (and, for a batch, a member axis
    after it), then the interior cells.  The
    interior is copied straight into the new array, then the margins are
    written one grid axis at a time, spanning the already-filled extent of
    the earlier axes and the interior of the later ones, so a corner is the
    ghost of an edge ghost.  A periodic axis copies the `depth` layers at
    the opposite interior edge; a slip wall copies the adjacent `depth`
    interior layers in mirror order and negates them for each odd
    component: the wall-normal one of a vector or of a state's momentum.
    The plan of these copies is built and checked once per grid, depth,
    shape and kind (`_fill_plan`).
    """
    key = (kind, depth, arr.shape)
    plan = grid._index_plans.get(key)
    if plan is None:
        plan = grid._index_plans[key] = _fill_plan(grid, depth, arr.shape, kind)
    ghosted, body, copies = plan
    out = np.empty(ghosted)
    out[body] = arr
    for dst, src in copies:
        if src is None:
            flip = out[dst]
            flip *= -1.0
        else:
            out[dst] = out[src]
    return out


def _vector_parity(dim, first=0):
    # component first + c flips sign across the wall normal to axis c
    return tuple((first + c, c) for c in range(dim))


def fill_ghosts_slip(fld, grid: Grid, depth: int = 1, vector: bool = False):
    """Extend a field (or a whole state) with ghost cells per the grid bc.

    Periodic axes wrap. Slip-wall axes mirror: even parity for scalars and
    tangential velocity, odd parity for the wall-normal velocity or momentum
    component. The input holds the interior cells only; a FluidState gives
    its ghosted W, stacked as the state's own.  The result is allocated once
    and its margins are written by slice copies of interior layers; the
    depth may not exceed the smallest cell count.
    """
    if isinstance(fld, FluidState):
        return _fill(fld.W, grid, depth, _STATE)
    fld = np.asarray(fld, dtype=float)
    if vector:
        return _fill(fld, grid, depth, _VECTOR)
    return _fill(fld[None], grid, depth, _SCALAR)[0]


# ---------------------------------------------------------------------------
# discrete calculus


def interior_gradient(fld, grid: Grid, vector=None) -> np.ndarray:
    """Centered gradient of an interior field after a depth-1 ghost fill.

    The ghosts follow the grid's boundary kinds, as in `fill_ghosts_slip`.
    A scalar field gives shape (dim, *cells); a vector field of shape
    (dim, *cells) gives G[i, j] = d_j u_i, shape (dim, dim, *cells).  A
    batch field carries a member axis in front of the cells (behind the
    vector component), which the gradient keeps behind its own axes; it
    must say whether it is a `vector`, which is otherwise read off the shape.
    """
    fld = np.asarray(fld, dtype=float)
    if vector is None:
        vector = fld.shape != grid.cells
    fld_g = fill_ghosts_slip(fld, grid, depth=1, vector=vector)
    comp = 1 if vector else 0
    out = np.empty((*fld.shape[:comp], grid.dim, *fld.shape[comp:]))
    for ax in range(grid.dim):
        F = axis_strip(fld_g, grid, ax, 1)
        d = (F[..., 2:] - F[..., :-2]) / (2.0 * grid.spacing[ax])
        out[(slice(None),) * comp + (ax,)] = d.swapaxes(-1, ax - grid.dim)
    return out


# ---------------------------------------------------------------------------
# norms, integrals, accumulators

_NORM_ORDERS = (2.0, 4.0, 6.0, math.inf)


def _magnitude(fld, grid):
    fld = np.asarray(fld, dtype=float)
    if fld.shape == grid.cells:
        return np.abs(fld)
    if fld.shape == (grid.dim, *grid.cells):
        return np.sqrt(np.sum(fld * fld, axis=0))
    raise UsageError(f"expected interior scalar or vector field, got shape {fld.shape}")


def norm(fld, grid: Grid, p) -> float:
    """Cell-average weighted L^p norm, p in {2, 4, 6, inf}.

    Vector fields (shape (dim, *cells)) are reduced to their pointwise
    Euclidean magnitude first.
    """
    p = float(p)
    if p not in _NORM_ORDERS:
        raise UsageError(f"norm order must be one of {{2, 4, 6, inf}}, got {p}")
    mag = _magnitude(fld, grid)
    if math.isinf(p):
        return float(np.max(mag)) if mag.size else 0.0
    return float((np.sum(mag ** p) * grid.cell_volume) ** (1.0 / p))


def integrate(fld, grid: Grid):
    """Midpoint-rule integral of an interior cell-average field over the box.

    A batch field, with a member axis in front of the cells, gives one
    integral per member, shaped (M, 1, ..., 1) like the batch's times.
    """
    fld = np.asarray(fld, dtype=float)
    total = np.sum(fld, axis=tuple(range(-grid.dim, 0)), keepdims=fld.ndim > grid.dim)
    return total * grid.cell_volume if fld.ndim > grid.dim else float(total * grid.cell_volume)


class TrapezoidAccumulator:
    """Running trapezoid-rule integral of a sampled time series."""

    def __init__(self):
        self._t = None
        self._v = None
        self.total = 0.0

    def add(self, t: float, value: float) -> float:
        t = float(t)
        value = float(value)
        if self._t is not None:
            dt = t - self._t
            if dt < 0.0:
                raise UsageError(f"time samples must be nondecreasing, got {self._t} -> {t}")
            self.total += 0.5 * dt * (self._v + value)
        self._t, self._v = t, value
        return self.total


# ---------------------------------------------------------------------------
# serialization

_SNAPSHOT_MAGIC = "nsflab-snapshot 1"


def _snapshot_fields(dim: int) -> str:
    # the header's `fields` entry: the rows of W, in order, and their counts
    return f"rho=1 mom={dim} etot=1"


def write_snapshot(path, grid: Grid, time: float, W) -> None:
    """Write one instant's stacked state W, shape (2 + dim, *cells), to one file.

    An ASCII header (the grid, the time and `fields rho=1 mom=<dim>
    etot=1`, the rows of W) is followed by W as flat little-endian float64.
    """
    W = np.asarray(W, dtype=float)
    if W.shape != (2 + grid.dim, *grid.cells):
        raise UsageError(f"stacked state shape {W.shape} is not {(2 + grid.dim, *grid.cells)}")
    lines = [
        _SNAPSHOT_MAGIC,
        f"dim {grid.dim}",
        "extents " + " ".join(repr(v) for v in grid.extents),
        "cells " + " ".join(str(v) for v in grid.cells),
        "bc " + " ".join(grid.bc),
        f"time {float(time)!r}",
        "fields " + _snapshot_fields(grid.dim),
        "end",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(W.astype("<f8", copy=False).tobytes())


def read_snapshot(path):
    """Read a snapshot file back into (grid, time, W).

    W, shape (2 + dim, *cells), is a read-only view of the file's payload.
    UsageError, naming the file, when it is no snapshot, its header lacks
    an entry, holds an unreadable one, a `dim` entry other than the number
    of `cells`' axes or a `fields` entry other than
    `rho=1 mom=<dim> etot=1`, its time is not finite, or its payload
    length is not W's.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    marker = b"\nend\n"
    idx = blob.find(marker)
    if not blob.startswith(_SNAPSHOT_MAGIC.encode("ascii")) or idx < 0:
        raise UsageError(f"{path} is not a field snapshot")
    meta = {}
    for line in blob[:idx].decode("ascii").splitlines()[1:]:
        key, _, rest = line.partition(" ")
        meta[key] = rest
    missing = [k for k in ("dim", "extents", "cells", "bc", "time", "fields") if k not in meta]
    if missing:
        raise UsageError(f"{path} header lacks {', '.join(missing)}")
    try:
        grid = Grid(
            extents=tuple(float(v) for v in meta["extents"].split()),
            cells=tuple(int(v) for v in meta["cells"].split()),
            bc=tuple(meta["bc"].split()),
        )
        time = float(meta["time"])
    except ValueError as err:
        raise UsageError(f"{path} has a malformed header: {err}") from None
    if meta["dim"] != str(grid.dim):
        raise UsageError(f"{path} has a malformed header: dim {meta['dim']!r} over "
                         f"{grid.dim}-axis cells")
    fields = _snapshot_fields(grid.dim)
    if meta["fields"] != fields:
        raise UsageError(f"{path} has a malformed header: fields {meta['fields']!r}, "
                         f"not {fields!r}")
    if not math.isfinite(time):
        raise UsageError(f"{path} has the non-finite time {time!r}")
    shape = (2 + grid.dim, *grid.cells)
    start, size = idx + len(marker), 8 * math.prod(shape)
    if len(blob) - start != size:
        raise UsageError(f"{path} holds {len(blob) - start} payload bytes, "
                         f"its header declares {size}")
    return grid, time, np.frombuffer(blob, dtype="<f8", offset=start).reshape(shape)


def snapshot_path(directory, k: int) -> Path:
    """The file of instant k of the snapshot series in directory."""
    return Path(directory) / f"{k:05d}.snap"


def write_series(directory, grid: Grid, times, W) -> None:
    """Write W[:, k] at times[k] as the series 00000.snap, 00001.snap, ...; older *.snap go."""
    for stale in Path(directory).glob("*.snap"):
        stale.unlink()
    for k, t in enumerate(times):
        write_snapshot(snapshot_path(directory, k), grid, t, W[:, k])


def read_series(directory, grid: Grid):
    """Read a snapshot series back as (times, W), as `write_series` takes them.

    The files are read by index, each one's W is copied once into the
    stack, and the stack is checked once as a FluidState; when that fails,
    the instants are checked one by one, so that the first bad snapshot
    raises its own PositivityError, prefixed by its path.  UsageError,
    naming the file, when there is none, an index is missing,
    `read_snapshot` refuses a file, a snapshot's grid (extents, cells, bc)
    is not `grid`, or its time is not later.
    """
    directory = Path(directory)
    names = {p.name for p in directory.glob("*.snap")}
    if not names:
        raise UsageError(f"no snapshots stored in {directory}")
    times = []
    W = np.empty((2 + grid.dim, len(names), *grid.cells))
    for k in range(len(names)):
        p = snapshot_path(directory, k)
        if p.name not in names:
            raise UsageError(f"snapshot {p} is missing from a series of {len(names)} files")
        sgrid, t, W_k = read_snapshot(p)
        if sgrid != grid:
            raise UsageError(f"snapshot {p} does not match the run grid")
        if times and not t > times[-1]:
            raise UsageError(f"snapshot {p} has time {t!r}, not after {times[-1]!r}")
        W[:, k] = W_k
        times.append(t)
    try:
        FluidState.stacked(W, np.reshape(times, (-1,) + (1,) * grid.dim))
    except PositivityError:
        for k, t in enumerate(times):
            try:
                FluidState.stacked(W[:, k], t)
            except PositivityError as err:
                err.args = (f"snapshot {snapshot_path(directory, k)}: {err}",)
                raise
        raise
    return times, W

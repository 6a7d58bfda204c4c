"""Grid machinery: ghosts, stencils, norms, serialization."""

import math

import numpy as np
import pytest

from nsflab import grid_fields as gf
from nsflab.errors import PositivityError, UsageError

WALL = gf.Grid.line(1.0, 32)
PER = gf.Grid.line(1.0, 32, bc="periodic")
BOX = gf.Grid.box((1.0, 2.0), (16, 24))


def test_grid_validation():
    with pytest.raises(UsageError):
        gf.Grid.line(1.0, 4)
    with pytest.raises(UsageError):
        gf.Grid.line(-1.0, 32)
    with pytest.raises(UsageError):
        gf.Grid.line(1.0, 32, bc="outflow")
    with pytest.raises(UsageError):
        gf.Grid(extents=(1.0, 1.0, 1.0), cells=(8, 8, 8), bc=("periodic",) * 3)
    assert BOX.spacing == (1.0 / 16, 2.0 / 24)
    assert WALL.cell_volume == pytest.approx(1.0 / 32)


def test_grid_spacing_is_computed_once_and_stays_out_of_equality():
    grid = gf.Grid.box((1.0, 2.0), (16, 24))
    assert grid.spacing is grid.spacing
    assert grid.cell_volume == 1.0 / 16 * 2.0 / 24
    fresh = gf.Grid.box((1.0, 2.0), (16, 24))
    assert grid == fresh and hash(grid) == hash(fresh) and repr(grid) == repr(fresh)
    assert repr(grid) == ("Grid(extents=(1.0, 2.0), cells=(16, 24), "
                          "bc=('slip-wall', 'slip-wall'))")


def test_cell_centers():
    x = gf.cell_centers(WALL)[0]
    assert x[0] == pytest.approx(0.5 / 32)
    assert x[-1] == pytest.approx(1.0 - 0.5 / 32)
    X, Y = gf.mesh(BOX)
    assert X.shape == (16, 24) and Y.shape == (16, 24)
    assert Y[0, 0] == pytest.approx(2.0 / 24 / 2)


# ---------------------------------------------------------------------------
# ghosts


def test_ghost_odd_mirror_normal_velocity():
    u = np.full((1, 32), 3.5)
    ug = gf.fill_ghosts_slip(u, WALL, vector=True)
    assert ug.shape == (1, 34)
    assert ug[0, 0] == -3.5  # ghost = -(first interior)
    assert ug[0, -1] == -3.5


def test_ghost_even_mirror_scalar():
    theta = np.linspace(1.0, 2.0, 32)
    tg = gf.fill_ghosts_slip(theta, WALL)
    assert tg[0] == theta[0]
    assert tg[-1] == theta[-1]


def test_ghost_periodic_wrap():
    f = np.arange(32.0)
    fg = gf.fill_ghosts_slip(f, PER, depth=2)
    assert fg[0] == 30.0 and fg[1] == 31.0
    assert fg[-2] == 0.0 and fg[-1] == 1.0


def test_ghost_idempotent():
    # refilling from the interior of a filled array reproduces it; the
    # filled array itself is not an interior field and is refused
    rng = np.random.default_rng(0)
    body = (Ellipsis, slice(2, 18), slice(2, 26))
    f = rng.standard_normal((16, 24))
    once = gf.fill_ghosts_slip(f, BOX, depth=2)
    assert np.array_equal(once, gf.fill_ghosts_slip(once[body], BOX, depth=2))
    u = rng.standard_normal((2, 16, 24))
    onceu = gf.fill_ghosts_slip(u, BOX, depth=2, vector=True)
    assert np.array_equal(onceu, gf.fill_ghosts_slip(onceu[body], BOX, depth=2, vector=True))
    with pytest.raises(UsageError, match="not the interior"):
        gf.fill_ghosts_slip(once, BOX, depth=2)
    with pytest.raises(UsageError, match="not the interior"):
        gf.fill_ghosts_slip(onceu, BOX, depth=2, vector=True)


def test_ghost_state_parities():
    rng = np.random.default_rng(1)
    rho = 1.0 + 0.1 * rng.random((16, 24))
    mom = 0.1 * rng.standard_normal((2, 16, 24))
    etot = 2.0 + rng.random((16, 24))
    st = gf.FluidState(rho, mom, etot)
    W_g = gf.fill_ghosts_slip(st, BOX, depth=2)
    g_rho, g_mom, g_etot = W_g[0], W_g[1:-1], W_g[-1]
    assert g_rho[1, 4] == rho[0, 2] and g_rho[0, 4] == rho[1, 2]
    assert g_mom[0, 1, 5] == -mom[0, 0, 3]  # normal momentum odd across x wall
    assert g_mom[1, 1, 5] == mom[1, 0, 3]  # tangential momentum even
    assert g_etot[3, 1] == etot[1, 0]


def _pad_reference(arr, grid, depth, odd_axes=()):
    """The np.pad fill that the slice-write fill replaced, kept as its oracle."""
    out = arr
    for ax in range(grid.dim):
        pad = [(0, 0)] * out.ndim
        pad[ax] = (depth, depth)
        if grid.bc[ax] == "periodic":
            out = np.pad(out, pad, mode="wrap")
            continue
        out = np.pad(out, pad, mode="symmetric")
        if ax in odd_axes:
            lo = [slice(None)] * out.ndim
            hi = [slice(None)] * out.ndim
            lo[ax] = slice(0, depth)
            hi[ax] = slice(out.shape[ax] - depth, None)
            out[tuple(lo)] *= -1.0
            out[tuple(hi)] *= -1.0
    return out


GHOST_GRIDS = {
    "line-wall": gf.Grid.line(1.0, 9),
    "line-periodic": gf.Grid.line(1.0, 9, bc="periodic"),
    "box-wall": gf.Grid.box((1.0, 2.0), (8, 11)),
    "box-periodic": gf.Grid.box((1.0, 2.0), (8, 11), ("periodic", "periodic")),
    "box-wall-periodic": gf.Grid.box((1.0, 2.0), (8, 11), ("slip-wall", "periodic")),
    "box-periodic-wall": gf.Grid.box((1.0, 2.0), (8, 11), ("periodic", "slip-wall")),
}


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GHOST_GRIDS))
def test_ghost_fill_matches_np_pad_bitwise(name, depth):
    grid = GHOST_GRIDS[name]
    rng = np.random.default_rng(depth)

    def same(got, want):
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    f = rng.standard_normal(grid.cells)
    want = _pad_reference(f, grid, depth)
    assert same(gf.fill_ghosts_slip(f, grid, depth), want)

    u = rng.standard_normal((grid.dim, *grid.cells))
    u[:, ::3] = 0.0  # odd mirrors of zeros must come out as -0.0, as np.pad's do
    want_u = np.stack([_pad_reference(u[c], grid, depth, odd_axes=(c,))
                       for c in range(grid.dim)])
    assert same(gf.fill_ghosts_slip(u, grid, depth, vector=True), want_u)

    rho = 1.0 + rng.random(grid.cells)
    etot = 2.0 + rng.random(grid.cells)
    W_g = gf.fill_ghosts_slip(gf.FluidState(rho, 0.1 * u, etot), grid, depth)
    assert W_g.shape == (2 + grid.dim, *(n + 2 * depth for n in grid.cells))
    g_rho, g_mom, g_etot = W_g[0], W_g[1:-1], W_g[-1]
    assert same(g_rho, _pad_reference(rho, grid, depth))
    assert same(g_mom, np.stack([_pad_reference(0.1 * u[c], grid, depth, odd_axes=(c,))
                                 for c in range(grid.dim)]))
    assert same(g_etot, _pad_reference(etot, grid, depth))
    assert same(W_g, np.concatenate((_pad_reference(rho, grid, depth)[None], g_mom,
                                     _pad_reference(etot, grid, depth)[None])))


def test_ghost_depth_beyond_the_grid_rejected():
    with pytest.raises(UsageError):
        gf.fill_ghosts_slip(np.zeros(32), WALL, depth=33)
    with pytest.raises(UsageError):
        gf.fill_ghosts_slip(np.zeros((16, 24)), BOX, depth=17)


def test_wall_face_heat_flux_vanishes():
    # centered face flux at the wall: -kappa(theta_face)(ghost - interior)/dx
    theta = 1.0 + np.random.default_rng(2).random(32)
    tg = gf.fill_ghosts_slip(theta, WALL)
    dx = WALL.spacing[0]
    flux_left = -(tg[1] - tg[0]) / dx
    flux_right = -(tg[-1] - tg[-2]) / dx
    assert flux_left == 0.0 and flux_right == 0.0


# ---------------------------------------------------------------------------
# calculus


def _gradient_reference(fld_g, grid):
    """The shifted-slice centered difference on a depth-1 ghosted scalar,
    which `interior_gradient` replaced, kept as its oracle."""
    out = np.empty((grid.dim, *grid.cells))
    for ax in range(grid.dim):
        hi = tuple(slice(1 + (ax == g), 1 + (ax == g) + n) for g, n in enumerate(grid.cells))
        lo = tuple(slice(1 - (ax == g), 1 - (ax == g) + n) for g, n in enumerate(grid.cells))
        out[ax] = (fld_g[hi] - fld_g[lo]) / (2.0 * grid.spacing[ax])
    return out


def test_gradient_constant_zero():
    assert np.all(gf.interior_gradient(np.full((16, 24), 5.0), BOX) == 0.0)


def test_gradient_affine_exact():
    # exact wherever both neighbours are interior; the mirror ghost halves
    # the slope in the two wall cells
    x = gf.cell_centers(WALL)[0]
    g = gf.interior_gradient(3.0 * x, WALL)[0]
    assert np.max(np.abs(g[1:-1] - 3.0)) < 1e-13
    assert g[0] == pytest.approx(1.5, rel=1e-12) and g[-1] == pytest.approx(1.5, rel=1e-12)


def test_gradient_second_order_smooth():
    errs = []
    for n in (32, 64):
        grid = gf.Grid.line(1.0, n, bc="periodic")
        f = np.sin(2 * np.pi * gf.cell_centers(grid)[0])
        exact = 2 * np.pi * np.cos(2 * np.pi * gf.cell_centers(grid)[0])
        errs.append(np.max(np.abs(gf.interior_gradient(f, grid)[0] - exact)))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.9


def test_gradient_second_order_wall_compatible():
    # cos(pi x / L) is even about both walls, so mirror ghosts are exact
    errs = []
    for n in (32, 64):
        grid = gf.Grid.line(1.0, n)
        x = gf.cell_centers(grid)[0]
        exact = -np.pi * np.sin(np.pi * x)
        errs.append(np.max(np.abs(gf.interior_gradient(np.cos(np.pi * x), grid)[0] - exact)))
    assert math.log2(errs[0] / errs[1]) > 1.9


def test_interior_gradient_fills_depth_one_ghosts():
    rng = np.random.default_rng(3)
    mixed = gf.Grid.box((1.0, 2.0), (16, 24), bc=("slip-wall", "periodic"))
    for grid in (WALL, PER, BOX, mixed):
        f = rng.standard_normal(grid.cells)
        g = gf.interior_gradient(f, grid)
        assert g.shape == (grid.dim, *grid.cells)
        want = _gradient_reference(gf.fill_ghosts_slip(f, grid), grid)
        assert g.tobytes() == want.tobytes()
        u = rng.standard_normal((grid.dim, *grid.cells))
        G = gf.interior_gradient(u, grid)
        assert G.shape == (grid.dim, grid.dim, *grid.cells)
        u_g = gf.fill_ghosts_slip(u, grid, vector=True)
        for i in range(grid.dim):
            assert G[i].tobytes() == _gradient_reference(u_g[i], grid).tobytes()
    # G[i, j] = d_j u_i: u = (x, 2y) away from the walls
    x, y = gf.mesh(BOX)
    G = gf.interior_gradient(np.stack([x, 2.0 * y]), BOX)
    assert np.allclose(G[0, 0, 1:-1], 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(G[1, 1, :, 1:-1], 2.0, rtol=0.0, atol=1e-12)
    assert np.all(G[0, 1] == 0.0) and np.all(G[1, 0] == 0.0)
    with pytest.raises(UsageError):
        gf.interior_gradient(np.zeros((3, 16, 24)), BOX)


def test_norm_indicator():
    grid = gf.Grid.box((1.0, 2.0), (16, 16))
    ones = np.ones((16, 16))
    for p in (2, 4, 6):
        assert gf.norm(ones, grid, p) == pytest.approx(2.0 ** (1.0 / p), rel=1e-14)
    assert gf.norm(ones, grid, math.inf) == 1.0


def test_norm_zero_field():
    assert gf.norm(np.zeros(32), WALL, 4) == 0.0
    assert gf.norm(np.zeros((1, 32)), WALL, math.inf) == 0.0


def test_norm_rejects_other_orders():
    with pytest.raises(UsageError):
        gf.norm(np.zeros(32), WALL, 3)


def test_interpolation_inequality_random_fields():
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = rng.standard_normal((1, 32))
        lhs = gf.norm(u, WALL, 4)
        rhs = gf.norm(u, WALL, 6) ** 0.75 * gf.norm(u, WALL, 2) ** 0.25
        assert lhs <= rhs * (1.0 + 1e-12)


def test_integrate_and_inner():
    x = gf.cell_centers(WALL)[0]
    assert gf.integrate(np.ones(32), WALL) == pytest.approx(1.0, rel=1e-14)
    # midpoint rule is exact for affine integrands
    assert gf.integrate(x, WALL) == pytest.approx(0.5, rel=1e-13)


def test_trapezoid_accumulator():
    acc = gf.TrapezoidAccumulator()
    ts = np.linspace(0.0, 1.0, 11)
    for t in ts:
        acc.add(t, float(t ** 2))
    assert acc.total == pytest.approx(np.trapezoid(ts ** 2, ts), rel=1e-14)
    with pytest.raises(UsageError):
        acc.add(0.5, 1.0)


# ---------------------------------------------------------------------------
# state containers


def test_fluid_state_validation():
    rho = np.ones(32)
    mom = np.zeros((1, 32))
    etot = np.full(32, 2.0)
    st = gf.FluidState(rho, mom, etot, time=0.25)
    assert st.time == 0.25
    assert np.all(st.velocity() == 0.0)
    with pytest.raises(PositivityError):
        gf.FluidState(-rho, mom, etot)
    with pytest.raises(PositivityError):
        gf.FluidState(rho, mom, np.full(32, np.nan))
    fast = mom.copy()
    fast[0, 0] = 10.0  # kinetic energy 50 > etot
    with pytest.raises(PositivityError):
        gf.FluidState(rho, fast, etot)
    with pytest.raises(UsageError):
        gf.FluidState(rho, np.zeros((2, 32)), etot)
    # a Runge-Kutta stage keeps its W unchecked, but not its shape or times
    stage = gf.FluidState.stage(np.stack([-rho, mom[0], np.full(32, np.nan)]), 0.5)
    assert stage.time == 0.5 and np.isnan(stage.etot).all()
    with pytest.raises(UsageError):
        gf.FluidState.stage(np.ones((3, 2, 32)), np.zeros(3))


def test_fluid_state_fields_are_views_of_one_stack():
    rng = np.random.default_rng(2)
    rho = 1.0 + 0.1 * rng.random((16, 24))
    mom = 0.1 * rng.standard_normal((2, 16, 24))
    etot = 2.0 + rng.random((16, 24))
    st = gf.FluidState(rho, mom, etot, time=0.5)
    assert st.W.shape == (4, 16, 24)
    for part, given in ((st.rho, rho), (st.mom, mom), (st.etot, etot)):
        assert np.shares_memory(part, st.W)
        assert not np.shares_memory(part, given)  # the parts are stacked, not kept
        assert np.array_equal(part, given)
    kept = gf.FluidState.stacked(st.W, 0.5)
    assert kept.W is st.W and kept.time == 0.5
    dup = st.copy()
    assert dup.time == 0.5 and np.array_equal(dup.W, st.W)
    assert not np.shares_memory(dup.W, st.W)
    # a stacked state is validated like one built from its parts
    bad = st.W.copy()
    bad[0, 3, 4] = -1.0
    with pytest.raises(PositivityError, match="negative density"):
        gf.FluidState.stacked(bad)
    with pytest.raises(UsageError, match="stacked state shape"):
        gf.FluidState.stacked(np.ones((3, 16, 24)))


def test_batch_state_and_fields_work_member_by_member():
    # a batch stacks M states on a member axis after the component axis;
    # its ghost fill, gradient and integral are bitwise those of each
    # member alone, in 1-D and 2-D
    rng = np.random.default_rng(4)
    mixed = gf.Grid.box((1.0, 2.0), (16, 24), bc=("slip-wall", "periodic"))
    for grid in (WALL, PER, BOX, mixed):
        members = [gf.FluidState(1.0 + 0.1 * rng.random(grid.cells),
                                 0.1 * rng.standard_normal((grid.dim, *grid.cells)),
                                 2.0 + rng.random(grid.cells), time=0.1 * k)
                   for k in range(3)]
        times = np.reshape([0.0, 0.1, 0.2], (3,) + (1,) * grid.dim)
        batch = gf.FluidState.stacked(np.stack([m.W for m in members], axis=1), times)
        assert batch.rho.shape == (3, *grid.cells)
        W_g = gf.fill_ghosts_slip(batch, grid, depth=2)
        u = batch.velocity()
        G = gf.interior_gradient(u, grid, vector=True)
        g = gf.interior_gradient(batch.rho, grid, vector=False)
        total = gf.integrate(batch.etot, grid)
        assert total.shape == times.shape
        for k, m in enumerate(members):
            assert W_g[:, k].tobytes() == gf.fill_ghosts_slip(m, grid, depth=2).tobytes()
            assert u[:, k].tobytes() == m.velocity().tobytes()
            assert G[:, :, k].tobytes() == gf.interior_gradient(m.velocity(), grid).tobytes()
            assert g[:, k].tobytes() == gf.interior_gradient(m.rho, grid).tobytes()
            assert total.flat[k] == gf.integrate(m.etot, grid)
    with pytest.raises(UsageError, match="batch times"):
        gf.FluidState.stacked(batch.W, np.zeros(3))
    with pytest.raises(UsageError, match="stacked state shape"):
        gf.FluidState.stacked(np.ones((5, *batch.W.shape[1:])), times)


def test_batch_member_is_an_unvalidated_view(count_calls):
    rng = np.random.default_rng(5)
    W = np.stack([gf.FluidState(1.0 + rng.random(16), rng.standard_normal((1, 16)),
                                3.0 + rng.random(16)).W for _ in range(2)], axis=1)
    batch = gf.FluidState.stacked(W, np.array([[0.25], [0.5]]))
    checks = count_calls(gf.FluidState, "_set")
    member = batch.member(1)
    assert not checks
    assert member.time == 0.5 and isinstance(member.time, float)
    assert np.shares_memory(member.W, batch.W) and member.W.tobytes() == W[:, 1].tobytes()
    assert member.velocity().tobytes() == batch.velocity()[:, 1].tobytes()


def test_fluid_state_vacuum_cells():
    rho = np.ones(32)
    rho[3] = 0.0
    mom = np.zeros((1, 32))
    etot = np.ones(32)
    st = gf.FluidState(rho, mom, etot)
    assert st.velocity()[0, 3] == 0.0
    mom2 = mom.copy()
    mom2[0, 3] = 1.0
    with pytest.raises(PositivityError):
        gf.FluidState(rho, mom2, etot)


def test_reference_fields_positivity():
    shape = (16, 24)
    ok = gf.ReferenceFields(np.ones(shape), np.ones(shape), np.zeros((2, *shape)), time=1.0)
    assert ok.time == 1.0
    with pytest.raises(PositivityError):
        gf.ReferenceFields(np.zeros(shape), np.ones(shape), np.zeros((2, *shape)))
    with pytest.raises(PositivityError):
        gf.ReferenceFields(np.ones(shape), -np.ones(shape), np.zeros((2, *shape)))
    with pytest.raises(UsageError):
        gf.ReferenceFields(np.ones(shape), np.ones(shape), np.zeros((1, *shape)))


# ---------------------------------------------------------------------------
# serialization


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    W = np.empty((4, 16, 24))
    W[0] = 1.0 + rng.random((16, 24))
    W[1:-1] = rng.standard_normal((2, 16, 24))
    W[-1] = 2.0 + rng.random((16, 24))
    path = tmp_path / "snap.bin"
    gf.write_snapshot(path, BOX, 0.375, W)
    grid2, time2, W2 = gf.read_snapshot(path)
    assert grid2 == BOX
    assert time2 == 0.375
    assert np.array_equal(W, W2)


def test_snapshot_rejects_bad_shape(tmp_path):
    with pytest.raises(UsageError):
        gf.write_snapshot(tmp_path / "x.bin", BOX, 0.0, np.zeros(7))
    with pytest.raises(UsageError):
        gf.write_snapshot(tmp_path / "x.bin", BOX, 0.0, np.zeros((3, 16, 24)))


def test_snapshot_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"not a snapshot")
    with pytest.raises(UsageError):
        gf.read_snapshot(p)


def _small_snapshot(tmp_path):
    path = tmp_path / "snap.bin"
    W = np.zeros((4, 16, 24))
    W[0], W[-1] = 1.0, 2.0
    gf.write_snapshot(path, BOX, 0.5, W)
    return path


def test_snapshot_rejects_short_payload(tmp_path):
    path = _small_snapshot(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(UsageError, match="payload bytes"):
        gf.read_snapshot(path)


def test_snapshot_rejects_long_payload(tmp_path):
    path = _small_snapshot(tmp_path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(UsageError, match="payload bytes"):
        gf.read_snapshot(path)


@pytest.mark.parametrize("key", ["extents", "cells", "bc", "time", "fields", "dim"])
def test_snapshot_rejects_missing_header_key(tmp_path, key):
    path = _small_snapshot(tmp_path)
    header, end, payload = path.read_bytes().partition(b"\nend\n")
    kept = [ln for ln in header.split(b"\n") if not ln.startswith(key.encode() + b" ")]
    path.write_bytes(b"\n".join(kept) + end + payload)
    with pytest.raises(UsageError, match=f"header lacks {key}"):
        gf.read_snapshot(path)


@pytest.mark.parametrize("old,new", [(b"cells 16 24", b"cells 16 x"),
                                     (b"time 0.5", b"time soon"),
                                     (b"mom=2", b"mom=two"),
                                     (b"dim 2", b"dim 3")])
def test_snapshot_rejects_malformed_header_entry(tmp_path, old, new):
    path = _small_snapshot(tmp_path)
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    with pytest.raises(UsageError, match="malformed header"):
        gf.read_snapshot(path)


def test_snapshot_refuses_a_negative_momentum_count(tmp_path):
    # 16 values would be rho and etot of 8 cells, with no momentum between
    path = tmp_path / "snap.bin"
    path.write_bytes(b"nsflab-snapshot 1\ndim 1\nextents 1.0\ncells 8\nbc slip-wall\n"
                     b"time 0.0\nfields rho=1 mom=-1 etot=1\nend\n" + np.ones(16).tobytes())
    with pytest.raises(UsageError, match=r"snap\.bin has a malformed header: fields "
                                         r"'rho=1 mom=-1 etot=1', not 'rho=1 mom=1 etot=1'"):
        gf.read_snapshot(path)


@pytest.mark.parametrize("grid", [gf.Grid.line(1.0, 8, "periodic"),
                                  gf.Grid.box((1.0, 2.5), (8, 10), ("slip-wall", "periodic"))],
                         ids=["1d-periodic", "2d-mixed"])
def test_write_series_bytes_are_the_header_and_the_little_endian_state(tmp_path, grid):
    rng = np.random.default_rng(4)
    W = np.empty((2 + grid.dim, 2, *grid.cells))
    W[0], W[1:-1], W[-1] = 1.0, rng.uniform(-0.1, 0.1, (grid.dim, 2, *grid.cells)), 2.0
    gf.write_series(tmp_path, grid, [0.0, 1.0 / 3.0], W)
    for k, t in enumerate(["0.0", "0.3333333333333333"]):
        header = ("nsflab-snapshot 1\n"
                  f"dim {grid.dim}\n"
                  f"extents {' '.join(repr(v) for v in grid.extents)}\n"
                  f"cells {' '.join(str(n) for n in grid.cells)}\n"
                  f"bc {' '.join(grid.bc)}\n"
                  f"time {t}\n"
                  f"fields rho=1 mom={grid.dim} etot=1\n"
                  "end\n")
        want = header.encode("ascii") + W[:, k].astype("<f8").tobytes()
        assert (tmp_path / f"{k:05d}.snap").read_bytes() == want


def test_write_series_drops_stale_snapshots(tmp_path):
    grid = gf.Grid.line(1.0, 8, "slip-wall")
    states = [gf.FluidState(np.full(8, 1.0 + k), np.zeros((1, 8)), np.full(8, 2.0), 0.1 * k)
              for k in range(3)]
    W = np.stack([s.W for s in states], axis=1)
    gf.write_series(tmp_path, grid, [s.time for s in states], W)
    assert len(gf.read_series(tmp_path, grid)[0]) == 3
    gf.write_series(tmp_path, grid, [0.5], W[:, 2:])
    times, back = gf.read_series(tmp_path, grid)
    assert times == [0.5]
    assert np.array_equal(back[0, 0], states[2].rho)


def _uniform_series(directory, grid, times):
    """Write uniform valid states on grid at the given times, one snapshot each."""
    W = np.zeros((2 + grid.dim, *grid.cells))
    W[0], W[-1] = 1.0, 2.0
    for k, t in enumerate(times):
        gf.write_snapshot(directory / f"{k:05d}.snap", grid, t, W)


def test_read_series_round_trips_the_stack(tmp_path):
    grid = gf.Grid.box((1.0, 2.0), (8, 10), ("slip-wall", "periodic"))
    rng = np.random.default_rng(5)
    W = np.empty((4, 3, 8, 10))
    W[0], W[1:-1], W[-1] = 1.0, rng.uniform(-0.1, 0.1, (2, 3, 8, 10)), 2.0
    gf.write_series(tmp_path, grid, [0.0, 0.25, 0.5], W)
    times, back = gf.read_series(tmp_path, grid)
    assert times == [0.0, 0.25, 0.5]
    assert back.shape == (4, 3, 8, 10) and back.tobytes() == W.tobytes()


def test_read_series_refuses_a_foreign_boundary_kind(tmp_path):
    # a series written on a periodic grid is not a slip-wall run's
    _uniform_series(tmp_path, gf.Grid.line(1.0, 8, "periodic"), [0.0, 0.1])
    with pytest.raises(UsageError, match=r"00000\.snap does not match the run grid"):
        gf.read_series(tmp_path, gf.Grid.line(1.0, 8, "slip-wall"))


def test_read_series_refuses_a_gap(tmp_path):
    grid = gf.Grid.line(1.0, 8, "slip-wall")
    _uniform_series(tmp_path, grid, [0.0, 0.1, 0.2])
    (tmp_path / "00001.snap").unlink()
    with pytest.raises(UsageError, match=r"00001\.snap is missing"):
        gf.read_series(tmp_path, grid)


@pytest.mark.parametrize("times", [[0.0, 0.2, 0.1], [0.0, 0.1, 0.1]])
def test_read_series_refuses_times_that_do_not_increase(tmp_path, times):
    grid = gf.Grid.line(1.0, 8, "slip-wall")
    _uniform_series(tmp_path, grid, times)
    with pytest.raises(UsageError, match=r"00002\.snap has time 0\.1, not after"):
        gf.read_series(tmp_path, grid)


@pytest.mark.parametrize("times,bad", [([0.0, 0.5, math.inf], "00002"),
                                       ([math.nan], "00000"),
                                       ([-math.inf, 0.0, 1.0], "00000")])
def test_read_series_refuses_a_non_finite_time(tmp_path, times, bad):
    grid = gf.Grid.line(1.0, 8, "slip-wall")
    W = np.ones((3, len(times), 8))
    W[1], W[2] = 0.0, 2.0
    gf.write_series(tmp_path, grid, times, W)
    with pytest.raises(UsageError, match=rf"{bad}\.snap has the non-finite time"):
        gf.read_series(tmp_path, grid)

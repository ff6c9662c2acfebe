import numpy as np
import pytest

from mosdistill import bev
from mosdistill.errors import IndexOutOfRange, ShapeMismatch
from mosdistill.kitti_io import PointCloud
from oracle_utils import height_oracle, project_oracle


def cloud(xyz, frame_id=0):
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    pts = np.concatenate([xyz, np.zeros((len(xyz), 1))], axis=1)
    return PointCloud(points=pts, frame_id=frame_id)


def random_cloud(rng, n, r_spread=60.0):
    xyz = np.column_stack(
        [
            rng.uniform(-r_spread, r_spread, n),
            rng.uniform(-r_spread, r_spread, n),
            rng.uniform(-6.0, 4.0, n),
        ]
    )
    return cloud(xyz)


def uv(cells, i):
    """(u, v) cell of point i; only meaningful where cells.flat[i] >= 0."""
    return divmod(int(cells.flat[i]), cells.shape[1])


class TestProjectToCells:
    def test_out_of_radius(self):
        grid = bev.BevGrid(n_radial=50, n_angular=4)
        cells = bev.project_to_cells(cloud([[51.0, 0.0, 0.0]]), grid)
        assert cells.flat[0] == -1

    def test_radius_edge_is_excluded(self):
        grid = bev.BevGrid(r_max=50.0)
        cells = bev.project_to_cells(cloud([[50.0, 0.0, 0.0]]), grid)
        assert cells.flat[0] == -1

    def test_unit_x_point(self):
        # hand oracle: u = floor(1/50*50) = 1; angle 0 -> (0+pi)/2pi = 0.5 -> v = 2
        grid = bev.BevGrid(n_radial=50, n_angular=4, r_max=50.0)
        cells = bev.project_to_cells(cloud([[1.0, 0.0, 0.0]]), grid)
        assert uv(cells, 0) == (1, 2)

    def test_z_below_range(self):
        grid = bev.BevGrid()
        cells = bev.project_to_cells(cloud([[1.0, 0.0, -5.0]]), grid)
        assert cells.flat[0] == -1

    def test_z_bounds_exclusive(self):
        grid = bev.BevGrid()
        cells = bev.project_to_cells(
            cloud([[1, 0, -4.0], [1, 0, 2.0], [1, 0, -3.999], [1, 0, 1.999]]), grid
        )
        assert (cells.flat[:2] == -1).all()
        assert (cells.flat[2:] >= 0).all()

    def test_pi_edge_clamps_into_last_bin(self):
        grid = bev.BevGrid(n_radial=4, n_angular=8, r_max=10.0)
        cells = bev.project_to_cells(cloud([[-1.0, 0.0, 0.0]]), grid)  # atan2 = +pi
        assert uv(cells, 0)[1] == 7

    @pytest.mark.parametrize(
        "grid",
        [
            bev.BevGrid(n_radial=32, n_angular=360),
            bev.BevGrid(n_radial=7, n_angular=13, r_max=25.0),
            bev.BevGrid(n_radial=1, n_angular=1, r_max=80.0, z_min=-6, z_max=5),
        ],
    )
    def test_matches_bruteforce_oracle(self, grid, rng):
        for _ in range(10):
            c = random_cloud(rng, int(rng.integers(0, 100)))
            np.testing.assert_array_equal(
                bev.project_to_cells(c, grid).flat, project_oracle(c, grid)
            )

    def test_partition_invariant(self, rng):
        grid = bev.BevGrid(n_radial=8, n_angular=16, r_max=30.0)
        c = random_cloud(rng, 500)
        cells = bev.project_to_cells(c, grid)
        # every point lands in exactly one cell of the grid or is marked -1
        assert cells.flat.shape == (len(c),)
        n_cells = grid.n_radial * grid.n_angular
        assert ((cells.flat == -1) | (cells.assigned & (cells.flat < n_cells))).all()


CRITERION_3_GRIDS = [
    bev.BevGrid(n_radial=32, n_angular=360),
    bev.BevGrid(n_radial=7, n_angular=13, r_max=25.0),
    bev.BevGrid(n_radial=24, n_angular=120, z_min=-2.0, z_max=1.0),
    bev.BevGrid(n_radial=1, n_angular=1, r_max=80.0),
]


class TestExactRadius:
    """The radius is exactly np.hypot's wherever it decides a cell or the
    range test: ring edges, r_max, and coordinates whose squares under- or
    overflow."""

    def check(self, xyz, grid):
        c = cloud(xyz)
        np.testing.assert_array_equal(
            bev.project_to_cells(c, grid).flat, project_oracle(c, grid)
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid", CRITERION_3_GRIDS)
    def test_ring_edges_within_ulps(self, grid, rng):
        n = 3000
        rad = rng.integers(1, grid.n_radial + 1, n) * grid.r_max / grid.n_radial
        rad += rng.integers(-8, 9, n) * np.spacing(rad)
        theta = rng.uniform(-np.pi, np.pi, n)
        theta[::3] = rng.choice([0.0, 0.5, 1.0, -0.5], theta[::3].size) * np.pi  # on the axes
        xyz = np.column_stack([rad * np.cos(theta), rad * np.sin(theta), np.zeros(n)])
        self.check(xyz, grid)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid", CRITERION_3_GRIDS)
    def test_exactly_r_max(self, grid):
        r = grid.r_max
        theta = np.linspace(-np.pi, np.pi, 41)
        xyz = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.zeros(41)])
        self.check(np.vstack([xyz, [[r, 0, 0], [0, -r, 0], [-r, 0, 0]]]), grid)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid", CRITERION_3_GRIDS)
    def test_extreme_and_non_finite_coordinates(self, grid):
        values = [0.0, 1.0, 1e-200, -1e-200, 1e200, -1e200, 3e-320, np.nan, np.inf, -np.inf]
        x, y = np.meshgrid(values, values)
        n = x.size
        z = np.zeros(n)
        z[::7] = np.nan
        self.check(np.column_stack([x.ravel(), y.ravel(), z]), grid)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_squares_on_tiny_grid(self, rng):
        # x*x + y*y is subnormal here, so sqrt of it is off by up to ~1%
        grid = bev.BevGrid(n_radial=64, n_angular=8, r_max=2e-161)
        xy = rng.uniform(-2e-161, 2e-161, size=(2000, 2))
        self.check(np.column_stack([xy, np.zeros(2000)]), grid)


class TestHeightImage:
    def grid(self):
        return bev.BevGrid(n_radial=4, n_angular=4, r_max=8.0)

    def test_span(self):
        c = cloud([[1, 0, -1.0], [1, 0, 0.5], [1, 0, 1.0]])
        grid = self.grid()
        img = bev.height_image(bev.fold_heights(bev.project_to_cells(c, grid), c))
        u, v = uv(bev.project_to_cells(c, grid), 0)
        assert img.shape == grid.shape and img.dtype == np.float64
        assert img[u, v] == pytest.approx(2.0)
        assert np.count_nonzero(img) == 1

    def test_single_point_cell(self):
        c = cloud([[1, 0, 0.7]])
        grid = self.grid()
        img = bev.height_image(bev.fold_heights(bev.project_to_cells(c, grid), c))
        assert img.max() == 0.0

    def test_empty_cells(self):
        grid = self.grid()
        c = cloud(np.zeros((0, 3)))
        img = bev.height_image(bev.fold_heights(bev.project_to_cells(c, grid), c))
        assert img.shape == grid.shape
        assert (img == 0).all()

    def test_matches_bruteforce_oracle(self, rng):
        grid = bev.BevGrid(n_radial=6, n_angular=9, r_max=20.0)
        for _ in range(10):
            c = random_cloud(rng, int(rng.integers(1, 100)), r_spread=25.0)
            img = bev.height_image(bev.fold_heights(bev.project_to_cells(c, grid), c))
            np.testing.assert_array_equal(img, height_oracle(c, grid))

    def test_blocks_fold_to_the_whole_frame(self, rng):
        grid = bev.BevGrid(n_radial=6, n_angular=9, r_max=20.0)
        c = random_cloud(rng, 300, r_spread=25.0)
        cells = bev.project_to_cells(c, grid)
        whole = bev.fold_heights(cells, c)
        cuts = [0, *sorted(rng.integers(0, len(c), 4)), len(c)]
        bounds = None
        for lo, hi in zip(cuts, cuts[1:]):
            part = PointCloud(points=c.points[lo:hi])
            bounds = bev.fold_heights(bev.project_to_cells(part, grid), part, bounds)
        np.testing.assert_array_equal(bounds, whole)
        np.testing.assert_array_equal(bev.height_image(bounds), height_oracle(c, grid))

    def test_cell_map_of_another_cloud(self):
        grid = self.grid()
        cells = bev.project_to_cells(cloud([[1, 0, 0.0]]), grid)
        with pytest.raises(ShapeMismatch, match="point count"):
            bev.fold_heights(cells, cloud(np.zeros((2, 3))))


def make_image(values):
    return np.asarray(values, dtype=np.float64)


class TestMotionResiduals:
    def test_static_scene_zero(self):
        img = make_image([[1.0, 2.0], [0.0, 0.5]])
        mt = bev.motion_residuals(img, img, 2, 2)
        assert (mt.channels == 0).all()

    def test_single_cell_signs(self):
        a = make_image([[2.0]])
        b = make_image([[0.0]])  # occupied by a single point: a zero span
        mt = bev.motion_residuals(a, b, 1, 1)
        assert mt.channels.shape == (2, 1, 1)
        assert mt.channels[0, 0, 0] == 2.0
        assert mt.channels[1, 0, 0] == -2.0

    def test_antisymmetry(self, rng):
        i1 = make_image(rng.uniform(0, 3, (4, 5)))
        i2 = make_image(rng.uniform(0, 3, (4, 5)))
        mt = bev.motion_residuals(i1, i2, 3, 2)
        assert mt.channels.shape == (5, 4, 5)
        for k in range(3):
            np.testing.assert_array_equal(mt.channels[k], i1 - i2)
            for j in range(3, 5):
                np.testing.assert_array_equal(mt.channels[k], -mt.channels[j])

    def test_moving_object_cells(self):
        # a blob occupies cell A in the newer window and cell B in the older
        grid = bev.BevGrid(n_radial=4, n_angular=4, r_max=8.0)
        newer = cloud([[1.0, 0.0, -1.0], [1.0, 0.0, 1.0]])
        older = cloud([[5.0, 0.0, -1.0], [5.0, 0.0, 1.0]])
        cell_a = uv(bev.project_to_cells(newer, grid), 0)
        cell_b = uv(bev.project_to_cells(older, grid), 0)
        img1 = bev.height_image(bev.fold_heights(bev.project_to_cells(newer, grid), newer))
        img2 = bev.height_image(bev.fold_heights(bev.project_to_cells(older, grid), older))
        mt = bev.motion_residuals(img1, img2, 1, 1)
        assert mt.channels[0][cell_a] > 0
        assert mt.channels[1][cell_b] > 0


class TestCellLabels:
    def grid(self):
        return bev.BevGrid(n_radial=4, n_angular=4, r_max=8.0)

    def label(self, classes):
        c = cloud([[1.0, 0.0, 0.0]] * len(classes))
        grid = self.grid()
        cells = bev.project_to_cells(c, grid)
        lab = bev.cell_labels(cells, np.array(classes, dtype=np.uint8), grid)
        u, v = uv(cells, 0)
        return lab.labels[u, v]

    def test_majority(self):
        assert self.label([3, 1, 1]) == 1

    def test_tie_breaks_to_moving(self):
        assert self.label([3, 1]) == 3

    def test_class_id_out_of_range_raises(self):
        with pytest.raises(IndexOutOfRange):
            self.label([1, 4])

    def test_empty_cell(self):
        grid = self.grid()
        c = cloud(np.zeros((0, 3)))
        lab = bev.cell_labels(bev.project_to_cells(c, grid), np.zeros(0, np.uint8), grid)
        assert not lab.valid.any()
        assert (lab.labels == 0).all()

    def test_out_of_range_points_ignored(self):
        grid = self.grid()
        c = cloud([[100.0, 0.0, 0.0]])
        lab = bev.cell_labels(
            bev.project_to_cells(c, grid), np.array([3], np.uint8), grid
        )
        assert not lab.valid.any()


class TestBackProject:
    def test_constant_prediction(self, rng):
        grid = bev.BevGrid(n_radial=4, n_angular=8, r_max=20.0)
        c = random_cloud(rng, 100, r_spread=25.0)
        cells = bev.project_to_cells(c, grid)
        preds = np.full(grid.shape, 3, dtype=np.uint8)
        out = bev.back_project(preds, cells)
        assert (out[cells.assigned] == 3).all()
        assert (out[~cells.assigned] == 0).all()

    def test_matches_per_point_lookup(self, rng):
        grid = bev.BevGrid(n_radial=5, n_angular=7, r_max=15.0)
        c = random_cloud(rng, 200, r_spread=20.0)
        cells = bev.project_to_cells(c, grid)
        preds = rng.integers(0, 4, size=grid.shape).astype(np.uint8)
        out = bev.back_project(preds, cells)
        for i in range(len(c)):
            u, v = uv(cells, i)
            expected = preds[u, v] if cells.flat[i] >= 0 else 0
            assert out[i] == expected

    def test_idempotent_under_reprojection(self, rng):
        # give every point its cell's class, re-derive cell labels: unchanged
        grid = bev.BevGrid(n_radial=5, n_angular=7, r_max=15.0)
        c = random_cloud(rng, 300, r_spread=20.0)
        cells = bev.project_to_cells(c, grid)
        preds = rng.integers(0, 4, size=grid.shape).astype(np.uint8)
        point_classes = bev.back_project(preds, cells)
        relabeled = bev.cell_labels(cells, point_classes, grid)
        assert (relabeled.labels[relabeled.valid] == preds[relabeled.valid]).all()

    def test_shape_mismatch(self):
        cells = bev.CellIndexMap(shape=(2, 2), flat=np.array([0]))
        with pytest.raises(ShapeMismatch):
            bev.back_project(np.zeros((3, 3), dtype=np.uint8), cells)


class TestRender:
    def test_pgm_layout_and_sidecar(self, tmp_path):
        arr = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "img.pgm"
        bev.write_pgm(arr, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([0, 64, 128, 255])
        sidecar = (tmp_path / "img.pgm.norm").read_text()
        assert "min=0" in sidecar and "max=4" in sidecar

    def test_constant_image(self, tmp_path):
        path = tmp_path / "flat.pgm"
        bev.write_pgm(np.ones((2, 3)), path)
        assert path.read_bytes().endswith(bytes(6))

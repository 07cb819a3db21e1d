import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import netcert.sampling as sampling_mod

from netcert.core import DimensionError, IntervalBox, InvariantError
from netcert.sampling import (
    DataFaultError,
    SampleSet,
    collect_pairs,
    dispersion_general,
    dispersion_of_grid,
    grid_samples,
    load_samples_csv,
    save_samples_csv,
    write_csv_rows,
)


class TestGridSamples:
    def test_three_points_unit_interval(self):
        pts = grid_samples(IntervalBox([0.0], [1.0]), (3,))
        assert np.allclose(pts[:, 0], [0.0, 0.5, 1.0])

    def test_single_count_uses_midpoint(self):
        pts = grid_samples(IntervalBox([0.0], [2.0]), (1,))
        assert np.allclose(pts, [[1.0]])

    def test_two_by_two_gives_corners(self):
        pts = grid_samples(IntervalBox([0.0, 0.0], [1.0, 1.0]), (2, 2))
        assert pts.shape == (4, 2)
        assert {tuple(p) for p in pts} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_lexicographic_order(self):
        pts = grid_samples(IntervalBox([0.0, 0.0], [1.0, 1.0]), (2, 3))
        # first dimension slowest
        assert np.allclose(pts[:3, 0], 0.0) and np.allclose(pts[3:, 0], 1.0)

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(InvariantError):
            grid_samples(IntervalBox([1.0], [1.0]), (2,))

    def test_count_validation(self):
        with pytest.raises(InvariantError):
            grid_samples(IntervalBox([0.0], [1.0]), (0,))
        with pytest.raises(DimensionError):
            grid_samples(IntervalBox([0.0], [1.0]), (2, 2))


class TestDispersionOfGrid:
    def test_single_midpoint_sample(self):
        assert dispersion_of_grid(IntervalBox([0.0], [2.0]), (1,)) == pytest.approx(1.0)

    def test_half_cell_diagonal(self):
        box = IntervalBox([0.0, 0.0], [1.0, 1.0])
        theta = dispersion_of_grid(box, (11, 11))  # spacing 0.1 per dim
        assert theta == pytest.approx(0.0707, abs=1e-4)

    def test_matches_brute_force_covering_radius(self):
        box = IntervalBox([0.0, -1.0], [2.0, 1.0])
        counts = (5, 4)
        samples = grid_samples(box, counts)
        theta = dispersion_of_grid(box, counts)
        probes = grid_samples(box, (51, 41))
        worst = cKDTree(samples).query(probes)[0].max()
        assert worst <= theta + 1e-12
        # the bound is tight: some probe gets close to it
        assert worst >= 0.98 * theta

    def test_room_config_near_reported_dispersion(self):
        # a 22x22 grid over the joint room domain lands at ~0.1
        box = IntervalBox([10.0, 10.0], [13.0, 13.0])
        assert dispersion_of_grid(box, (22, 22)) == pytest.approx(0.1, abs=0.005)


class TestDispersionGeneral:
    box = IntervalBox([0.0], [2.0])

    def test_probe_grid_itself(self):
        probes = grid_samples(self.box, (21,))
        theta = dispersion_general(self.box, probes, (21,))
        assert theta == pytest.approx(dispersion_of_grid(self.box, (21,)), abs=1e-12)

    def test_single_midpoint_sample(self):
        theta = dispersion_general(self.box, np.array([[1.0]]), (201,))
        correction = dispersion_of_grid(self.box, (201,))
        assert theta == pytest.approx(1.0 + correction, abs=1e-9)

    def test_two_endpoint_samples(self):
        theta = dispersion_general(self.box, np.array([[0.0], [2.0]]), (201,))
        assert theta == pytest.approx(1.0 + dispersion_of_grid(self.box, (201,)), abs=0.01)

    def test_conservative_vs_exact_grid_value(self):
        box = IntervalBox([0.0, 0.0], [1.0, 1.0])
        counts = (6, 6)
        samples = grid_samples(box, counts)
        assert dispersion_general(box, samples, (61, 61)) >= dispersion_of_grid(box, counts)

    def test_empty_samples_rejected(self):
        with pytest.raises(InvariantError):
            dispersion_general(self.box, np.empty((0, 1)), (11,))

    @pytest.mark.parametrize("block", [1, 97, None], ids=["block1", "block97", "shipped"])
    def test_blocks_match_one_query_over_the_grid(self, monkeypatch, block):
        box = IntervalBox([0.0, -1.0, 2.0], [1.0, 1.0, 5.0])
        samples = np.random.default_rng(11).uniform(box.lower, box.upper, (300, 3))
        counts = (7, 12, 9)
        one_query = cKDTree(samples).query(grid_samples(box, counts))[0].max()
        if block is not None:
            monkeypatch.setattr(sampling_mod, "_PROBE_BLOCK", block)
        theta = dispersion_general(box, samples, counts)
        assert theta == one_query + dispersion_of_grid(box, counts)

    def test_memory_stays_per_block(self, monkeypatch):
        """16x more probes at a fixed block size keep the allocation peak
        within 1.5x."""
        monkeypatch.setattr(sampling_mod, "_PROBE_BLOCK", 2_000)
        box = IntervalBox([0.0, 0.0], [1.0, 2.0])
        samples = np.random.default_rng(5).uniform(box.lower, box.upper, (200, 2))
        peaks = []
        for counts in ((60, 60), (240, 240)):
            tracemalloc.start()
            try:
                dispersion_general(box, samples, counts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestCollectPairs:
    def test_room_two_by_two(self, room_class):
        samples = collect_pairs(room_class, (2,), (2,))
        assert samples.count == 4
        for i in range(4):
            x, d = samples.x[i, 0], samples.d[i, 0]
            assert samples.fx[i, 0] == pytest.approx(0.9 * x + 0.06 * d + 0.4, abs=1e-12)

    def test_single_pair_at_midpoints(self, room_class):
        samples = collect_pairs(room_class, (1,), (1,))
        assert samples.count == 1
        assert samples.x[0, 0] == pytest.approx(11.5)
        assert samples.d[0, 0] == pytest.approx(11.5)

    def test_platoon_product_count(self, platoon_class):
        samples = collect_pairs(platoon_class, (2, 2), (2, 2))
        assert samples.count == 16

    def test_samples_inside_domain(self, room_samples, room_class):
        assert np.all(room_class.state_box.contains(room_samples.x))
        assert np.all(room_class.input_box.contains(room_samples.d))

    def test_non_finite_oracle_output_names_point(self):
        from tests.conftest import make_drift_class
        from netcert.blackbox import TransitionOracle
        from dataclasses import replace

        cls = make_drift_class()
        bad_oracle = TransitionOracle(lambda x, d: np.full((x.shape[0], 1), np.nan))
        bad = replace(cls, oracle=bad_oracle)
        with pytest.raises(DataFaultError, match="x="):
            collect_pairs(bad, (3,), (3,))


class TestDispersionSoundness:
    """Defining property: every domain point is within theta of a sample."""

    @pytest.mark.parametrize("counts", [((5,), (5,)), ((9,), (4,))])
    def test_room_grids(self, room_class, counts):
        samples = collect_pairs(room_class, *counts)
        probes = grid_samples(room_class.joint_box, tuple(10 * c for c in counts[0] + counts[1]))
        worst = cKDTree(samples.joint).query(probes, workers=-1)[0].max()
        assert worst <= samples.dispersion + 1e-12


class TestSampleSetInvariants:
    def test_needs_positive_dispersion(self):
        with pytest.raises(InvariantError):
            SampleSet(
                x=np.array([[1.0]]), d=np.array([[1.0]]), fx=np.array([[1.0]]), dispersion=0.0
            )

    def test_row_count_consistency(self):
        with pytest.raises(InvariantError):
            SampleSet(
                x=np.ones((2, 1)), d=np.ones((3, 1)), fx=np.ones((2, 1)), dispersion=0.5
            )


class TestCsvRoundTrip:
    def test_save_load_identical(self, tmp_path, room_class):
        samples = collect_pairs(room_class, (5,), (4,))
        path = tmp_path / "room.csv"
        save_samples_csv(path, samples)
        loaded = load_samples_csv(path, 1, 1, room_class.joint_box)
        assert np.array_equal(loaded.x, samples.x)
        assert np.array_equal(loaded.d, samples.d)
        assert np.array_equal(loaded.fx, samples.fx)
        # estimated dispersion is conservative relative to the exact grid value
        assert loaded.dispersion >= samples.dispersion - 1e-12

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataFaultError):
            load_samples_csv(path, 1, 1, IntervalBox([0.0, 0.0], [1.0, 1.0]))

    def test_row_writer_matches_per_row_loop(self, tmp_path, monkeypatch):
        """Block-wise writing gives the bytes of one ``writerow`` of ``repr``
        strings per row, also for signed zeros, infinities, NaN and subnormals."""
        monkeypatch.setattr(sampling_mod, "_CSV_BLOCK", 7)
        rng = np.random.default_rng(11)
        values = rng.normal(size=(30, 2)) * 10.0 ** rng.integers(-300, 300, (30, 2))
        tail = rng.normal(size=30)
        tail[::4] = -0.0
        tail[1:4] = np.inf, -np.inf, np.nan
        tail[5] = 5e-324  # the smallest subnormal
        lead = rng.integers(0, 1000, (30, 3))
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            for ints, row, v in zip(lead, values, tail):
                writer.writerow(
                    [int(i) for i in ints] + [repr(float(c)) for c in row] + [repr(float(v))]
                )
        with open(tmp_path / "new.csv", "w", newline="") as fh:
            write_csv_rows(fh, values, tail, lead=lead)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def per_row_csv(columns, lead):
    """The reference: one ``csv.writer.writerow`` of ``repr`` strings per row."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    table = [c if c.ndim == 2 else c[:, None] for c in columns]
    for r in range(table[0].shape[0]):
        ints = [] if lead is None else [int(i) for i in lead[r]]
        writer.writerow(ints + [repr(float(v)) for c in table for v in c[r]])
    return fh.getvalue().encode()


# signed zeros and infinities, NaNs of other bits than np.nan's (all written
# "nan"), the smallest subnormal and extreme exponents
SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
SPECIAL_VALUES += [1e300, -1e300, 1e-300, -1e-300]
NAN_PAYLOADS = np.array([0x7FF8000000000001, -0x0008000000000000], np.int64).view(np.float64)
BLOCK = sampling_mod._CSV_BLOCK
ROW_COUNTS = sorted({max(0, k * BLOCK + off) for k in range(3) for off in (-1, 0, 1)})


@st.composite
def csv_tables(draw):
    """(columns, lead): 1-d and 2-d float columns drawn from a small pool
    that holds every special value, so values repeat heavily and 0.0 sits
    next to -0.0, or spread over many magnitudes; row counts around
    multiples of ``_CSV_BLOCK``; an int ``lead`` or none."""
    rows = draw(st.sampled_from(ROW_COUNTS) | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drawn = draw(st.lists(st.floats(), max_size=8))
    pool = np.array(SPECIAL_VALUES + NAN_PAYLOADS.tolist() + drawn)
    columns = []
    for width in draw(st.lists(st.sampled_from([None, 1, 2, 3]), min_size=1, max_size=3)):
        shape = (rows,) if width is None else (rows, width)
        if draw(st.booleans()):
            columns.append(pool[rng.integers(0, pool.size, shape)])
        else:
            columns.append(rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape))
    lead = None
    if draw(st.booleans()):
        lead = rng.integers(-3, draw(st.sampled_from([3, 10**6])), (rows, draw(st.integers(1, 3))))
    return columns, lead


class TestCsvWriterProperty:
    @settings(max_examples=60, deadline=None)
    @given(csv_tables())
    def test_bytes_equal_per_row_csv_writer(self, table):
        columns, lead = table
        fh = io.StringIO(newline="")
        write_csv_rows(fh, *columns, lead=lead)
        assert fh.getvalue().encode() == per_row_csv(columns, lead)

"""Deterministic grid sampling of oracles and dispersion computation.

Uniform grids make the covering radius of the sample set exact and
closed-form, which is what gives the downstream margin checks their
deterministic character; randomized sampling would only ever give it with
some confidence level.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .core import DimensionError, IntervalBox, InvariantError, SubsystemClass

# Rows per ``fh.write`` in write_csv_rows.  Peak RSS of a room synth child
# grows with it (2-CPU host): 90.7 MB at 1024 rows, 91.9 MB at 4096 and
# 98.2 MB at 2^15, 9.7% over 1024.
_CSV_BLOCK = 4096
_CSV_EOL = "\r\n"  # csv.writer's default line terminator
_PROBE_BLOCK = 2**16  # probe points per nearest-sample query in dispersion_general


class DataFaultError(RuntimeError):
    """The data are unusable: an oracle returned a non-finite value for a
    sampled point, a slope is not finite, a data CSV is malformed, or too few
    recorded points lie within gamma of each other for a slope fit."""


class CoverageError(ValueError):
    """The sample grid misses a region that a constraint group needs."""


def grid_samples(box: IntervalBox, counts: Sequence[int]) -> np.ndarray:
    """Cartesian grid over ``box`` with ``counts[k]`` points per dimension.

    Endpoints are included; a dimension with a single point gets the
    midpoint.  Rows come out in lexicographic order (first dimension
    slowest), so the result is deterministic and independent of how callers
    later parallelize oracle queries.
    """
    mesh = np.meshgrid(*_grid_axes(box, counts), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _grid_axes(box: IntervalBox, counts: Sequence[int]) -> list[np.ndarray]:
    """The per-dimension values of ``grid_samples(box, counts)``."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != box.dim:
        raise DimensionError(f"need {box.dim} per-dimension counts, got {len(counts)}")
    if any(c < 1 for c in counts):
        raise InvariantError("per-dimension counts must be >= 1")
    axes = []
    for lo, hi, c in zip(box.lower, box.upper, counts):
        if c == 1:
            axes.append(np.array([0.5 * (lo + hi)]))
        else:
            if hi == lo:
                raise InvariantError(
                    "cannot place multiple distinct points in a zero-width dimension"
                )
            axes.append(np.linspace(lo, hi, c))
    return axes


def dense_counts(box: IntervalBox, counts: Sequence[int]) -> tuple[int, ...]:
    """``counts`` with 1 in each zero-width dimension of ``box``, where more
    points would repeat its one value: the counts of the dense grids that a
    check or a dispersion probe evaluates.  A sample grid keeps its counts."""
    return tuple(int(c) if w > 0 else 1 for c, w in zip(counts, box.widths))


def _cell_widths(box: IntervalBox, counts: Sequence[int]) -> np.ndarray:
    """Per-dimension grid spacing; a single-point dimension contributes its
    full width (the farthest domain point from the midpoint sample sits at
    half the width, matching the half-diagonal formula below)."""
    counts = tuple(int(c) for c in counts)
    widths = box.widths
    return np.array([w if c == 1 else w / (c - 1) for w, c in zip(widths, counts)])


def dispersion_of_grid(box: IntervalBox, counts: Sequence[int]) -> float:
    """Exact covering radius of the uniform grid: half the Euclidean
    diagonal of one grid cell.  Every point of the box lies within this
    distance of some sample, and a cell center attains it."""
    delta = _cell_widths(box, counts)
    return float(0.5 * np.sqrt(np.sum(delta**2)))


def dispersion_general(
    box: IntervalBox, samples: np.ndarray, probe_counts: Sequence[int]
) -> float:
    """Upper bound on the covering radius of an arbitrary sample set.

    Probes a fine grid, takes the worst nearest-sample distance, and adds
    the probe grid's own half-diagonal so the bound stays valid between
    probe points.  Always >= the true covering radius.  The probes are
    built ``_PROBE_BLOCK`` at a time from their flat index in the grid, so
    memory does not grow with the probe count.
    """
    samples = np.atleast_2d(np.asarray(samples, float))
    if samples.size == 0:
        raise InvariantError("dispersion of an empty sample set is undefined")
    if samples.shape[1] != box.dim:
        raise DimensionError("sample dimension does not match the box")
    axes = _grid_axes(box, probe_counts)
    shape = tuple(a.size for a in axes)
    total = int(np.prod(shape))
    tree = cKDTree(samples)
    worst = -np.inf
    for start in range(0, total, _PROBE_BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _PROBE_BLOCK, total)), shape)
        probes = np.column_stack([a.take(i) for a, i in zip(axes, index)])
        worst = np.maximum(worst, tree.query(probes, workers=-1)[0].max())
    return float(worst) + dispersion_of_grid(box, probe_counts)


@dataclass(frozen=True)
class SampleSet:
    """Collected one-step transitions ((x, d), f(x, d)) with their
    dispersion over the joint (state, input) box."""

    x: np.ndarray  # (N, state_dim)
    d: np.ndarray  # (N, input_dim)
    fx: np.ndarray  # (N, state_dim)
    dispersion: float
    grid_spec: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __post_init__(self):
        for name in ("x", "d", "fx"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.x.shape[0] == self.d.shape[0] == self.fx.shape[0]):
            raise InvariantError("x, d, fx must have the same number of rows")
        if self.count < 1:
            raise InvariantError("a sample set needs at least one pair")
        if not self.dispersion > 0:
            raise InvariantError("dispersion must be positive for a finite sample set")

    @property
    def count(self) -> int:
        return self.x.shape[0]

    @property
    def joint(self) -> np.ndarray:
        return np.hstack([self.x, self.d])


def collect_pairs(
    cls: SubsystemClass,
    counts_state: Sequence[int],
    counts_input: Sequence[int],
) -> SampleSet:
    """Query the class oracle once per point of the X x D product grid.

    The product grid is itself uniform per dimension, so the dispersion is
    the exact joint-cell half-diagonal.
    """
    if cls.oracle is None:
        raise InvariantError(f"class {cls.id!r} has no oracle; load samples from a file instead")
    xs = grid_samples(cls.state_box, counts_state)
    ds = grid_samples(cls.input_box, counts_input)
    # state-major pairing: all input points for the first state point first
    x_rep = np.repeat(xs, ds.shape[0], axis=0)
    d_rep = np.tile(ds, (xs.shape[0], 1))
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        fx = cls.oracle.batch(x_rep, d_rep)
    bad = ~np.all(np.isfinite(fx), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DataFaultError(
            f"oracle returned a non-finite value at x={x_rep[i].tolist()}, d={d_rep[i].tolist()}"
        )
    theta = dispersion_of_grid(cls.joint_box, tuple(counts_state) + tuple(counts_input))
    return SampleSet(
        x=x_rep,
        d=d_rep,
        fx=fx,
        dispersion=theta,
        grid_spec=(tuple(int(c) for c in counts_state), tuple(int(c) for c in counts_input)),
    )


# ---------------------------------------------------------------------------
# CSV interchange so externally collected data can feed the pipeline
# ---------------------------------------------------------------------------


def sample_csv_header(state_dim: int, input_dim: int) -> list[str]:
    return (
        [f"x{k}" for k in range(state_dim)]
        + [f"d{k}" for k in range(input_dim)]
        + [f"fx{k}" for k in range(state_dim)]
    )


def csv_line(cells: Sequence[str]) -> str:
    """One CSV line of cells that need no quoting, ended as ``csv.writer``
    ends it by default."""
    return ",".join(cells) + _CSV_EOL


def _cell_strings(column: np.ndarray) -> list[str]:
    """The CSV cell of each entry of a 1-d int64 or float64 column: ``str``
    of an int, ``repr`` of a float.  Each distinct int64 bit pattern is
    formatted once, which keeps 0.0 apart from -0.0."""
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    if column.dtype == np.int64:
        strings = map(str, keys.tolist())
    else:
        strings = map(repr, keys.view(np.float64).tolist())
    return np.array(list(strings), dtype=object).take(inverse).tolist()


def write_csv_rows(fh, *columns: np.ndarray, lead: Optional[np.ndarray] = None) -> None:
    """Write one CSV row per row of the side-by-side float ``columns`` (1-d
    or 2-d arrays with a common row count) to ``fh``, a text handle opened
    with ``newline=""``: the integer columns of ``lead`` first when given,
    then each float as its ``repr``, so every value reads back exactly.

    The bytes are those of ``csv.writer(fh).writerow`` per row: its default
    line terminator is ``\\r\\n``, and neither the ``repr`` of a float nor
    the ``str`` of an int holds a comma, a quote, ``\\r`` or ``\\n``, so its
    ``QUOTE_MINIMAL`` quotes no cell.  Each block of ``_CSV_BLOCK`` rows is
    one ``fh.write``, which keeps the memory of a large table bounded, and
    each column is formatted once per distinct value in the block: grid
    columns repeat their values."""
    table = [np.asarray(c, np.float64) for c in columns]
    if lead is not None:
        table.insert(0, np.asarray(lead, np.int64))
    table = [c if c.ndim == 2 else c[:, None] for c in table]
    for start in range(0, table[0].shape[0], _CSV_BLOCK):
        stop = start + _CSV_BLOCK
        cells = [_cell_strings(c[start:stop, k]) for c in table for k in range(c.shape[1])]
        fh.write(_CSV_EOL.join(map(",".join, zip(*cells))) + _CSV_EOL)


def save_samples_csv(path, samples: SampleSet) -> None:
    n, p = samples.x.shape[1], samples.d.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(csv_line(sample_csv_header(n, p)))
        write_csv_rows(fh, samples.x, samples.d, samples.fx)


def load_samples_csv(
    path,
    state_dim: int,
    input_dim: int,
    joint_box: IntervalBox,
) -> SampleSet:
    """Read externally collected pairs; dispersion is estimated with
    ``dispersion_general`` since nothing guarantees the data form a grid.
    Every row must hold one finite number per header column.  A zero-width
    dimension of ``joint_box`` gets one probe (``dense_counts``), which adds
    nothing to the probe grid's half-diagonal."""
    expected = sample_csv_header(state_dim, input_dim)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh.readlines())
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFaultError(f"cannot read data CSV {path}: {exc}") from exc
    header = next(reader, None)
    if header != expected:
        raise DataFaultError(f"expected CSV header {expected}, got {header}")
    rows = []
    for row in filter(None, reader):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != len(expected) or not np.all(np.isfinite(values)):
            raise DataFaultError(
                f"{path} line {reader.line_num}: expected {len(expected)} finite "
                f"numbers, got {row}"
            )
        rows.append(values)
    if not rows:
        raise DataFaultError(f"no sample rows in {path}")
    data = np.array(rows, float)
    x = data[:, :state_dim]
    d = data[:, state_dim : state_dim + input_dim]
    fx = data[:, state_dim + input_dim :]
    per_dim = max(2, int(np.ceil(data.shape[0] ** (1.0 / joint_box.dim))) * 4)
    probe_counts = dense_counts(joint_box, (per_dim,) * joint_box.dim)
    theta = dispersion_general(joint_box, np.hstack([x, d]), probe_counts)
    return SampleSet(x=x, d=d, fx=fx, dispersion=theta, grid_spec=None)

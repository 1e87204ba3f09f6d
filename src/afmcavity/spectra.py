"""Forward synthesis of two-port transmission maps |S21(f, B)|².

The lineshape is the standard coupled-mode transmission of a driven damped
cavity hybridized with one damped magnon mode:

    S21(f, B) = κ_ext / ( i(f − f_c) + κ_tot/2 + G² / (i(f − f_m(B)) + γ_m/2) )

with every linewidth an FWHM in GHz and f_m(B) the lower (descending) magnon
branch, evaluated in real arithmetic (see ``_evaluate_s21``).  Maps carry
their own axes and a metadata record of the parameters used to synthesize
them; they are immutable after construction.

A map is computed, and its row extrema taken, one slab of rows per numpy
call (``_SLAB_CELLS``).  A map above 1 Mi cells does so in spans of rows over
a thread per CPU the process may run on (``taskset`` limits them), and its
noise is scaled in those threads while this one draws the next span; the
bits are the same for any CPU count, span and slab size (see ``_each_span``).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from itertools import chain, islice, pairwise, repeat
from pathlib import Path

import numpy as np

from . import core
from .core import CavityParams, CouplingParams, SpinSystemParams


@dataclass(frozen=True)
class LossParams:
    """FWHM linewidth in GHz of the magnon; the cavity's follow from :class:`CavityParams`."""

    magnon_linewidth: float = 0.035

    def __post_init__(self):
        core.checked("magnon_linewidth", self.magnon_linewidth, 0.0)


# cells of whole rows per ufunc call, in the kernel and the row extrema: 512 KiB, so the
# kernel's three slab-sized operands stay in a core's L2
_SLAB_CELLS = 1 << 16
_PARALLEL_CELLS = 1 << 20  # a map of more cells (8 MiB) fans out (_each_span)
_SPAN_CELLS = 1 << 22  # cells of a span of rows at most: 32 MiB
# add_noise's spans: 2 MiB, 18 rows of 14001, so that a span's draw overlaps the scaling of
# the one before; other spans stay large, as the pool holds the GIL for about 20 µs a span
_PIPELINE_CELLS = 1 << 18


def _workers() -> int:
    """The number of CPUs this process may run on (``taskset`` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _each_span(fn, n_rows: int, n_cols: int, first=None, span_cells=None) -> None:
    """Call ``fn(rows)`` on each ``slice`` of whole rows of an ``n_rows`` × ``n_cols`` map.

    There are about two spans per thread, of at most ``span_cells`` cells
    each (``_SPAN_CELLS`` by default; one row if a row is longer).  A map of
    more than ``_PARALLEL_CELLS`` cells runs ``fn`` on them in a pool of one
    thread per CPU, any other in order in this thread; spans write disjoint
    rows, so the bits do not depend on the CPU count.  ``first(rows)``, if
    given, runs in this thread, span by span in order, before its span's
    ``fn``, and waits while two spans per thread are in flight: ``fn`` on one
    span overlaps ``first`` on the next, and what ``first`` allocates stays
    bounded and comes from this thread's heap (glibc keeps what a pool
    thread allocates in that thread's own arena).  An exception of either
    reaches the caller after every thread has ended, and cancels the spans
    not started.
    """
    workers = _workers() if n_rows * n_cols > _PARALLEL_CELLS else 1
    step = max(1, min(-(-n_rows // (2 * workers)), (span_cells or _SPAN_CELLS) // max(n_cols, 1)))
    spans = [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]
    if workers == 1:
        for rows in spans:
            if first is not None:
                first(rows)
            fn(rows)
        return
    from concurrent.futures import ThreadPoolExecutor  # imported here: 3-5 ms of start-up

    with ThreadPoolExecutor(workers) as pool:
        try:
            futures = []
            for rows in spans:
                if first is not None:
                    if len(futures) >= 2 * workers:
                        futures[-2 * workers].result()
                    first(rows)
                futures.append(pool.submit(fn, rows))
            for future in futures:
                future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)  # leaving the block waits for the spans started
            raise


@dataclass(frozen=True, eq=False)
class TransmissionMap:
    """Linear power transmission on a rectangular (field, frequency) grid.

    ``values[i, j]`` is |S21|² at ``field_axis[i]``, ``freq_axis[j]``.  Axes
    are strictly increasing; values finite and non-negative.  The check's
    reductions are kept, read-only: ``_row_min`` and ``_row_max`` hold each
    field row's ``values.min(axis=1)`` and ``values.max(axis=1)``.
    """

    field_axis: np.ndarray  # tesla
    freq_axis: np.ndarray  # GHz
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    _row_min: np.ndarray = field(init=False, repr=False)
    _row_max: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        field_axis, freq_axis, values = map(_frozen, (self.field_axis, self.freq_axis, self.values))
        if field_axis.ndim != 1 or freq_axis.ndim != 1:
            raise ValueError("axes must be one-dimensional")
        if field_axis.size == 0 or freq_axis.size == 0:
            raise ValueError("axes must be non-empty")
        for name, axis in (("field_axis", field_axis), ("freq_axis", freq_axis)):
            core.checked(name, axis)
            if axis.size > 1 and not np.all(np.diff(axis) > 0):
                raise ValueError(f"{name} must be strictly increasing")
        if values.shape != (field_axis.size, freq_axis.size):
            raise ValueError(
                f"values shape {values.shape} does not match axes "
                f"({field_axis.size}, {freq_axis.size})"
            )
        row_min, row_max = np.empty(len(values)), np.empty(len(values))
        step = max(1, _SLAB_CELLS // freq_axis.size)

        def reduce_span(span):  # min() propagates NaN
            for start in range(span.start, span.stop, step):
                rows = slice(start, min(start + step, span.stop))
                values[rows].min(axis=1, out=row_min[rows])
                values[rows].max(axis=1, out=row_max[rows])

        _each_span(reduce_span, *values.shape)
        if not (row_min.min() >= 0.0 and row_max.max() < np.inf):
            core.checked("values", values, 0.0)  # names the first bad cell
        row_min.flags.writeable = row_max.flags.writeable = False
        for name, arr in (("field_axis", field_axis), ("freq_axis", freq_axis), ("values", values),
                          ("_row_min", row_min), ("_row_max", row_max)):
            object.__setattr__(self, name, arr)
        if self.metadata is None:
            object.__setattr__(self, "metadata", {})


def _frozen(values) -> np.ndarray:
    """A read-only float array: ``values`` itself if read-only and owning its data, else a copy."""
    arr = np.asarray(values, dtype=float)
    if arr.flags.writeable or not arr.flags.owndata:  # a read-only view sees its base's writes
        arr = arr.copy()  # leaves the caller's array writable and the copy unshared
        arr.flags.writeable = False
    return arr


def _evaluate_s21(freqs, f_magnon, big_g, cavity, loss) -> np.ndarray:
    """|S21|² in real arithmetic: row i at magnon frequency ``f_magnon[i]``, coupling ``big_g[i]``.

    With a = f − f_m, b = γ_m/2 and q = G²/(a² + b²), the magnon adds q·b to
    the cavity's half linewidth and shifts it by −q·a:

        |S21|² = κ_ext² / ((κ_tot/2 + q·b)² + (f − f_c − q·a)²)

    with κ_tot and κ_ext those of ``cavity``.  A scalar pair is one row.  Each
    ufunc call covers a slab of up to ``_SLAB_CELLS`` cells of whole rows: a is
    written into the slab's rows of the map, and q into a slab of scratch that
    the calling thread hands each span of rows (see ``_each_span``).  Every
    cell takes the same IEEE operations in the same order whatever the slab,
    so its bits do not depend on it.
    """
    freqs = np.asarray(freqs, dtype=float)
    f_magnon, big_g = np.atleast_1d(f_magnon, big_g)
    if f_magnon.shape != big_g.shape:
        raise ValueError(f"{f_magnon.size} magnon frequencies for {big_g.size} couplings")
    values = np.empty((f_magnon.size, freqs.size))
    kappa = cavity.total_linewidth
    kappa_ext2 = (cavity.external_coupling_fraction * kappa) ** 2
    b = 0.5 * loss.magnon_linewidth
    detuning = np.subtract(freqs, cavity.f_cavity)
    # each row's Python g**2 (libm's pow): numpy's square and power need not round as it does
    big_g2 = np.array([g**2 for g in big_g.tolist()], dtype=float)
    uncoupled = ~(big_g2 > 0)
    step = max(1, _SLAB_CELLS // max(freqs.size, 1))

    free, scratches = [], {}  # slabs of scratch: unused ones, and each span's by its first row
    slab_shape = (min(step, len(values)), freqs.size)

    def new_scratch(rows):  # in the calling thread (see _each_span), the one that takes from free
        scratches[rows.start] = free.pop() if free else np.empty(slab_shape)

    def fill_span(rows):
        scratch = scratches.pop(rows.start)
        with np.errstate(all="ignore"):  # per span: a pool thread starts from numpy's default
            for start in range(rows.start, rows.stop, step):
                slab = slice(start, min(start + step, rows.stop))
                out, q = values[slab], scratch[: slab.stop - slab.start]
                np.subtract(freqs, f_magnon[slab, None], out=out)  # a = f − f_m, into the map
                np.multiply(out, out, out=q)
                q += b * b
                np.divide(big_g2[slab, None], q, out=q)
                # uncoupled, even a lossless magnon on resonance leaves the bare cavity
                q[uncoupled[slab]] = 0.0
                out *= q
                np.subtract(detuning, out, out=out)
                out *= out
                q *= b
                q += 0.5 * kappa
                q *= q
                out += q
                np.divide(kappa_ext2, out, out=out)
                # ∞·0 and 0/0 arise only at the two zero limits: a lossless magnon on
                # resonance (q = G²/0) and a zero total denominator.  fmax maps NaN to 0.
                # An overflow to inf drives q to 0 (a magnon detuned out of reach) or |S21|² to 0.
                np.fmax(out, 0.0, out=out)
        free.append(scratch)

    _each_span(fill_span, *values.shape, first=new_scratch)
    return values


def s21_power(
    f: float,
    field: float,
    spins: SpinSystemParams,
    cavity: CavityParams,
    coupling: CouplingParams,
    loss: LossParams,
) -> float:
    """Linear power transmission at a single (frequency, field) point: the map's cell there.

    Past the spin-flop field the cavity is bare (see :func:`core.coupled_magnon`).
    """
    f = core.checked("f", f, 0.0, strict=True)
    field = core.checked("field", field, 0.0)
    f_m, big_g, _ = core.coupled_magnon(spins.f_afmr0, spins.g_factor, coupling.big_g, field)
    return float(_evaluate_s21([f], f_m, big_g, cavity, loss)[0, 0])


def synthesize_map(
    field_axis,
    freq_axis,
    spins: SpinSystemParams,
    cavity: CavityParams,
    coupling: CouplingParams,
    loss: LossParams,
) -> TransmissionMap:
    """Build the full |S21|² grid for a field sweep.

    Columns beyond the spin-flop field get the decoupled (G = 0) cavity
    response instead of an invalid magnon model (see
    :func:`core.coupled_magnon`); those field values are listed in the metadata.
    """
    field_axis = core.checked("field", field_axis, 0.0)
    freq_axis = core.checked("frequency", freq_axis, 0.0, strict=True)

    f_magnon, big_g, clamped = core.coupled_magnon(
        spins.f_afmr0, spins.g_factor, coupling.big_g, field_axis
    )
    values = _evaluate_s21(freq_axis, f_magnon, big_g, cavity, loss)
    values.flags.writeable = False  # handed over without a copy

    metadata = {
        "spins": asdict(spins),
        "cavity": asdict(cavity),
        "coupling": asdict(coupling),
        "loss": asdict(loss),
        "spin_flop_field": core.spin_flop_field(spins),
        "beyond_spin_flop_fields": field_axis[clamped].tolist(),
    }
    return TransmissionMap(field_axis, freq_axis, values, metadata)


def add_noise(tmap: TransmissionMap, sigma_db: float, seed: int) -> TransmissionMap:
    """Multiplicative log-normal noise: value -> value * 10^(n/10), n ~ N(0, sigma_db).

    dB-domain noise matches how a network analyzer measures and keeps the
    Lorentzian tails undistorted.  Deterministic for a fixed seed.

    This thread draws z ~ N(0, 1) into the noisy map one span of rows at a
    time, in row order, and each span is then scaled in place: on a map that
    fans out (see ``_each_span``), in a pool thread while this one draws the
    next span.  A generator's draws in pieces concatenate to its whole draw
    bit for bit, so the noise depends on neither the spans nor the threads.
    n = sigma_db·z differs from ``rng.normal(0, sigma_db)``'s 0 + sigma_db·z
    only in the sign of a zero, which 10^(n/10) = 1 hides.
    """
    sigma_db = core.checked("sigma_db", sigma_db, 0.0)
    rng = np.random.default_rng(seed)
    noisy = np.empty(tmap.values.shape)

    def draw(rows):
        rng.standard_normal(out=noisy[rows])

    def scale(rows):
        n = noisy[rows]
        # per span, as a pool thread starts from numpy's default: σ·z or a factor
        # 10^(n/10) past 1e308 fails the map check
        with np.errstate(over="ignore", invalid="ignore"):
            n *= sigma_db
            n /= 10.0
            np.power(10.0, n, out=n)
            n *= tmap.values[rows]

    _each_span(scale, *noisy.shape, first=draw, span_cells=_PIPELINE_CELLS)
    noisy.flags.writeable = False  # handed over without a copy
    metadata = {**tmap.metadata, "noise": {"sigma_db": sigma_db, "seed": int(seed)}}
    return TransmissionMap(tmap.field_axis, tmap.freq_axis, noisy, metadata)


@dataclass(frozen=True)
class VerticalCut:
    """Transmission vs field at one frequency sample of a map."""

    frequency: float  # actual grid frequency used, GHz
    fields: np.ndarray  # tesla
    powers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fields", _frozen(self.fields))
        object.__setattr__(self, "powers", _frozen(self.powers))

    def __iter__(self):
        return iter(zip(self.fields.tolist(), self.powers.tolist()))


def vertical_cut(tmap: TransmissionMap, f: float) -> VerticalCut:
    """Slice the map along field at the frequency sample nearest ``f``.

    ``f`` must lie inside the frequency axis range; the cut records the grid
    frequency actually used.
    """
    lo, hi = float(tmap.freq_axis[0]), float(tmap.freq_axis[-1])
    if not np.isfinite(f) or f < lo or f > hi:
        raise ValueError(
            f"frequency {f!r} GHz outside the map's axis range [{lo}, {hi}] GHz"
        )
    j = int(np.argmin(np.abs(tmap.freq_axis - f)))
    return VerticalCut(
        frequency=float(tmap.freq_axis[j]),
        fields=tmap.field_axis,
        powers=tmap.values[:, j],
    )


# --- serialization ---------------------------------------------------------

CSV_HEADER = "# field_T,freq_GHz,s21_linear"
CSV_HEADER_DB = "# field_T,freq_GHz,s21_db"


def _rows_text(rows) -> str:
    """The comma-joined ``rows`` of strings, each followed by a newline."""
    return "\n".join([*map(",".join, rows), ""])


def write_csv(header, columns, grid=()):
    """CSV text, yielded a block at a time: the ``header`` lines verbatim, then the
    columns' comma-joined rows.

    Columns hold Python floats, ints or strings; a float is written as its
    repr (``str`` of a Python float), so a read-back reproduces it bit for
    bit.  ``grid=(outer, inner)`` leads each row with its coordinates,
    outer-major; each axis value is formatted once, and each column holds one
    row of cells per outer value.  A block is the header, then the rows of one
    outer value, else of 4096 rows; a caller joins the blocks or writes them out.
    """
    yield "\n".join([*header, ""])
    if grid:
        outer, inner = ([str(v) for v in axis] for axis in grid)
        for key, *cells in zip(outer, *columns):
            yield _rows_text(zip(repeat(key), inner, *[map(str, c) for c in cells]))
    else:
        rows = zip(*[map(str, c) for c in columns])
        while block := _rows_text(islice(rows, 4096)):
            yield block


def write_json(obj) -> str:
    """JSON text of every file the package writes: sorted keys, 2-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_WINDOW = 1 << 20  # characters of text split into lines at a time


def _text_lines(text: str):
    """The lines of ``text.splitlines()``, split one window of about a MiB at a time.

    A window ends just after a newline, so no line break is cut in two.
    """
    cuts = [0]
    while cuts[-1] < len(text):  # a find of -1 (no newline left) makes the rest one window
        cuts.append(text.find("\n", cuts[-1] + _WINDOW) + 1 or len(text))
    return chain.from_iterable(text[a:b].splitlines() for a, b in pairwise(cuts))


def _data_lines(lines, start: int, last: list):
    """Each of ``lines``, numbered from file line ``start``, that is neither blank nor a
    ``#`` comment; ``last`` holds the number and text of the line read last."""
    for last[0], last[1] in enumerate(lines, start):
        if last[1].lstrip()[:1] not in ("", "#"):
            yield last[1]


def read_csv(lines, ncols: int, start: int) -> np.ndarray:
    """Parse rows of ``ncols`` comma-separated floats into an (n, ncols) array.

    ``lines`` is any iterable of a file's lines from line number ``start`` on;
    blank and ``#`` lines are skipped.  A malformed row raises ValueError
    naming its file line.
    """
    last = [start, ""]
    rows = _data_lines(lines, start, last)
    first = next(rows, None)
    if first is None:
        raise ValueError(f"line {start}: no data rows")
    if first.count(",") == ncols - 1:  # loadtxt holds every later row to the first
        try:
            return np.loadtxt(chain([first], rows), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    raise ValueError(f"line {last[0]}: expected {ncols} comma-separated numbers, got {last[1]!r}")


def map_to_csv(tmap: TransmissionMap, db: bool = False) -> str:
    """CSV text: one (field, freq, value) triple per line, field-major order.

    Floats are written with repr precision so a read-back reproduces the map
    bit for bit.  ``db=True`` writes 10*log10(values) instead; that format is
    for plotting and is not read back (zero transmission has no dB value).
    """
    values = tmap.values
    if db:
        with np.errstate(divide="ignore"):
            values = 10.0 * np.log10(values)
    grid = (tmap.field_axis.tolist(), tmap.freq_axis.tolist())
    header = [CSV_HEADER_DB if db else CSV_HEADER]
    return "".join(write_csv(header, [map(np.ndarray.tolist, values)], grid))


def map_from_csv(text: str) -> TransmissionMap:
    """Rebuild a map from ``map_to_csv`` output (linear format only).

    Raises ValueError naming the offending line, found by a second walk, on malformed input.
    """
    lines = _text_lines(text)
    if next(lines, "").strip() != CSV_HEADER:
        raise ValueError(f"line 1: expected header {CSV_HEADER!r}")
    data = read_csv(lines, 3, start=2)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1) | (data[:, 2] < 0))
    if bad.size:
        last = [1, ""]  # the header is a ``#`` line, so the walk may start at line 1
        next(islice(_data_lines(_text_lines(text), 1, last), int(bad[0]), None))
        raise ValueError(
            f"line {last[0]}: expected finite numbers and a transmission >= 0, got {last[1]!r}"
        )
    field_axis, i = np.unique(data[:, 0], return_inverse=True)
    freq_axis, j = np.unique(data[:, 1], return_inverse=True)
    values = np.full((field_axis.size, freq_axis.size), np.nan)
    values[i, j] = data[:, 2]
    values.flags.writeable = False  # handed over without a copy
    if data.shape[0] != values.size or np.any(np.isnan(values)):
        raise ValueError(
            f"line {sum(1 for _ in _text_lines(text))}: {data.shape[0]} rows do not form a "
            f"complete {field_axis.size} x {freq_axis.size} grid without duplicates"
        )
    return TransmissionMap(field_axis, freq_axis, values)


def sidecar_path(csv_path) -> Path:
    """The JSON metadata sidecar of a CSV map: same stem, ``.json`` suffix."""
    return Path(csv_path).with_suffix(".json")


def checked_map_path(csv_path) -> Path:
    """``csv_path`` as a Path, unless it names its own sidecar (a ``.json`` map): ValueError."""
    if sidecar_path(csv_path) == Path(csv_path):
        raise ValueError(f"map path {csv_path} would be overwritten by its own .json sidecar")
    return Path(csv_path)


def save_map(tmap: TransmissionMap, csv_path, db: bool = False) -> Path:
    """Write the CSV plus a JSON metadata sidecar with the same stem (not a ``.json`` CSV)."""
    csv_path = checked_map_path(csv_path)
    csv_path.write_text(map_to_csv(tmap, db=db))
    sidecar_path(csv_path).write_text(write_json(tmap.metadata))
    return csv_path


def load_map(csv_path) -> TransmissionMap:
    """Read a CSV map and, if present, its JSON sidecar; errors name the file at fault."""
    path = Path(csv_path)
    sidecar = sidecar_path(path)
    try:
        tmap = map_from_csv(path.read_text())
        path = sidecar
        metadata = json.loads(sidecar.read_text()) if sidecar.exists() else {}
        if not isinstance(metadata, dict):
            raise ValueError(f"expected a JSON object, got {type(metadata).__name__}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return TransmissionMap(tmap.field_axis, tmap.freq_axis, tmap.values, metadata)

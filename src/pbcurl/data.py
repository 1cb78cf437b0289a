"""Datasets: latent class models, tuple samplers, CSV and binary persistence.

A contrastive dataset is stored as one flat feature matrix plus integer index
arrays (anchor, positive block, negative blocks per tuple), so iid draws and
sequence-derived corpora share a layout. On disk (format v2) that is a JSON
manifest next to one file: a 16 byte header (magic ``PBCURLF1``, u32 row
count, u32 dim), the little-endian float64 matrix, then the anchor, positive
and negative arrays as little-endian int64. Indices are checked once, when a
ContrastiveDataset is built, so row gathers do not check them.

A labeled CSV written by save_labeled_csv gets a binary twin with the same
stem and a .bin suffix: a 48 byte header (magic ``PBCURLL1``, u32 row count,
u32 dim, the sha256 of the CSV bytes), the little-endian float64 matrix, then
the int64 labels. read_labeled_csv takes the twin only while it pins the
CSV's current bytes, so the CSV stays the source of truth.
"""

import functools
import hashlib
import json
import math
import mmap
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import bounds, network

MAGIC = b"PBCURLF1"
LABELED_MAGIC = b"PBCURLL1"

STD_FLOOR = 1e-8


class DataFormatError(ValueError):
    """Malformed dataset file or inconsistent manifest."""


def _column_sum(x, term):
    """np.add.reduce(terms, axis=0) of the terms of x's rows, in that reduce's
    order (row after row), network.CHUNK_ROWS rows at a time.

    term(rows, out) writes the terms of some rows into out. Each block's
    reduce starts from the running sum, staged as the block's first row; the
    sum starts at 0.0, as numpy's does (all -0.0 terms sum to 0.0).
    """
    total = np.zeros(x.shape[1])
    stage = np.empty((min(len(x), network.CHUNK_ROWS) + 1, x.shape[1]))
    for lo in range(0, len(x), network.CHUNK_ROWS):
        rows = x[lo:lo + network.CHUNK_ROWS]
        stage[0] = total
        term(rows, stage[1:len(rows) + 1])
        np.add.reduce(stage[:len(rows) + 1], axis=0, out=total)
    return total


@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray        # floored, safe to divide by

    def apply(self, x):
        return (x - self.mean) / self.std

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_data(cls, x):
        """np.mean(x, axis=0) and np.std(x, axis=0), floored, with their bits:
        two passes of _column_sum, so no temporary the size of x."""
        mean = _column_sum(x, lambda rows, out: np.copyto(out, rows)) / len(x)

        def square_deviation(rows, out):
            np.subtract(rows, mean, out=out)
            np.multiply(out, out, out=out)

        std = np.sqrt(_column_sum(x, square_deviation) / len(x))
        return cls(mean=mean, std=np.maximum(std, STD_FLOOR))

    @classmethod
    def from_dict(cls, doc):
        """to_dict's document; anything but finite mean and std > 0 of one length is an error."""
        try:
            mean, std = (np.asarray(doc[key], float) for key in ("mean", "std"))
        except (KeyError, TypeError, ValueError):
            mean = std = np.array(np.nan)
        finite = np.isfinite(mean).all() and np.isfinite(std).all()
        if mean.ndim != 1 or mean.shape != std.shape or not (finite and (std > 0).all()):
            raise DataFormatError("norm stats need mean and std: finite vectors of one length, "
                                  "std > 0")
        return cls(mean, std)


@dataclass
class LabeledDataset:
    x: np.ndarray          # (n, d)
    y: np.ndarray          # (n,) int labels

    def __len__(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]


class TupleBatch(tuple):
    """(anchor (n, d), pos (n, b, d), neg (n, k, b, d)) as views into rows.

    rows is the stacked (n (1 + b + k b), d) matrix: anchors, then positive
    blocks, then negative blocks, so one forward pass covers the batch. Axes
    before those two (a block of draws' outputs) lead every view too.
    """

    def __new__(cls, rows, n, k, block_size):
        *lead, _, d = rows.shape
        nb = n * block_size
        batch = super().__new__(cls, (
            rows[..., :n, :],
            rows[..., n:n + nb, :].reshape(*lead, n, block_size, d),
            rows[..., n + nb:, :].reshape(*lead, n, k, block_size, d),
        ))
        batch.rows = rows
        return batch

    @staticmethod
    def rows_per_tuple(k, block_size):
        """Stacked rows of one tuple: its anchor, positive block and k negative blocks."""
        return 1 + block_size * (1 + k)


def take_tuples(features, anchors, positives, negatives, out):
    """Stack the rows of features named by the tuple index arrays.

    The rows fill the leading rows of out in TupleBatch layout; returns the
    TupleBatch of views into them. The indices must be in range (every
    ContrastiveDataset's are): mode="clip" skips the check and buffered copy.
    """
    n, k, b = negatives.shape
    batch = TupleBatch(out[: n * TupleBatch.rows_per_tuple(k, b)], n, k, b)
    for part, idx in zip(batch, (anchors, positives, negatives)):
        np.take(features, idx, axis=0, out=part, mode="clip")
    return batch


def _index_views(flat, n, k, b):
    """[anchor (n,), positive (n, b), negative (n, k, b)] views of a flat index buffer."""
    nb = n * b
    return [flat[:n], flat[n : n + nb].reshape(n, b),
            flat[n + nb : n * TupleBatch.rows_per_tuple(k, b)].reshape(n, k, b)]


@dataclass
class ContrastiveDataset:
    """m tuples referencing rows of one feature matrix."""

    features: np.ndarray   # (rows, d)
    anchors: np.ndarray    # (m,)
    positives: np.ndarray  # (m, block_size)
    negatives: np.ndarray  # (m, k, block_size)
    k: int
    block_size: int
    dependency_t: int = 0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        # the one check of the tuple shape and indices: row gathers trust them from here on
        m, k, b, rows = self.anchors.size, self.k, self.block_size, self.features.shape[0]
        if not m:
            raise DataFormatError("the manifest holds no tuples")
        if k < 1 or b < 1:
            raise DataFormatError(f"k and block_size must be >= 1, got k = {k}, "
                                  f"block_size = {b}")
        for name, arr, shape in (("anchor", self.anchors, (m,)),
                                 ("positive", self.positives, (m, b)),
                                 ("negative", self.negatives, (m, k, b))):
            if arr.shape != shape:
                raise DataFormatError(f"{name} index shape mismatch: {arr.shape}, expected {shape}")
            if arr.size and (arr.min() < 0 or arr.max() >= rows):
                raise DataFormatError(f"{name} tuple index out of range [0, {rows})")
        if self.dependency_t < 0:
            raise DataFormatError(f"dependency_t must be >= 0, got {self.dependency_t}")

    def __len__(self):
        return self.anchors.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def index_buffers(self, n):
        """Anchor, positive and negative index arrays for n tuples, for gather.

        They are views of one flat buffer of row indices in TupleBatch layout.
        """
        parts = (self.anchors, self.positives, self.negatives)
        flat = np.empty(n * TupleBatch.rows_per_tuple(self.k, self.block_size),
                        dtype=np.result_type(*parts))
        return _index_views(flat, n, self.k, self.block_size)

    def gather(self, idx=None, out=None, index_out=None):
        """Materialise (anchor, positive, negative) arrays for tuple indices (default: all).

        The tuples' row indices go to index_out, the list index_buffers
        returned for at least len(idx) tuples (else new buffers). When it is
        for more, gather re-points its three views, in place, at the leading
        entries of its flat buffer. One np.take then stacks the rows, in
        TupleBatch layout, into the leading rows of out when given, else a new
        array. Returns a TupleBatch of views into them.
        """
        n, k, b = len(self) if idx is None else len(idx), self.k, self.block_size
        idx = np.arange(n) if idx is None else np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexError(f"tuple index out of range [0, {len(self)})")
        if index_out is None:
            index_out = self.index_buffers(n)
        elif len(index_out[0]) != n:
            index_out[:] = _index_views(index_out[0].base, n, k, b)
        # mode="clip" skips the range check and the buffered copy
        for part, buf in zip((self.anchors, self.positives, self.negatives), index_out):
            part.take(idx, axis=0, out=buf, mode="clip")
        rows = n * TupleBatch.rows_per_tuple(k, b)
        if out is None:
            out = np.empty((rows, self.dim), dtype=self.features.dtype)
        self.features.take(index_out[0].base[:rows], axis=0, out=out[:rows], mode="clip")
        return TupleBatch(out[:rows], n, k, b)


def concat_contrastive(a, b):
    """Stack two tuple sets (train + valid for pb runs), keeping a tau both record."""
    if a.k != b.k or a.block_size != b.block_size or a.dim != b.dim:
        raise ValueError("tuple shapes differ, cannot concatenate")
    off = a.features.shape[0]
    provenance = {"kind": "concat", "parts": [a.provenance, b.provenance]}
    if "tau" in a.provenance and a.provenance["tau"] == b.provenance.get("tau"):
        provenance["tau"] = a.provenance["tau"]
    return ContrastiveDataset(
        features=np.vstack([a.features, b.features]),
        anchors=np.concatenate([a.anchors, b.anchors + off]),
        positives=np.concatenate([a.positives, b.positives + off]),
        negatives=np.concatenate([a.negatives, b.negatives + off]),
        k=a.k,
        block_size=a.block_size,
        dependency_t=max(a.dependency_t, b.dependency_t),
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# latent class models


@dataclass
class LatentClassModel:
    """Mixture of spherical Gaussians N(means[c], std^2 I) with class frequencies rho."""

    rho: np.ndarray        # (C,)
    means: np.ndarray      # (C, d)
    std: float = 1.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if np.any(self.rho < 0) or abs(self.rho.sum() - 1.0) > 1e-9:
            raise ValueError("rho must be a probability vector")
        self.means = np.asarray(self.means, dtype=np.float64)

    @property
    def n_classes(self):
        return self.rho.size

    @property
    def dim(self):
        return self.means.shape[1]

    def sample_classes(self, shape, rng):
        return rng.choice(self.n_classes, size=shape, p=self.rho)

    def sample_points(self, classes, rng):
        """One draw from D_c for every entry of the integer array classes.

        The normals are drawn into the output, then scaled and shifted in
        place network.CHUNK_ROWS rows at a time, so no other array of the
        output's size is made.
        """
        classes = np.asarray(classes)
        out = rng.standard_normal(classes.shape + (self.dim,))
        rows, cls = out.reshape(-1, self.dim), classes.ravel()
        for lo in range(0, len(rows), network.CHUNK_ROWS):
            block = rows[lo:lo + network.CHUNK_ROWS]
            block *= self.std
            block += self.means[cls[lo:lo + network.CHUNK_ROWS]]
        return out


def random_gaussian_model(n_classes, dim, separation, std, rng):
    """Uniform class frequencies, means drawn from N(0, separation^2 I)."""
    means = separation * rng.standard_normal((n_classes, dim))
    return LatentClassModel(rho=np.full(n_classes, 1.0 / n_classes), means=means, std=std)


# ---------------------------------------------------------------------------
# samplers


def sample_contrastive_iid(model, m, k, block_size, rng):
    """Draw m tuples from the latent class generative process.

    Classes (c_pos, c_neg_1..k) are iid from rho; the anchor and the positive
    block come from D_{c_pos}, each negative block from its own D_{c_neg_i}.
    """
    b = block_size
    c_pos = model.sample_classes(m, rng)
    c_neg = model.sample_classes((m, k), rng)
    # the anchors, positive blocks and negative blocks in one draw: the
    # normals come in the same order as three draws of the three parts
    row_classes = np.concatenate([c_pos, np.repeat(c_pos, b), np.repeat(c_neg, b)])
    return ContrastiveDataset(
        features=model.sample_points(row_classes, rng),
        anchors=np.arange(m, dtype=np.int64),
        positives=np.arange(m, m + m * b, dtype=np.int64).reshape(m, b),
        negatives=np.arange(m + m * b, m + m * b + m * k * b, dtype=np.int64).reshape(m, k, b),
        k=k,
        block_size=b,
        dependency_t=0,
        provenance={
            "kind": "synthetic-iid",
            "rho": model.rho.tolist(),
            "tau": bounds.tau_collision(model.rho),
        },
    )


def sample_labeled(model, n, rng):
    y = model.sample_classes(n, rng)
    x = model.sample_points(y, rng)
    return LabeledDataset(x=x, y=y.astype(np.int64))


def build_iid_from_labeled(labeled, m, k, block_size, rng):
    """iid tuples drawn from an empirical labeled pool.

    Classes follow the label frequencies; anchor and block members are
    uniform draws with replacement over the class's rows, mirroring the
    latent class process with D_c replaced by the empirical conditional.
    """
    b = block_size
    classes, counts = np.unique(labeled.y, return_counts=True)
    rho = counts / counts.sum()
    pools = [np.nonzero(labeled.y == c)[0] for c in classes]

    c_pos = rng.choice(classes.size, size=m, p=rho)
    c_neg = rng.choice(classes.size, size=(m, k), p=rho)

    def draw_rows(class_idx):
        out = np.empty(class_idx.shape, dtype=np.int64)
        for ci in range(classes.size):
            sel = class_idx == ci
            n = int(sel.sum())
            if n:
                out[sel] = pools[ci][rng.integers(0, pools[ci].size, size=n)]
        return out

    return ContrastiveDataset(
        features=labeled.x,
        anchors=draw_rows(c_pos),
        positives=draw_rows(np.repeat(c_pos[:, None], b, axis=1)),
        negatives=draw_rows(np.repeat(c_neg[:, :, None], b, axis=2)),
        k=k,
        block_size=b,
        dependency_t=0,
        provenance={
            "kind": "labeled-iid",
            "rho": rho.tolist(),
            "tau": bounds.tau_collision(rho),
        },
    )


def gen_sequences(model, n_per_class, length, ar_coeff, rng):
    """Stationary AR(1) drift around each class mean.

    x_t = mean_c + u_t with u_t = phi u_{t-1} + sqrt(1 - phi^2) std eps_t, so
    consecutive frames are correlated but the marginal stays N(mean_c, std^2).
    Returns (list of (length, d) arrays, label list), grouped by class.
    """
    phi = float(ar_coeff)
    scale = np.sqrt(1.0 - phi * phi)
    seqs, labels = [], []
    for c in range(model.n_classes):
        # one draw per class is the per-sequence draws' stream, in their order
        u = rng.standard_normal((n_per_class, length, model.dim))
        for t in range(1, length):
            u[:, t] *= scale
            u[:, t] += phi * u[:, t - 1]
        seqs.extend(model.means[c] + model.std * u)
        labels.extend([c] * n_per_class)
    return seqs, labels


def build_noniid_from_sequences(sequences, labels, k, block_size, rng):
    """Tuples from time ordered sequences; dependency range T = block_size.

    Every position t with a full lookahead window yields one tuple: anchor
    x_t, positive block x_{t+1} .. x_{t+block_size}. Negative block classes
    are drawn iid from the empirical class frequencies, so a negative shares
    the anchor's class with probability tau; block members are uniform draws
    over that class's frames anywhere in the corpus, never from the anchor's
    own tuple window.
    """
    b = block_size
    labels = np.asarray(labels, dtype=np.int64)
    if len(sequences) != labels.size:
        raise ValueError("one label per sequence required")
    frames = [np.asarray(s, dtype=np.float64) for s in sequences]
    lengths = np.array([f.shape[0] for f in frames])
    if np.any(lengths < b + 1):
        raise ValueError(f"sequences must have at least block_size + 1 = {b + 1} frames")
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    features = np.vstack(frames)

    # np.unique without counts or an inverse imports numpy.ma (12-21 ms)
    classes, counts = np.unique(labels, return_counts=True)
    rho = counts / counts.sum()
    rows_by_class = {
        c: np.concatenate(
            [np.arange(offsets[i], offsets[i + 1]) for i in np.nonzero(labels == c)[0]]
        )
        for c in classes
    }

    # one tuple per position t < length - b of every sequence
    n_t = lengths - b
    seq_of_tuple = np.repeat(np.arange(len(frames)), n_t)
    t_of_tuple = np.arange(n_t.sum()) - np.repeat(np.cumsum(n_t) - n_t, n_t)
    anchors = offsets[seq_of_tuple] + t_of_tuple
    positives = anchors[:, None] + np.arange(1, b + 1)
    neg_classes = classes[rng.choice(classes.size, size=(len(anchors), k), p=rho)]

    negatives = np.empty((len(anchors), k, b), dtype=np.int64)
    for ci, c in enumerate(classes):
        pool = rows_by_class[c]
        sel = neg_classes == c
        n_draw = int(sel.sum()) * b
        if n_draw:
            negatives[sel] = pool[rng.integers(0, pool.size, size=(int(sel.sum()), b))]

    # forbid references into the anchor's own window [t, t + b]
    win_lo = anchors[:, None, None]
    bad = (negatives >= win_lo) & (negatives <= win_lo + b)
    while np.any(bad):
        idx = np.nonzero(bad)
        redraw_classes, which = np.unique(neg_classes[idx[0], idx[1]], return_inverse=True)
        for ci, c in enumerate(redraw_classes):
            pool = rows_by_class[c]
            sel = which == ci
            rows = pool[rng.integers(0, pool.size, size=int(sel.sum()))]
            flat = (idx[0][sel], idx[1][sel], idx[2][sel])
            negatives[flat] = rows
        bad = (negatives >= win_lo) & (negatives <= win_lo + b)

    return ContrastiveDataset(
        features=features,
        anchors=anchors,
        positives=positives,
        negatives=negatives,
        k=k,
        block_size=b,
        dependency_t=b,
        provenance={
            "kind": "sequences",
            "rho": rho.tolist(),
            "tau": bounds.tau_collision(rho),
            "n_sequences": len(frames),
        },
    )


# ---------------------------------------------------------------------------
# CSV ingestion: comma separated, no comments or quotes, empty lines skipped.
# A file is parsed by one np.loadtxt call; only a file numpy rejects, or one
# with a non-finite cell, is read again line by line to name the bad line.
# A labeled CSV whose binary twin pins its bytes is not parsed at all.

TWIN_HEADER = struct.Struct("<8sII32s")
# the CSV is hashed this many bytes at a time, so it is never held whole
HASH_READ_BYTES = 1 << 20


def _csv_lines(path):
    """(line number, cells) of every non-empty line of a CSV."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line:
                yield lineno, line.split(",")


def _check_csv_lines(path, labeled):
    """Raise the line-numbered DataFormatError of the first bad line, if any."""
    kind = "feature cell" if labeled else "cell"
    width = None
    for lineno, cells in _csv_lines(path):
        where = f"{path}:{lineno}"
        width = width or len(cells)
        if len(cells) != width:
            raise DataFormatError(f"{where}: expected {width} columns, got {len(cells)}")
        if labeled and width < 2:
            raise DataFormatError(f"{where}: need at least one feature column")
        features = cells[:-1] if labeled else cells
        try:
            finite = all(math.isfinite(float(c)) for c in features)
        except ValueError:
            raise DataFormatError(f"{where}: non-numeric {kind}") from None
        if not finite:
            raise DataFormatError(f"{where}: non-finite {kind}")
        if labeled:
            try:
                label = int(cells[-1])
            except ValueError:
                raise DataFormatError(f"{where}: label column must be integer") from None
            if not -(2**63) <= label < 2**63:
                raise DataFormatError(f"{where}: label outside the int64 range")


def _read_csv(path, labeled):
    """(features (n, d) float64, int64 labels or None) of a rectangular numeric CSV.

    With labeled set the last column is the label. The width is taken from the
    first non-empty line.
    """
    first = next(_csv_lines(path), None)
    if first is None:
        raise DataFormatError(f"{path}: empty {'file' if labeled else 'sequence'}")
    n_features = len(first[1]) - 1 if labeled else len(first[1])
    fields = [("x", np.float64, (n_features,))]
    if labeled:
        fields.append(("y", np.int64))
    problem = "need at least one feature column"
    if n_features:
        try:
            rows = np.loadtxt(path, dtype=fields, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            problem = str(exc)
        else:
            problem = None if np.isfinite(rows["x"]).all() else "non-finite cell"
    if problem:
        _check_csv_lines(path, labeled)
        raise DataFormatError(f"{path}: {problem}")
    return np.ascontiguousarray(rows["x"]), np.ascontiguousarray(rows["y"]) if labeled else None


def labeled_twin_path(path):
    """The binary twin save_labeled_csv writes next to the CSV at path."""
    return os.path.splitext(path)[0] + ".bin"


def _read_labeled_twin(path):
    """The twin's rows if it pins the CSV's current bytes, else None.

    The magic and the size are checked before the CSV is hashed, and the
    features must be finite, as the parse requires.
    """
    with open(labeled_twin_path(path), "rb") as fh:
        header = fh.read(TWIN_HEADER.size)
        if len(header) < TWIN_HEADER.size:
            return None
        magic, rows, dim, digest = TWIN_HEADER.unpack(header)
        size = TWIN_HEADER.size + 8 * rows * (dim + 1)
        if magic != LABELED_MAGIC or not rows or not dim or os.fstat(fh.fileno()).st_size != size:
            return None
        h = hashlib.sha256()
        with open(path, "rb") as csv_fh:
            while block := csv_fh.read(HASH_READ_BYTES):
                h.update(block)
        if h.digest() != digest:
            return None
        x = np.fromfile(fh, dtype="<f8", count=rows * dim).reshape(rows, dim)
        y = np.fromfile(fh, dtype="<i8", count=rows)
    if not np.isfinite(x).all():
        return None
    return LabeledDataset(x=x.astype(np.float64, copy=False), y=y.astype(np.int64, copy=False))


def read_labeled_csv(path):
    """A rectangular numeric CSV whose last column is an int64 label.

    Features must be finite floats. A bad file raises DataFormatError. The
    rows come from the binary twin when it pins the CSV's bytes; a twin that
    is missing, unreadable or fails a check is ignored and the CSV parsed.
    """
    try:
        twin = _read_labeled_twin(path)
    except OSError:
        twin = None
    if twin is not None:
        return twin
    x, y = _read_csv(path, labeled=True)
    return LabeledDataset(x=x, y=y)


def load_feature_csv(path, stats=None):
    """read_labeled_csv with the features normalised per dimension.

    With stats given they are applied (test data uses training statistics),
    otherwise statistics are computed from this file. Returns
    (LabeledDataset, NormStats).
    """
    raw = read_labeled_csv(path)
    if stats is None:
        stats = NormStats.from_data(raw.x)
    elif stats.mean.size != raw.dim:
        raise DataFormatError(f"{path}: {raw.dim} feature columns, norm stats for "
                              f"{stats.mean.size}")
    return LabeledDataset(x=stats.apply(raw.x), y=raw.y), stats


# the widest cells of a labeled CSV row: a float's repr has at most 24
# characters (-2.2250738585072014e-308), an int64 at most 20
# (-9223372036854775808). With a comma after each feature and the newline, a
# row of dim features takes at most dim * 25 + 21 bytes
CSV_FLOAT_BYTES = 24
CSV_LABEL_BYTES = 20


def _csv_block(rows, labels):
    """The CSV bytes of rows of Python floats and their Python int labels."""
    return "".join(",".join(map(repr, row)) + f",{label}\n"
                   for row, label in zip(rows, labels)).encode()


def save_labeled_csv(ds, path):
    """One row per point: its features in repr, then its integer label.

    Rows are formatted network.CHUNK_ROWS at a time as Python floats and ints,
    which print as repr(float(v)) and int(label) do. Each block is one job of
    network.run_jobs, which hands it to the first free worker. A block writes
    its bytes into its own region of one anonymous shared mmap and records
    their length. A region holds its rows at the widest a row can be,
    dim * (CSV_FLOAT_BYTES + 1) + CSV_LABEL_BYTES + 1 bytes each; text that
    would overflow it raises. Only once every worker is reaped is the CSV
    opened, and the regions are hashed and written in row order, so the bytes
    do not depend on which worker formatted a block or on the worker count.
    The whole text is thus in memory before it is written. The binary twin
    (labeled_twin_path) then pins those bytes by their sha256 and holds the
    same float64 rows and int64 labels.
    """
    twin = labeled_twin_path(path)
    if twin == os.fspath(path):
        raise ValueError(f"{path}: the twin would overwrite the CSV; name it other than .bin")
    x = np.ascontiguousarray(ds.x, dtype="<f8")
    y = np.ascontiguousarray(ds.y, dtype="<i8")
    n_rows, dim = x.shape
    row_bytes = dim * (CSV_FLOAT_BYTES + 1) + CSV_LABEL_BYTES + 1
    starts = range(0, n_rows, network.CHUNK_ROWS)
    # anonymous and shared: what a forked worker writes here, the caller reads
    text = mmap.mmap(-1, max(1, n_rows * row_bytes))
    lengths = network.shared_array(len(starts), np.int64)

    def job(b):
        lo = starts[b]
        hi = min(n_rows, lo + network.CHUNK_ROWS)
        block = _csv_block(x[lo:hi].tolist(), y[lo:hi].tolist())
        if len(block) > (hi - lo) * row_bytes:
            raise ValueError(f"{path}: rows {lo} to {hi - 1} overflow their region of "
                             f"{(hi - lo) * row_bytes} bytes")
        text[lo * row_bytes:lo * row_bytes + len(block)] = block
        lengths[b] = len(block)

    network.run_jobs([functools.partial(job, b) for b in range(len(starts))])
    h = hashlib.sha256()
    with open(path, "wb") as fh, memoryview(text) as view:
        for lo, length in zip(starts, lengths):
            region = view[lo * row_bytes:lo * row_bytes + length]
            h.update(region)
            fh.write(region)
    with open(twin, "wb") as fh:
        fh.write(TWIN_HEADER.pack(LABELED_MAGIC, *x.shape, h.digest()))
        fh.write(x)
        fh.write(y)


# ---------------------------------------------------------------------------
# binary file (header, feature matrix, index arrays) + JSON manifest

FORMAT = "pbcurl-contrastive-v2"
INDEX_ARRAYS = ("anchors", "positives", "negatives")


def _feature_header(features):
    return MAGIC + struct.pack("<II", *features.shape)


def dataset_hash(ds):
    """sha256 pinning the exact tuple set.

    The digest covers the serialized feature matrix (header included), then k,
    block_size and dependency_t, then the anchor, positive and negative index
    arrays, all little-endian 8 byte integers. Arrays already in that layout
    are hashed in place, so no serialized copy is made.
    """
    h = hashlib.sha256(_feature_header(ds.features))
    h.update(np.ascontiguousarray(ds.features, dtype="<f8"))
    h.update(struct.pack("<3q", ds.k, ds.block_size, ds.dependency_t))
    for idx in (ds.anchors, ds.positives, ds.negatives):
        h.update(np.ascontiguousarray(idx, dtype="<i8"))
    return h.hexdigest()


def save_contrastive(ds, json_path):
    """Write the manifest JSON and the sibling .bin: header, matrix, indices."""
    bin_path = os.path.splitext(json_path)[0] + ".bin"
    with open(bin_path, "wb") as fh:
        fh.write(_feature_header(ds.features))
        fh.write(np.ascontiguousarray(ds.features, dtype="<f8"))
        for name in INDEX_ARRAYS:
            fh.write(np.ascontiguousarray(getattr(ds, name), dtype="<i8"))
    doc = {
        "format": FORMAT,
        "data_file": os.path.basename(bin_path),
        "shapes": {name: list(getattr(ds, name).shape) for name in INDEX_ARRAYS},
        "k": int(ds.k),
        "block_size": int(ds.block_size),
        "dependency_t": int(ds.dependency_t),
        "n_tuples": len(ds),
        "provenance": ds.provenance,
    }
    with open(json_path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


# what each manifest entry load_contrastive reads must be. An integer is a
# JSON integer, not 2.0, "2" or true, which int() would take
_MANIFEST_VALUES = {
    "an integer": lambda v: type(v) is int,
    "a string": lambda v: type(v) is str,
    "an object": lambda v: type(v) is dict,
    "an array of integers >= 0": lambda v: (type(v) is list
                                            and all(type(n) is int and n >= 0 for n in v)),
}


def _manifest_entry(json_path, doc, key, what, name=None):
    """doc[key] if it is what _MANIFEST_VALUES says, else DataFormatError naming it."""
    name = name or key
    if key not in doc:
        raise DataFormatError(f"{json_path}: manifest has no {name!r} entry")
    if not _MANIFEST_VALUES[what](doc[key]):
        raise DataFormatError(f"{json_path}: manifest entry {name!r} must be {what}, "
                              f"got {doc[key]!r}")
    return doc[key]


def load_contrastive(json_path):
    with open(json_path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{json_path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{json_path}: a manifest must be a JSON object")
    if doc.get("format") == "pbcurl-contrastive-v1":
        raise DataFormatError(f"{json_path}: dataset format v1 is no longer read; re-run "
                              "gen-data with the same config and seed to write v2")
    if doc.get("format") != FORMAT:
        raise DataFormatError(f"{json_path}: not a contrastive dataset manifest")
    bin_path = os.path.join(os.path.dirname(json_path),
                            _manifest_entry(json_path, doc, "data_file", "a string"))
    shape_doc = _manifest_entry(json_path, doc, "shapes", "an object")
    shapes = [tuple(_manifest_entry(json_path, shape_doc, name, "an array of integers >= 0",
                                    f"shapes.{name}")) for name in INDEX_ARRAYS]
    k, block_size, dependency_t = (_manifest_entry(json_path, doc, key, "an integer")
                                   for key in ("k", "block_size", "dependency_t"))
    provenance = (_manifest_entry(json_path, doc, "provenance", "an object")
                  if "provenance" in doc else {})
    sizes = [math.prod(shape) for shape in shapes]
    with open(bin_path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:8] != MAGIC:
            raise DataFormatError(f"{bin_path}: bad magic, not a feature matrix")
        rows, dim = struct.unpack("<II", header[8:16])
        expect, found = 16 + 8 * (rows * dim + sum(sizes)), os.fstat(fh.fileno()).st_size
        if found != expect:
            raise DataFormatError(f"{bin_path}: expected {expect} bytes, found {found}")
        # straight from the file into the arrays: the payload is held once
        features = np.fromfile(fh, dtype="<f8", count=rows * dim).reshape(rows, dim)
        index = np.fromfile(fh, dtype="<i8", count=sum(sizes)).astype(np.int64, copy=False)
    parts = np.split(index, np.cumsum(sizes)[:-1])
    try:
        return ContrastiveDataset(
            features.astype(np.float64, copy=False),      # native byte order
            *(part.reshape(shape) for part, shape in zip(parts, shapes)),
            k=k, block_size=block_size, dependency_t=dependency_t,
            provenance=provenance,
        )
    except DataFormatError as exc:
        raise DataFormatError(f"{json_path}: {exc}") from None


# ---------------------------------------------------------------------------
# sequence corpus ingestion (per class CSV files of frames)


def load_sequence_csv(path):
    """Frames of one sequence: rectangular numeric CSV of finite floats, no label."""
    return _read_csv(path, labeled=False)[0]


def prep_sequence_corpus(manifest, first_steps, train_per_class, valid_per_class=0):
    """Slice and split a corpus of per class sequence files.

    manifest maps class id -> list of CSV paths. Each sequence is truncated
    to its first first_steps frames (shorter sequences are rejected). Per
    class, the first train_per_class files are training files, of which the
    last valid_per_class go to the validation split, and the rest go to the
    test split. Returns {"train", "valid", "test"} -> (sequences, labels).
    """
    if not 0 <= valid_per_class < train_per_class:
        raise ValueError("valid_per_class must lie in [0, train_per_class)")
    splits = {name: ([], []) for name in ("train", "valid", "test")}
    for label in sorted(manifest, key=int):
        paths = manifest[label]
        if len(paths) <= train_per_class:
            raise DataFormatError(
                f"class {label}: need more than {train_per_class} sequences to split"
            )
        for i, p in enumerate(paths):
            seq = load_sequence_csv(p)
            if seq.shape[0] < first_steps:
                raise DataFormatError(
                    f"{p}: sequence has {seq.shape[0]} frames, need {first_steps}"
                )
            name = ("train" if i < train_per_class - valid_per_class
                    else "valid" if i < train_per_class else "test")
            splits[name][0].append(seq[:first_steps])
            splits[name][1].append(int(label))
    return splits


def frames_as_labeled(sequences, labels):
    """Every frame of every sequence, labeled by its sequence's class."""
    x = np.vstack([np.asarray(s, dtype=np.float64) for s in sequences])
    y = np.concatenate(
        [np.full(len(s), lab, dtype=np.int64) for s, lab in zip(sequences, labels)]
    )
    return LabeledDataset(x=x, y=y)

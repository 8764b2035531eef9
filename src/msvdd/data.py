"""Dataset generation, libSVM parsing, feature scaling, and splitting.

Everything here is a pure function of its inputs and seed, so datasets are
bit-reproducible.  Labels follow two conventions depending on origin:
generated and split datasets carry 0/1 outlier flags, freshly parsed libSVM
files carry the raw integer class labels until a split protocol designates
regular and anomalous classes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    COUNT, FRACTION, NOISE_LEVEL, POSITIVE, SPLIT_FRACTIONS, InputError, ParseError, checked,
    each,
)

CLUSTER_CENTERS = np.array([[-2.0, -2.0], [2.0, 2.0]])
CLUSTER_SIGMAS = (0.5, 0.6)
SPLIT_NAMES = ("train", "val", "test")
# anomalies are drawn on an annulus around a cluster center, between these
# multiples of that cluster's sigma: close to, but clearly outside, the mode
ANNULUS = (3.0, 5.0)


@dataclass
class Dataset:
    points: np.ndarray
    labels: np.ndarray | None = None
    split: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.size != self.points.shape[0]:
                raise InputError("label vector length must match the point count")
        if self.split is not None:
            self.split = np.asarray(self.split, dtype=object)
            if self.split.size != self.points.shape[0]:
                raise InputError("split vector length must match the point count")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def subset(self, split_name: str) -> "Dataset":
        if self.split is None:
            raise InputError("dataset has no split tags")
        mask = self.split == split_name
        labels = None if self.labels is None else self.labels[mask]
        return Dataset(self.points[mask], labels, self.split[mask])


@dataclass(frozen=True)
class SyntheticSpec:
    n_train: int
    n_val: int
    n_test: int
    noise_level: float
    cluster_sigmas: tuple[float, float] = CLUSTER_SIGMAS
    seed: int = 0

    def __post_init__(self):
        for name, rule in (("n_train", COUNT), ("n_val", COUNT), ("n_test", COUNT),
                           ("noise_level", NOISE_LEVEL),
                           ("cluster_sigmas", each(POSITIVE, len(CLUSTER_SIGMAS)))):
            checked(name, getattr(self, name), *rule)


def anomaly_count(noise_level: float, count: int) -> int:
    """Anomalous points in a synthetic split of ``count`` points."""
    return int(round(noise_level * count))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Two planar Gaussian modes plus annulus anomalies, in three tagged splits.

    Per split, round(noise_level * count) points (`anomaly_count`) are
    anomalous: placed at a uniform angle and a uniform radius in [3 sigma,
    5 sigma] around a uniformly chosen cluster center, so every anomaly sits
    at least 3 sigma out.  Rows are regular points first, anomalies after.
    """
    rng = np.random.default_rng(spec.seed)
    sigmas = np.asarray(spec.cluster_sigmas)
    pts, labels, tags = [], [], []
    for name, count in zip(SPLIT_NAMES, (spec.n_train, spec.n_val, spec.n_test)):
        n_out = anomaly_count(spec.noise_level, count)
        n_reg = count - n_out
        which = rng.integers(0, 2, size=n_reg)
        reg = CLUSTER_CENTERS[which] + sigmas[which, None] * rng.standard_normal((n_reg, 2))
        k = rng.integers(0, 2, size=n_out)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n_out)
        radius = rng.uniform(ANNULUS[0] * sigmas[k], ANNULUS[1] * sigmas[k])
        anom = CLUSTER_CENTERS[k] + radius[:, None] * np.stack(
            [np.cos(theta), np.sin(theta)], axis=1
        )
        pts.append(np.vstack([reg, anom]))
        labels.append(np.r_[np.zeros(n_reg, int), np.ones(n_out, int)])
        tags.extend([name] * count)
    return Dataset(np.vstack(pts), np.concatenate(labels), np.array(tags, dtype=object))


def parse_libsvm(text: str) -> Dataset:
    """Parse sparse 'label idx:val ...' lines (1-based indices) into dense rows.

    Absent indices are zero, and feature indices must be strictly increasing
    within a line.  Malformed input, including NaN or infinite values, raises
    with the line number.  Class labels are kept as raw integers.
    """
    rows: list[dict[int, float]] = []
    labels: list[int] = []
    max_idx = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label_val = float(tokens[0])
        except ValueError:
            raise ParseError(f"unparseable label {tokens[0]!r}", line=lineno)
        if not math.isfinite(label_val) or label_val != int(label_val):
            raise ParseError(f"non-integer class label {tokens[0]!r}", line=lineno)
        feats: dict[int, float] = {}
        prev_idx = 0
        for tok in tokens[1:]:
            part = tok.split(":")
            if len(part) != 2:
                raise ParseError(f"malformed feature token {tok!r}", line=lineno)
            try:
                idx = int(part[0])
                val = float(part[1])
            except ValueError:
                raise ParseError(f"malformed feature token {tok!r}", line=lineno)
            if not math.isfinite(val):
                raise ParseError(f"non-finite feature value {tok!r}", line=lineno)
            if idx < 1:
                raise ParseError(f"feature index {idx} must be >= 1", line=lineno)
            if idx <= prev_idx:
                raise ParseError(
                    f"feature index {idx} not increasing (previous {prev_idx})",
                    line=lineno,
                )
            feats[idx] = val
            prev_idx = idx
            max_idx = max(max_idx, idx)
        rows.append(feats)
        labels.append(int(label_val))
    points = np.zeros((len(rows), max_idx))
    for r, feats in enumerate(rows):
        for idx, val in feats.items():
            points[r, idx - 1] = val
    return Dataset(points, np.array(labels, int))


def scale_to_unit_box(train: Dataset, others=()) -> tuple[Dataset, ...]:
    """Scale features to [-1, 1] using ranges fitted on the training set only.

    The identical affine map, sending each training (min, max) to (-1, 1), is
    applied to the other datasets; values outside the training range
    extrapolate past +-1 (no clipping), and constant features map to 0.
    """
    if train.n == 0:
        raise InputError("cannot fit a scaler on an empty dataset")
    lo, span = train.points.min(axis=0), np.ptp(train.points, axis=0)
    safe = np.where(span == 0.0, 1.0, span)

    def remap(ds: Dataset) -> Dataset:
        scaled = np.where(span == 0.0, 0.0, -1.0 + 2.0 * (ds.points - lo) / safe)
        return Dataset(scaled, ds.labels, ds.split)

    return (remap(train),) + tuple(remap(ds) for ds in others)


def split_real(
    dataset: Dataset,
    fractions=(0.3, 0.2, 0.5),
    anomaly_classes=(),
    anomaly_fraction: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Shuffle the regular classes into train/val/test and append anomalies.

    Points whose raw class label is in ``anomaly_classes`` form the anomaly
    pool; the rest are regular.  Each split receives
    round(anomaly_fraction * regular split size) pool points, drawn without
    replacement; ``anomaly_fraction`` must lie in (0, 1].  Output labels are
    0/1 outlier flags.
    """
    if dataset.labels is None:
        raise InputError("split_real needs raw class labels")
    checked("fractions", fractions, *SPLIT_FRACTIONS)
    checked("anomaly_fraction", anomaly_fraction, *FRACTION)
    anomaly_classes = set(int(c) for c in anomaly_classes)
    rng = np.random.default_rng(seed)
    is_anom = np.isin(dataset.labels, sorted(anomaly_classes))
    reg_idx = np.flatnonzero(~is_anom)
    pool = np.flatnonzero(is_anom)
    if reg_idx.size == 0:
        raise InputError("no regular points left after removing anomaly classes")
    reg_idx = rng.permutation(reg_idx)
    pool = rng.permutation(pool)

    n_reg = reg_idx.size
    n_tr = int(round(fractions[0] * n_reg))
    n_val = int(round(fractions[1] * n_reg))
    sizes = (n_tr, n_val, n_reg - n_tr - n_val)
    needed = sum(int(round(anomaly_fraction * s)) for s in sizes)
    if needed > pool.size:
        raise InputError(
            f"anomaly pool has {pool.size} points, protocol needs {needed}"
        )

    pts, labels, tags = [], [], []
    reg_cursor = pool_cursor = 0
    for name, size in zip(SPLIT_NAMES, sizes):
        take_reg = reg_idx[reg_cursor : reg_cursor + size]
        reg_cursor += size
        n_anom = int(round(anomaly_fraction * size))
        take_anom = pool[pool_cursor : pool_cursor + n_anom]
        pool_cursor += n_anom
        pts.append(dataset.points[take_reg])
        pts.append(dataset.points[take_anom])
        labels.append(np.zeros(size, int))
        labels.append(np.ones(n_anom, int))
        tags.extend([name] * (size + n_anom))
    return Dataset(np.vstack(pts), np.concatenate(labels), np.array(tags, dtype=object))


def write_dataset_csv(dataset: Dataset, path):
    """Columns x1..xd, label, split (empty cells where absent)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{j + 1}" for j in range(dataset.d)] + ["label", "split"]
        )
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.points[i]]
            row.append("" if dataset.labels is None else str(int(dataset.labels[i])))
            row.append("" if dataset.split is None else str(dataset.split[i]))
            writer.writerow(row)


def read_dataset_csv(path) -> Dataset:
    """Inverse of `write_dataset_csv`.  Malformed input (no coordinate columns or
    data rows, a row of the wrong width, a non-numeric or non-finite coordinate,
    a non-integer label) raises with the line number."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[-2:] != ["label", "split"]:
            raise ParseError("expected trailing 'label,split' columns", line=1)
        d = len(header) - 2
        if d == 0:
            raise ParseError("no coordinate columns", line=1)
        pts, labels, tags = [], [], []
        for row in reader:
            line = reader.line_num
            if len(row) != d + 2:
                raise ParseError(f"expected {d + 2} fields, got {len(row)}", line=line)
            *coords, label, tag = row
            try:
                pts.append([float(v) for v in coords])
                labels.append(None if label == "" else int(label))
            except ValueError as exc:
                raise ParseError(str(exc), line=line)
            if not all(math.isfinite(v) for v in pts[-1]):
                raise ParseError(f"non-finite coordinate in {coords}", line=line)
            tags.append(None if tag == "" else tag)
    if not pts:
        raise ParseError("no data rows", line=1)
    has_labels = any(v is not None for v in labels)
    has_tags = any(v is not None for v in tags)
    return Dataset(
        np.array(pts, dtype=float),
        np.array([0 if v is None else v for v in labels], int) if has_labels else None,
        np.array(tags, dtype=object) if has_tags else None,
    )

"""Dataset ingestion, encoding, standardization and the binary-task view.

Supported input formats are KEEL ``.dat`` files and header-carrying CSV.
Parsing keeps categorical cells as raw strings; :func:`encode_categoricals`
turns them into integer codes (first-occurrence order) so that every
downstream consumer sees a plain float matrix.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, ParameterError

_KEEL_NUMERIC_TYPES = {"real", "integer", "numeric"}
_MISSING_TOKENS = {"?", "<null>", ""}


@dataclass(frozen=True)
class FeatureMeta:
    """Descriptor for one feature column."""

    name: str
    kind: str  # "numeric" | "categorical"
    categories: dict[str, int] | None = None  # observed-value codes, set by encoding
    allowed: tuple[str, ...] | None = None  # declared value set (KEEL header)
    range: tuple[float, float] | None = None  # declared numeric range (KEEL header)


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with per-sample labels and per-feature metadata.

    ``features`` has dtype float64 once every categorical feature has been
    encoded; until then it is an object array holding raw string cells for
    the categorical columns.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_meta: tuple[FeatureMeta, ...]
    label_name: str = "class"

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != len(self.labels):
            raise ValueError(
                f"{self.features.shape[0]} feature rows vs {len(self.labels)} labels"
            )
        if self.features.shape[1] != len(self.feature_meta):
            raise ValueError("feature_meta length must match feature columns")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    @property
    def is_encoded(self) -> bool:
        return self.features.dtype == np.float64


@dataclass(frozen=True)
class BinaryTask:
    """A two-class view: majority points, minority points, and their labels.

    ``majority_indices`` / ``minority_indices`` map rows back into the source
    dataset when the task was produced by :func:`split_binary`; resampled
    tasks may drop them.
    """

    majority: np.ndarray
    minority: np.ndarray
    minority_label: str = "positive"
    majority_label: str = "negative"
    majority_indices: np.ndarray | None = None
    minority_indices: np.ndarray | None = None

    def __post_init__(self):
        if self.majority.ndim != 2 or self.minority.ndim != 2:
            raise ValueError("majority and minority must be 2-D point sets")
        if self.majority.shape[1] != self.minority.shape[1]:
            raise ValueError("majority and minority dimensionality differ")

    @property
    def n_majority(self) -> int:
        return len(self.majority)

    @property
    def n_minority(self) -> int:
        return len(self.minority)

    @property
    def m(self) -> int:
        return self.majority.shape[1]


@dataclass(frozen=True)
class DatasetStats:
    """Summary row for a binary imbalanced dataset."""

    ir: float
    samples: int
    features: int
    type_proportions: dict[str, float]

    def __post_init__(self):
        if self.ir < 1.0:
            raise ValueError("imbalance ratio must be >= 1")
        total = sum(self.type_proportions.values())
        if abs(total - 100.0) > 1e-6:
            raise ValueError(f"type proportions sum to {total}, expected 100")


# ---------------------------------------------------------------------------
# Parsing


def _coerce_numeric(token, line_no):
    if token in _MISSING_TOKENS:
        raise FormatError(f"missing value {token!r} is not supported", line=line_no)
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"expected a number, got {token!r}", line=line_no) from None
    if not math.isfinite(value):
        raise FormatError(f"non-finite value {token!r}", line=line_no)
    return value


def parse_keel(text) -> Dataset:
    """Parse a KEEL-format dataset.

    Accepts a string or a text file object.  The declared output attribute
    (``@outputs``, defaulting to the last declared attribute) becomes the
    label column.  Raises :class:`FormatError` with a 1-based line number on
    malformed headers, row arity mismatches, unknown categorical values and
    missing ``@data`` markers.
    """
    if hasattr(text, "read"):
        text = text.read()
    lines = text.splitlines()

    attr_names: list[str] = []
    attr_meta: dict[str, FeatureMeta] = {}
    outputs: list[str] | None = None
    data_start = None

    attr_re = re.compile(r"@attribute\s+(\S+)\s*(.*)$", re.IGNORECASE)
    for idx, raw in enumerate(lines):
        line = raw.strip()
        no = idx + 1
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()
        if lowered.startswith("@relation"):
            continue
        if lowered.startswith("@attribute"):
            match = attr_re.match(line)
            if not match:
                raise FormatError("malformed @attribute declaration", line=no)
            name, rest = match.group(1), match.group(2).strip()
            if name in attr_meta:
                raise FormatError(f"duplicate attribute {name!r}", line=no)
            if rest.startswith("{"):
                if not rest.endswith("}"):
                    raise FormatError("unterminated categorical value set", line=no)
                values = tuple(v.strip() for v in rest[1:-1].split(","))
                if any(not v for v in values):
                    raise FormatError("empty categorical value", line=no)
                meta = FeatureMeta(name, "categorical", allowed=values)
            else:
                type_match = re.match(r"(\w+)\s*(\[.*\])?\s*$", rest)
                if not type_match or type_match.group(1).lower() not in _KEEL_NUMERIC_TYPES:
                    raise FormatError(f"unsupported attribute type {rest!r}", line=no)
                rng = None
                if type_match.group(2):
                    bounds = type_match.group(2).strip("[]").split(",")
                    try:
                        lo, hi = (float(b) for b in bounds)
                    except ValueError:
                        raise FormatError("malformed numeric range", line=no) from None
                    if not (np.isfinite([lo, hi]).all() and lo <= hi):
                        raise FormatError(
                            f"numeric range [{lo}, {hi}] must be finite with low <= high",
                            line=no,
                        )
                    rng = (lo, hi)
                meta = FeatureMeta(name, "numeric", range=rng)
            attr_names.append(name)
            attr_meta[name] = meta
        elif lowered.startswith("@inputs"):
            continue  # attribute order is taken from the declarations
        elif lowered.startswith("@outputs") or lowered.startswith("@output"):
            names = line.split(None, 1)
            outputs = [v.strip() for v in names[1].split(",")] if len(names) > 1 else []
        elif lowered.startswith("@data"):
            data_start = idx + 1
            break
        else:
            raise FormatError(f"unrecognized header line {line!r}", line=no)

    if data_start is None:
        raise FormatError("missing @data section")
    if not attr_names:
        raise FormatError("no attributes declared before @data", line=data_start)

    if outputs is None:
        outputs = [attr_names[-1]]
    if len(outputs) != 1:
        raise FormatError("exactly one output attribute is supported")
    label_attr = outputs[0]
    if label_attr not in attr_meta:
        raise FormatError(f"output attribute {label_attr!r} was never declared")

    def data_rows():
        for no, raw in enumerate(lines[data_start:], start=data_start + 1):
            line = raw.strip()
            if line and not line.startswith("%"):
                yield no, [t.strip() for t in line.split(",")]

    metas = [attr_meta[n] for n in attr_names]
    return _read_rows(data_rows(), metas, attr_names.index(label_attr))


def _read_rows(rows, metas, label_pos) -> Dataset:
    """Build a dataset from ``(line number, tokens)`` data rows.

    ``metas`` holds one descriptor per column; the one at ``label_pos`` is
    the label's.  Cells are checked in column order, so an error names the
    first bad cell of its line: a column with declared values must hold one
    of them, a numeric feature a finite number, any other feature a value
    that is not missing.
    """
    features: list[list[object]] = []
    labels: list[str] = []
    for line_no, tokens in rows:
        if len(tokens) != len(metas):
            raise FormatError(
                f"row has {len(tokens)} values, expected {len(metas)}", line=line_no
            )
        cells: list[object] = []
        for pos, (token, meta) in enumerate(zip(tokens, metas)):
            if meta.allowed is not None and token not in meta.allowed:
                raise FormatError(
                    f"unknown categorical value {token!r} for attribute {meta.name!r}",
                    line=line_no,
                )
            if pos == label_pos:
                labels.append(token)
            elif meta.kind == "numeric":
                cells.append(_coerce_numeric(token, line_no))
            elif meta.allowed is None and token in _MISSING_TOKENS:
                raise FormatError(f"missing value {token!r} is not supported", line=line_no)
            else:
                cells.append(token)
        features.append(cells)
    if not features:
        raise FormatError("no data rows")

    feature_meta = tuple(metas[:label_pos] + metas[label_pos + 1:])
    numeric = all(m.kind == "numeric" for m in feature_meta)
    return Dataset(
        features=np.array(features, dtype=np.float64 if numeric else object).reshape(
            len(features), len(feature_meta)
        ),
        labels=np.array(labels, dtype=object),
        feature_meta=feature_meta,
        label_name=metas[label_pos].name,
    )


def parse_csv(text, label_column=-1) -> Dataset:
    """Parse an RFC-4180-style CSV with a header row.

    ``label_column`` names the label column (string) or indexes it (int,
    negative allowed).  Columns where every cell parses as a float become
    numeric features; all other columns are categorical.
    """
    if hasattr(text, "read"):
        text = text.read()
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty input") from None
    header = [h.strip() for h in header]

    raw_rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(
                f"row has {len(row)} values, expected {len(header)}", line=line_no
            )
        raw_rows.append((line_no, [t.strip() for t in row]))
    if not raw_rows:
        raise FormatError("no data rows")

    if isinstance(label_column, int):
        if not -len(header) <= label_column < len(header):
            raise ParameterError(f"label column index {label_column} out of range")
        label_pos = label_column % len(header)
    else:
        if label_column not in header:
            raise ParameterError(f"label column {label_column!r} not found in header")
        label_pos = header.index(label_column)

    def looks_numeric(pos):
        for _, row in raw_rows:
            token = row[pos]
            if token in _MISSING_TOKENS:
                return False
            try:
                float(token)
            except ValueError:
                return False
        return True

    metas = [
        FeatureMeta(name, "numeric" if pos != label_pos and looks_numeric(pos) else "categorical")
        for pos, name in enumerate(header)
    ]
    return _read_rows(raw_rows, metas, label_pos)


# ---------------------------------------------------------------------------
# Encoding and serialization


def encode_categoricals(d: Dataset) -> Dataset:
    """Replace every categorical feature by integer codes.

    Codes are assigned in first-occurrence order (top to bottom of the file),
    independently per feature.  Numeric features pass through unchanged.
    """
    if d.is_encoded:
        return d
    matrix = np.empty(d.features.shape, dtype=np.float64)
    new_meta = []
    for j, meta in enumerate(d.feature_meta):
        col = d.features[:, j]
        if meta.kind == "numeric":
            matrix[:, j] = col.astype(np.float64)
            new_meta.append(meta)
            continue
        codes = {value: code for code, value in enumerate(dict.fromkeys(col))}
        matrix[:, j] = [codes[v] for v in col]
        new_meta.append(replace(meta, categories=codes))
    if not np.all(np.isfinite(matrix)):
        raise ValueError("encoded matrix contains non-finite cells")
    return replace(d, features=matrix, feature_meta=tuple(new_meta))


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def serialize_csv(d: Dataset) -> str:
    """Emit the dataset as CSV with 17-significant-digit numerics."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([m.name for m in d.feature_meta] + [d.label_name])
    for i in range(d.n):
        writer.writerow([_format_cell(v) for v in d.features[i]] + [str(d.labels[i])])
    return out.getvalue()


def serialize_keel(d: Dataset, relation="dataset") -> str:
    """Emit the dataset as a KEEL file; label declared as the output attribute.

    Raises ParameterError for what a KEEL reader cannot read back: an empty
    column name, one with whitespace or given twice, a label column name with
    a comma, or a cell with a comma.
    """
    columns = [m.name for m in d.feature_meta] + [d.label_name]
    seen = set()
    for column in columns:
        # A declaration is "@attribute <name> <type>", split at whitespace.
        if not column or any(c.isspace() for c in column):
            raise ParameterError(
                f"KEEL cannot hold column name {column!r}: it is empty or holds whitespace"
            )
        if column in seen:
            raise ParameterError(f"KEEL cannot hold column name {column!r} twice")
        seen.add(column)
    if "," in d.label_name:
        # A reader splits the "@outputs" names at commas.
        raise ParameterError(f"KEEL cannot hold label column name {d.label_name!r}: it has a comma")
    lines = [f"@relation {relation}"]
    for j, meta in enumerate(d.feature_meta):
        if meta.kind == "categorical" and not d.is_encoded:
            # Declared values if the header had some, else those the column holds.
            values = ", ".join(meta.allowed or dict.fromkeys(d.features[:, j]))
            lines.append(f"@attribute {meta.name} {{{values}}}")
        elif meta.range is not None:
            lo, hi = meta.range
            lines.append(f"@attribute {meta.name} real [{lo:g}, {hi:g}]")
        else:
            lines.append(f"@attribute {meta.name} real")
    label_values = ", ".join(dict.fromkeys(str(v) for v in d.labels))
    lines.append(f"@attribute {d.label_name} {{{label_values}}}")
    lines.append(f"@inputs {', '.join(m.name for m in d.feature_meta)}")
    lines.append(f"@outputs {d.label_name}")
    lines.append("@data")
    for i in range(d.n):
        cells = [_format_cell(v) for v in d.features[i]] + [str(d.labels[i])]
        line = ", ".join(cells)
        if line.count(",") >= len(cells):
            # A KEEL reader splits rows at every comma.
            column, value = next((c, v) for c, v in zip(columns, cells) if "," in v)
            raise ParameterError(f"KEEL cannot hold {value!r} of column {column!r}: it has a comma")
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Standardization


@dataclass(frozen=True)
class Standardizer:
    """Per-feature (x - mean) / std transform fitted on some reference data.

    ``std`` holds the divisor actually applied: population standard deviation,
    with exact-zero deviations replaced by 1 so constant features are merely
    centered.
    """

    mean: np.ndarray
    std: np.ndarray

    @property
    def m(self) -> int:
        return len(self.mean)

    def transform(self, features: np.ndarray) -> np.ndarray:
        if features.shape[1] != self.m:
            raise ParameterError(
                f"standardizer fitted on {self.m} features, got {features.shape[1]}"
            )
        return (features.astype(np.float64) - self.mean) / self.std

    def inverse_transform(self, features: np.ndarray) -> np.ndarray:
        if features.shape[1] != self.m:
            raise ParameterError(
                f"standardizer fitted on {self.m} features, got {features.shape[1]}"
            )
        return features * self.std + self.mean


def fit_standardizer(d) -> Standardizer:
    """Fit per-feature mean and population standard deviation."""
    features = d.features if isinstance(d, Dataset) else np.asarray(d, dtype=np.float64)
    if features.dtype != np.float64:
        raise ParameterError("standardizer requires an encoded (numeric) dataset")
    if len(features) < 1:
        raise ParameterError("cannot fit a standardizer on an empty dataset")
    mean = features.mean(axis=0)
    std = features.std(axis=0)  # population estimate (divide by n)
    std = np.where(std == 0.0, 1.0, std)
    return Standardizer(mean=mean, std=std)


def apply_standardizer(s: Standardizer, d: Dataset) -> Dataset:
    if not d.is_encoded:
        raise ParameterError("encode categoricals before standardizing")
    return replace(d, features=s.transform(d.features))


# ---------------------------------------------------------------------------
# Binary-task view


def split_binary(d: Dataset, minority_label="auto") -> BinaryTask:
    """Split a two-class dataset into its majority / minority point sets.

    With ``minority_label="auto"`` the less frequent class is the minority;
    an exact tie demands an explicit label.
    """
    if not d.is_encoded:
        raise ParameterError("encode categoricals before splitting")
    values, counts = np.unique(d.labels.astype(str), return_counts=True)
    if len(values) != 2:
        raise ParameterError(f"expected exactly 2 classes, found {len(values)}")
    if minority_label == "auto":
        if counts[0] == counts[1]:
            raise ParameterError(
                "classes are the same size; pass an explicit minority label"
            )
        minority_label = values[int(np.argmin(counts))]
    else:
        minority_label = str(minority_label)
        if minority_label not in values:
            raise ParameterError(f"minority label {minority_label!r} not present")
    labels = d.labels.astype(str)
    minority_mask = labels == minority_label
    majority_label = values[0] if values[1] == minority_label else values[1]
    if minority_mask.sum() > (~minority_mask).sum():
        raise ParameterError("minority class is larger than the majority class")
    return BinaryTask(
        majority=d.features[~minority_mask],
        minority=d.features[minority_mask],
        minority_label=str(minority_label),
        majority_label=str(majority_label),
        majority_indices=np.flatnonzero(~minority_mask),
        minority_indices=np.flatnonzero(minority_mask),
    )

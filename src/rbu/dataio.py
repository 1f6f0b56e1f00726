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
from dataclasses import dataclass, field, replace
from itertools import compress

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


@dataclass(frozen=True, init=False)
class BinaryTask:
    """A two-class training set in one row order: majority rows, then minority.

    ``majority`` and ``minority`` are views of ``points``, into which the
    constructor copies its inputs once (``_stacked`` takes an array over
    uncopied); ``labels01`` is each row's class (0/1).
    ``source_rows`` is each point's dataset row, as :func:`split_binary` sets
    it, or -1 for a point a resampler made; it is None for a task without a
    dataset.
    """

    points: np.ndarray
    n_majority: int
    minority_label: str
    majority_label: str
    source_rows: np.ndarray | None
    majority: np.ndarray = field(repr=False, compare=False)
    minority: np.ndarray = field(repr=False, compare=False)

    def __init__(self, majority, minority, minority_label="positive",
                 majority_label="negative", source_rows=None):
        if majority.ndim != 2 or minority.ndim != 2:
            raise ValueError("majority and minority must be 2-D point sets")
        if majority.shape[1] != minority.shape[1]:
            raise ValueError("majority and minority dimensionality differ")
        self._own(np.concatenate([majority, minority]), len(majority), minority_label,
                  majority_label, source_rows)

    @classmethod
    def _stacked(cls, points, n_majority, minority_label, majority_label, source_rows):
        """A task that takes ``points`` (majority rows, then minority) and
        ``source_rows`` as its own, uncopied: no one else may hold or change
        the arrays."""
        task = object.__new__(cls)
        task._own(points, n_majority, minority_label, majority_label, source_rows)
        return task

    def _own(self, points, n_majority, minority_label, majority_label, source_rows):
        # Written past the frozen __setattr__, as dataclasses' own __init__ does.
        self.__dict__.update(points=points, n_majority=n_majority, minority_label=minority_label,
                             majority_label=majority_label, source_rows=source_rows,
                             majority=points[:n_majority], minority=points[n_majority:])

    @property
    def labels01(self) -> np.ndarray:
        labels = np.zeros(len(self.points), dtype=np.int64)
        labels[self.n_majority :] = 1
        return labels

    @property
    def n_minority(self) -> int:
        return len(self.points) - self.n_majority

    @property
    def m(self) -> int:
        return self.points.shape[1]


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


def _floats(column):
    """The column's cells as floats, or None if one of them is not a number."""
    try:
        return list(map(float, column))
    except ValueError:  # missing tokens ("?", "<null>", "") are not numbers either
        return None


def _cell_error(token, meta, is_label):
    """The error message of one data cell, or None if the cell is good.

    A column with declared values (a KEEL label too) must hold one of them,
    a numeric feature a finite number, any other feature a value that is
    not missing.
    """
    if meta.allowed is not None:
        if token not in meta.allowed:
            return f"unknown categorical value {token!r} for attribute {meta.name!r}"
    elif is_label:
        pass
    elif token in _MISSING_TOKENS:
        return f"missing value {token!r} is not supported"
    elif meta.kind == "numeric":
        try:
            value = float(token)
        except ValueError:
            return f"expected a number, got {token!r}"
        if not math.isfinite(value):
            return f"non-finite value {token!r}"
    return None


def parse_keel(text) -> Dataset:
    """Parse a KEEL-format dataset.

    Accepts a string or a text file object.  The declared output attribute
    (``@outputs``, defaulting to the last declared attribute) becomes the
    label column.  Raises :class:`FormatError` with a 1-based line number on
    malformed headers, row arity mismatches, unknown categorical values and
    missing ``@data`` markers.

    A declared numeric range is metadata, written back as declared: cells are
    not checked against it, since SMOTE rows mapped back through the
    standardizer can land an ulp outside a range that their inputs fill.
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

    body = list(map(str.strip, lines[data_start:]))
    kept = [line[:1] not in ("", "%") for line in body]  # no blank or comment line
    numbers = list(compress(range(data_start + 1, len(lines) + 1), kept))
    rows = [line.split(",") for line in compress(body, kept)]
    metas = [attr_meta[n] for n in attr_names]
    numbers, columns, ragged = _columns(numbers, rows, len(metas))
    return _read_rows(numbers, columns, metas, attr_names.index(label_attr), ragged)


def _columns(numbers, rows, width):
    """Line numbers and stripped token columns of the data rows up to the
    first one without ``width`` tokens, and that row's arity error (None if
    there is no such row)."""
    lengths = list(map(len, rows))
    ragged = None
    if lengths.count(width) != len(lengths):
        cut = next(i for i, size in enumerate(lengths) if size != width)
        ragged = FormatError(f"row has {lengths[cut]} values, expected {width}", line=numbers[cut])
        numbers, rows = numbers[:cut], rows[:cut]
    if not rows:
        return numbers, [[] for _ in range(width)], ragged
    return numbers, [list(map(str.strip, column)) for column in zip(*rows)], ragged


def _checked(column, meta, is_label):
    """``column`` as the dataset holds it, numbers as floats, or None if one
    of its cells breaks the rule of :func:`_cell_error`."""
    if meta.allowed is not None:
        return column if set(meta.allowed).issuperset(column) else None
    if is_label:
        return column
    if meta.kind == "numeric":
        values = _floats(column)
        return values if values is not None and all(map(math.isfinite, values)) else None
    return column if _MISSING_TOKENS.isdisjoint(column) else None


def _read_rows(numbers, columns, metas, label_pos, ragged=None) -> Dataset:
    """Build a dataset from the line numbers and token columns of its data
    rows and the arity error that cut them short, if any (see :func:`_columns`).

    ``metas`` holds one descriptor per column; the one at ``label_pos`` is
    the label's.  Each column is checked as a whole.  If one fails, or a row
    had the wrong number of values, the error names the first line that
    fails: its first bad cell in column order, or else its arity.
    """
    checked = [_checked(c, meta, pos == label_pos) for pos, (c, meta) in enumerate(zip(columns, metas))]
    if ragged is not None or any(c is None for c in checked):
        for i, line_no in enumerate(numbers):
            for pos, meta in enumerate(metas):
                message = _cell_error(columns[pos][i], meta, pos == label_pos)
                if message is not None:
                    raise FormatError(message, line=line_no)
        raise ragged
    if not numbers:
        raise FormatError("no data rows")

    feature_meta = tuple(metas[:label_pos] + metas[label_pos + 1:])
    numeric = all(m.kind == "numeric" for m in feature_meta)
    features = np.empty((len(numbers), len(feature_meta)), dtype=np.float64 if numeric else object)
    for j, column in enumerate(checked[:label_pos] + checked[label_pos + 1:]):
        features[:, j] = column
    return Dataset(
        features=features,
        labels=np.array(checked[label_pos], dtype=object),
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

    numbers, rows = [], []
    for line_no, row in enumerate(reader, start=2):
        if row:
            numbers.append(line_no)
            rows.append(row)
            if len(row) != len(header):
                break  # the file is refused at this row, whatever follows
    numbers, columns, ragged = _columns(numbers, rows, len(header))
    if ragged is not None:
        raise ragged
    if not numbers:
        raise FormatError("no data rows")

    if isinstance(label_column, int):
        if not -len(header) <= label_column < len(header):
            raise ParameterError(f"label column index {label_column} out of range")
        label_pos = label_column % len(header)
    else:
        if label_column not in header:
            raise ParameterError(f"label column {label_column!r} not found in header")
        label_pos = header.index(label_column)

    metas = [
        FeatureMeta(name, "numeric" if pos != label_pos and _floats(column) is not None else "categorical")
        for pos, (name, column) in enumerate(zip(header, columns))
    ]
    return _read_rows(numbers, columns, metas, label_pos)


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


def _cells(cells) -> list[str]:
    """The written form of some feature cells: strings as they are, anything
    else as a float with 17 significant digits, which reads back exactly."""
    return [v if isinstance(v, str) else "%.17g" % float(v) for v in cells.tolist()]


def _writable(row) -> bool:
    try:
        _cells(row)
    except Exception:
        return False
    return True


def _text_columns(d: Dataset):
    """The written form of every column, the features then the labels, and
    the first row holding a feature cell that cannot be written (None if no
    row does).  The columns stop before that row, so that a writer refuses
    what the rows before it hold first and then raises that row's error, in
    the order of a writer that goes row by row.
    """
    labels = list(map(str, d.labels))
    try:
        return [_cells(d.features[:, j]) for j in range(d.m)] + [labels], None
    except Exception:  # whatever a cell raises, it is raised again for its row
        cut = next(i for i, row in enumerate(d.features) if not _writable(row))
        return [_cells(d.features[:cut, j]) for j in range(d.m)] + [labels[:cut]], cut


def serialize_csv(d: Dataset) -> str:
    """Emit the dataset as CSV with 17-significant-digit numerics."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([m.name for m in d.feature_meta] + [d.label_name])
    text, cut = _text_columns(d)
    if cut is not None:
        _cells(d.features[cut])  # raises that row's error
    writer.writerows(zip(*text))
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
            # The cells' rule, so that the bounds read back exactly.
            lo, hi = meta.range
            lines.append(f"@attribute {meta.name} real [{'%.17g' % lo}, {'%.17g' % hi}]")
        else:
            lines.append(f"@attribute {meta.name} real")
    text, cut = _text_columns(d)
    lines.append(f"@attribute {d.label_name} {{{', '.join(dict.fromkeys(text[-1]))}}}")
    lines.append(f"@inputs {', '.join(m.name for m in d.feature_meta)}")
    lines.append(f"@outputs {d.label_name}")
    lines.append("@data")
    # A KEEL reader splits rows at every comma.
    bad = [pos for pos, column in enumerate(text) if "," in "".join(column)]
    if bad:
        row = min(next(i for i, v in enumerate(text[pos]) if "," in v) for pos in bad)
        pos = next(pos for pos in bad if "," in text[pos][row])
        raise ParameterError(
            f"KEEL cannot hold {text[pos][row]!r} of column {columns[pos]!r}: it has a comma"
        )
    if cut is not None:
        _cells(d.features[cut])  # raises that row's error
    lines.extend(map(", ".join, zip(*text)))
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
        source_rows=np.argsort(minority_mask, kind="stable"),
    )

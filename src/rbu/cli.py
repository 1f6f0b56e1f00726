"""Command-line front end: resampling, typing, stats, potential grids and
the evaluation harness.

Exit codes: 1 for parse errors, 2 for parameter/usage errors, 3 for I/O
errors.  Every command is deterministic given its inputs, flags and seed;
the default seed is a fixed constant (pass ``--seed random`` to opt into
entropy, or set the RR_SEED environment variable).
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

import click
import numpy as np

from .baselines import METHODS, apply_resample_detail
from .dataio import (
    Dataset,
    apply_standardizer,
    encode_categoricals,
    fit_standardizer,
    parse_csv,
    parse_keel,
    serialize_csv,
    serialize_keel,
    split_binary,
)
from .errors import FormatError, ParameterError
from .evaluation import STANDARDIZE_MODES, run_experiment
from .grids import (
    DEFAULT_CLEAN_K,
    FINAL_PRESET,
    METHOD_NAMES,
    PRESETS,
    load_grid_file,
    named_specs,
    preset_grids,
)
from .minority import CATEGORIES, categorize_minority, dataset_stats
from .modeling import CLASSIFIERS
from .potential import TIE_LOWEST_INDEX, TIE_RULES, TIE_SEEDED_RANDOM, potential_grid

DEFAULT_SEED = 1729

EXIT_PARSE = 1
EXIT_PARAMS = 2
EXIT_IO = 3


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (FormatError, UnicodeDecodeError) as exc:
            click.echo(f"parse error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        except ParameterError as exc:
            click.echo(f"parameter error: {exc}", err=True)
            sys.exit(EXIT_PARAMS)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


def parse_seed(value: str) -> int:
    if value == "random":
        return int.from_bytes(os.urandom(8), "big") >> 1
    try:
        return int(value)
    except ValueError:
        raise ParameterError(f"seed must be an integer or 'random', got {value!r}") from None


def _parse_label_column(value):
    if value is None:
        return -1
    try:
        return int(value)
    except ValueError:
        return value


def detect_format(path, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    suffix = Path(path).suffix.lower()
    if suffix == ".dat":
        return "keel"
    if suffix == ".csv":
        return "csv"
    raise ParameterError(f"cannot auto-detect format of {path!r}; pass --format")


def read_dataset(path, fmt="auto", label_column=None):
    fmt = detect_format(path, fmt)
    text = Path(path).read_text()
    if fmt == "keel":
        return parse_keel(text), fmt
    return parse_csv(text, _parse_label_column(label_column)), fmt


seed_option = click.option(
    "--seed",
    "seed_text",
    default=str(DEFAULT_SEED),
    envvar="RR_SEED",
    show_default=True,
    help="Random seed (integer), or 'random' to draw one from the OS.",
)
format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["auto", "keel", "csv"]),
    default="auto",
    show_default=True,
)
label_column_option = click.option(
    "--label-column",
    default=None,
    help="CSV label column name or index (default: last column).",
)
minority_option = click.option(
    "--minority-label",
    default="auto",
    show_default=True,
    help="Positive-class label; 'auto' picks the smaller class.",
)


@click.group()
def main():
    """Radial-based undersampling, reference resamplers and the benchmark harness."""


# ---------------------------------------------------------------------------
# resample


def rebuild_dataset(raw: Dataset, encoded: Dataset, scaler, task, outcome) -> Dataset:
    """Assemble the resampled dataset in the raw value space.

    Surviving original rows keep their file order and exact cell values;
    duplicated and synthetic rows are appended at the end.  Synthetic points
    are mapped back through the standardizer, with categorical coordinates
    snapped to the nearest valid code.
    """
    n, rows = len(task.points), outcome.rows
    copies = np.bincount(rows[rows < n], minlength=n)
    keep = np.zeros(raw.n, dtype=bool)
    keep[task.source_rows[copies > 0]] = True
    duplicates = np.repeat(task.source_rows, np.maximum(copies - 1, 0))
    source = np.concatenate([np.flatnonzero(keep), duplicates])

    synthetic = scaler.inverse_transform(outcome.synthetic[rows[rows >= n] - n])
    # A float raw matrix holds numeric columns only, which decode to floats.
    decoded = np.empty(synthetic.shape, dtype=raw.features.dtype)
    for j, meta in enumerate(encoded.feature_meta):
        if meta.kind == "categorical":
            names = np.array(list(meta.categories), dtype=object)  # in code order
            codes = np.clip(np.round(synthetic[:, j]), 0, len(names) - 1).astype(np.intp)
            decoded[:, j] = names[codes]
        else:
            decoded[:, j] = synthetic[:, j]
    new_labels = np.full(len(synthetic), task.minority_label, dtype=object)
    return Dataset(
        features=np.vstack([raw.features[source], decoded]),
        labels=np.concatenate([raw.labels[source], new_labels]),
        feature_meta=raw.feature_meta,
        label_name=raw.label_name,
    )


@main.command()
@click.argument("input_path", metavar="INPUT", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", required=True, type=click.Choice(tuple(METHOD_NAMES)))
@click.option("--gamma", type=float, default=0.1, show_default=True)
@click.option("--ratio", type=float, default=1.0, show_default=True)
@click.option("--k", type=int, default=None, help="Neighborhood size (smote/enn/renn/nm/stl/senn).")
@click.option("--clean-k", type=int, default=DEFAULT_CLEAN_K, show_default=True,
              help="ENN neighborhood for the senn cleaning stage.")
@click.option("--tie-rule", type=click.Choice(TIE_RULES),
              default=TIE_LOWEST_INDEX, show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="Output file (default: dataset to stdout, summary to stderr).")
@seed_option
@format_option
@label_column_option
@minority_option
@handle_errors
def resample(input_path, method, gamma, ratio, k, clean_k, tie_rule, output,
             seed_text, fmt, label_column, minority_label):
    """Resample INPUT and write the result in the input's format.

    The resampling geometry (distances, potentials, interpolation) is
    computed on the encoded and standardized copy of the data; surviving
    rows are emitted with their original values.
    """
    seed = parse_seed(seed_text)
    raw, fmt = read_dataset(input_path, fmt, label_column)
    flags = {"gamma": [gamma], "ratio": [ratio], "k": [] if k is None else [k]}
    if tie_rule == TIE_SEEDED_RANDOM:
        flags.update(tie_rule=[tie_rule], tie_seed=[seed])
    (spec,) = flag_grids([method], flags, clean_k)[method]
    encoded = encode_categoricals(raw)
    scaler = fit_standardizer(encoded)
    task = split_binary(apply_standardizer(scaler, encoded), minority_label)
    outcome = apply_resample_detail(task, spec, seed=seed)
    result = rebuild_dataset(raw, encoded, scaler, task, outcome)
    text = serialize_keel(result, relation="resampled") if fmt == "keel" else serialize_csv(result)

    summary = (
        f"majority: {task.n_majority} -> {outcome.n_majority}\n"
        f"minority: {task.n_minority} -> {len(outcome.rows) - outcome.n_majority}"
    )
    if output:
        Path(output).write_text(text)
        click.echo(summary)
        click.echo(f"wrote {output}")
    else:
        click.echo(summary, err=True)
        click.echo(text, nl=False)


# ---------------------------------------------------------------------------
# typify / stats


@main.command()
@click.argument("input_path", metavar="INPUT", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=int, default=5, show_default=True)
@click.option("--p", type=float, default=2.0, show_default=True, help="Minkowski exponent.")
@click.option("--per-object", type=click.Path(dir_okay=False), default=None,
              help="Also write per-object categories as CSV.")
@format_option
@label_column_option
@minority_option
@handle_errors
def typify(input_path, k, p, per_object, fmt, label_column, minority_label):
    """Print safe/borderline/rare/outlier percentages of the minority class."""
    raw, _ = read_dataset(input_path, fmt, label_column)
    encoded = encode_categoricals(raw)
    standardized = apply_standardizer(fit_standardizer(encoded), encoded)
    task = split_binary(standardized, minority_label)
    report = categorize_minority(task, k=k, p=p)
    click.echo(" ".join("%.2f" % report.proportions[c] for c in CATEGORIES))
    if per_object:
        lines = ["row,category"]
        for row, category in zip(task.source_rows[task.n_majority :], report.categories):
            lines.append(f"{int(row)},{category}")
        Path(per_object).write_text("\n".join(lines) + "\n")


@main.command()
@click.argument("input_path", metavar="INPUT", type=click.Path(exists=True, dir_okay=False))
@format_option
@label_column_option
@minority_option
@handle_errors
def stats(input_path, fmt, label_column, minority_label):
    """Print the summary row: imbalance ratio, sizes, minority-type percentages."""
    raw, _ = read_dataset(input_path, fmt, label_column)
    row = dataset_stats(raw, minority_label=minority_label)
    parts = [f"ir={row.ir:.2f}", f"samples={row.samples}", f"features={row.features}"]
    parts += [f"{c}={row.type_proportions[c]:.2f}" for c in CATEGORIES]
    click.echo(" ".join(parts))


# ---------------------------------------------------------------------------
# potential-grid


def _parse_bounds(text, task):
    if text == "auto":
        lo = task.points.min(axis=0)
        hi = task.points.max(axis=0)
        # potential_grid refuses a span or padded bound past the float range.
        with np.errstate(over="ignore"):
            pad = np.where(hi > lo, 0.05 * (hi - lo), 1.0)
            return tuple(zip(lo - pad, hi + pad))
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ParameterError("bounds must be 'auto' or 'xlo,xhi,ylo,yhi'")
    try:
        x_lo, x_hi, y_lo, y_hi = (float(p) for p in parts)
    except ValueError:
        raise ParameterError(f"bounds must be numbers, got {text!r}") from None
    return ((x_lo, x_hi), (y_lo, y_hi))


@main.command("potential-grid")
@click.argument("input_path", metavar="INPUT", type=click.Path(exists=True, dir_okay=False))
@click.option("--gamma", type=float, required=True)
@click.option("--resolution", type=int, default=50, show_default=True)
@click.option("--bounds", default="auto", show_default=True,
              help="'auto' or explicit 'xlo,xhi,ylo,yhi'.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="Output file; .json selects the JSON form, anything else CSV.")
@format_option
@label_column_option
@minority_option
@handle_errors
def potential_grid_cmd(input_path, gamma, resolution, bounds, output, fmt,
                       label_column, minority_label):
    """Emit the mutual class potential over a 2-D grid (CSV or JSON)."""
    raw, _ = read_dataset(input_path, fmt, label_column)
    encoded = encode_categoricals(raw)
    task = split_binary(encoded, minority_label)
    grid = potential_grid(task, gamma, _parse_bounds(bounds, task), resolution)
    as_json = output is not None and output.endswith(".json")
    text = grid.to_json() + "\n" if as_json else grid.to_csv()
    if output:
        Path(output).write_text(text)
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


# ---------------------------------------------------------------------------
# evaluate / sweep


def load_datasets(inputs, fmt, label_column):
    paths = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.dat")) + sorted(path.glob("*.csv")))
        elif path.suffix.lower() in (".txt", ".list"):
            for line in path.read_text().splitlines():
                line = line.strip()
                if line and not line.startswith("#"):
                    candidate = Path(line)
                    paths.append(candidate if candidate.is_absolute() else path.parent / candidate)
        else:
            paths.append(path)
    if not paths:
        raise ParameterError("no dataset files found")
    datasets = {}
    for path in paths:
        name = path.stem
        if name in datasets:
            raise ParameterError(f"duplicate dataset name {name!r}")
        datasets[name], _ = read_dataset(path, fmt, label_column)
    return datasets


def flag_grids(methods, flags, clean_k):
    """Per-method grids from CLI flag values.

    ``flags`` maps parameter names to flag values.  Each parameter of a
    method that has a flag spans its values, in the method's declared
    parameter order, or takes the method's default when the list is empty.
    """
    grids = {}
    for name in methods:
        schema = METHODS[METHOD_NAMES[name][0]].params if name in METHOD_NAMES else {}
        axes = {p: flags[p] or [default] for p, default in schema.items() if p in flags}
        grids[name] = named_specs(name, axes, clean_k)
    return grids


def write_report(report, output):
    json_path = Path(f"{output}.json")
    csv_path = Path(f"{output}.csv")
    json_path.write_text(report.to_json())
    csv_path.write_text(report.to_csv())
    click.echo(f"wrote {json_path} and {csv_path}")
    for entry in report.ranks:
        if entry["metric"] != "g_mean":
            continue
        ordered = sorted(entry["average"].items(), key=lambda kv: kv[1])
        summary = ", ".join(f"{m}={r:.2f}" for m, r in ordered)
        click.echo(f"g_mean ranks [{entry['classifier']}]: {summary}")


def _run_eval(datasets, grids, classifiers, seed, repeats, jobs, standardize,
              minority_label, output):
    minority = None if minority_label == "auto" else {n: minority_label for n in datasets}
    report = run_experiment(
        datasets,
        grids,
        list(classifiers),
        seed=seed,
        repeats=repeats,
        jobs=jobs,
        standardize=standardize,
        minority_labels=minority,
        with_dataset_stats=True,
    )
    write_report(report, output)
    failed = sum(1 for row in report.runs if row.get("metrics") is None)
    if failed:
        click.echo(f"warning: {failed} of {len(report.runs)} fold runs failed", err=True)
    if failed == len(report.runs):
        raise ParameterError("every fold run failed")


eval_shared = [
    click.option("--classifier", "classifiers", multiple=True,
                 type=click.Choice(tuple(CLASSIFIERS)), default=tuple(CLASSIFIERS),
                 show_default=True),
    click.option("--repeats", type=int, default=5, show_default=True,
                 help="Outer 50/50 repetitions (folds = 2x this)."),
    click.option("--jobs", type=int, default=1, show_default=True),
    click.option("--standardize", type=click.Choice(STANDARDIZE_MODES),
                 default=STANDARDIZE_MODES[0], show_default=True),
    click.option("--output", "-o", default="report", show_default=True,
                 help="Report base path; writes <base>.json and <base>.csv."),
]


def add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


@main.command()
@click.argument("inputs", nargs=-1, required=True)
@click.option("--method", "methods", multiple=True, type=click.Choice(tuple(METHOD_NAMES)),
              default=("none",), show_default=True)
@click.option("--gamma", "gammas", multiple=True, type=float)
@click.option("--ratio", "ratios", multiple=True, type=float)
@click.option("--k", "ks", multiple=True, type=int)
@click.option("--clean-k", type=int, default=DEFAULT_CLEAN_K, show_default=True)
@click.option("--grid-file", type=click.Path(exists=True, dir_okay=False), default=None)
@add_options(eval_shared)
@seed_option
@format_option
@label_column_option
@minority_option
@handle_errors
def evaluate(inputs, methods, gammas, ratios, ks, clean_k, grid_file, classifiers,
             repeats, jobs, standardize, output, seed_text, fmt, label_column,
             minority_label):
    """Evaluate explicit method configurations under cross-validation.

    Repeated --gamma/--ratio/--k flags span a selection grid searched by
    inner cross-validation on each training half.
    """
    seed = parse_seed(seed_text)
    datasets = load_datasets(inputs, fmt, label_column)
    flags = {"gamma": list(gammas) or [0.1], "ratio": list(ratios) or [1.0], "k": list(ks)}
    grids = load_grid_file(grid_file) if grid_file else flag_grids(methods, flags, clean_k)
    _run_eval(datasets, grids, classifiers, seed, repeats, jobs, standardize,
              minority_label, output)


@main.command()
@click.argument("inputs", nargs=-1, required=True)
@click.option("--preset", type=click.Choice(tuple(PRESETS)),
              default=FINAL_PRESET, show_default=True)
@click.option("--method", "methods", multiple=True,
              help="Restrict the preset to these method names.")
@click.option("--grid-file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON grid file; overrides the preset.")
@add_options(eval_shared)
@seed_option
@format_option
@label_column_option
@minority_option
@handle_errors
def sweep(inputs, preset, methods, grid_file, classifiers, repeats, jobs,
          standardize, output, seed_text, fmt, label_column, minority_label):
    """Run a full method-grid experiment sweep and write JSON + CSV reports."""
    seed = parse_seed(seed_text)
    datasets = load_datasets(inputs, fmt, label_column)
    grids = load_grid_file(grid_file) if grid_file else preset_grids(preset)
    if methods:
        missing = [m for m in methods if m not in grids]
        if missing:
            raise ParameterError(f"methods not in the grid set: {missing}")
        grids = {name: grids[name] for name in methods}
    _run_eval(datasets, grids, classifiers, seed, repeats, jobs, standardize,
              minority_label, output)


if __name__ == "__main__":
    main()

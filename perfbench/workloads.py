"""The benchmark's workloads: inputs made from the seed, one pass body each,
and the checks that every output is correct.

Each workload drives the library only through public calls (the ``rbu``
functions and the in-process ``rbu`` command line).  Library functions are
looked up on their modules at call time, so the tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import click
import numpy as np

from rbu import cli, radial
from rbu.dataio import BinaryTask

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")


class Checker:
    """Counts attempted and failed operations; compares output digests.

    An operation is one named check: a fold run, a CLI exit, an invariant,
    an oracle, or an output's digest (against its golden value and its
    digest from an earlier pass).  A run repeats its passes for as long as
    it measures, so every pass checks the same operations again; each is
    counted once per run and fails if it failed in any pass.  That keeps
    ``attempted`` and ``failed`` the same for every run of a workload,
    whatever the number of passes.  Failures of a ``known_defect`` check are
    counted like any other but leave ``correct`` alone: they probe an open
    defect of the library, not the output of the measured calls.
    """

    def __init__(self, golden=None):
        self.golden = golden or {}
        self.results: dict[str, bool] = {}
        self.known: set[str] = set()
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, name, ok, detail="", known_defect=None) -> bool:
        ok = bool(ok)
        if not ok and self.results.get(name, True):
            note = f"{name}: {detail}"
            if known_defect:
                self.known.add(name)
                note += f" (known defect: {known_defect})"
            self.problems.append(note)
        self.results[name] = self.results.get(name, True) and ok
        return ok

    def digest(self, name, data: bytes) -> str:
        value = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(name, value)
        problems = []
        if value != first:
            problems.append("differs from an earlier pass")
        if name in self.golden and value != self.golden[name]:
            problems.append(f"{value} != golden {self.golden[name]}")
        self.check(f"{name} digest", not problems, "; ".join(problems))
        return value

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.results.values() if not ok)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return all(ok or name in self.known for name, ok in self.results.items())


def load_golden(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(GOLDEN_PATH.read_text()).get(workload, {})


def run_cli(args, checker, tracer=None) -> str | None:
    """Invoke the ``rbu`` command line in-process; stdout text, or None on failure."""
    out = io.StringIO()
    code, detail = 0, ""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                cli.main(list(args), standalone_mode=False)
            else:
                tracer.call(f"cli.command.{args[0]}", cli.main, list(args),
                            standalone_mode=False)
    except SystemExit as exc:
        code = exc.code or 0
    except click.ClickException as exc:
        code, detail = exc.exit_code, exc.format_message()
    except Exception as exc:  # the library crashed: a failed operation
        code, detail = "exception", f"{type(exc).__name__}: {exc}"
    command = " ".join(Path(a).name if "/" in a else a for a in args)
    ok = checker.check(f"rbu {command}", code == 0, f"exit {code} {detail}")
    return out.getvalue() if ok else None


def _keel_lines(relation, columns, rows):
    lines = [f"@relation {relation}"]
    for name, kind in columns:
        lines.append(f"@attribute {name} {kind}")
    lines.append("@data")
    lines += [", ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _gaussian_rows(rng, n, m, mean, label):
    return [["%.6f" % v for v in rng.normal(mean, 1.0, m)] + [label] for _ in range(n)]


def write_overlap_dat(path, rng, n_maj, n_min, m, shift):
    """Two overlapping Gaussian classes; positives shifted by ``shift`` per axis."""
    rows = _gaussian_rows(rng, n_maj, m, 0.0, "neg") + _gaussian_rows(rng, n_min, m, shift, "pos")
    columns = [(f"x{j}", "real") for j in range(m)] + [("class", "{neg, pos}")]
    Path(path).write_text(_keel_lines(path.stem, columns, rows))


# ---------------------------------------------------------------------------
# rbu-large: the greedy RBU core on 8-D blobs


RBU_N, RBU_IR, RBU_M = 8000, 3, 8
ORACLE_SHIFT = 1e7


def _blobs(rng, n_maj, n_min, m, centres=4):
    centre = rng.normal(0.0, 1.5, size=(centres, m))
    majority = centre[rng.integers(0, centres, n_maj)] + rng.normal(size=(n_maj, m))
    minority = centre[rng.integers(0, centres, n_min)] + 0.5 + rng.normal(0, 0.8, size=(n_min, m))
    return BinaryTask(majority=majority, minority=minority)


def centred_oracle_order(task: BinaryTask, gamma: float, ratio: float) -> list[int]:
    """Greedy removal order recomputed from scratch on centred coordinates at
    every step (lowest-index ties).  The potential is translation invariant,
    so this is the exact answer for the task wherever it sits in space."""
    centre = np.vstack([task.majority, task.minority]).mean(axis=0)
    majority, minority = task.majority - centre, task.minority - centre
    inv_g2 = 1.0 / (gamma * gamma)

    def rbf_sums(queries, points):
        d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
        return np.exp(-d2 * inv_g2).sum(axis=1)

    alive = list(range(len(majority)))
    order = []
    for _ in range(math.ceil(ratio * (len(majority) - len(minority)))):
        current = majority[alive]
        phi = rbf_sums(current, current) - rbf_sums(current, minority)
        order.append(alive.pop(int(np.argmax(phi))))
    return order


class RbuLarge:
    """``rbu_removal_order`` on n=8000 8-D blobs, IR 3, ratio 1.0: gamma 0.1
    with the lowest-index rule and gamma 1.0 with the seeded-random rule."""

    def prepare(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        n_min = RBU_N // (RBU_IR + 1)
        oracle_rng = np.random.default_rng([seed, 2])
        spread = 0.8 / math.sqrt(4)  # pair distances near gamma = 1: no analytic ties
        oracle = BinaryTask(
            majority=oracle_rng.normal(0.0, spread, size=(60, 4)),
            minority=oracle_rng.normal(0.3 * spread, spread, size=(20, 4)),
        )
        return {
            "task": _blobs(rng, RBU_N - n_min, n_min, RBU_M),
            "warm": _blobs(rng, 300, 100, RBU_M),
            "oracle": oracle,
            "runs": {
                "order-gamma0.1-lowest": radial.RbuParams(0.1, 1.0),
                "order-gamma1.0-random": radial.RbuParams(
                    1.0, 1.0, "seeded-random", tie_seed=seed
                ),
            },
        }

    def warm_up(self, inputs):
        radial.rbu_removal_order(inputs["warm"], radial.RbuParams(0.1, 1.0))

    def run_pass(self, inputs, checker, tracer=None):
        task = inputs["task"]
        outputs = {}
        for name, params in inputs["runs"].items():
            try:
                outputs[name] = radial.rbu_removal_order(task, params)
            except Exception as exc:
                checker.check(name, False, f"{type(exc).__name__}: {exc}")
        return outputs

    def check(self, inputs, outputs, checker):
        task = inputs["task"]
        expected = task.n_majority - task.n_minority  # ratio 1.0 balances the classes
        for name, order in outputs.items():
            valid = (
                len(order) == expected
                and len(np.unique(order)) == expected
                and order.min() >= 0
                and order.max() < task.n_majority
            )
            checker.check(f"{name} is a removal order", valid, f"length {len(order)}")
            checker.digest(name, np.asarray(order, dtype="<i8").tobytes())

    def final_checks(self, inputs, checker):
        task = inputs["oracle"]
        params = radial.RbuParams(1.0, 1.0)
        reference = centred_oracle_order(task, params.gamma, params.ratio)
        at_origin = radial.rbu_removal_order(task, params).tolist()
        checker.check("oracle at origin", at_origin == reference,
                      "removal order differs from the centred recomputation")
        shifted = BinaryTask(task.majority + ORACLE_SHIFT, task.minority + ORACLE_SHIFT)
        moved = radial.rbu_removal_order(shifted, params).tolist()
        checker.check(
            "oracle shifted by 1e7", moved == reference,
            "removal order differs from the centred recomputation",
            known_defect="PotentialField.subtract works on uncentred coordinates",
        )


# ---------------------------------------------------------------------------
# Sweeps through ``rbu sweep``


class Sweep:
    """``rbu sweep`` with a preset, knn + gnb, over generated KEEL files."""

    def __init__(self, preset, datasets):
        self.preset = preset
        self.datasets = datasets  # name -> (n_maj, n_min, m, shift)

    def prepare(self, seed, workdir):
        paths = []
        for i, (name, (n_maj, n_min, m, shift)) in enumerate(self.datasets.items()):
            path = workdir / f"{name}.dat"
            write_overlap_dat(path, np.random.default_rng([seed, 10 + i]), n_maj, n_min, m, shift)
            paths.append(path)
        warm = workdir / "warm.dat"
        write_overlap_dat(warm, np.random.default_rng([seed, 9]), 30, 12, 2, 1.0)
        return {"paths": paths, "warm": warm, "workdir": workdir, "seed": seed}

    def _argv(self, inputs, paths, base):
        return ["sweep", *map(str, paths), "--classifier", "knn", "--classifier", "gnb",
                "--jobs", "1", "--seed", str(inputs["seed"]), "-o", str(base)]

    def warm_up(self, inputs):
        argv = self._argv(inputs, [inputs["warm"]], inputs["workdir"] / "warm")
        argv += ["--preset", "paper-final", "--method", "rus", "--repeats", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv, standalone_mode=False)

    def run_pass(self, inputs, checker, tracer=None):
        base = inputs["workdir"] / "report"
        argv = self._argv(inputs, inputs["paths"], base) + ["--preset", self.preset]
        if run_cli(argv, checker, tracer) is None:
            return {}
        return {"report": base.with_suffix(".json").read_bytes()}

    def check(self, inputs, outputs, checker):
        if "report" not in outputs:
            return
        report = json.loads(outputs["report"])
        methods = len(report["methods"])
        n_data = len(self.datasets)
        expected_rows = n_data * 2 * methods * 2 * report["repeats"]
        checker.check("report rows", len(report["runs"]) == expected_rows,
                      f"{len(report['runs'])} rows, expected {expected_rows}")
        checker.check("leakage checks", report["leakage_checks"] == expected_rows,
                      f"{report['leakage_checks']} checks")
        for row in report["runs"]:
            checker.check(
                f"fold {row['dataset']}/{row['classifier']}/{row['method']}/{row['fold']}",
                row.get("metrics") is not None, row.get("error", ""),
            )
        checker.check("ranks", len(report["ranks"]) == 2 * 6, f"{len(report['ranks'])} entries")
        friedman = 2 * 6 if n_data >= 2 else 0
        checker.check("friedman", len(report["friedman"]) == friedman,
                      f"{len(report['friedman'])} entries")
        checker.digest("report.json", outputs["report"])


# ---------------------------------------------------------------------------
# resample-large: file commands at scale


BIG = (3200, 800, 6)  # majority, minority, numeric columns; plus one categorical
CSV = (960, 240, 4)
COLOURS = ("red", "green", "blue")
RESAMPLE_METHODS = ("smote", "stl", "renn", "nm")


def _parse_rows(text, keel):
    """Data rows of a KEEL or CSV file as tuples, numbers as floats."""
    lines = text.splitlines()
    start = lines.index("@data") + 1 if keel else 1
    rows = []
    for line in lines[start:]:
        cells = [c.strip() for c in line.split(",")]
        rows.append(tuple(c if c in COLOURS or c in ("neg", "pos") else float(c) for c in cells))
    return rows


class ResampleLarge:
    """``rbu stats``, ``typify`` and ``resample`` on a 4,000-row KEEL file
    with a categorical column, plus ``resample`` on a CSV file."""

    def prepare(self, seed, workdir):
        rng = np.random.default_rng([seed, 20])
        n_maj, n_min, m = BIG
        rows = []
        for label, n, shift in (("neg", n_maj, 0.0), ("pos", n_min, 1.0)):
            for row in _gaussian_rows(rng, n, m, shift, label):
                row.insert(m, COLOURS[int(rng.integers(3))])
                rows.append(row)
        columns = [(f"x{j}", "real") for j in range(m)]
        columns += [("colour", "{red, green, blue}"), ("class", "{neg, pos}")]
        big = workdir / "big.dat"
        big.write_text(_keel_lines("big", columns, rows))

        n_maj, n_min, m = CSV
        csv_rows = _gaussian_rows(rng, n_maj, m, 0.0, "neg") + _gaussian_rows(rng, n_min, m, 1.0, "pos")
        small = workdir / "small.csv"
        small.write_text("\n".join([",".join([f"x{j}" for j in range(m)] + ["class"])]
                                   + [",".join(r) for r in csv_rows]) + "\n")
        return {"big": big, "csv": small, "workdir": workdir, "seed": seed}

    def warm_up(self, inputs):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["stats", str(inputs["csv"])], standalone_mode=False)

    def run_pass(self, inputs, checker, tracer=None):
        big, work, seed = str(inputs["big"]), inputs["workdir"], str(inputs["seed"])
        outputs = {}
        for command in ("stats", "typify"):
            text = run_cli([command, big], checker, tracer)
            if text is not None:
                outputs[f"{command}.txt"] = text.encode()
        runs = [(inputs["big"], m, work / f"out_{m}.dat") for m in RESAMPLE_METHODS]
        runs.append((inputs["csv"], "nm", work / "out_nm.csv"))
        for source, method, target in runs:
            argv = ["resample", str(source), "--method", method, "--seed", seed, "-o", str(target)]
            if run_cli(argv, checker, tracer) is not None:
                outputs[target.name] = target.read_bytes()
        return outputs

    def check(self, inputs, outputs, checker):
        n_maj, n_min, m = BIG
        if "stats.txt" in outputs:
            fields = dict(p.split("=") for p in outputs["stats.txt"].decode().split())
            types = [float(fields[c]) for c in ("safe", "borderline", "rare", "outlier")]
            checker.check(
                "stats summary",
                fields["ir"] == f"{n_maj / n_min:.2f}" and fields["samples"] == str(n_maj + n_min)
                and fields["features"] == str(m + 1) and abs(sum(types) - 100.0) < 0.03,
                outputs["stats.txt"].decode().strip(),
            )
            if "typify.txt" in outputs:
                typed = [float(v) for v in outputs["typify.txt"].decode().split()]
                checker.check("typify agrees with stats", typed == types, f"{typed} vs {types}")
        sources = {
            ".dat": _parse_rows(inputs["big"].read_text(), keel=True),
            ".csv": _parse_rows(inputs["csv"].read_text(), keel=False),
        }
        expected = {  # (majority, minority) row counts; None: at most the input's
            "out_smote.dat": (n_maj, n_maj),
            "out_stl.dat": (None, n_maj),
            "out_renn.dat": (None, n_min),
            "out_nm.dat": (n_min, n_min),
            "out_nm.csv": (CSV[1], CSV[1]),
        }
        for name, (want_maj, want_min) in expected.items():
            if name not in outputs:
                continue
            source = sources[Path(name).suffix]
            rows = _parse_rows(outputs[name].decode(), keel=name.endswith(".dat"))
            majority = [r for r in rows if r[-1] == "neg"]
            minority = [r for r in rows if r[-1] == "pos"]
            in_maj = sum(1 for r in source if r[-1] == "neg")
            counts_ok = (
                (len(majority) == want_maj if want_maj is not None else len(majority) <= in_maj)
                and len(minority) == want_min
            )
            checker.check(f"{name} class counts", counts_ok,
                          f"{len(majority)} neg / {len(minority)} pos")
            kept = set(source)
            checker.check(f"{name} keeps original majority rows",
                          all(r in kept for r in majority), "a majority row was altered")
            checker.check(f"{name} keeps original minority rows",
                          set(r for r in source if r[-1] == "pos") <= set(minority),
                          "an original minority row is missing")
        for name, data in outputs.items():
            checker.digest(name, data)


WORKLOADS = {
    "rbu-large": RbuLarge(),
    "sweep-final": Sweep("paper-final", {"ovl_a": (90, 30, 4, 1.0), "ovl_b": (80, 16, 6, 0.8)}),
    "resample-large": ResampleLarge(),
}

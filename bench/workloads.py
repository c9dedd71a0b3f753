"""Seeded inputs, the CLI call and independent output checks for each
benchmark workload.

A workload object is built from its seed. ``setup_steps(workdir)`` lists
the steps that write the inputs the program will see, each timed on its
own; ``expect(workdir)`` derives the expected results from those inputs;
``argv(workdir, out_dir)`` is the command line handed to
``actirhythm.cli.main``; ``check(out_dir)`` raises ``CheckFailed`` when an
output is wrong. Expected results come from the benchmark's own copy of the
generated data with numpy, the csv module and scipy, never from the code
under test.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np

from actirhythm import cli, ingest

# Group order of every output table, and the column names of the tables
# `compare` reads. Spelled out here rather than imported so that a change
# in the program shows as a failed check.
GROUPS = ("control_icu", "cci", "rr", "control_healthy")
FEATURES = ("mean", "sd", "m10", "t_m10", "l5", "t_l5", "ra", "rmssd",
            "rmssd_sd", "immobile_minutes")
CIRCADIAN = ("min", "amplitude", "phase", "alpha", "beta")
MARKERS = {"control_healthy": "b", "cci": "c", "rr": "d", "control_icu": "e"}
RUN_OUTPUTS = ("comparison.csv", "comparison.txt", "cosinor.csv", "curves.csv",
               "curves.svg", "features.csv", "overlays.csv", "overlays.svg",
               "skips.csv")
WINDOW_DAYS = 5
DAYS = 6


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    _require(path.is_file(), f"{path.name} missing")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 1, f"{path.name} is empty")
    width = len(rows[0])
    for i, row in enumerate(rows[1:], start=2):
        _require(len(row) == width, f"{path.name} line {i}: {len(row)} fields, "
                                    f"header has {width}")
    return rows[0], rows[1:]


def _close(actual: float, expected: float, rel: float = 2e-5,
           abs_tol: float = 1e-9) -> bool:
    """Agreement with a value printed at 6 significant digits."""
    return math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_tol)


def _draw_spec(rng, healthy: bool, days: int, noise_sd: float, seed: int):
    """One subject's curve parameters from a latent factor, as in the
    acceptance cohort; only the healthy group's amplitude is scaled (x5)."""
    f = rng.uniform(0.0, 1.0)
    return {"min": 20.0 + 40.0 * f,
            "amplitude": (120.0 + 160.0 * f) * (5.0 if healthy else 1.0),
            "alpha": -0.3 + 0.6 * f, "beta": 8.0 + 14.0 * f,
            "phase": 10.0 + 6.0 * f, "noise_sd": noise_sd, "days": days,
            "seed": seed}


def _load_counts(path: Path) -> np.ndarray:
    """Minute vector magnitude of an epoch CSV, read without the program's
    parser (60 s epochs)."""
    xyz = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3))
    return np.sqrt((xyz ** 2).sum(axis=1))


def _check_svg(path: Path, n_groups: int, element: str):
    _require(path.is_file(), f"{path.name} missing")
    try:
        root = ElementTree.parse(path).getroot()
    except ElementTree.ParseError as exc:
        raise CheckFailed(f"{path.name} is not well-formed: {exc}") from None
    _require(root.tag.endswith("svg"), f"{path.name}: root is {root.tag}")
    found = sum(1 for e in root.iter() if e.tag.endswith(element))
    _require(found == n_groups, f"{path.name}: {found} <{element}>, "
                                f"expected {n_groups}")


def _check_curves(out_dir: Path, windows: dict[str, list[np.ndarray]]):
    """curves.csv holds, per group, the across-subject mean of the analysis
    windows minute by minute."""
    header, rows = _read_rows(out_dir / "curves.csv")
    _require(header == ["group", "minute", "mean", "ci_low", "ci_high"],
             f"curves.csv header {header}")
    n_min = WINDOW_DAYS * 1440
    present = [g for g in GROUPS if windows.get(g)]
    _require(len(rows) == n_min * len(present),
             f"curves.csv has {len(rows)} rows, expected {n_min * len(present)}")
    for k, group in enumerate(present):
        block = rows[k * n_min:(k + 1) * n_min]
        _require(all(r[0] == group for r in block), f"curves.csv: {group} block")
        got = np.array([float(r[2]) for r in block])
        want = np.mean(windows[group], axis=0)
        bad = ~np.isclose(got, want, rtol=2e-5, atol=1e-9)
        _require(not bad.any(), f"curves.csv: {group} mean differs at minute "
                                f"{int(np.argmax(bad))}")


def _check_run_tables(out_dir: Path, subjects: dict[str, tuple[str, np.ndarray]]):
    """Shared checks of a `run` output directory. ``subjects`` maps subject
    id to (group, expected analysis window)."""
    for name in RUN_OUTPUTS:
        _require((out_dir / name).is_file(), f"{name} missing")
    header, rows = _read_rows(out_dir / "skips.csv")
    _require(header == ["subject_id", "group", "reason"] and not rows,
             f"unexpected skips: {rows}")

    header, rows = _read_rows(out_dir / "features.csv")
    _require(header == ["subject_id", "group", *FEATURES],
             f"features.csv header {header}")
    _require(sorted(r[0] for r in rows) == sorted(subjects),
             "features.csv subjects differ from the cohort")
    for r in rows:
        group, window = subjects[r[0]]
        _require(r[1] == group, f"features.csv: {r[0]} in group {r[1]}")
        _require(_close(float(r[2]), float(window.mean())),
                 f"features.csv: {r[0]} mean {r[2]}, expected {window.mean():.6g}")

    header, rows = _read_rows(out_dir / "cosinor.csv")
    _require(header[:2] == ["subject_id", "group"] and len(header) == 11,
             f"cosinor.csv header {header}")
    _require(sorted(r[0] for r in rows) == sorted(subjects),
             "cosinor.csv subjects differ from the cohort")

    present = sorted({g for g, _ in subjects.values()}, key=GROUPS.index)
    header, rows = _read_rows(out_dir / "comparison.csv")
    _require(len(rows) == len(present) * (len(FEATURES) + len(CIRCADIAN)),
             f"comparison.csv has {len(rows)} rows")
    text = (out_dir / "comparison.txt").read_text(encoding="utf-8").splitlines()
    _require(len(text) == 2 + len(FEATURES) + len(CIRCADIAN),
             f"comparison.txt has {len(text)} lines")

    windows: dict[str, list[np.ndarray]] = {}
    for group, window in subjects.values():
        windows.setdefault(group, []).append(window)
    _check_curves(out_dir, windows)
    _, rows = _read_rows(out_dir / "overlays.csv")
    _require(len(rows) == 1440 * len(present), f"overlays.csv has {len(rows)} rows")
    _check_svg(out_dir / "curves.svg", len(present), "polygon")
    _check_svg(out_dir / "overlays.svg", len(present) * 2, "polyline")


def _fit_rows(out_dir: Path) -> dict[str, dict[str, str]]:
    with (out_dir / "cosinor.csv").open(newline="", encoding="utf-8") as fh:
        return {row["subject_id"]: row for row in csv.DictReader(fh)}


def _check_fits_near_spec(out_dir: Path, specs: dict[str, dict]):
    """Default flags fit log1p counts. Taking log1p keeps the peak time and
    maps the trough and peak plateaus to log1p(min) and log1p(min + amp).
    Over 45 seeds the largest misses were 0.008 h, 0.066 and 0.005."""
    for sid, row in _fit_rows(out_dir).items():
        spec = specs[sid]
        _require(row["converged"] == "true", f"cosinor: {sid} did not converge")
        gap = abs(float(row["phase"]) - spec["phase"]) % 24.0
        _require(min(gap, 24.0 - gap) < 0.1,
                 f"cosinor: {sid} phase {row['phase']} vs {spec['phase']:.3f}")
        lo = float(row["min"])
        hi = lo + float(row["amplitude"])
        _require(abs(lo - math.log1p(spec["min"])) < 0.15,
                 f"cosinor: {sid} min {lo:.4g} vs log1p {math.log1p(spec['min']):.4g}")
        peak = math.log1p(spec["min"] + spec["amplitude"])
        _require(abs(hi - peak) < 0.05,
                 f"cosinor: {sid} peak {hi:.4g} vs log1p {peak:.4g}")


class _RunWorkload:
    """A workload whose op is `run` on a cohort manifest."""

    work_unit = "subject-days"

    @property
    def work_per_op(self) -> int:
        return len(self.specs) * DAYS

    def argv(self, workdir: Path, out_dir: Path) -> list[str]:
        return ["run", "--manifest", str(workdir / "cohort" / "manifest.csv"),
                "--out", str(out_dir)]

    def _check_tables(self, out_dir: Path):
        _check_run_tables(out_dir, {sid: (self.groups[sid], w)
                                    for sid, w in self.windows.items()})


class CohortRun(_RunWorkload):
    """`run`, default flags, on a synth-written cohort of 24 subjects in
    groups of 3/5/6/10, 6 days at 60 s epochs (the acceptance-test shape)."""

    name = "cohort_run"
    sizes = (3, 5, 6, 10)
    noise_sd = 5.0
    setup_reps = 3

    def __init__(self, seed: int, sizes: tuple[int, ...] | None = None):
        self.seed = seed
        self.sizes = sizes or self.sizes
        rng = np.random.default_rng(seed)
        self.groups: dict[str, str] = {}
        self.specs: dict[str, dict] = {}
        idx = 0
        for group, n in zip(GROUPS, self.sizes):
            for _ in range(n):
                sid = f"s{idx:02d}"
                self.groups[sid] = group
                self.specs[sid] = _draw_spec(rng, group == "control_healthy", DAYS,
                                             self.noise_sd, seed * 1000 + idx)
                idx += 1
        self.windows: dict[str, np.ndarray] = {}

    def spec_csv(self) -> str:
        cols = list(cli.SYNTH_COLUMNS) + ["seed"]
        lines = [",".join(cols)]
        for sid, spec in self.specs.items():
            fields = [sid, self.groups[sid]] + [repr(spec[c]) for c in cols[2:]]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"

    def setup_steps(self, workdir: Path):
        return [lambda: self._synth(workdir)]

    def _synth(self, workdir: Path):
        spec = workdir / "spec.csv"
        spec.write_text(self.spec_csv(), encoding="utf-8")
        rc = cli.main(["synth", "--spec", str(spec), "--out", str(workdir / "cohort")])
        _require(rc == 0, f"synth exited {rc}")

    def expect(self, workdir: Path):
        """Read the synth output back without the program and derive each
        subject's analysis window: the first five complete days."""
        cohort = workdir / "cohort"
        header, rows = _read_rows(cohort / "manifest.csv")
        _require(len(rows) == len(self.specs), "manifest row count")
        self.windows = {}
        for sid in self.specs:
            vm = _load_counts(cohort / f"{sid}.csv")
            _require(vm.size == DAYS * 1440, f"{sid}.csv has {vm.size} rows")
            self.windows[sid] = vm[:WINDOW_DAYS * 1440]

    def check(self, out_dir: Path):
        self._check_tables(out_dir)
        _check_fits_near_spec(out_dir, self.specs)
        with (out_dir / "comparison.csv").open(newline="", encoding="utf-8") as fh:
            amp = [r for r in csv.DictReader(fh) if r["feature"] == "amplitude"]
        _require(float(amp[0]["kw_p"]) < 0.01,
                 f"amplitude not separated: kw_p {amp[0]['kw_p']}")
        medians = {r["group"]: float(r["median"]) for r in amp}
        _require(all(medians["control_healthy"] > v for g, v in medians.items()
                     if g != "control_healthy"),
                 f"healthy amplitude median not highest: {medians}")


class HighresIngest(_RunWorkload):
    """`run` on 4 subjects, one per group, 6 days at 1 s epochs. Counts are
    Poisson per second on three axes whose expected minute sums have the
    synthetic curve as vector magnitude. Subject s01 carries a planted
    75-minute zero bout on day 2, so non-wear drops exactly that day."""

    name = "highres_ingest"
    epoch = 1
    nonwear_subject = "s01"
    nonwear_day = 2
    nonwear_start_min = 180
    nonwear_minutes = 75
    # axis shares of the vector magnitude: 0.8^2 + 0.48^2 + 0.36^2 = 1
    axis_shares = (0.8, 0.48, 0.36)
    setup_reps = 1

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.groups = {f"s{i:02d}": g for i, g in enumerate(GROUPS)}
        self.specs = {sid: _draw_spec(rng, g == "control_healthy", DAYS, 5.0,
                                      seed * 1000 + i)
                      for i, (sid, g) in enumerate(self.groups.items())}
        self.windows: dict[str, np.ndarray] = {}

    def samples(self, sid: str) -> np.ndarray:
        """(n, 3) per-second counts for one subject."""
        spec = self.specs[sid]
        minutes = ingest.generate_synthetic(ingest.SynthSpec(**spec))
        per_second = np.repeat(minutes.samples[:, 0] / 60.0, 60 // self.epoch)
        rng = np.random.default_rng([self.seed, spec["seed"]])
        counts = rng.poisson(np.outer(per_second, self.axis_shares)).astype(float)
        if sid == self.nonwear_subject:
            start = (self.nonwear_day * 1440 + self.nonwear_start_min) * 60
            counts[start:start + self.nonwear_minutes * 60] = 0.0
        return counts

    def setup_steps(self, workdir: Path):
        """One step per subject file, so that a run times several set-ups
        without writing the 66 MB cohort several times."""
        return [lambda sid=sid: self._write_subject(workdir / "cohort", sid)
                for sid in self.groups]

    def _write_subject(self, cohort: Path, sid: str):
        cohort.mkdir(parents=True, exist_ok=True)
        series = ingest.TriaxialSeries(subject_id=sid, start_time=ingest.SYNTH_START,
                                       epoch_length=self.epoch,
                                       samples=self.samples(sid))
        text = ingest.serialize_triaxial_csv(series)
        (cohort / f"{sid}.csv").write_text(text, encoding="utf-8")
        with (cohort / "manifest.csv").open("a", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write("subject_id,group,path\n")
            fh.write(f"{sid},{self.groups[sid]},{sid}.csv\n")

    def expect(self, workdir: Path):
        self.windows = {}
        for sid in self.specs:
            counts = self.samples(sid)
            minutes = counts.reshape(-1, 60 // self.epoch, 3).sum(axis=1)
            days = np.sqrt((minutes ** 2).sum(axis=1)).reshape(DAYS, 1440)
            kept = [d for d in range(DAYS)
                    if not (sid == self.nonwear_subject and d == self.nonwear_day)]
            self.windows[sid] = days[kept[:WINDOW_DAYS]].ravel()

    def check(self, out_dir: Path):
        # One subject per group, so each group curve is that subject's window:
        # the planted day is absent from s01 and no other day is missing.
        self._check_tables(out_dir)
        for sid, row in _fit_rows(out_dir).items():
            _require(row["converged"] == "true", f"cosinor: {sid} did not converge")


class ExactCompare:
    """`compare --exact` on benchmark-written features.csv and cosinor.csv
    for 33 subjects in groups of 6/8/9/10, so every pair takes the exact
    rank-sum path. Columns t_l5 and immobile_minutes have ties; the other
    13 are tie-free."""

    name = "exact_compare"
    sizes = (6, 8, 9, 10)
    tied = ("t_l5", "immobile_minutes")
    # writing the two tables takes about 2 ms, so take the median of many
    setup_reps = 51
    work_unit = "pair tests"

    def __init__(self, seed: int, sizes: tuple[int, ...] | None = None):
        self.seed = seed
        self.sizes = sizes or self.sizes
        self.groups = {}
        for group, n in zip(GROUPS, self.sizes):
            for _ in range(n):
                self.groups[f"s{len(self.groups):02d}"] = group
        self.columns = self._draw()

    @property
    def work_per_op(self) -> int:
        k = len(self.sizes)
        return (len(FEATURES) + len(CIRCADIAN)) * k * (k - 1) // 2

    def _draw(self) -> dict[str, list[float]]:
        """Per column, one value per subject (in subject order), shifted by
        group with a column-specific effect so that some pairs differ."""
        rng = np.random.default_rng(seed=[self.seed, 7])
        group_index = np.array([GROUPS.index(g) for g in self.groups.values()])
        n = group_index.size
        columns = {}
        for name in FEATURES + CIRCADIAN:
            effect = rng.uniform(0.0, 1.2) * group_index
            if name == "immobile_minutes":
                values = np.floor(rng.uniform(0, 6, n) + 2 * effect) * 15.0
            elif name == "t_l5":
                values = np.round(rng.normal(4.0, 1.0, n) + effect) * 30.0
            else:
                while True:
                    values = np.array([float("%.6g" % v) for v in
                                       10.0 + rng.normal(0.0, 1.0, n) + effect])
                    if np.unique(values).size == n:
                        break
            columns[name] = [float(v) for v in values]
        return columns

    def tables(self) -> tuple[str, str]:
        feat = ["subject_id,group," + ",".join(FEATURES)]
        cos = ["subject_id,group,min,amplitude,alpha,beta,phase,mesor,rss,"
               "converged,transform"]
        for i, (sid, group) in enumerate(self.groups.items()):
            feat.append(f"{sid},{group}," + ",".join(
                repr(self.columns[c][i]) for c in FEATURES))
            v = {c: self.columns[c][i] for c in CIRCADIAN}
            cos.append(f"{sid},{group},{v['min']!r},{v['amplitude']!r},{v['alpha']!r},"
                       f"{v['beta']!r},{v['phase']!r},{v['min'] + v['amplitude'] / 2!r},"
                       f"1.0,true,log1p")
        return "\n".join(feat) + "\n", "\n".join(cos) + "\n"

    def setup_steps(self, workdir: Path):
        return [lambda: self._write_tables(workdir)]

    def _write_tables(self, workdir: Path):
        self.columns = self._draw()
        feat, cos = self.tables()
        (workdir / "features.csv").write_text(feat, encoding="utf-8")
        (workdir / "cosinor.csv").write_text(cos, encoding="utf-8")

    def expect(self, workdir: Path):
        """Reference KW p-values and rank-sum markers from scipy."""
        from scipy import stats as sps

        self.expected = {}
        for name, column in self.columns.items():
            values = np.array(column)
            by_group = {g: values[[i for i, gg in enumerate(self.groups.values())
                                   if gg == g]] for g in GROUPS}
            kw_p = float(sps.kruskal(*by_group.values()).pvalue)
            markers = None
            if name not in self.tied:
                markers = {g: "" for g in GROUPS}
                for a in range(len(GROUPS)):
                    for b in range(a + 1, len(GROUPS)):
                        ga, gb = GROUPS[a], GROUPS[b]
                        p = sps.mannwhitneyu(by_group[ga], by_group[gb],
                                             alternative="two-sided",
                                             method="exact").pvalue
                        alpha = 0.01 if "control_healthy" in (ga, gb) else 0.05
                        if p < alpha:
                            markers[ga] += MARKERS[gb]
                            markers[gb] += MARKERS[ga]
                markers = {g: "".join(sorted(m)) for g, m in markers.items()}
            medians = {g: float(np.median(v)) for g, v in by_group.items()}
            self.expected[name] = (kw_p, markers, medians)

    def argv(self, workdir: Path, out_dir: Path) -> list[str]:
        return ["compare", "--features", str(workdir / "features.csv"),
                "--cosinor", str(workdir / "cosinor.csv"), "--out", str(out_dir),
                "--exact"]

    def check(self, out_dir: Path):
        header, rows = _read_rows(out_dir / "comparison.csv")
        _require(header == ["feature", "group", "median", "q25", "q75", "kw_h",
                            "kw_p", "markers"], f"comparison.csv header {header}")
        _require(len(rows) == len(self.expected) * len(GROUPS),
                 f"comparison.csv has {len(rows)} rows")
        for k, name in enumerate(FEATURES + CIRCADIAN):
            kw_p, markers, medians = self.expected[name]
            for j, row in enumerate(rows[k * len(GROUPS):(k + 1) * len(GROUPS)]):
                group = GROUPS[j]
                _require(row[0] == name and row[1] == group,
                         f"comparison.csv row {row[:2]}, expected {name},{group}")
                _require(_close(float(row[6]), kw_p, abs_tol=1e-12),
                         f"{name}: kw_p {row[6]}, scipy {kw_p:.6g}")
                _require(_close(float(row[2]), medians[group]),
                         f"{name}/{group}: median {row[2]}")
                if markers is not None:
                    _require(row[7] == markers[group],
                             f"{name}/{group}: markers {row[7]!r}, scipy "
                             f"{markers[group]!r}")
        text = (out_dir / "comparison.txt").read_text(encoding="utf-8").splitlines()
        _require(len(text) == 2 + len(self.expected),
                 f"comparison.txt has {len(text)} lines")


WORKLOADS = {cls.name: cls for cls in (CohortRun, HighresIngest, ExactCompare)}

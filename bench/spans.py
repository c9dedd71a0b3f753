"""Spans and counters recorded from outside the program.

``Tracer.install()`` replaces public functions at the module boundaries of
actirhythm with wrappers that record a span (name, start, end, parent, op)
and, for some, a count read from the arguments or the result. The original
functions are put back when the context exits. Spans are kept in memory.

Calls between modules go through names bound at import time (report uses
its own ``parse_triaxial_csv``), so each wrapper is installed on the module
whose code makes the call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import Counter
from dataclasses import dataclass

from actirhythm import cli, cosinor, ingest, report, stats


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root
    op: int          # op index; set-up repetition r records as op -1 - r


def _rows_and_bytes(counts, args, result):
    counts["ingest.rows"] += len(result)
    counts["ingest.bytes"] += len(args[0])


def _bouts(counts, args, result):
    counts["preprocess.bouts"] += len(result)


def _days_dropped(counts, args, result):
    counts["preprocess.days_dropped"] += int(args[0].day_valid.sum()
                                             - result.day_valid.sum())


def _fits(counts, args, result):
    counts["cosinor.fits"] += 1


def _lm_result(counts, args, result):
    counts["nls.iterations"] += result.iterations
    counts["nls.not_converged"] += not result.converged


def _pair_tests(counts, args, result):
    counts["stats.pair_tests"] += len(result.pairs)


# (module, attribute, span name, counter). Span names are "<layer>.<function>".
BOUNDARIES = [
    (cli, "main", "cli.main", None),
    (cli, "serialize_triaxial_csv", "ingest.serialize_triaxial_csv", None),
    (ingest, "serialize_triaxial_csv", "ingest.serialize_triaxial_csv", None),
    (report, "run_pipeline", "report.run_pipeline", None),
    (report, "load_cohort", "report.load_cohort", None),
    (report, "prepare_subject", "report.prepare_subject", None),
    (report, "parse_triaxial_csv", "ingest.parse_triaxial_csv", _rows_and_bytes),
    (report, "aggregate_to_minutes", "ingest.aggregate_to_minutes", None),
    (report, "to_activity_series", "preprocess.to_activity_series", None),
    (report, "detect_nonwear_bouts", "preprocess.detect_nonwear_bouts", _bouts),
    (report, "filter_invalid_days", "preprocess.filter_invalid_days", _days_dropped),
    (report, "select_analysis_window", "preprocess.select_analysis_window", None),
    (report, "compute_features", "features.compute_features", None),
    (report, "fit_sigmoidal_cosinor", "cosinor.fit_sigmoidal_cosinor", _fits),
    (cosinor, "fit_linear_cosinor", "cosinor.fit_linear_cosinor", None),
    (cosinor, "levenberg_marquardt", "nls.levenberg_marquardt", _lm_result),
    (stats, "feature_table", "stats.feature_table", None),
    (stats, "comparison_rows", "stats.comparison_rows", None),
    (stats, "kruskal_wallis", "stats.kruskal_wallis", None),
    (stats, "pairwise_ranksum", "stats.pairwise_ranksum", _pair_tests),
    (stats, "pairwise_dunn", "stats.pairwise_dunn", _pair_tests),
    (report, "group_average_curve", "report.group_average_curve", None),
    (report, "build_overlay", "report.build_overlay", None),
    (report, "render_curves_svg", "report.render_curves_svg", None),
    (report, "render_overlays_svg", "report.render_overlays_svg", None),
] + [(report, f, f"report.{f}", None)
     for f in ("features_csv", "cosinor_csv", "comparison_csv", "comparison_text",
               "curves_csv", "overlays_csv", "skips_csv")]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.op = 0
        self._open: list[int] = []

    def _wrap(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            # the residual count needs the problem itself wrapped, not the solver
            if name == "nls.levenberg_marquardt":
                args = (self._counting_problem(args[0]),) + args[1:]
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                counter(self.counts.setdefault(self.op, Counter()), args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_problem(self, problem):
        counts = self.counts.setdefault(self.op, Counter())
        fun = problem.fun

        def counting_fun(p):
            r = fun(p)
            counts["nls.residual_evals"] += 1
            counts["nls.residual_points"] += len(r)
            return r

        return dataclasses.replace(problem, fun=counting_fun)

    @contextlib.contextmanager
    def install(self):
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in BOUNDARIES]
        try:
            for (module, attr, name, counter), (_, _, fn) in zip(BOUNDARIES, saved):
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self, op: int) -> dict[str, float]:
        """Per span name, the summed duration of its spans in ``op`` minus
        the time their child spans cover."""
        child_time = Counter()
        for span in self.spans:
            if span.op == op and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: Counter = Counter()
        for i, span in enumerate(self.spans):
            if span.op == op:
                out[span.name] += span.end - span.start - child_time[i]
        return dict(out)

    def to_json(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]

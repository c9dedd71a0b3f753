import csv
import xml.etree.ElementTree as ET

import pytest

from actirhythm import cli, errors, report
from actirhythm.cli import SYNTH_COLUMNS, _config_from, build_parser, main
from actirhythm.ingest import GroupLabel, load_manifest
from actirhythm.report import PipelineConfig
from cohorts import write_cohort

SMALL_SIZES = {GroupLabel.CONTROL_ICU: 2, GroupLabel.CCI: 2,
               GroupLabel.RR: 2, GroupLabel.CONTROL_HEALTHY: 2}
COMMANDS = ("validate", "features", "cosinor", "compare", "curves", "synth", "run")


@pytest.fixture
def cohort(tmp_path):
    return write_cohort(tmp_path / "cohort", sizes=SMALL_SIZES)


def test_usage_error_exit_code_1(capsys):
    assert main(["features", "--manifest"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def _help(parse, argv, capsys) -> str:
    """What ``parse(argv)`` prints before it exits 0 on -h."""
    with pytest.raises(SystemExit) as done:
        parse(argv)
    assert done.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_and_errors_are_those_of_the_full_parser(command, capsys):
    # main registers only the named command's subparser
    full = build_parser().parse_args
    assert _help(main, [command, "-h"], capsys) == _help(full, [command, "-h"], capsys)
    with pytest.raises(errors.UsageError) as missing:
        full([command])
    assert main([command]) == 1
    assert capsys.readouterr().err == f"usage error: {missing.value}\n"


# argparse reads a leading "--" as the command
@pytest.mark.parametrize("argv", [[], ["bogus"], ["--", "validate", "--manifest", "m.csv"]])
def test_argv_without_a_command_errs_as_the_full_parser(argv, capsys):
    with pytest.raises(errors.UsageError) as error:
        build_parser().parse_args(argv)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {error.value}\n"
    if argv:
        assert all(repr(command) in str(error.value) for command in COMMANDS)


def test_top_level_help_lists_every_command(capsys):
    text = _help(main, ["-h"], capsys)
    assert text == _help(build_parser().parse_args, ["-h"], capsys)
    assert "{" + ",".join(COMMANDS) + "}" in text


def test_each_main_call_builds_its_own_parser(monkeypatch, capsys):
    built = []

    def spy(command=None):
        built.append(build_parser(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["compare"]) == 1
    assert main(["compare"]) == 1
    assert len(built) == 2 and built[0] is not built[1]
    # with only compare registered, another command is not a choice
    with pytest.raises(errors.UsageError, match="invalid choice: 'validate'"):
        built[0].parse_args(["validate", "--manifest", "m.csv"])


def test_missing_manifest_exit_code_2(tmp_path, capsys):
    assert main(["features", "--manifest", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out")]) == 2


def test_validate_ok(cohort, capsys):
    assert main(["validate", "--manifest", str(cohort)]) == 0
    out = capsys.readouterr().out
    assert "p00" in out
    assert "ok" in out


def test_validate_insufficient(tmp_path, capsys):
    manifest = write_cohort(tmp_path / "cohort", sizes={GroupLabel.CCI: 1},
                            days=3)
    assert main(["validate", "--manifest", str(manifest)]) == 2
    assert "insufficient" in capsys.readouterr().out


def test_features_command(cohort, tmp_path, capsys):
    out = tmp_path / "feat"
    assert main(["features", "--manifest", str(cohort), "--out", str(out)]) == 0
    text = (out / "features.csv").read_text()
    assert text.splitlines()[0] == ("subject_id,group,mean,sd,m10,t_m10,l5,"
                                    "t_l5,ra,rmssd,rmssd_sd,immobile_minutes")
    assert len(text.splitlines()) == 9


def test_cosinor_command(cohort, tmp_path, capsys):
    out = tmp_path / "cos"
    assert main(["cosinor", "--manifest", str(cohort), "--out", str(out),
                 "--transform", "raw"]) == 0
    lines = (out / "cosinor.csv").read_text().splitlines()
    assert lines[0] == ("subject_id,group,min,amplitude,alpha,beta,phase,"
                        "mesor,rss,converged,transform")
    assert all(line.endswith(",raw") for line in lines[1:])


def test_compare_command(cohort, tmp_path, capsys):
    feat = tmp_path / "feat"
    cos = tmp_path / "cos"
    cmp_out = tmp_path / "cmp"
    assert main(["features", "--manifest", str(cohort), "--out", str(feat)]) == 0
    assert main(["cosinor", "--manifest", str(cohort), "--out", str(cos),
                 "--transform", "raw"]) == 0
    assert main(["compare", "--features", str(feat / "features.csv"),
                 "--cosinor", str(cos / "cosinor.csv"),
                 "--out", str(cmp_out)]) == 0
    table = (cmp_out / "comparison.txt").read_text()
    assert "amplitude" in table
    assert (cmp_out / "comparison.csv").read_text().splitlines()[0] == \
        "feature,group,median,q25,q75,kw_h,kw_p,markers"


@pytest.mark.parametrize("command", ["compare", "run"])
def test_exact_with_dunn_is_a_usage_error(cohort, tmp_path, capsys, command):
    # both commands succeed on these inputs without --exact
    if command == "compare":
        rows = "".join(f"s{i},{g},{i}\n" for i, g in enumerate(["cci", "cci", "rr", "rr"]))
        (tmp_path / "f.csv").write_text("subject_id,group,mean\n" + rows)
        (tmp_path / "c.csv").write_text("subject_id,group,amplitude\n" + rows)
        inputs = ["--features", str(tmp_path / "f.csv"),
                  "--cosinor", str(tmp_path / "c.csv")]
    else:
        inputs = ["--manifest", str(cohort)]
    out = tmp_path / "out"
    argv = [command, *inputs, "--out", str(out), "--posthoc", "dunn"]
    assert main(argv + ["--exact"]) == 1
    assert "--exact applies to --posthoc ranksum only" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0


def test_curves_command(cohort, tmp_path, capsys):
    out = tmp_path / "curves"
    assert main(["curves", "--manifest", str(cohort), "--out", str(out),
                 "--smooth", "15"]) == 0
    assert (out / "curves.svg").read_text().startswith("<svg")
    assert (out / "curves.csv").read_text().startswith("group,minute,")


def _curve_rows(path):
    """group -> its rows of curves.csv."""
    groups = {}
    for row in csv.DictReader(path.open(newline="")):
        groups.setdefault(row["group"], []).append(row)
    return groups


@pytest.mark.parametrize("smooth", ["9000", str(10**20)])
@pytest.mark.parametrize("command", ["curves", "run"])
def test_smooth_longer_than_the_window(cohort, tmp_path, capsys, command, smooth):
    """A window longer than the 5 x 1440 minutes of the analysis window
    keeps each curve at that length."""
    out = tmp_path / "out"
    assert main([command, "--manifest", str(cohort), "--out", str(out),
                 "--smooth", smooth]) == 0
    groups = _curve_rows(out / "curves.csv")
    assert len(groups) == 4
    for rows in groups.values():
        assert [int(r["minute"]) for r in rows] == list(range(5 * 1440))


def test_synth_then_run_roundtrip(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text(
        "subject_id,group,min,amplitude,alpha,beta,phase,noise_sd,days,seed\n"
        "a1,cci,20,150,0.1,6,11,5,6,1\n"
        "a2,cci,25,160,0.0,8,12,5,6,2\n"
        "b1,rr,30,170,-0.1,10,13,5,6,3\n"
        "b2,rr,35,180,0.2,12,14,5,6,4\n",
        encoding="utf-8")
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--spec", str(spec), "--out", str(synth_dir),
                 "--seed", "5"]) == 0
    assert (synth_dir / "manifest.csv").exists()
    assert (synth_dir / "a1.csv").exists()

    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    args = ["run", "--manifest", str(synth_dir / "manifest.csv"),
            "--transform", "raw"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("features.csv", "cosinor.csv", "comparison.csv", "curves.svg",
                 "overlays.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_subject_id_with_comma_round_trips_through_compare(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text(
        "subject_id,group,min,amplitude,alpha,beta,phase,noise_sd,days,seed\n"
        '"a1,x",cci,20,150,0.1,6,11,5,6,1\n'
        "a2,cci,25,160,0.0,8,12,5,6,2\n"
        "b1,rr,30,170,-0.1,10,13,5,6,3\n"
        "b2,rr,35,180,0.2,12,14,5,6,4\n"
        '"c,""q""",rr,35,180,0.2,12,14,5,3,5\n',
        encoding="utf-8")
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--spec", str(spec), "--out", str(synth_dir)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(synth_dir / "manifest.csv"),
                 "--out", str(out), "--transform", "raw"]) == 0
    tables = {name: out / name for name in ("features.csv", "cosinor.csv",
                                            "overlays.csv", "curves.csv", "skips.csv")}
    tables["synth manifest.csv"] = synth_dir / "manifest.csv"
    first_column = {}
    for name, path in tables.items():
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == len(rows[0]) for row in rows), name
        first_column[name] = {row[0] for row in rows[1:]}
    for name in ("features.csv", "cosinor.csv", "overlays.csv", "synth manifest.csv"):
        assert "a1,x" in first_column[name], name
    assert first_column["skips.csv"] == {'c,"q"'}
    cmp_out = tmp_path / "cmp"
    assert main(["compare", "--features", str(out / "features.csv"),
                 "--cosinor", str(out / "cosinor.csv"),
                 "--out", str(cmp_out)]) == 0
    assert "cci (n=2)" in (cmp_out / "comparison.txt").read_text()


def test_skip_reason_keeps_its_quotes(tmp_path, capsys):
    manifest = write_cohort(tmp_path / "c", sizes={GroupLabel.CCI: 1}, days=3)
    manifest.write_text(manifest.read_text().replace("p00,", "o'brien,", 1))
    entry = load_manifest(manifest.read_bytes())[0]
    with pytest.raises(errors.InsufficientData) as exc:
        report.prepare_subject(entry, manifest.parent, PipelineConfig())
    assert '"' in str(exc.value)
    out = tmp_path / "o"
    assert main(["curves", "--manifest", str(manifest), "--out", str(out)]) == 2
    with (out / "skips.csv").open(newline="", encoding="utf-8") as fh:
        skips = list(csv.DictReader(fh))
    assert [(row["subject_id"], row["reason"]) for row in skips] == \
        [("o'brien", str(exc.value))]


def test_skips_are_in_subject_order_across_stages(cohort, tmp_path, monkeypatch,
                                                  capsys):
    (cohort.parent / "p05.csv").unlink()
    monkeypatch.setattr(report, "fit_sigmoidal_cosinor",
                        _fit_failing_for("p00", errors.RankDeficient,
                                         report.fit_sigmoidal_cosinor))
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(cohort), "--out", str(out),
                 "--transform", "raw"]) == 0
    with (out / "skips.csv").open(newline="", encoding="utf-8") as fh:
        assert [row["subject_id"] for row in csv.DictReader(fh)] == ["p00", "p05"]


@pytest.mark.parametrize("sid", ['"a\rb"', '"a\nb"'])
def test_synth_rejects_line_break_in_subject_id(tmp_path, capsys, sid):
    spec = tmp_path / "spec.csv"
    spec.write_text(
        "subject_id,group,min,amplitude,alpha,beta,phase,noise_sd,days\n"
        f"{sid},cci,20,150,0.1,6,11,5,6\n", encoding="utf-8", newline="")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "line break" in capsys.readouterr().err


@pytest.mark.parametrize("sid", ["../escaped", "sub/dir", "a\\b", "a\0b", ".", "..",
                                 "manifest", "MANIFEST"])
def test_synth_rejects_subject_id_that_cannot_name_a_file(tmp_path, capsys, sid):
    spec = tmp_path / "spec.csv"
    spec.write_text(",".join(SYNTH_COLUMNS) + "\na1,cci,10,50,0,5,14,3,1\n"
                    f"{sid},rr,10,50,0,5,14,3,1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    assert "line 3: subject_id" in capsys.readouterr().err
    # every row is parsed before anything is written
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.csv"]


def test_subject_id_that_xml_cannot_hold(tmp_path, capsys):
    """Every SVG of a run parses when a subject ID holds characters that
    XML 1.0 cannot; the CSVs keep the ID as it is."""
    manifest = write_cohort(tmp_path / "cohort", sizes={GroupLabel.CCI: 1, GroupLabel.RR: 1})
    manifest.write_text(manifest.read_text().replace("p00,", "a\x01\x1b1,"), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
    for svg in ("curves.svg", "overlays.svg"):
        ET.parse(out / svg)
    assert "a\x01\x1b1,cci," in (out / "overlays.csv").read_text(encoding="utf-8")


def test_nul_byte_in_manifest_path_skips_that_subject(cohort, tmp_path, capsys):
    cohort.write_text(cohort.read_text().replace("p01.csv", "p01\0.csv"), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(cohort), "--out", str(out)]) == 0
    with (out / "skips.csv").open(newline="", encoding="utf-8") as fh:
        skips = list(csv.DictReader(fh))
    assert [row["subject_id"] for row in skips] == ["p01"]
    assert "NUL byte in path" in skips[0]["reason"]
    assert "\0" not in (out / "skips.csv").read_text(encoding="utf-8")


def test_count_overflow_skips_only_that_subject(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text(
        "subject_id,group,min,amplitude,alpha,beta,phase,noise_sd,days,seed\n"
        "a1,cci,20,150,0.1,6,11,5,6,1\n"
        "big,cci,20,1e160,0.1,6,11,5,6,2\n"
        "b1,rr,30,170,-0.1,10,13,5,6,3\n", encoding="utf-8")
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--spec", str(spec), "--out", str(synth_dir)]) == 0
    manifest = str(synth_dir / "manifest.csv")
    out = tmp_path / "o"
    assert main(["cosinor", "--manifest", manifest, "--out", str(out),
                 "--transform", "raw"]) == 0
    with (out / "skips.csv").open(newline="", encoding="utf-8") as fh:
        assert [row["subject_id"] for row in csv.DictReader(fh)] == ["big"]
    ids = [line.split(",")[0] for line in
           (out / "cosinor.csv").read_text().splitlines()[1:]]
    assert ids == ["a1", "b1"]
    assert main(["validate", "--manifest", manifest]) == 2
    assert "overflow" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["validate", "--manifest", "m.csv"],
    ["features", "--manifest", "m.csv", "--out", "o"],
    ["cosinor", "--manifest", "m.csv", "--out", "o"],
    ["curves", "--manifest", "m.csv", "--out", "o"],
    ["run", "--manifest", "m.csv", "--out", "o"],
])
def test_cli_defaults_are_the_config_defaults(argv):
    assert _config_from(build_parser().parse_args(argv)) == PipelineConfig()


@pytest.mark.parametrize("argv, message", [
    (["run", "--days", "0"], "argument --days: must be >= 1, got 0"),
    (["run", "--nonwear-min", "0"], "argument --nonwear-min: must be >= 1, got 0"),
    (["run", "--multistart", "0"], "argument --multistart: must be >= 1, got 0"),
    (["run", "--immobile-threshold", "-1"],
     "argument --immobile-threshold: must be >= 0.0, got -1"),
    (["run", "--immobile-threshold", "nan"],
     "argument --immobile-threshold: must be >= 0.0, got nan"),
    (["validate", "--days", "0"], "argument --days: must be >= 1, got 0"),
    (["run", "--nonwear-tolerance", "-1"],
     "argument --nonwear-tolerance: must be >= 0, got -1"),
    (["validate", "--nonwear-tolerance", "-1"],
     "argument --nonwear-tolerance: must be >= 0, got -1"),
    (["run", "--smooth", "-5"], "argument --smooth: must be >= 0, got -5"),
    (["curves", "--smooth", "-5"], "argument --smooth: must be >= 0, got -5"),
], ids=["days", "nonwear-min", "multistart", "immobile-negative", "immobile-nan",
        "validate-days", "nonwear-tolerance", "validate-nonwear-tolerance", "smooth",
        "curves-smooth"])
def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    out = [] if argv[0] == "validate" else ["--out", str(tmp_path / "o")]
    assert main(argv + ["--manifest", str(tmp_path / "m.csv")] + out) == 1
    assert message in capsys.readouterr().err


def test_synth_rejects_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text("subject_id,group\nx,cci\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out",
                 str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("row, message", [
    ("9,inf,0,5,12,1", "line 3: amplitude must be finite and >= 0, got inf"),
    ("9,100,0,5,12,inf", "line 3: noise_sd must be finite and >= 0, got inf"),
    ("1e308,1e308,0,5,12,1", "line 3: min + amplitude overflows, got 1e+308 + 1e+308"),
    ("9,100,0,5,12,1e308", "subject 'x': counts overflow with noise_sd 1e+308"),
], ids=["amplitude-inf", "noise-inf", "min-plus-amplitude", "noise-overflows"])
def test_synth_rejects_counts_that_overflow(tmp_path, capsys, row, message):
    spec = tmp_path / "spec.csv"
    spec.write_text(",".join(SYNTH_COLUMNS) + "\nok,cci,9,100,0,5,12,1,1\nx,rr,"
                    + row + ",1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not out.exists()   # rejected before any file is written


def test_synth_rejects_short_spec_row(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text(",".join(SYNTH_COLUMNS) + "\na1,cci\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "line 2: " in capsys.readouterr().err


def test_synth_error_names_the_file_line_after_a_blank_line(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text(",".join(SYNTH_COLUMNS) + "\n\na1,cci,10,xx,0,5,14,1,2\n",
                    encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "line 3: bad synth spec row" in capsys.readouterr().err


@pytest.mark.parametrize("row, base_seed, message", [
    ("a1,cci,10,50,2.0,5,14,3,1,", "0", "line 3: alpha must be in (-1, 1), got 2.0"),
    ("a1,cci,10,50,0,5,14,3,1,", "-5", "line 3: seed must be >= 0, got -5"),
    ("a1,cci,10,50,0,5,14,3,1,-1", "0", "line 3: seed must be >= 0, got -1"),
], ids=["alpha", "base-seed", "row-seed"])
def test_invalid_synth_spec_names_its_line(tmp_path, capsys, row, base_seed, message):
    spec = tmp_path / "spec.csv"
    spec.write_text(",".join(SYNTH_COLUMNS) + ",seed\n\n" + row + "\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o"),
                 "--seed", base_seed]) == 2
    assert f"data error: {message}" in capsys.readouterr().err


def test_blank_spec_line_keeps_the_row_index_seed(tmp_path, capsys):
    row = "a1,cci,10,50,0,5,14,3,1\n"
    for name, gap in (("plain", ""), ("gap", "\n")):
        spec = tmp_path / f"{name}.csv"
        spec.write_text(",".join(SYNTH_COLUMNS) + "\n" + gap + row, encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "gap" / "a1.csv").read_bytes() == \
        (tmp_path / "plain" / "a1.csv").read_bytes()


def test_non_utf8_synth_spec_exit_code_2(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_bytes(",".join(SYNTH_COLUMNS).encode() + b"\na1,cci,10,5\xff,0,5,14,1,2\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "line 2: byte 0xff is not UTF-8" in capsys.readouterr().err


def test_non_utf8_compare_table_exit_code_2(cohort, tmp_path, capsys):
    feat, cos = tmp_path / "feat", tmp_path / "cos"
    assert main(["features", "--manifest", str(cohort), "--out", str(feat)]) == 0
    assert main(["cosinor", "--manifest", str(cohort), "--out", str(cos),
                 "--transform", "raw"]) == 0
    table = feat / "features.csv"
    lines = table.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    table.write_bytes(b"\n".join(lines))
    assert main(["compare", "--features", str(table), "--cosinor",
                 str(cos / "cosinor.csv"), "--out", str(tmp_path / "cmp")]) == 2
    assert "line 3: byte 0xff is not UTF-8" in capsys.readouterr().err


def test_long_field_in_synth_spec_exit_code_2(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text(",".join(SYNTH_COLUMNS) + "\na1,cci,10,50,0,5,14,3,1"
                    + "0" * 200_000 + "\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "line 2: " in capsys.readouterr().err


def test_long_field_in_compare_table_exit_code_2(tmp_path, capsys):
    argv = _compare_argv(tmp_path, features=FEATURES + "d,rr," + "9" * 200_000 + "\n")
    assert main(argv) == 2
    assert "line 5: " in capsys.readouterr().err


def test_compare_rejects_short_features_row(cohort, tmp_path, capsys):
    feat, cos = tmp_path / "feat", tmp_path / "cos"
    assert main(["features", "--manifest", str(cohort), "--out", str(feat)]) == 0
    assert main(["cosinor", "--manifest", str(cohort), "--out", str(cos),
                 "--transform", "raw"]) == 0
    table = feat / "features.csv"
    table.write_text(table.read_text() + "p99\n", encoding="utf-8")
    assert main(["compare", "--features", str(table), "--cosinor",
                 str(cos / "cosinor.csv"), "--out", str(tmp_path / "cmp")]) == 2
    assert "line 10: " in capsys.readouterr().err


def test_bad_csv_syntax_in_one_epoch_file_skips_that_subject(tmp_path, capsys):
    manifest = write_cohort(tmp_path / "c", sizes={GroupLabel.CCI: 2})
    epochs = tmp_path / "c" / "p01.csv"
    lines = epochs.read_text().split("\n")
    lines[5] = lines[5].replace(",", "\r,", 1)
    epochs.write_text("\n".join(lines), encoding="utf-8", newline="\n")
    out = tmp_path / "o"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 0
    with (out / "skips.csv").open(newline="", encoding="utf-8") as fh:
        assert [row["subject_id"] for row in csv.DictReader(fh)] == ["p01"]
    ids = [line.split(",")[0] for line in
           (out / "features.csv").read_text().splitlines()[1:]]
    assert ids == ["p00"]


def test_non_utf8_byte_in_one_epoch_file_skips_that_subject(tmp_path, capsys):
    manifest = write_cohort(tmp_path / "c", sizes={GroupLabel.CCI: 2})
    epochs = tmp_path / "c" / "p01.csv"
    lines = epochs.read_bytes().split(b"\n")
    lines[5] = lines[5].replace(b",", b"\xff,", 1)
    epochs.write_bytes(b"\n".join(lines))
    out = tmp_path / "o"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 0
    with (out / "skips.csv").open(newline="", encoding="utf-8") as fh:
        skips = list(csv.DictReader(fh))
    assert [row["subject_id"] for row in skips] == ["p01"]
    assert skips[0]["reason"].startswith("line 6: ")


def test_non_utf8_manifest_exit_code_2(cohort, tmp_path, capsys):
    cohort.write_bytes(cohort.read_bytes().replace(b"p01", b"p\xe91", 1))
    assert main(["features", "--manifest", str(cohort),
                 "--out", str(tmp_path / "o")]) == 2
    assert "line 3: " in capsys.readouterr().err


def test_compare_names_the_line_of_a_row_without_subject_id(cohort, tmp_path, capsys):
    feat, cos = tmp_path / "feat", tmp_path / "cos"
    assert main(["features", "--manifest", str(cohort), "--out", str(feat)]) == 0
    assert main(["cosinor", "--manifest", str(cohort), "--out", str(cos),
                 "--transform", "raw"]) == 0
    table = feat / "features.csv"
    lines = table.read_text().split("\n")
    lines[4] = "," + lines[4].split(",", 1)[1]
    table.write_text("\n".join(lines), encoding="utf-8")
    assert main(["compare", "--features", str(table), "--cosinor",
                 str(cos / "cosinor.csv"), "--out", str(tmp_path / "cmp")]) == 2
    assert "line 5: row without subject_id" in capsys.readouterr().err


FEATURES = "subject_id,group,mean\na,cci,1\nb,rr,2\nc,rr,3\n"
COSINOR = "subject_id,group,min\na,cci,4\nb,rr,5\nc,rr,6\n"


def _compare_argv(tmp_path, features=FEATURES, cosinor=COSINOR):
    """compare over a features and a cosinor table with the given texts."""
    (tmp_path / "f.csv").write_text(features, encoding="utf-8")
    (tmp_path / "c.csv").write_text(cosinor, encoding="utf-8")
    return ["compare", "--features", str(tmp_path / "f.csv"),
            "--cosinor", str(tmp_path / "c.csv"), "--out", str(tmp_path / "cmp")]


def test_compare_counts_an_absent_column_as_missing(tmp_path, capsys):
    assert main(_compare_argv(tmp_path)) == 0
    lines = (tmp_path / "cmp" / "comparison.txt").read_text().splitlines()
    assert lines[2].split() == ["mean", "1", "(1,", "1)", "2.5", "(2.25,", "2.75)", "0.220671"]
    assert lines[3].split() == ["sd", "-", "-", "1"]


def test_compare_two_subjects_in_two_groups(tmp_path, capsys):
    # one value per group: too few to test, so no pair is tested and
    # the row keeps kw_p 1 and empty markers
    argv = _compare_argv(tmp_path, "subject_id,group,mean\na,cci,1\nb,rr,2\n",
                         "subject_id,group,min\na,cci,4\nb,rr,5\n")
    assert main(argv) == 0
    with (tmp_path / "cmp" / "comparison.csv").open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["feature"] in ("mean", "min")]
    assert [(r["feature"], r["group"], r["median"], r["kw_p"], r["markers"])
            for r in rows] == [("mean", "cci", "1", "1", ""), ("mean", "rr", "2", "1", ""),
                               ("min", "cci", "4", "1", ""), ("min", "rr", "5", "1", "")]


@pytest.mark.parametrize("column", ["subject_id", "group"])
def test_compare_table_without_a_key_column_exit_code_2(tmp_path, capsys, column):
    assert main(_compare_argv(tmp_path, features=FEATURES.replace(column, "x", 1))) == 2
    assert (f"line 1: {tmp_path / 'f.csv'}: missing columns [{column!r}]"
            in capsys.readouterr().err)


def test_compare_table_naming_a_column_twice_exit_code_2(tmp_path, capsys):
    features = "subject_id,group,mean,mean\na,cci,1,9\nb,rr,2,8\nc,rr,3,7\n"
    assert main(_compare_argv(tmp_path, features=features)) == 2
    assert (f"line 1: {tmp_path / 'f.csv'}: column 'mean' named twice"
            in capsys.readouterr().err)
    assert not (tmp_path / "cmp" / "comparison.csv").exists()


def test_synth_spec_naming_a_column_twice_exit_code_2(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text(",".join(SYNTH_COLUMNS) + ",min\na1,cci,10,50,0,5,14,3,1,20\n",
                    encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    assert f"line 1: {spec}: column 'min' named twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("features, cosinor, error, message", [
    (FEATURES + "b,rr,7\n", COSINOR, errors.DuplicateSubject,
     "line 5: duplicate subject 'b' in the features table"),
    (FEATURES, COSINOR + " c ,rr,7\n", errors.DuplicateSubject,
     "line 5: duplicate subject 'c' in the cosinor table"),
    (FEATURES, COSINOR.replace("a,cci", "a,rr"), errors.MalformedRow,
     "line 2: subject 'a' is rr here but cci in the features table"),
], ids=["features-duplicate", "cosinor-duplicate", "group-conflict"])
def test_compare_rejects_a_subject_it_cannot_place(tmp_path, capsys, features, cosinor,
                                                   error, message):
    argv = _compare_argv(tmp_path, features, cosinor)
    with pytest.raises(error, match=message):
        report.write_comparison(tmp_path / "f.csv", tmp_path / "c.csv", tmp_path)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["manifest", "synth spec", "compare table"])
def test_unknown_group_names_its_line(tmp_path, capsys, reader):
    table = tmp_path / "t.csv"
    if reader == "manifest":
        table.write_text("subject_id,group,path\na,cci,a.csv\nb,bogus,b.csv\n")
        argv = ["features", "--manifest", str(table)]
    elif reader == "synth spec":
        table.write_text(",".join(SYNTH_COLUMNS) + "\na,cci,10,50,0,5,14,3,1\n"
                         "b,bogus,10,50,0,5,14,3,1\n")
        argv = ["synth", "--spec", str(table)]
    else:
        table.write_text("subject_id,group,mean\na,cci,1\nb,bogus,2\n")
        argv = ["compare", "--features", str(table), "--cosinor", str(table)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "line 3: unknown group 'bogus'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def gate_cohort(tmp_path_factory):
    return write_cohort(tmp_path_factory.mktemp("gate"), sizes=SMALL_SIZES)


@pytest.mark.parametrize("run_flags, compare_flags", [
    ([], []),
    (["--transform", "raw"], []),
    (["--transform", "raw", "--posthoc", "dunn"], ["--posthoc", "dunn"]),
    (["--exact"], ["--exact"]),
], ids=["log1p", "raw", "raw-dunn", "log1p-exact"])
def test_compare_on_run_tables_reproduces_run_comparison(gate_cohort, tmp_path, capsys,
                                                         run_flags, compare_flags):
    run_out, cmp_out = tmp_path / "run", tmp_path / "cmp"
    assert main(["run", "--manifest", str(gate_cohort), "--out", str(run_out)]
                + run_flags) == 0
    assert main(["compare", "--features", str(run_out / "features.csv"),
                 "--cosinor", str(run_out / "cosinor.csv"), "--out", str(cmp_out)]
                + compare_flags) == 0
    for name in ("comparison.csv", "comparison.txt"):
        assert (cmp_out / name).read_bytes() == (run_out / name).read_bytes(), name


def test_raw_multistart_fits_a_start_that_saturates_the_curve(tmp_path, capsys, recwarn):
    # one of the phase-rotated starts drives beta = exp(v) to inf, where
    # the Jacobian must stay finite for this subject to be fitted; LM
    # rejects the trial steps that overflow exp, so no warning is printed
    spec = tmp_path / "spec.csv"
    spec.write_text(",".join(SYNTH_COLUMNS) + ",seed\n"
                    "demo02,control_icu,25.77,143.07,-0.214,10.02,10.86,5.0,6,2\n",
                    encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "c"),
                 "--seed", "1"]) == 0
    out = tmp_path / "o"
    assert main(["cosinor", "--manifest", str(tmp_path / "c" / "manifest.csv"),
                 "--out", str(out), "--transform", "raw", "--multistart", "3"]) == 0
    rows = (out / "cosinor.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["demo02"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_run_exit_code_2_when_one_group(tmp_path, capsys):
    manifest = write_cohort(tmp_path / "c", sizes={GroupLabel.RR: 3})
    assert main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o"), "--transform", "raw"]) == 2


def test_run_lists_its_skips_when_one_group_survives(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text(",".join(SYNTH_COLUMNS) + "\na,cci,10,100,0,5,14,3,7\n"
                    "b,rr,10,100,0,5,14,3,2\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    assert main(["run", "--manifest", str(tmp_path / "c" / "manifest.csv"),
                 "--out", str(tmp_path / "o"), "--transform", "raw"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "skipped b: subject 'b': 2 valid complete days, need 5",
        "data error: fewer than 2 groups survived preprocessing"]


def _fit_failing_for(subject_id, error, fit):
    def fit_or_fail(window, config):
        if window.subject_id == subject_id:
            raise error("injected numeric failure")
        return fit(window, config)
    return fit_or_fail


@pytest.mark.parametrize("error", [errors.RankDeficient,
                                   errors.NonFiniteResidual,
                                   errors.SingularNormalMatrix])
def test_run_skips_subject_with_numeric_failure(cohort, tmp_path, monkeypatch,
                                                capsys, error):
    monkeypatch.setattr(report, "fit_sigmoidal_cosinor",
                        _fit_failing_for("p01", error, report.fit_sigmoidal_cosinor))
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(cohort), "--out", str(out),
                 "--transform", "raw"]) == 0
    with (out / "skips.csv").open(newline="", encoding="utf-8") as fh:
        skips = list(csv.DictReader(fh))
    assert [(row["subject_id"], row["reason"]) for row in skips] == \
        [("p01", "injected numeric failure")]
    cosinor_ids = [line.split(",")[0] for line in
                   (out / "cosinor.csv").read_text().splitlines()[1:]]
    assert "p01" not in cosinor_ids and len(cosinor_ids) == 7


def test_cosinor_command_skips_subject_with_numeric_failure(
        cohort, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(report, "fit_sigmoidal_cosinor",
                        _fit_failing_for("p01", errors.SingularNormalMatrix,
                                         report.fit_sigmoidal_cosinor))
    out = tmp_path / "o"
    assert main(["cosinor", "--manifest", str(cohort), "--out", str(out),
                 "--transform", "raw"]) == 0
    assert "p01" in (out / "skips.csv").read_text()
    assert len((out / "cosinor.csv").read_text().splitlines()) == 8


def test_internal_error_exit_code_3(cohort, tmp_path, monkeypatch, capsys):
    import actirhythm.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli.report, "run_pipeline", boom)
    assert main(["run", "--manifest", str(cohort),
                 "--out", str(tmp_path / "o")]) == 3

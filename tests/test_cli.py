import csv

import pytest

from actirhythm.cli import main
from actirhythm.ingest import GroupLabel
from cohorts import write_cohort

SMALL_SIZES = {GroupLabel.CONTROL_ICU: 2, GroupLabel.CCI: 2,
               GroupLabel.RR: 2, GroupLabel.CONTROL_HEALTHY: 2}


@pytest.fixture
def cohort(tmp_path):
    return write_cohort(tmp_path / "cohort", sizes=SMALL_SIZES)


def test_usage_error_exit_code_1(capsys):
    assert main(["features", "--manifest"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


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


def test_curves_command(cohort, tmp_path, capsys):
    out = tmp_path / "curves"
    assert main(["curves", "--manifest", str(cohort), "--out", str(out),
                 "--smooth", "15"]) == 0
    assert (out / "curves.svg").read_text().startswith("<svg")
    assert (out / "curves.csv").read_text().startswith("group,minute,")


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
        "b2,rr,35,180,0.2,12,14,5,6,4\n",
        encoding="utf-8")
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--spec", str(spec), "--out", str(synth_dir)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(synth_dir / "manifest.csv"),
                 "--out", str(out), "--transform", "raw"]) == 0
    for name in ("features.csv", "cosinor.csv", "overlays.csv"):
        with (out / name).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == len(rows[0]) for row in rows), name
        assert "a1,x" in {row[0] for row in rows[1:]}, name
    cmp_out = tmp_path / "cmp"
    assert main(["compare", "--features", str(out / "features.csv"),
                 "--cosinor", str(out / "cosinor.csv"),
                 "--out", str(cmp_out)]) == 0
    assert "cci (n=2)" in (cmp_out / "comparison.txt").read_text()


def test_synth_rejects_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text("subject_id,group\nx,cci\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out",
                 str(tmp_path / "o")]) == 2


def test_run_exit_code_2_when_one_group(tmp_path, capsys):
    manifest = write_cohort(tmp_path / "c", sizes={GroupLabel.RR: 3})
    assert main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o"), "--transform", "raw"]) == 2


def test_internal_error_exit_code_3(cohort, tmp_path, monkeypatch, capsys):
    import actirhythm.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli.report, "run_pipeline", boom)
    assert main(["run", "--manifest", str(cohort),
                 "--out", str(tmp_path / "o")]) == 3

"""The bytes of `compare`'s outputs, pinned.

Two small table sets are written in tmp_path and compared three ways
(default, ``--exact`` and ``--posthoc dunn``); the SHA-256 of
comparison.csv and comparison.txt must equal the hashes recorded here. The
values come from integer arithmetic, so the inputs are the same bytes on
every host.

- ``tied``: groups of 6/8/9/10, every pair on the exact path; t_l5 and
  immobile_minutes take a few levels and so have ties.
- ``edges``: groups of 1/13/5/4, so pairs with the group of 13 fall back to
  the normal approximation; one column ties -0.0 with 0.0, and cells hold
  a NaN and a word, which count as missing. No pair on the exact path
  here can reach its threshold, so default and ``--exact`` agree.
"""

import hashlib

import pytest

from actirhythm.cli import main

GROUPS = ("control_icu", "cci", "rr", "control_healthy")
FEATURES = ("mean", "sd", "m10", "t_m10", "l5", "t_l5", "ra", "rmssd",
            "rmssd_sd", "immobile_minutes")
CIRCADIAN = ("min", "amplitude", "phase", "alpha", "beta")
SIZES = {"tied": (6, 8, 9, 10), "edges": (1, 13, 5, 4)}
MODES = {"default": [], "exact": ["--exact"], "dunn": ["--posthoc", "dunn"]}

# (table set, mode) -> SHA-256 of comparison.csv and of comparison.txt
PINS = {
    ("tied", "default"): ("2f5865221706f7f2c0b2fe454aee246d0b6aeabdd054141082f9d463eb5497ec",
                          "69d59116ba7a7216220f3e5bd90a433686ac8a4df42067eb880428b27cf46031"),
    ("tied", "exact"): ("83da94eb9572d0cf17ec79fc9ab971f3a66293b6122d2580aa75c25a98d1131a",
                        "a33d3d85b475febbf0d37f09147065ca47ef030d33a8970ede4e52a1a3853d6a"),
    ("tied", "dunn"): ("f005221e2a20fb08990492fcc476fb5735f88d584dcb85c49d865555c2f92f0c",
                       "7fa4595e6cd95ec1c271f765be56aa436df8e2e6b52ced1a0e463390ec079e43"),
    ("edges", "default"): ("5498e43638a3a3c0d16d34dff9abb35493269702c481b44e354c2484c36558d7",
                           "6174d8118b6d5c8cc9168d7f72ef7becf850baca856ca89189e1d2041b44bd3c"),
    ("edges", "exact"): ("5498e43638a3a3c0d16d34dff9abb35493269702c481b44e354c2484c36558d7",
                         "6174d8118b6d5c8cc9168d7f72ef7becf850baca856ca89189e1d2041b44bd3c"),
    ("edges", "dunn"): ("b7b137227ca5d3a205c7aa344259460af0f464de24b8b488e9506f0905dba7f9",
                        "439976545183357a1274a24dcde5af57c9d72df3425a3932f79195f779c4ef3d"),
}


def _cell(name: str, kind: str, i: int, c: int, g: int) -> str:
    """The text of column ``name`` (index c) for subject i of group index g."""
    if name in ("t_l5", "immobile_minutes"):
        return repr(float(((i * 7 + c * 3) % 5 + g) * 15))
    if kind == "edges":
        if name == "mean" and i % 3 == 0:   # -0.0 and 0.0 tie
            return ("-0.0", "0.0")[i % 2]
        if (name, i) == ("sd", 0):
            return "nan"
        if (name, i) == ("ra", 3):
            return "n/a"
    return repr(((i * 7919 + c * 104729) % 10007 + 1500 * g * (c % 3)) / 1000)


def write_tables(root, kind: str):
    """features.csv and cosinor.csv of the table set ``kind`` under root."""
    labels = [g for g, n in zip(GROUPS, SIZES[kind]) for _ in range(n)]
    names = FEATURES + CIRCADIAN
    lines = {"features": ["subject_id,group," + ",".join(FEATURES)],
             "cosinor": ["subject_id,group," + ",".join(CIRCADIAN)]}
    for i, label in enumerate(labels):
        cells = [_cell(name, kind, i, c, GROUPS.index(label))
                 for c, name in enumerate(names)]
        lines["features"].append(f"s{i:02d},{label}," + ",".join(cells[:len(FEATURES)]))
        lines["cosinor"].append(f"s{i:02d},{label}," + ",".join(cells[len(FEATURES):]))
    for table, text in lines.items():
        (root / f"{table}.csv").write_text("\n".join(text) + "\n", encoding="utf-8")


def comparison_hashes(root, kind: str, mode: str) -> tuple[str, str]:
    """Write the table set under root, run compare in that mode, and hash
    its two outputs."""
    write_tables(root, kind)
    out = root / mode
    assert main(["compare", "--features", str(root / "features.csv"),
                 "--cosinor", str(root / "cosinor.csv"), "--out", str(out),
                 *MODES[mode]]) == 0
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("comparison.csv", "comparison.txt"))


@pytest.mark.parametrize("kind", SIZES)
@pytest.mark.parametrize("mode", MODES)
def test_comparison_bytes_are_pinned(tmp_path, capsys, kind, mode):
    assert comparison_hashes(tmp_path, kind, mode) == PINS[kind, mode]


@pytest.mark.parametrize("kinds", [("tied", "edges"), ("edges", "tied")])
def test_exact_runs_in_one_process_carry_nothing(tmp_path, capsys, kinds):
    # the second comparison of a process must not see the exact distributions
    # or the tie-free tables the first one counted
    for kind in kinds:
        (tmp_path / kind).mkdir()
        assert comparison_hashes(tmp_path / kind, kind, "exact") == PINS[kind, "exact"]

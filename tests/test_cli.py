import json

import numpy as np
import pytest

from roictx import cli
from roictx.attacks import SplitMix64, apply_patches
from roictx.geometry import Box
from roictx.mining import CandidateGridSpec, candidate_pool_for_cell
from roictx.roi_ops import roi_align, roi_pool
from roictx.tensor import load_ften, save_ften

ROIS = [(10.3, 11.2, 18.9, 19.4), (0.5, 1.0, 7.0, 9.0),
        (30.0, 28.5, 39.5, 39.0), (15.0, 5.0, 25.0, 12.0),
        (3.3, 20.1, 12.7, 27.4)]


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(42)
    F = rng.normal(0, 1, (3, 40, 40)).astype(np.float32)
    save_ften(tmp_path / "F.ften", F)
    with open(tmp_path / "rois.csv", "w", encoding="utf-8") as fh:
        for r in ROIS:
            fh.write(",".join(repr(v) for v in r) + "\n")
    save_ften(tmp_path / "scorer.ften",
              rng.normal(0, 1, 3 * 7 * 7 + 1).astype(np.float32))
    return tmp_path, F


def _io(tmp, out):
    return ["--features", str(tmp / "F.ften"), "--rois", str(tmp / "rois.csv"),
            "--out", str(tmp / out)]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


RUN_CASES = {
    "roipool": ["roipool"],
    "roialign": ["roialign", "--samples", "3"],
    "ctxmine-pool": ["ctxmine", "--backbone", "pool", "--scorer", "{scorer}",
                     "--report", "{report}"],
    "ctxmine-align": ["ctxmine", "--backbone", "align", "--scorer", "{scorer}",
                      "--report", "{report}"],
    "variant-neigh8-pool": ["variant", "--variant", "neigh8"],
    "variant-local-align": ["variant", "--variant", "local", "--backbone",
                            "align"],
    "variant-global-pool": ["variant", "--variant", "global"],
}


class TestDeterminism:
    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_repeated_runs_byte_identical(self, inputs, case):
        tmp, _ = inputs
        outputs = []
        for run in (1, 2):
            args = [a.format(scorer=tmp / "scorer.ften",
                             report=tmp / f"report-{run}.json")
                    for a in RUN_CASES[case]]
            out = f"out-{run}.ften"
            assert cli.main(args + _io(tmp, out)) == 0
            files = [_read(tmp / out)]
            if "--report" in args:
                files.append(_read(tmp / f"report-{run}.json"))
            outputs.append(files)
        assert outputs[0] == outputs[1]


class TestNonFiniteRois:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("case", ["roipool", "roialign", "ctxmine-pool",
                                      "ctxmine-align", "variant-neigh8-pool"])
    def test_exits_1(self, inputs, capsys, case, bad):
        tmp, _ = inputs
        with open(tmp / "rois.csv", "a", encoding="utf-8") as fh:
            fh.write(f"1.0,{bad},5.0,5.0\n")
        args = [a.format(scorer=tmp / "scorer.ften", report=tmp / "r.json")
                for a in RUN_CASES[case]]
        assert cli.main(args + _io(tmp, "o.ften")) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp / "o.ften").exists()


class TestRoiOpCommands:
    def test_roipool_equals_library(self, inputs):
        tmp, F = inputs
        assert cli.main(["roipool", "--ph", "5", "--pw", "4"]
                        + _io(tmp, "p.ften")) == 0
        want = np.stack([roi_pool(F, Box(*r), 5, 4).data for r in ROIS])
        assert np.array_equal(load_ften(tmp / "p.ften"), want)

    def test_roialign_equals_library(self, inputs):
        tmp, F = inputs
        assert cli.main(["roialign", "--samples", "3"]
                        + _io(tmp, "a.ften")) == 0
        want = np.stack([roi_align(F, Box(*r), 7, 7, 3).data for r in ROIS])
        assert np.array_equal(load_ften(tmp / "a.ften"), want)

    def test_roialign_default_samples(self, inputs):
        tmp, F = inputs
        assert cli.main(["roialign"] + _io(tmp, "a.ften")) == 0
        want = np.stack([roi_align(F, Box(*r), 7, 7, 2).data for r in ROIS])
        assert np.array_equal(load_ften(tmp / "a.ften"), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["roipool", "roialign"])
    def test_non_finite_map_exits_1(self, inputs, capsys, command, bad):
        tmp, F = inputs
        F = F.copy()
        F[1, 7, 9] = bad
        save_ften(tmp / "F.ften", F)
        assert cli.main([command] + _io(tmp, "o.ften")) == 1
        assert capsys.readouterr().err == (
            "error: feature map holds NaN or inf values\n")
        assert not (tmp / "o.ften").exists()


class TestCtxmine:
    def test_report_lists_every_roi(self, inputs):
        tmp, _ = inputs
        args = ["ctxmine", "--report", str(tmp / "r.json")] + _io(tmp, "m.ften")
        assert cli.main(args) == 0
        with open(tmp / "r.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert [rec["object"] for rec in report] == [list(r) for r in ROIS]
        assert load_ften(tmp / "m.ften").shape == (len(ROIS), 27, 7, 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_exits_1(self, inputs, capsys, bad):
        tmp, F = inputs
        F = F.copy()
        F[1, 7, 9] = bad
        save_ften(tmp / "F.ften", F)
        assert cli.main(["ctxmine"] + _io(tmp, "m.ften")) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp / "m.ften").exists()


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_non_finite_scorer_exits_1(self, inputs, capsys, where, bad):
        tmp, _ = inputs
        vec = load_ften(tmp / "scorer.ften")
        vec[5 if where == "weights" else -1] = bad
        save_ften(tmp / "scorer.ften", vec)
        args = (["ctxmine", "--scorer", str(tmp / "scorer.ften"), "--report",
                 str(tmp / "r.json")] + _io(tmp, "m.ften"))
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp / "m.ften").exists()
        assert not (tmp / "r.json").exists()


class TestVariant:
    def test_nan_map_exits_1(self, tmp_path, capsys):
        F = np.random.default_rng(5).normal(0, 1, (4, 20, 20)).astype(np.float32)
        F[2, 11, 3] = np.nan
        save_ften(tmp_path / "F.ften", F)
        with open(tmp_path / "rois.csv", "w", encoding="utf-8") as fh:
            fh.write("7.0,7.0,12.0,12.0\n")
        args = ["variant", "--variant", "neigh8"] + _io(tmp_path, "v.ften")
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "v.ften").exists()


class TestEnumerate:
    def test_csv_lists_the_pool(self, tmp_path, capsys):
        out = tmp_path / "pool.csv"
        assert cli.main(["enumerate", "--cell", "3,4,15,12", "--bounds", "14,20",
                         "--out", str(out)]) == 0
        pool = candidate_pool_for_cell(Box(3, 4, 15, 12), CandidateGridSpec(),
                                       (14.0, 20.0))
        assert capsys.readouterr().out == f"pool_size={len(pool)}\n"
        with open(out, encoding="utf-8") as fh:
            rows = [tuple(float(v) for v in line.split(",")) for line in fh]
        assert rows == [(b.x1, b.y1, b.x2, b.y2) for b in pool]

    @pytest.mark.parametrize("cell", [["--cell", "-20", "-20", "-10", "-12"],
                                      ["--cell=-20,-20,-10,-12"]])
    def test_negative_cell_coordinates_parse(self, tmp_path, capsys, cell):
        out = tmp_path / "pool.csv"
        assert cli.main(["enumerate"] + cell + ["--out", str(out)]) == 0
        pool = candidate_pool_for_cell(Box(-20, -20, -10, -12),
                                       CandidateGridSpec(), None)
        assert capsys.readouterr().out == f"pool_size={len(pool)}\n"
        with open(out, encoding="utf-8") as fh:
            rows = [tuple(float(v) for v in line.split(",")) for line in fh]
        assert rows == [(b.x1, b.y1, b.x2, b.y2) for b in pool]

    def test_cell_needs_four_values(self, tmp_path, capsys):
        assert cli.main(["enumerate", "--cell", "1", "2", "3", "--out",
                         str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_lost_anchor_exits_1(self, tmp_path, capsys):
        assert cli.main(["enumerate", "--cell=-20,-20,-10,-12", "--bounds",
                         "64,64", "--out", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestFloatLists:
    @pytest.mark.parametrize("args", [
        ["enumerate", "--cell", "nan,0,10,10"],
        ["enumerate", "--cell", "0", "0", "inf", "10"],
        ["enumerate", "--cell", "0,0,10,10", "--bounds", "40,nan"],
        ["anchors", "--height", "2", "--width", "2", "--scales", "8,inf"],
        ["anchors", "--height", "2", "--width", "2", "--ratios=1,-inf"],
    ], ids=["cell-nan", "cell-inf", "bounds-nan", "scales-inf", "ratios-inf"])
    def test_non_finite_value_exits_1(self, tmp_path, capsys, args):
        out = tmp_path / "o.csv"
        assert cli.main(args + ["--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


FLOAT_OPTIONS = {
    "--local-scale": ["variant", "--variant", "local", "--features",
                      "{tmp}/F.ften", "--rois", "{tmp}/rois.csv"],
    "--min-iou": ["enumerate", "--cell", "0,0,10,10"],
    "--short-edge-frac": ["enumerate", "--cell", "0,0,10,10"],
    "--iou-threshold": ["nms", "--boxes", "{tmp}/scored.csv"],
    "--stride": ["anchors", "--height", "1", "--width", "2"],
    "--h": ["gradcheck", "--op", "loss", "--probes", "5"],
    "--lr": ["synth-demo", "--variant", "none", "--scenes", "4",
             "--epochs", "1"],
}


class TestFloatOptions:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", sorted(FLOAT_OPTIONS))
    def test_non_finite_is_usage_error(self, inputs, capsys, option, bad):
        """Each command would run and write its output with a finite value;
        nan and inf stop it at parsing, as a non-numeric value does."""
        tmp, _ = inputs
        with open(tmp / "scored.csv", "w", encoding="utf-8") as fh:
            fh.write("0.0,0.0,4.0,4.0,0.9\n1.0,1.0,5.0,5.0,0.8\n")
        out = tmp / "o.out"
        args = [a.format(tmp=tmp) for a in FLOAT_OPTIONS[option]]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + [f"{option}={bad}", "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {option}: non-finite value" in capsys.readouterr().err
        assert not out.exists()


class TestSynthDemo:
    def test_diverged_scorer_exits_1(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["synth-demo", "--variant", "mining", "--scenes", "40",
                         "--epochs", "5", "--lr", "1e30",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: training diverged")
        assert not out.exists()


class TestGradcheck:
    @pytest.mark.parametrize("op", ["roipool", "roialign", "ctxmine", "loss"])
    def test_report_within_tolerance(self, tmp_path, op):
        out = tmp_path / "gc.json"
        assert cli.main(["gradcheck", "--op", op, "--seed", "5", "--probes", "40",
                         "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["op"] == op and report["seed"] == 5
        assert report["max_rel_error"] <= 1e-2


class TestAttackManifest:
    def _image(self, tmp):
        img = np.random.default_rng(3).normal(0, 1, (2, 16, 16)).astype(np.float32)
        save_ften(tmp / "img.ften", img)
        with open(tmp / "gt.csv", "w", encoding="utf-8") as fh:
            fh.write("2.0,3.0,10.0,12.0\n")
        return img

    def _run(self, tmp, manifest):
        with open(tmp / "m.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        return cli.main(["attack", "--kind", "flip", "--seed", "9",
                         "--manifest", str(tmp / "m.json")])

    def test_entries_use_split_seeds(self, tmp_path):
        img = self._image(tmp_path)
        entry = {"in": str(tmp_path / "img.ften"),
                 "boxes": str(tmp_path / "gt.csv")}
        manifest = [dict(entry, out=str(tmp_path / f"o{i}.ften")) for i in range(2)]
        assert self._run(tmp_path, manifest) == 0
        root = SplitMix64(9)
        for i in range(2):
            want = apply_patches(img, [Box(2.0, 3.0, 10.0, 12.0)], "flip",
                                 root.split(i).next_u64())
            assert np.array_equal(load_ften(tmp_path / f"o{i}.ften"), want)

    @pytest.mark.parametrize("shape", [
        "not-a-list", "entry-not-object", "no-in", "no-boxes", "no-out"])
    def test_malformed_manifest_exits_1(self, tmp_path, capsys, shape):
        self._image(tmp_path)
        entry = {"in": str(tmp_path / "img.ften"),
                 "boxes": str(tmp_path / "gt.csv"),
                 "out": str(tmp_path / "o.ften")}
        if shape == "not-a-list":
            manifest = entry
        elif shape == "entry-not-object":
            manifest = [entry["in"]]
        else:
            del entry[shape[3:]]
            manifest = [entry]
        assert self._run(tmp_path, manifest) == 1
        assert capsys.readouterr().err.startswith("error: ")

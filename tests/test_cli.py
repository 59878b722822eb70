import argparse
import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from roictx import cli, mining
from roictx.attacks import SplitMix64, apply_patches
from roictx.geometry import Box
from roictx.gradcheck import check
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

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate {} floats", "Unable to allocate 147 floats"),
        ("", "MemoryError")])
    def test_memory_error_exits_1(self, inputs, capsys, monkeypatch, message,
                                  line):
        """An allocation the machine refuses, such as the default scorer of
        huge extents, is an error line, not a traceback.  The allocation is
        patched to fail: the test allocates nothing large."""
        def refuse(d, ph, pw):
            raise MemoryError(message.format(d * ph * pw))

        monkeypatch.setattr(mining.ContextScorer, "zeros", staticmethod(refuse))
        tmp, _ = inputs
        args = (["ctxmine", "--report", str(tmp / "r.json")]
                + _io(tmp, "m.ften"))
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"error: {line}\n")
        assert not (tmp / "m.ften").exists()
        assert not (tmp / "r.json").exists()

    @pytest.mark.parametrize("grid,extents", [("--pw=-3", "7x-3"),
                                              ("--ph=0", "0x7")])
    def test_grid_below_one_exits_1(self, inputs, capsys, grid, extents):
        """The extent check runs before the default zero scorer is made,
        so a negative extent never reaches numpy."""
        tmp, _ = inputs
        args = (["ctxmine", grid, "--report", str(tmp / "r.json")]
                + _io(tmp, "m.ften"))
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"error: grid extents must be >= 1, got {extents}\n")
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

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_non_positive_local_scale_exits_1(self, inputs, capsys, scale):
        """Such a scale makes a flipped or empty local box, whose block
        would silently repeat the object map."""
        tmp, _ = inputs
        args = (["variant", "--variant", "local", f"--local-scale={scale}"]
                + _io(tmp, "v.ften"))
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"error: local_scale must be finite and > 0, got {float(scale)}\n")
        assert not (tmp / "v.ften").exists()


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

    @pytest.mark.parametrize("cell,bounds", [
        ("5,5,5,9", []), ("10,10,5,5", []), ("5,5,9,5", ["--bounds", "64,64"]),
        ("10,10,5,5", ["--bounds", "64,64"])])
    def test_degenerate_cell_names_the_cell(self, tmp_path, capsys, cell,
                                            bounds):
        """A cell without positive width and height is refused as such,
        with or without bounds, rather than reported as a lost anchor."""
        out = tmp_path / "p.csv"
        assert cli.main(["enumerate", "--cell", cell, "--out", str(out)]
                        + bounds) == 1
        box = Box(*(float(v) for v in cell.split(",")))
        assert capsys.readouterr().err == f"error: cell has no area: {box}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["0,0,2e154,2e154", "0,0,1e300,1e300"])
    @pytest.mark.parametrize("bounds", [[], ["--bounds", "64,64"]],
                             ids=["unbounded", "bounded"])
    def test_huge_cell_needs_no_overflow_check(self, tmp_path, capsys, cell,
                                               bounds):
        """A huge cell enumerates without a warning: unbounded, all 188
        candidates; on a 64x64 map its anchor is lost."""
        out = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["enumerate", f"--cell={cell}", "--out", str(out)]
                            + bounds)
        captured = capsys.readouterr()
        if bounds:
            assert code == 1 and not out.exists()
            assert captured.err == ("error: cell anchor falls outside the "
                                    "bounds (empty pool)\n")
        else:
            assert code == 0 and captured.out == "pool_size=188\n"

    def test_overflowing_corner_names_the_cell(self, tmp_path, capsys):
        """An unbounded pool with a corner that overflows float64 is
        refused with a typed error, no warning and no CSV."""
        out = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["enumerate", "--cell=0,0,1.5e308,1.5e308",
                             "--out", str(out)]) == 1
        box = Box(0.0, 0.0, 1.5e308, 1.5e308)
        assert capsys.readouterr().err == (
            f"error: candidate pool of cell {box} overflows float64\n")
        assert not out.exists()


class TestFloatLists:
    @pytest.mark.parametrize("args", [
        ["enumerate", "--cell", "nan,0,10,10"],
        ["enumerate", "--cell", "0", "0", "inf", "10"],
        ["enumerate", "--cell", "0,0,10,10", "--bounds", "40,nan"],
    ], ids=["cell-nan", "cell-inf", "bounds-nan"])
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
    "--h": ["gradcheck", "--op", "roipool", "--probes", "5"],
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

    def test_negative_epochs_exit_1(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["synth-demo", "--variant", "none", "--scenes", "8",
                         "--epochs", "-2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: need epochs >= 1, got -2\n")
        assert not out.exists()


class TestGradcheck:
    @pytest.mark.parametrize("op", ["roipool", "roialign", "ctxmine"])
    def test_report_within_tolerance(self, tmp_path, op):
        """The documented tolerance, at the default 150 probes, on seeds
        whose pool argmax flips at some probe of ctxmine's nine block maps
        (0, 1, 2) and on the matrix's seed 5."""
        out = tmp_path / "gc.json"
        for seed in (0, 1, 2, 5):
            assert cli.main(["gradcheck", "--op", op, "--seed", str(seed),
                             "--out", str(out)]) == 0
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            assert report["op"] == op and report["seed"] == seed
            assert report["probed"] == 150
            assert report["max_rel_error"] <= 1e-3

    def test_every_probe_skipped_exits_1(self, tmp_path, capsys,
                                         monkeypatch):
        """A check that compared no probe fails rather than reporting an
        error of 0.0, and writes no report."""
        def instance(op, seed):
            return (lambda t: (float(t.max()), int(np.argmax(t))),
                    np.array([1.0, 1.005], dtype=np.float32),
                    np.array([5.0, 5.0], dtype=np.float32))

        monkeypatch.setattr(cli, "_gradcheck_instance", instance)
        out = tmp_path / "gc.json"
        assert cli.main(["gradcheck", "--op", "roipool", "--probes", "2",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: all 2 probes skipped")
        assert not out.exists()

    def test_ctxmine_mines_once_per_evaluation(self, tmp_path, monkeypatch):
        """One mine_context call per perturbed point, value and record from
        the same forward, plus one at the base point for the backward."""
        calls = []
        real = mining.mine_context

        def counting(*args, **kwargs):
            calls.append(args[0].copy())
            return real(*args, **kwargs)

        monkeypatch.setattr(mining, "mine_context", counting)
        assert cli.main(["gradcheck", "--op", "ctxmine", "--probes", "7",
                         "--out", str(tmp_path / "gc.json")]) == 0
        assert len(calls) == 2 * 7 + 1
        assert all(np.count_nonzero(c != calls[0]) == 1 for c in calls[1:])

    def test_report_is_the_check_report(self, tmp_path):
        """The JSON file is gradcheck.check's report, field by field, with
        the op and the seed beside it."""
        out = tmp_path / "gc.json"
        assert cli.main(["gradcheck", "--op", "roipool", "--seed", "3",
                         "--probes", "20", "--out", str(out)]) == 0
        f, x, grad = cli._gradcheck_instance("roipool", 3)
        want = check(f, x, grad, probes=20, seed=3)
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload == {"max_abs_error": want.max_abs_error,
                           "max_rel_error": want.max_rel_error,
                           "worst_index": list(want.worst_index),
                           "h": 1e-2, "probed": 20,
                           "skipped": want.skipped, "op": "roipool",
                           "seed": 3}
        assert _read(out).endswith(b"}\n")


class TestCommandSet:
    @pytest.mark.parametrize("argv,choice", [
        (["nms", "--boxes", "b.csv", "--iou-threshold", "0.5"], "nms"),
        (["anchors", "--height", "2", "--width", "2"], "anchors"),
        (["gradcheck", "--op", "loss"], "loss"),
    ], ids=["nms", "anchors", "gradcheck-loss"])
    def test_removed_command_is_usage_error(self, tmp_path, capsys, argv,
                                            choice):
        out = tmp_path / "o.out"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: roictx")
        assert f"invalid choice: '{choice}'" in err
        assert not out.exists()

    def test_cli_matrix_runs_every_subcommand(self, tmp_path):
        """tools/matrix.py's CLI runs cover exactly the parser's
        subcommands and name 59 distinct output files; listing its runs
        writes no file."""
        path = Path(__file__).resolve().parent.parent / "tools" / "matrix.py"
        spec = importlib.util.spec_from_file_location("matrix", path)
        matrix = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(matrix)
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        runs = list(matrix.commands(tmp_path))
        ran = {argv[0] for _, argv in runs}
        assert ran == set(subparsers.choices)
        names = [name for outputs, _ in runs for name in outputs]
        assert len(names) == len(set(names)) == 59
        assert all(name.endswith((".ften", ".json", ".csv")) for name in names)
        assert not any(tmp_path.iterdir())


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

    @pytest.mark.parametrize("key,value", [
        ("in", ["a"]), ("boxes", 2.5), ("out", 1)])
    def test_non_string_path_exits_1(self, tmp_path, capsys, key, value):
        """A number as out would name a file descriptor (1 is stdout), and
        a list as in fails deep in the reader: both are format errors
        naming the entry and the key, raised before any entry runs."""
        self._image(tmp_path)
        good = {"in": str(tmp_path / "img.ften"),
                "boxes": str(tmp_path / "gt.csv"),
                "out": str(tmp_path / "o0.ften")}
        bad = dict(good, out=str(tmp_path / "o1.ften"))
        bad[key] = value
        assert self._run(tmp_path, [good, bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {tmp_path / 'm.json'}: entry 1 "
                                f"lacks a string {key}\n")
        assert not (tmp_path / "o0.ften").exists()
        assert not (tmp_path / "o1.ften").exists()

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tumorbox.cli import _atlas_filename, build_parser, main
from tumorbox.config import _NESTED, _TOP_LEVEL, build_run_config
from tumorbox.errors import ConfigurationError
from tumorbox.mha import write_mha
from tumorbox.volume import Volume

# Tiny phantoms keep CLI runs fast; slices chosen to cross the tumor ball.
SMALL = ["--dims", "48", "48", "24", "--radius-min", "4", "--radius-max", "6"]
SLICE_INDICES = (10, 11, 12, 13, 14, 15)
SMALL_SLICES = ",".join(map(str, SLICE_INDICES))


def run(argv):
    return main(argv)


def assert_debug_dump_is_fresh_fit(debug, volume_path, atlas_dir, method, background):
    """Each debug_slice_*.json equals, byte for byte, the file written from
    a second clustering of the same enhanced slice."""
    from oracles import segmentation_fit
    from tumorbox.clustering import ClusterConfig
    from tumorbox.mha import read_mha
    from tumorbox.preprocess import enhance_contrast, load_atlas, normalize
    from tumorbox.volume import extract_slice

    volume = read_mha(volume_path)
    assert sorted(p.name for p in debug.iterdir()) == [
        f"debug_slice_{n:03d}.json" for n in SLICE_INDICES
    ]
    for n in SLICE_INDICES:
        atlas = load_atlas(atlas_dir / _atlas_filename(n))
        enhanced = enhance_contrast(normalize(extract_slice(volume, n)), atlas)
        expected = segmentation_fit(enhanced, method, ClusterConfig(), background)
        assert "empty" not in expected
        text = (debug / f"debug_slice_{n:03d}.json").read_text()
        assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n", f"slice {n}"


def file_hashes(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@pytest.fixture()
def phantom_dir(tmp_path):
    out = tmp_path / "cases"
    code = run(["phantom", "--out-dir", str(out), "--count", "3", "--seed", "7", *SMALL])
    assert code == 0
    return out


@pytest.fixture()
def shallow_manifest(phantom_dir, tmp_path):
    """The three 48x48x24 phantoms plus one 48x48x12 phantom, too shallow
    for the deepest slice of SMALL_SLICES."""
    shallow = tmp_path / "shallow"
    assert run([
        "phantom", "--out-dir", str(shallow), "--count", "1", "--seed", "7",
        "--dims", "48", "48", "12", "--radius-min", "4", "--radius-max", "6",
    ]) == 0
    for kind in ("flair", "gt"):
        (shallow / f"phantom_000_{kind}.mha").rename(shallow / f"shallow_{kind}.mha")
    manifest = phantom_dir / "shallow.csv"
    manifest.write_text(
        (phantom_dir / "manifest.csv").read_text()
        + f"{shallow}/shallow_flair.mha,{shallow}/shallow_gt.mha,Phantom\n"
    )
    return manifest, shallow / "shallow_gt.mha"


def assert_shallow_gt_logged(caplog, gt_path):
    messages = [rec.getMessage() for rec in caplog.records]
    assert any(str(gt_path) in m and "depth 12" in m and "slice 15" in m for m in messages), messages


@pytest.fixture()
def atlas_dir(tmp_path, phantom_dir):
    out = tmp_path / "atlases"
    code = run([
        "atlas", "build",
        "--manifest", str(phantom_dir / "manifest.csv"),
        "--out-dir", str(out),
        "--slices", SMALL_SLICES,
    ])
    assert code == 0
    return out


class TestPhantomCommand:
    def test_writes_files_and_manifest(self, phantom_dir):
        names = sorted(p.name for p in phantom_dir.iterdir())
        assert "manifest.csv" in names
        assert sum(n.endswith("_flair.mha") for n in names) == 3
        assert sum(n.endswith("_gt.mha") for n in names) == 3
        assert sum(n.endswith("_spec.json") for n in names) == 3
        lines = (phantom_dir / "manifest.csv").read_text().strip().splitlines()
        assert lines[0] == "intensity_path,gt_path,cohort"
        assert len(lines) == 4

    def test_same_seed_identical_files(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["phantom", "--out-dir", str(out), "--count", "2", "--seed", "11", *SMALL]) == 0
        assert file_hashes(sorted(a.iterdir())) == file_hashes(sorted(b.iterdir()))

    def test_invalid_spec_is_usage_error(self, tmp_path):
        code = run([
            "phantom", "--out-dir", str(tmp_path / "x"), "--count", "1",
            "--dims", "16", "16", "8", "--radius-min", "30", "--radius-max", "40",
        ])
        assert code == 2

    def test_nan_noise_sigma_is_usage_error(self, tmp_path, caplog):
        out = tmp_path / "x"
        with caplog.at_level("ERROR"):
            code = run(["phantom", "--out-dir", str(out), "--noise-sigma", "nan", *SMALL])
        assert code == 2
        assert any("noise_sigma must be finite" in rec.getMessage() for rec in caplog.records)
        assert not list(out.rglob("*"))

    def test_nan_in_spec_file_is_usage_error(self, tmp_path, caplog):
        from tumorbox.phantom import PhantomSpec

        payload = PhantomSpec().to_dict()
        payload["tumor_radius"] = float("nan")
        spec_path = tmp_path / "nan_spec.json"
        spec_path.write_text(json.dumps(payload))  # written as the bare token NaN
        assert "NaN" in spec_path.read_text()
        out = tmp_path / "x"
        with caplog.at_level("ERROR"):
            code = run(["phantom", "--out-dir", str(out), "--spec", str(spec_path)])
        assert code == 2
        assert any("tumor_radius must be finite" in rec.getMessage() for rec in caplog.records)
        assert not list(out.rglob("*"))

    def test_bad_placement_of_a_later_case_writes_nothing(self, tmp_path, caplog):
        argv = ["phantom", "--seed", "2", "--dims", "24", "24", "12", "--radius-min", "2", "--radius-max", "5.5"]
        assert run([*argv, "--out-dir", str(tmp_path / "one"), "--count", "1"]) == 0  # case 0 fits
        out = tmp_path / "d"
        with caplog.at_level("ERROR"):
            assert run([*argv, "--out-dir", str(out), "--count", "6"]) == 2
        assert "not strictly inside the brain ellipsoid" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        out = tmp_path / "x"
        assert run(["phantom", "--out-dir", str(out), "--count", count, *SMALL]) == 2
        assert not (out / "manifest.csv").exists()
        assert capsys.readouterr().out == ""

    def test_spec_file_fixes_geometry(self, tmp_path):
        from tumorbox.mha import read_mha
        from tumorbox.phantom import PhantomSpec, save_spec

        spec = PhantomSpec(
            dims=(32, 32, 16),
            brain_center=(16.0, 16.0, 8.0),
            brain_radii=(13.0, 13.0, 7.0),
            tumor_center=(16.0, 16.0, 8.0),
            tumor_radius=3.0,
            seed=100,
        )
        spec_path = tmp_path / "base_spec.json"
        save_spec(spec, spec_path)
        out = tmp_path / "fixed"
        assert run(["phantom", "--out-dir", str(out), "--count", "2", "--spec", str(spec_path)]) == 0
        gt0 = read_mha(out / "phantom_000_gt.mha", kind="label")
        gt1 = read_mha(out / "phantom_001_gt.mha", kind="label")
        assert np.array_equal(gt0.data, gt1.data)  # same geometry
        i0 = read_mha(out / "phantom_000_flair.mha")
        i1 = read_mha(out / "phantom_001_flair.mha")
        assert not np.array_equal(i0.data, i1.data)  # different noise seed


class TestAtlasBuild:
    def test_builds_six_files(self, atlas_dir, capsys):
        files = sorted(p.name for p in atlas_dir.iterdir())
        assert files == [f"atlas_slice_{n:03d}.npz" for n in (10, 11, 12, 13, 14, 15)]
        with np.load(atlas_dir / _atlas_filename(12), allow_pickle=False) as archive:
            assert int(archive["num_patients"]) == 3
            assert int(archive["slice_index"]) == 12
            assert archive["counts"].shape == (48, 48)

    def test_two_builds_are_byte_identical(self, atlas_dir, phantom_dir, tmp_path, monkeypatch, capsys):
        import time

        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 86400 * 400)
        again = tmp_path / "again"
        assert run([
            "atlas", "build", "--manifest", str(phantom_dir / "manifest.csv"),
            "--out-dir", str(again), "--slices", SMALL_SLICES,
        ]) == 0
        first = file_hashes(sorted(atlas_dir.iterdir()))
        assert len(first) == 6
        assert file_hashes(sorted(again.iterdir())) == first

    def test_single_gt_atlas_equals_binary_mask(self, tmp_path, phantom_dir):
        import numpy as np
        from tumorbox.mha import read_mha
        from tumorbox.volume import extract_slice

        man = tmp_path / "one.csv"
        man.write_text(
            "intensity_path,gt_path,cohort\n"
            f"{phantom_dir / 'phantom_000_flair.mha'},{phantom_dir / 'phantom_000_gt.mha'},Phantom\n"
        )
        out = tmp_path / "single"
        assert run(["atlas", "build", "--manifest", str(man), "--out-dir", str(out), "--slices", "12"]) == 0
        with np.load(out / _atlas_filename(12), allow_pickle=False) as archive:
            got, num_patients = archive["counts"], int(archive["num_patients"])
        gt = read_mha(phantom_dir / "phantom_000_gt.mha", kind="label")
        mask = (extract_slice(gt, 12).data != 0).astype(int)
        assert num_patients == 1
        assert np.array_equal(got, mask)

    def test_missing_manifest_is_io_error(self, tmp_path):
        code = run(["atlas", "build", "--manifest", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")])
        assert code == 4

    def test_fractional_gt_is_usage_error(self, tmp_path, phantom_dir, caplog):
        # A MET_FLOAT ground truth holding 2.5 once read as label 2.
        from tumorbox.mha import read_mha

        gt = read_mha(phantom_dir / "phantom_000_gt.mha", kind="label")
        path = tmp_path / "fractional_gt.mha"
        write_mha(Volume(data=gt.data, kind="label", element_type="MET_FLOAT"), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4] + np.float32(2.5).tobytes())
        man = tmp_path / "frac.csv"
        man.write_text(
            "intensity_path,gt_path,cohort\n"
            f"{phantom_dir / 'phantom_000_flair.mha'},{path},Phantom\n"
        )
        out = tmp_path / "atlases"
        with caplog.at_level("ERROR"):
            code = run(["atlas", "build", "--manifest", str(man), "--out-dir", str(out)])
        assert code == 2
        assert "label volume contains values outside 0..4: [2.5]" in caplog.text
        assert not out.exists()

    def test_shallow_gt_is_usage_error(self, shallow_manifest, tmp_path, caplog):
        manifest, gt_path = shallow_manifest
        out = tmp_path / "atlases"
        with caplog.at_level("ERROR"):
            code = run([
                "atlas", "build", "--manifest", str(manifest), "--out-dir", str(out),
                "--slices", SMALL_SLICES,
            ])
        assert code == 2
        assert_shallow_gt_logged(caplog, gt_path)
        assert not list(tmp_path.rglob("atlas_slice_*"))


class TestExtract:
    def test_json_bbox_on_stdout(self, phantom_dir, atlas_dir, capsys):
        code = run([
            "extract",
            "--volume", str(phantom_dir / "phantom_000_flair.mha"),
            "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES,
            "--method", "em",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "em"
        box = payload["bbox"]
        assert all(isinstance(box[k], int) for k in ("row_min", "col_min", "row_max", "col_max"))

    def test_report_and_method_label(self, phantom_dir, atlas_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        for method in ("em", "kmeans"):
            code = run([
                "extract",
                "--volume", str(phantom_dir / "phantom_001_flair.mha"),
                "--atlas-dir", str(atlas_dir),
                "--slices", SMALL_SLICES,
                "--method", method,
                "--report", str(report),
            ])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["method"] == method
            assert json.loads(report.read_text())["method"] == method

    def test_csv_format(self, phantom_dir, atlas_dir, capsys):
        code = run([
            "extract",
            "--volume", str(phantom_dir / "phantom_000_flair.mha"),
            "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES,
            "--format", "csv",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert len(out.split(",")) == 5

    def test_zero_volume_strict_exits_3(self, tmp_path, atlas_dir, capsys):
        zero = tmp_path / "zero.mha"
        write_mha(Volume(data=np.zeros((24, 48, 48))), zero)
        code = run([
            "extract", "--volume", str(zero), "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES, "--strict",
        ])
        assert code == 3

    def test_zero_volume_csv_prints_empty_record(self, tmp_path, atlas_dir, capsys, caplog):
        zero = tmp_path / "zero.mha"
        write_mha(Volume(data=np.zeros((24, 48, 48))), zero)
        with caplog.at_level("WARNING"):
            code = run([
                "extract", "--volume", str(zero), "--atlas-dir", str(atlas_dir),
                "--slices", SMALL_SLICES, "--format", "csv",
            ])
        assert code == 0
        assert capsys.readouterr().out == ",,,,\n"
        assert any(
            rec.levelname == "WARNING" and rec.getMessage().startswith("no tumor detected")
            for rec in caplog.records
        )

    def test_tumour_free_strict_exits_3_and_writes_report(self, tmp_path, atlas_dir):
        zero = tmp_path / "zero.mha"
        report_path = tmp_path / "report.json"
        write_mha(Volume(data=np.zeros((24, 48, 48))), zero)
        code = run([
            "extract", "--volume", str(zero), "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES, "--strict", "--report", str(report_path),
        ])
        assert code == 3
        report = json.loads(report_path.read_text())
        assert report["votes"] == [0, 0, 0, 0]
        assert report["winning_quadrants"] == []
        assert report["fallback_used"] is False
        assert report["bbox"] is None
        assert [s["slice_index"] for s in report["slices"]] == [10, 11, 12, 13, 14, 15]
        assert all(s["empty"] for s in report["slices"])

    def test_zero_volume_nonstrict_warns(self, tmp_path, atlas_dir, capsys):
        zero = tmp_path / "zero.mha"
        write_mha(Volume(data=np.zeros((24, 48, 48))), zero)
        code = run([
            "extract", "--volume", str(zero), "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES,
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bbox"] is None
        assert "warning" in payload

    def test_missing_atlas_names_slice(self, phantom_dir, atlas_dir, caplog):
        (atlas_dir / _atlas_filename(12)).unlink()
        with caplog.at_level("ERROR"):
            code = run([
                "extract",
                "--volume", str(phantom_dir / "phantom_000_flair.mha"),
                "--atlas-dir", str(atlas_dir),
                "--slices", SMALL_SLICES,
            ])
        assert code == 2
        assert f"missing atlas for representative slice 12: {atlas_dir / _atlas_filename(12)}" in caplog.text

    def test_json_atlas_dir_asks_for_rebuild(self, phantom_dir, atlas_dir, caplog, capsys):
        from tumorbox.preprocess import load_atlas

        # the atlas directory as earlier versions wrote it
        for n in SLICE_INDICES:
            path = atlas_dir / _atlas_filename(n)
            atlas = load_atlas(path)
            payload = {
                "counts": atlas.counts.reshape(-1).tolist(), "height": atlas.height,
                "num_patients": atlas.num_patients, "slice_index": n, "width": atlas.width,
            }
            path.with_suffix(".json").write_text(json.dumps(payload, sort_keys=True) + "\n")
            path.unlink()
        with caplog.at_level("ERROR"):
            code = run([
                "extract",
                "--volume", str(phantom_dir / "phantom_000_flair.mha"),
                "--atlas-dir", str(atlas_dir),
                "--slices", SMALL_SLICES,
            ])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert f"{atlas_dir / 'atlas_slice_010.json'} is a JSON atlas, which is no longer read" in caplog.text
        assert "run `tumorbox atlas build` again to write atlas_slice_010.npz" in caplog.text

    def test_debug_dump(self, phantom_dir, atlas_dir, tmp_path, capsys):
        debug = tmp_path / "debug"
        code = run([
            "extract",
            "--volume", str(phantom_dir / "phantom_000_flair.mha"),
            "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES,
            "--debug-dir", str(debug),
        ])
        assert code == 0
        dumps = sorted(p.name for p in debug.iterdir())
        assert len(dumps) == 6
        payload = json.loads((debug / dumps[0]).read_text())
        assert "log_likelihood_trace" in payload

        debug = tmp_path / "debug_kmeans"
        code = run([
            "extract",
            "--volume", str(phantom_dir / "phantom_000_flair.mha"),
            "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES,
            "--method", "kmeans",
            "--debug-dir", str(debug),
        ])
        assert code == 0
        dumps = sorted(p.name for p in debug.iterdir())
        assert dumps == [f"debug_slice_{n:03d}.json" for n in SLICE_INDICES]
        payload = json.loads((debug / dumps[0]).read_text())
        assert payload["method"] == "kmeans"
        assert {"centroids", "objective", "objective_trace", "n_iter", "best_restart"} <= set(payload)

    @pytest.mark.parametrize("background", [False, True], ids=["brain", "background"])
    @pytest.mark.parametrize("method", ["kmeans", "em"])
    def test_debug_dump_is_the_fit_of_each_slice(
        self, phantom_dir, atlas_dir, tmp_path, capsys, method, background
    ):
        volume = phantom_dir / "phantom_002_flair.mha"
        debug = tmp_path / "debug"
        code = run([
            "extract", "--volume", str(volume), "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES, "--method", method, "--debug-dir", str(debug),
            *(["--cluster-background"] if background else []),
        ])
        assert code == 0
        assert_debug_dump_is_fresh_fit(debug, volume, atlas_dir, method, background)

    @pytest.mark.parametrize("method, fits", [
        ("kmeans", {"kmeans_1d": 6, "em_gmm_1d": 0}),
        ("em", {"kmeans_1d": 6, "em_gmm_1d": 6}),  # one K-means warm start per EM fit
    ])
    def test_debug_dir_fits_each_slice_once(
        self, phantom_dir, atlas_dir, tmp_path, monkeypatch, capsys, method, fits
    ):
        import tumorbox.clustering as cl
        import tumorbox.pipeline as pl

        calls = dict.fromkeys(fits, 0)
        for module in (cl, pl):
            for name in calls:
                def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, spy)
        code = run([
            "extract",
            "--volume", str(phantom_dir / "phantom_001_flair.mha"),
            "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES,
            "--method", method,
            "--report", str(tmp_path / "report.json"),
            "--debug-dir", str(tmp_path / "debug"),
        ])
        assert code == 0
        assert calls == fits
        assert len(list((tmp_path / "debug").iterdir())) == 6

    @pytest.mark.parametrize("strict, exit_code", [(False, 0), (True, 3)], ids=["warn", "strict"])
    @pytest.mark.parametrize("method", ["kmeans", "em"])
    def test_no_tumour_still_writes_debug_dump(
        self, tmp_path, atlas_dir, capsys, method, strict, exit_code
    ):
        # a 6x6 block of noisy tissue in one corner: every slice is
        # clustered, no component reaches area_min, no quadrant wins
        rng = np.random.default_rng(0)
        data = np.zeros((24, 48, 48))
        data[:, :6, :6] = 0.5 + 0.01 * rng.standard_normal((24, 6, 6))
        volume = tmp_path / "corner.mha"
        write_mha(Volume(data=data), volume)
        debug = tmp_path / "debug"
        code = run([
            "extract", "--volume", str(volume), "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES, "--method", method, "--debug-dir", str(debug),
            *(["--strict"] if strict else []),
        ])
        assert code == exit_code
        out = capsys.readouterr().out
        if strict:
            assert out == ""
        else:
            assert json.loads(out)["bbox"] is None
        assert_debug_dump_is_fresh_fit(debug, volume, atlas_dir, method, False)

    def test_zero_volume_debug_dump_marks_empty_slices(self, tmp_path, atlas_dir):
        zero = tmp_path / "zero.mha"
        write_mha(Volume(data=np.zeros((24, 48, 48))), zero)
        debug = tmp_path / "debug"
        code = run([
            "extract", "--volume", str(zero), "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES, "--strict", "--debug-dir", str(debug),
        ])
        assert code == 3
        for n in SLICE_INDICES:
            payload = json.loads((debug / f"debug_slice_{n:03d}.json").read_text())
            assert payload == {"slice_index": n, "empty": True}

    def test_cluster_background_flag_runs(self, phantom_dir, atlas_dir, capsys):
        code = run([
            "extract",
            "--volume", str(phantom_dir / "phantom_000_flair.mha"),
            "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES,
            "--method", "kmeans",
            "--cluster-background",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["bbox"] is not None

    def test_unconverged_em_warns_once_naming_volume_and_slices(
        self, phantom_dir, atlas_dir, tmp_path, capsys, caplog
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "em", "cluster": {"max_iter": 2}}))
        volume = phantom_dir / "phantom_000_flair.mha"
        with caplog.at_level("WARNING"):
            code = run([
                "extract",
                "--volume", str(volume),
                "--atlas-dir", str(atlas_dir),
                "--slices", SMALL_SLICES,
                "--config", str(cfg),
            ])
        assert code == 0
        messages = [rec.getMessage() for rec in caplog.records if rec.name == "tumorbox.evaluate"]
        assert messages == [
            f"case {volume}: EM stopped at max_iter=2 without converging on slice(s) "
            + ", ".join(map(str, SLICE_INDICES))
        ]

    def test_corrupt_volume_is_io_error(self, tmp_path, atlas_dir):
        bad = tmp_path / "bad.mha"
        bad.write_bytes(b"ObjectType = Image\nNDims = 3\nElementDataFile = LOCAL\n")
        code = run(["extract", "--volume", str(bad), "--atlas-dir", str(atlas_dir), "--slices", SMALL_SLICES])
        assert code == 4


class TestEval:
    def test_summary_and_csv(self, phantom_dir, atlas_dir, tmp_path, capsys):
        out = tmp_path / "results"
        code = run([
            "eval",
            "--manifest", str(phantom_dir / "manifest.csv"),
            "--atlas-dir", str(atlas_dir),
            "--out-dir", str(out),
            "--slices", SMALL_SLICES,
            "--method", "kmeans",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cohorts"][0]["cohort"] == "Phantom"
        assert summary["cohorts"][0]["n"] == 3
        csv_lines = (out / "results_kmeans.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "case_id,cohort,method,dice,failed,wall_ms"
        assert len(csv_lines) == 4
        assert (out / "summary_kmeans.json").exists()

    def test_rerun_identical_modulo_wall_ms(self, phantom_dir, atlas_dir, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run([
                "eval",
                "--manifest", str(phantom_dir / "manifest.csv"),
                "--atlas-dir", str(atlas_dir),
                "--out-dir", str(out),
                "--slices", SMALL_SLICES,
                "--method", "em",
                "--seed", "3",
            ])
            assert code == 0
            capsys.readouterr()
            outs.append(out)

        def strip_wall(path):
            rows = path.read_text().strip().splitlines()
            return [",".join(r.split(",")[:-1]) for r in rows]

        assert strip_wall(outs[0] / "results_em.csv") == strip_wall(outs[1] / "results_em.csv")
        assert (outs[0] / "summary_em.json").read_bytes() == (outs[1] / "summary_em.json").read_bytes()

    def test_loo_runs(self, phantom_dir, tmp_path, capsys):
        out = tmp_path / "loo"
        code = run([
            "eval",
            "--manifest", str(phantom_dir / "manifest.csv"),
            "--out-dir", str(out),
            "--slices", SMALL_SLICES,
            "--method", "kmeans",
            "--loo",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["cohorts"][0]["n"] == 3

    def test_loo_mixed_gt_dims_is_usage_error(self, phantom_dir, tmp_path, caplog):
        wide = tmp_path / "wide"
        assert run([
            "phantom", "--out-dir", str(wide), "--count", "1", "--seed", "7",
            "--dims", "56", "48", "24", "--radius-min", "4", "--radius-max", "6",
        ]) == 0
        for kind in ("flair", "gt"):
            (wide / f"phantom_000_{kind}.mha").rename(wide / f"wide_{kind}.mha")
        manifest = phantom_dir / "mixed.csv"
        manifest.write_text(
            (phantom_dir / "manifest.csv").read_text()
            + f"{wide}/wide_flair.mha,{wide}/wide_gt.mha,Phantom\n"
        )
        out = tmp_path / "loo"
        with caplog.at_level("ERROR"):
            code = run([
                "eval", "--manifest", str(manifest), "--out-dir", str(out),
                "--slices", SMALL_SLICES, "--method", "kmeans", "--loo",
            ])
        assert code == 2
        assert any("mixed slice dims in atlas input" in rec.getMessage() for rec in caplog.records)
        assert not list(tmp_path.rglob("results_*.csv"))

    def test_loo_shallow_gt_is_usage_error(self, shallow_manifest, tmp_path, caplog):
        manifest, gt_path = shallow_manifest
        out = tmp_path / "loo"
        with caplog.at_level("ERROR"):
            code = run([
                "eval", "--manifest", str(manifest), "--out-dir", str(out),
                "--slices", SMALL_SLICES, "--method", "kmeans", "--loo",
            ])
        assert code == 2
        assert_shallow_gt_logged(caplog, gt_path)
        assert not list(tmp_path.rglob("results_*.csv"))
        assert not list(tmp_path.rglob("summary_*.json"))

    def test_paper_union_formula_labelled(self, phantom_dir, atlas_dir, tmp_path, capsys):
        out = tmp_path / "pu"
        code = run([
            "eval",
            "--manifest", str(phantom_dir / "manifest.csv"),
            "--atlas-dir", str(atlas_dir),
            "--out-dir", str(out),
            "--slices", SMALL_SLICES,
            "--method", "kmeans",
            "--dice-formula", "paper-union",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["cohorts"][0]["formula"] == "paper-union"

    def test_cluster_background_reaches_pipeline(
        self, phantom_dir, atlas_dir, tmp_path, monkeypatch, capsys
    ):
        import tumorbox.evaluate as ev

        seen = []
        real = ev.run_pipeline

        def spy(*args, **kwargs):
            seen.append(kwargs.get("include_background"))
            return real(*args, **kwargs)

        monkeypatch.setattr(ev, "run_pipeline", spy)
        code = run([
            "eval",
            "--manifest", str(phantom_dir / "manifest.csv"),
            "--atlas-dir", str(atlas_dir),
            "--out-dir", str(tmp_path / "bg"),
            "--slices", SMALL_SLICES,
            "--method", "kmeans",
            "--cluster-background",
        ])
        assert code == 0
        assert seen == [True, True, True]

    def test_jobs_flag_same_result(self, phantom_dir, atlas_dir, tmp_path, capsys):
        outs = []
        for name, jobs in (("j1", "1"), ("j2", "2")):
            out = tmp_path / name
            code = run([
                "eval",
                "--manifest", str(phantom_dir / "manifest.csv"),
                "--atlas-dir", str(atlas_dir),
                "--out-dir", str(out),
                "--slices", SMALL_SLICES,
                "--method", "kmeans",
                "--jobs", jobs,
            ])
            assert code == 0
            capsys.readouterr()
            outs.append(out)
        assert (outs[0] / "summary_kmeans.json").read_bytes() == (outs[1] / "summary_kmeans.json").read_bytes()

    def test_jobs_give_the_same_rows_and_summary(self, phantom_dir, tmp_path, capsys):
        # LOO, and a case whose ground truth is missing, so an error row too
        manifest = phantom_dir / "with_ghost.csv"
        (phantom_dir / "ghost_flair.mha").write_bytes((phantom_dir / "phantom_000_flair.mha").read_bytes())
        manifest.write_text((phantom_dir / "manifest.csv").read_text() + "ghost_flair.mha,ghost_gt.mha,Phantom\n")
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            code = run([
                "eval", "--manifest", str(manifest), "--out-dir", str(out), "--loo",
                "--slices", SMALL_SLICES, "--method", "kmeans", "--jobs", jobs,
            ])
            assert code == 0
            capsys.readouterr()
            outs.append(out)

        def rows_without_wall_ms(out):
            with open(out / "results_kmeans.csv", newline="") as fh:
                return [{k: v for k, v in row.items() if k != "wall_ms"} for row in csv.DictReader(fh)]

        assert rows_without_wall_ms(outs[0]) == rows_without_wall_ms(outs[1])
        assert (outs[0] / "summary_kmeans.json").read_bytes() == (outs[1] / "summary_kmeans.json").read_bytes()
        assert json.loads((outs[0] / "summary_kmeans.json").read_text())["cohorts"][0]["n_errors"] == 1

    def test_csv_round_trips_fields_with_commas(self, phantom_dir, atlas_dir, tmp_path, capsys):
        manifest = phantom_dir / "quoted.csv"
        manifest.write_text(
            "intensity_path,gt_path,cohort\n"
            'phantom_000_flair.mha,phantom_000_gt.mha,"HGG, site A"\n'
            '"gone, 9_flair.mha",gone_gt.mha,"HGG, site A"\n'
            "phantom_001_flair.mha,phantom_001_gt.mha,LGG\n"
        )
        out = tmp_path / "results"
        code = run([
            "eval", "--manifest", str(manifest), "--atlas-dir", str(atlas_dir),
            "--out-dir", str(out), "--slices", SMALL_SLICES, "--method", "kmeans",
        ])
        assert code == 0
        capsys.readouterr()
        text = (out / "results_kmeans.csv").read_text()
        with open(out / "results_kmeans.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["case_id", "cohort", "method", "dice", "failed", "wall_ms"]
        assert [r[:3] for r in rows[1:]] == [
            ["phantom_000_flair", "HGG, site A", "kmeans"],
            ["gone, 9_flair", "HGG, site A", "kmeans"],
            ["phantom_001_flair", "LGG", "kmeans"],
        ]
        assert rows[2][3:] == ["", "error", ""]
        for row in (rows[1], rows[3]):
            assert 0.0 <= float(row[3]) <= 1.0 and row[4] in ("0", "1") and row[5].isdigit()
        # fields without a comma are written as before, unquoted
        assert '\n"gone, 9_flair","HGG, site A",kmeans,,error,\n' in text
        assert f"\nphantom_001_flair,LGG,kmeans,{rows[3][3]}," in text


class TestSelectSlices:
    def test_prints_ranked_slices(self, phantom_dir, capsys):
        code = run([
            "select-slices", "--manifest", str(phantom_dir / "manifest.csv"),
            "--count", "3", "--min-slice", "5", "--max-slice", "20",
        ])
        assert code == 0
        chosen = json.loads(capsys.readouterr().out)["representative_slices"]
        assert len(chosen) == 3
        assert chosen == sorted(chosen)

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_usage_error(self, phantom_dir, capsys, count):
        code = run(["select-slices", "--manifest", str(phantom_dir / "manifest.csv"), "--count", count])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_window_below_slice_one_is_usage_error(self, phantom_dir, capsys, caplog):
        with caplog.at_level("ERROR"):
            code = run([
                "select-slices", "--manifest", str(phantom_dir / "manifest.csv"),
                "--count", "2", "--min-slice", "0", "--max-slice", "5",
            ])
        assert code == 2
        assert "min_slice must be >= 1 (slices are numbered from 1), got 0" in caplog.text
        assert capsys.readouterr().out == ""


class TestUnreadFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["select-slices", "--manifest", "m.csv"], ["--seed", "-5"]),
        (["select-slices", "--manifest", "m.csv"], ["--config", "/nonexistent.json"]),
        (["select-slices", "--manifest", "m.csv"], ["--slices", "abc"]),
        (["phantom", "--out-dir", "out"], ["--slices", "1,2"]),
        (["atlas", "build", "--manifest", "m.csv", "--out-dir", "out"], ["--seed", "3"]),
    ], ids=["select-slices-seed", "select-slices-config", "select-slices-slices", "phantom-slices",
            "atlas-build-seed"])
    def test_flag_the_subcommand_does_not_read_is_rejected(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert run([*argv, *flag]) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["atlas", "build", "--manifest", "m.csv", "--out-dir", "out"],
        ["extract", "--volume", "v.mha", "--atlas-dir", "a"],
        ["eval", "--manifest", "m.csv", "--out-dir", "out"],
        ["phantom", "--out-dir", "out"],
        ["select-slices", "--manifest", "m.csv"],
    ], ids=lambda argv: argv[0] if argv[0] != "atlas" else "atlas-build")
    def test_every_subcommand_takes_verbose(self, argv):
        args = build_parser().parse_args([*argv, "-v"])
        assert args.verbose == 1


class TestEmptyManifest:
    @pytest.mark.parametrize("argv", [
        ["atlas", "build", "--out-dir", "out"],
        ["eval", "--atlas-dir", "atlases", "--out-dir", "out"],
        ["select-slices"],
    ], ids=["atlas-build", "eval", "select-slices"])
    def test_header_only_manifest_is_usage_error(self, tmp_path, caplog, capsys, argv):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("intensity_path,gt_path,cohort\n")
        argv = [str(tmp_path / a) if a in ("out", "atlases") else a for a in argv]
        with caplog.at_level("ERROR"):
            code = run([*argv, "--manifest", str(manifest)])
        assert code == 2
        assert f"manifest {manifest} lists no cases" in caplog.text
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]


class TestConfigPrecedence:
    def test_flag_beats_file(self, phantom_dir, atlas_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "kmeans", "extract": {"bbox_margin": 2}}))
        code = run([
            "extract",
            "--volume", str(phantom_dir / "phantom_000_flair.mha"),
            "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES,
            "--config", str(cfg),
            "--margin", "5",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "kmeans"  # from file
        assert payload["bbox"]["margin_applied"] == 5  # flag wins

    def test_unknown_config_key_rejected(self, phantom_dir, atlas_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mehtod": "em"}))
        code = run([
            "extract",
            "--volume", str(phantom_dir / "phantom_000_flair.mha"),
            "--atlas-dir", str(atlas_dir),
            "--slices", SMALL_SLICES,
            "--config", str(cfg),
        ])
        assert code == 2

    def test_usage_error_exit_code(self):
        assert run(["extract"]) == 2


class TestConfigValidation:
    @pytest.mark.parametrize(
        "file_cfg, flags, key",
        [
            ({"method": "bogus"}, [], "method"),
            ({"dice_formula": "bogus"}, [], "dice_formula"),
            ({"jobs": 0}, [], "jobs"),
            ({}, ["--jobs", "-3"], "jobs"),
            ({"seed": "abc"}, [], "seed"),
            ({}, ["--seed", "-1"], "seed"),
            ({"strict": "no"}, [], "strict"),
            ({"extract": {"radius_margin": "1.0"}}, [], "extract.radius_margin"),
            ({"cluster": {"seed": 7}}, [], "seed"),
            ({"extract": {"strict": True}}, [], "strict"),
            ({"cluster": {"k": 3}}, [], "cluster.k"),
        ],
    )
    def test_bad_config_exits_2_before_any_case(
        self, phantom_dir, atlas_dir, tmp_path, monkeypatch, caplog, file_cfg, flags, key
    ):
        import tumorbox.evaluate as ev

        def no_case(*args, **kwargs):
            raise AssertionError("a case ran despite a bad config")

        monkeypatch.setattr(ev, "run_pipeline", no_case)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        out = tmp_path / "results"
        with caplog.at_level("ERROR"):
            code = run([
                "eval",
                "--manifest", str(phantom_dir / "manifest.csv"),
                "--atlas-dir", str(atlas_dir),
                "--out-dir", str(out),
                "--slices", SMALL_SLICES,
                "--config", str(cfg),
                *flags,
            ])
        assert code == 2
        assert not list(tmp_path.rglob("results_*.csv"))
        assert any(key in rec.getMessage() for rec in caplog.records)

    def test_jobs_above_one_without_fork_exits_2_before_any_case(
        self, phantom_dir, tmp_path, monkeypatch, caplog
    ):
        import multiprocessing

        import tumorbox.evaluate as ev

        def no_case(*args, **kwargs):
            raise AssertionError("a case ran without a fork start method")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(ev, "read_mha", no_case)
        out = tmp_path / "results"
        with caplog.at_level("ERROR"):
            code = run([
                "eval", "--manifest", str(phantom_dir / "manifest.csv"), "--out-dir", str(out),
                "--loo", "--slices", SMALL_SLICES, "--jobs", "2",
            ])
        assert code == 2
        assert "cannot fork" in caplog.text
        assert not out.exists()
        # one job needs no worker process
        assert build_run_config(None, {"jobs": 1}).jobs == 1

    @pytest.mark.parametrize("file_cfg, key", [
        ({"cluster": {"tol": float("nan")}}, "cluster.tol"),
        ({"extract": {"radius_margin": float("inf")}}, "extract.radius_margin"),
        ({"extract": {"area_min": float("inf")}}, "extract.area_min"),
        ({"enhance": {"gain_up": float("nan")}}, "enhance.gain_up"),
        ({"enhance": {"gain_down": -float("inf")}}, "enhance.gain_down"),
        ({"cluster": {"tol": 10**400}}, "cluster.tol"),
    ], ids=["nan-tol", "inf-radius-margin", "inf-area-min", "nan-gain-up", "neg-inf-gain-down", "huge-int-tol"])
    def test_non_finite_number_is_rejected(self, file_cfg, key):
        with pytest.raises(ConfigurationError, match=f"config key '{key}' must be a finite number"):
            build_run_config(file_cfg)

    @pytest.mark.parametrize("text, key", [
        ('{"cluster": {"tol": NaN}}', "cluster.tol"),
        ('{"extract": {"radius_margin": Infinity}}', "extract.radius_margin"),
        ('{"enhance": {"gain_down": -Infinity}}', "enhance.gain_down"),
    ], ids=["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_in_config_file_exits_2(self, tmp_path, caplog, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with caplog.at_level("ERROR"):
            code = run([
                "eval", "--manifest", str(tmp_path / "absent.csv"),  # never read: exit 2, not 4
                "--out-dir", str(tmp_path / "out"), "--loo", "--config", str(cfg),
            ])
        assert code == 2
        assert f"config key '{key}' must be a finite number" in caplog.text
        assert not (tmp_path / "out").exists()


class TestTextEncoding:
    @pytest.mark.parametrize("kind", ["config", "manifest", "spec"])
    def test_undecodable_file_is_format_error(self, tmp_path, caplog, kind):
        bad = tmp_path / f"bad_{kind}"
        bad.write_bytes(b"\xff" + b'{"seed": 1}\n')
        out = tmp_path / "out"
        argv = {
            "config": ["eval", "--manifest", str(tmp_path / "absent.csv"), "--out-dir", str(out), "--loo",
                       "--config", str(bad)],
            "manifest": ["select-slices", "--manifest", str(bad)],
            "spec": ["phantom", "--out-dir", str(out), "--spec", str(bad)],
        }[kind]
        with caplog.at_level("ERROR"):
            code = run(argv)
        assert code == 4
        assert f"{bad} is not UTF-8 text" in caplog.text
        assert not out.exists()

    def test_byte_order_mark_skipped_in_config_and_spec(self, tmp_path, phantom_dir):
        # Both files as a Windows editor saves them; the config sets the
        # noise seed, so the volumes match a run given --seed instead.
        bom = b"\xef\xbb\xbf"
        spec = tmp_path / "spec.json"
        spec.write_bytes(bom + (phantom_dir / "phantom_000_spec.json").read_bytes())
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(bom + b'{"seed": 11}')
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["phantom", "--out-dir", str(a), "--count", "1", "--spec", str(spec), "--config", str(cfg)]) == 0
        assert run(["phantom", "--out-dir", str(b), "--count", "1", "--spec", str(spec), "--seed", "11"]) == 0
        assert file_hashes(sorted(a.iterdir())) == file_hashes(sorted(b.iterdir()))


class TestConfigSurface:
    REMOVED = [
        ("cluster", "init", "quantile-spread"),
        ("extract", "area_max", None),
        ("extract", "min_quadrant_pixels", 1),
        ("enhance", "atlas_min_count", 1),
    ]

    def test_nineteen_settable_keys(self):
        nested = {
            f"{section}.{f.name}"
            for section, cls in _NESTED.items()
            for f in dataclasses.fields(cls)
            if f.name not in _TOP_LEVEL
        }
        assert sorted(_TOP_LEVEL) == [
            "cluster_background", "dice_formula", "jobs", "loo", "method", "seed", "strict",
        ]
        assert sorted(nested) == [
            "cluster.k", "cluster.max_iter", "cluster.n_restarts", "cluster.tol",
            "enhance.gain_down", "enhance.gain_up",
            "extract.area_max_fraction", "extract.area_min", "extract.bbox_margin",
            "extract.radius_margin", "extract.representative_slices", "extract.vote_threshold",
        ]
        assert len(_TOP_LEVEL) + len(nested) == 19

    def test_readme_config_block_is_the_defaults_and_names_every_nested_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        payload = json.loads(block)
        assert build_run_config(payload) == build_run_config()
        for section, cls in _NESTED.items():
            assert set(payload[section]) == {f.name for f in dataclasses.fields(cls)} - _TOP_LEVEL

    @pytest.mark.parametrize("section, key, value", REMOVED, ids=[f"{s}.{k}" for s, k, _ in REMOVED])
    def test_removed_key_is_unknown(self, tmp_path, caplog, section, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        with caplog.at_level("ERROR"):
            code = run([
                "eval", "--manifest", str(tmp_path / "absent.csv"),  # never read: exit 2, not 4
                "--out-dir", str(tmp_path / "out"), "--loo", "--config", str(cfg),
            ])
        assert code == 2
        assert f"unknown {section} config key(s): {key}" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_eval_has_no_strict_flag(self, tmp_path, capsys):
        code = run(["eval", "--manifest", "m.csv", "--out-dir", str(tmp_path / "out"), "--strict"])
        assert code == 2
        assert "unrecognized arguments: --strict" in capsys.readouterr().err

    def test_strict_key_reaches_eval(self, phantom_dir, atlas_dir, tmp_path, monkeypatch, capsys):
        import tumorbox.evaluate as ev

        seen = []
        real = ev.run_pipeline

        def spy(*args, **kwargs):
            seen.append(kwargs["params"].strict)
            return real(*args, **kwargs)

        monkeypatch.setattr(ev, "run_pipeline", spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strict": True}))
        code = run([
            "eval", "--manifest", str(phantom_dir / "manifest.csv"), "--atlas-dir", str(atlas_dir),
            "--out-dir", str(tmp_path / "out"), "--slices", SMALL_SLICES, "--method", "kmeans",
            "--config", str(cfg),
        ])
        assert code == 0
        assert seen == [True, True, True]

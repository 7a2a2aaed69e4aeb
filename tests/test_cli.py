import hashlib
import json

import numpy as np
import pytest

from tumorbox.cli import main
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
        atlas = load_atlas(atlas_dir / f"atlas_slice_{n:03d}.json")
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
        assert files == [f"atlas_slice_{n:03d}.json" for n in (10, 11, 12, 13, 14, 15)]
        payload = json.loads((atlas_dir / "atlas_slice_012.json").read_text())
        assert payload["num_patients"] == 3

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
        payload = json.loads((out / "atlas_slice_012.json").read_text())
        gt = read_mha(phantom_dir / "phantom_000_gt.mha", kind="label")
        mask = (extract_slice(gt, 12).data != 0).astype(int)
        got = np.asarray(payload["counts"]).reshape(payload["height"], payload["width"])
        assert payload["num_patients"] == 1
        assert np.array_equal(got, mask)

    def test_empty_manifest_is_usage_error(self, tmp_path):
        man = tmp_path / "empty.csv"
        man.write_text("intensity_path,gt_path,cohort\n")
        code = run(["atlas", "build", "--manifest", str(man), "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_missing_manifest_is_io_error(self, tmp_path):
        code = run(["atlas", "build", "--manifest", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")])
        assert code == 4


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
        (atlas_dir / "atlas_slice_012.json").unlink()
        with caplog.at_level("ERROR"):
            code = run([
                "extract",
                "--volume", str(phantom_dir / "phantom_000_flair.mha"),
                "--atlas-dir", str(atlas_dir),
                "--slices", SMALL_SLICES,
            ])
        assert code == 2
        assert any("12" in rec.message for rec in caplog.records)

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

    def test_empty_manifest_usage_error(self, tmp_path, atlas_dir):
        man = tmp_path / "empty.csv"
        man.write_text("intensity_path,gt_path,cohort\n")
        code = run([
            "eval", "--manifest", str(man), "--atlas-dir", str(atlas_dir),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2

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

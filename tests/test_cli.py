"""Command line interface: artifacts, determinism, exit codes."""

import argparse
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from onetr import (ANALYTICAL, IDEAL_SWITCH, DomainError, MemristorParams,
                   Model, TransistorParams, cutoff_table, default_device,
                   evaluate, homogeneous_schedule, load_checkpoint,
                   make_blobs, network_energy, read_dataset_csv,
                   save_checkpoint, save_device_file, write_dataset_csv)
from onetr.cli import (MAX_VG_POINTS, CliError, _run, _write_csv,
                       _write_json, build_parser, main, parse_vg_values)
from onetr.errors import read_json_object


@pytest.fixture(scope="module")
def small_csvs(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds = make_blobs()
    train_path = root / "train.csv"
    test_path = root / "test.csv"
    write_dataset_csv(train_path, ds.x_train[:240], ds.y_train[:240])
    write_dataset_csv(test_path, ds.x_test[:120], ds.y_test[:120])
    return str(train_path), str(test_path)


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, small_csvs):
    out = tmp_path_factory.mktemp("train_run")
    train_csv, test_csv = small_csvs
    rc = main(["train", "--out", str(out), "--hidden", "8", "--epochs", "6",
               "--data", train_csv, "--test-data", test_csv])
    assert rc == 0
    return str(out / "checkpoint.json")


@pytest.fixture(scope="module")
def schedule_file(tmp_path_factory, trained_checkpoint):
    out = tmp_path_factory.mktemp("search_run")
    assert main(["search-vg", "--checkpoint", trained_checkpoint,
                 "--out", str(out)]) == 0
    return str(out / "schedule.json")


def test_parse_vg_values_forms():
    assert parse_vg_values("0.7:1.0:0.05") == pytest.approx(
        [0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0])
    assert parse_vg_values("0.8,1.0") == [0.8, 1.0]
    assert len(parse_vg_values(f"0:{MAX_VG_POINTS - 1}:1")) == MAX_VG_POINTS
    with pytest.raises(CliError):
        parse_vg_values(f"0:{MAX_VG_POINTS}:1")


def test_cutoff_artifacts_and_reruns_are_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["cutoff", "--out", str(out)])
        assert rc == 0
        assert not (out / ".onetr.lock").exists()
    files = ["cutoff_table.csv", "run_manifest.json"]
    for name in files:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    with open(out_a / "cutoff_table.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["v_g", "g_m_cutoff"]
    assert len(rows) == 8  # header + 7 grid points


def test_manifest_has_no_volatile_fields(tmp_path):
    out = tmp_path / "run"
    assert main(["cutoff", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "cutoff"
    assert manifest["exit_code"] == 0
    assert "toolkit_version" in manifest and "config" in manifest
    assert not any("time" in k or "date" in k for k in manifest)


def test_characterize_reports_linear_window(tmp_path):
    out = tmp_path / "run"
    rc = main(["characterize", "--gm", "1e-5", "--vg", "0.9",
               "--out", str(out)])
    assert rc == 0
    with open(out / "geff_curve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["v_in", "g_eff"]
    assert len(rows) == 65
    window = json.loads((out / "linear_range.json").read_text())
    assert window["v_lo"] is not None
    assert window["v_lo"] < window["v_hi"]


def test_characterize_stressed_device(tmp_path):
    out = tmp_path / "run"
    rc = main(["characterize", "--gm", "1e-5", "--vg", "1.3",
               "--device", "stressed", "--out", str(out)])
    assert rc == 0
    window = json.loads((out / "linear_range.json").read_text())
    assert window["v_lo"] > 0.25  # leakage pushes the window up


def test_power_mc_table(tmp_path):
    out = tmp_path / "run"
    rc = main(["power-mc", "--vg", "0.8,1.0", "--rows", "4", "--cols", "4",
               "--samples", "8", "--out", str(out)])
    assert rc == 0
    with open(out / "power.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["v_g", "mean_power_W"]
    powers = [float(r[1]) for r in rows[1:]]
    assert len(powers) == 2 and all(p > 0 for p in powers)


def test_train_eval_cycle(tmp_path, trained_checkpoint, small_csvs):
    train_csv, test_csv = small_csvs
    metrics_path = Path(trained_checkpoint).with_name("metrics.json")
    metrics = json.loads(metrics_path.read_text())
    assert 0.0 <= metrics["test_accuracy"] <= 1.0

    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", trained_checkpoint, "--out", str(out),
               "--data", train_csv, "--test-data", test_csv])
    assert rc == 0
    result = json.loads((out / "eval.json").read_text())
    assert result["mode"] == "software"
    assert result["accuracy"] == pytest.approx(metrics["test_accuracy"])


def test_search_vg_then_crossbar_eval(tmp_path, trained_checkpoint,
                                      small_csvs):
    train_csv, test_csv = small_csvs
    out = tmp_path / "search"
    rc = main(["search-vg", "--checkpoint", trained_checkpoint,
               "--out", str(out)])
    assert rc == 0
    schedule = json.loads((out / "schedule.json").read_text())
    assert schedule["mode"] == "heterogeneous"
    assert len(schedule["entries"]) == 2
    assert (out / "cutoff_table.csv").exists()

    out2 = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", trained_checkpoint,
               "--mode", "crossbar", "--schedule", str(out / "schedule.json"),
               "--out", str(out2), "--data", train_csv,
               "--test-data", test_csv])
    assert rc == 0
    result = json.loads((out2 / "eval.json").read_text())
    assert result["mode"] == "crossbar"
    assert 0.0 <= result["accuracy"] <= 1.0


def test_neat_energy_report_cycle(tmp_path, trained_checkpoint, small_csvs):
    train_csv, test_csv = small_csvs
    out = tmp_path / "neat"
    rc = main(["neat", "--checkpoint", trained_checkpoint, "--out", str(out),
               "--iters", "2", "--epochs-per-iter", "1",
               "--data", train_csv, "--test-data", test_csv])
    assert rc == 0
    assert (out / "neat_checkpoint.json").exists()
    with open(out / "history.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "accuracy", "linear_fraction"]
    assert len(rows) == 3

    out2 = tmp_path / "energy"
    rc = main(["energy", "--checkpoint", str(out / "neat_checkpoint.json"),
               "--out", str(out2), "--max-samples", "20",
               "--data", train_csv, "--test-data", test_csv])
    assert rc == 0
    energy = json.loads((out2 / "energy.json").read_text())
    assert energy["total_J"] > 0.0

    out3 = tmp_path / "report"
    rc = main(["report", "--checkpoint", trained_checkpoint,
               "--out", str(out3), "--max-samples", "20",
               "--data", train_csv, "--test-data", test_csv])
    assert rc == 0
    report = json.loads((out3 / "report.json").read_text())
    assert report["baseline"]["v_g"] == 1.0
    assert report["compare"]["v_g"] == 0.8
    assert "energy_gain_percent" in report


def test_locked_output_dir_is_an_io_error(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".onetr.lock").touch()
    assert main(["cutoff", "--out", str(out)]) == 3


def test_usage_errors_exit_2(tmp_path, monkeypatch, trained_checkpoint,
                             schedule_file):
    def no_scan(*args, **kwargs):
        raise AssertionError("a usage error reached the device solver")

    monkeypatch.setattr("onetr.cli.cutoff_table", no_scan)
    monkeypatch.setattr("onetr.cli.power_table", no_scan)
    huge = "0.7:1.0:1e-7"  # 3,000,001 points
    ckpt = ["--checkpoint", trained_checkpoint]
    software = ["eval", *ckpt, "--mode", "software"]
    from_file = ["neat", *ckpt, "--schedule", schedule_file]
    for i, argv in enumerate((["cutoff", "--vg", "0.9:0.7:0.05"],
                              ["cutoff", "--vg", "abc"],
                              ["cutoff", "--vg", huge],
                              ["power-mc", "--vg", huge],
                              ["search-vg", *ckpt, "--vg-grid", huge],
                              ["train", "--hidden", "abc"],
                              ["neat", "--iters", "1"],  # no --checkpoint
                              # flags the command would not apply
                              ["search-vg", *ckpt, "--device-mode",
                               "ideal_switch"],
                              ["neat", *ckpt, "--device-mode", "ideal_switch"],
                              ["report", *ckpt, "--vg-grid", "0.8,1.0"],
                              ["search-vg", *ckpt, "--schedule", schedule_file],
                              ["neat", *ckpt, "--hidden", "8"],
                              # flags this form of the command would not read
                              [*software, "--schedule", schedule_file],
                              [*software, "--device", "nosuchfile.json"],
                              [*software, "--device-mode", "ideal_switch"],
                              [*software, "--vsupply", "9"],
                              [*from_file, "--vg", "0.8"],
                              [*from_file, "--vg-grid", "0.7,0.9"],
                              [*from_file, "--tm", "0.5"],
                              [*from_file, "--device", "stressed"],
                              [*from_file, "--vsupply", "0.3"])):
        assert main(argv + ["--out", str(tmp_path / f"run{i}")]) == 2, argv
    assert main(["no-such-command"]) == 2
    assert main(["characterize", "--gm", "1e-5"]) == 2  # missing --vg


def test_usage_errors_precede_file_reads(tmp_path, capsys):
    # An option the argv form never reads, or a malformed gate-voltage spec,
    # exits 2 before any file is opened, so missing input files do not turn
    # the usage error into an I/O error.
    missing = ["--checkpoint", str(tmp_path / "missing.json")]
    device = ["--device", str(tmp_path / "missing.json")]
    csv_file, schedule = str(tmp_path / "x.csv"), str(tmp_path / "s.json")
    runs = [["eval", *missing, "--test-data", csv_file],
            ["eval", *missing, "--schedule", schedule],
            ["energy", *missing, "--test-data", csv_file],
            ["neat", *missing, "--schedule", schedule, "--vg", "0.8"],
            ["search-vg", *missing, "--vg-grid", "abc"],
            ["neat", *missing, "--vg-grid", "abc"],
            ["cutoff", *device, "--vg", "abc"],
            ["power-mc", *device, "--vg", "abc"]]
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert len(capsys.readouterr().err.splitlines()) == 1, argv
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]


def test_io_errors_exit_3(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "run")]) == 3


def test_domain_errors_exit_4(tmp_path):
    assert main(["cutoff", "--tm", "1.5", "--out", str(tmp_path / "run")]) == 4
    assert main(["characterize", "--gm=-1e-5", "--vg", "0.9",
                 "--out", str(tmp_path / "run2")]) == 4


def test_negative_max_samples_exits_4(tmp_path, trained_checkpoint,
                                      schedule_file, small_csvs):
    # A negative count would slice rows off the end of the test split.
    train_csv, test_csv = small_csvs
    data = ["--data", train_csv, "--test-data", test_csv]
    assert main(["energy", "--checkpoint", trained_checkpoint, "--schedule",
                 schedule_file, "--max-samples", "-5",
                 "--out", str(tmp_path / "energy")] + data) == 4
    assert main(["report", "--checkpoint", trained_checkpoint,
                 "--max-samples", "-3", "--out", str(tmp_path / "report")]
                + data) == 4


def test_data_width_mismatch_exits_4(tmp_path, trained_checkpoint,
                                     schedule_file, small_csvs):
    train_csv, test_csv = small_csvs
    x, y = read_dataset_csv(test_csv)
    narrow = str(tmp_path / "narrow.csv")
    write_dataset_csv(narrow, x[:, :10], y)  # the checkpoint takes 16 inputs
    ckpt = ["--checkpoint", trained_checkpoint]
    runs = [["eval", *ckpt], ["eval", *ckpt, "--mode", "crossbar",
                              "--schedule", schedule_file],
            ["energy", *ckpt, "--schedule", schedule_file],
            ["report", *ckpt], ["neat", *ckpt, "--iters", "1"]]
    for i, argv in enumerate(runs):
        for data in (["--data", narrow], ["--data", train_csv,
                                          "--test-data", narrow]):
            assert main(argv + data + ["--out", str(tmp_path / f"{i}")]) == 4
    assert main(["train", "--epochs", "1", "--data", train_csv,
                 "--test-data", narrow, "--out", str(tmp_path / "t")]) == 4


def test_labels_must_fit_the_network(tmp_path, trained_checkpoint,
                                     small_csvs):
    # A label the output layer cannot score, or a class gap that would size
    # the output layer, exits 4 before any artifact but the manifest.
    train_csv, test_csv = small_csvs
    x, y = read_dataset_csv(test_csv)
    label5 = str(tmp_path / "label5.csv")
    write_dataset_csv(label5, x, np.where(np.arange(len(y)) == 3, 5, y))
    two_rows = tmp_path / "two_rows.csv"
    two_rows.write_text("f0,label\n1.0,0\n2.0,20000\n")
    ckpt = ["--checkpoint", trained_checkpoint]
    runs = [["neat", *ckpt, "--iters", "1", "--data", label5],
            ["neat", *ckpt, "--iters", "1", "--data", train_csv,
             "--test-data", label5],
            ["eval", *ckpt, "--data", train_csv, "--test-data", label5],
            ["train", "--epochs", "1", "--data", str(two_rows)],
            ["train", "--epochs", "1", "--data", train_csv,
             "--test-data", label5]]
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}"
        assert main(argv + ["--out", str(out)]) == 4, argv
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]


def test_schedule_file_needs_no_cutoff_table(tmp_path, monkeypatch,
                                             trained_checkpoint, schedule_file,
                                             small_csvs):
    train_csv, test_csv = small_csvs

    def unused(*args, **kwargs):
        raise AssertionError("a schedule file needs no cutoff table or device")

    monkeypatch.setattr("onetr.cli.cutoff_table", unused)
    monkeypatch.setattr("onetr.cli.default_device", unused)
    assert main(["neat", "--checkpoint", trained_checkpoint,
                 "--schedule", schedule_file, "--iters", "1",
                 "--epochs-per-iter", "1", "--data", train_csv,
                 "--test-data", test_csv, "--out", str(tmp_path / "neat")]) == 0
    written = json.loads((tmp_path / "neat" / "schedule.json").read_text())
    assert written == json.loads(Path(schedule_file).read_text())


@pytest.fixture
def malformed_json(tmp_path):
    """One JSON file with a non-object top level, one that is not JSON."""
    paths = [tmp_path / "list.json", tmp_path / "broken.json"]
    paths[0].write_text("[1, 2]")
    paths[1].write_text("{not json")
    return [str(p) for p in paths]


def _edited_copies(tmp_path, source, edits):
    """One copy of JSON file ``source`` per edit, each edited in place."""
    paths = []
    for i, edit in enumerate(edits):
        raw = json.loads(Path(source).read_text())
        edit(raw)
        path = tmp_path / f"edited{i}.json"
        path.write_text(json.dumps(raw))
        paths.append(str(path))
    return paths


def test_malformed_checkpoint_exits_4(tmp_path, malformed_json,
                                      trained_checkpoint, small_csvs):
    train_csv, test_csv = small_csvs
    edited = _edited_copies(tmp_path, trained_checkpoint, [
        lambda raw: raw["train_config"].update(no_such_key=1),
        lambda raw: raw["train_config"].update(learning_rate="x"),
        lambda raw: raw["model"]["dims"].pop(),  # fewer dims than layers
        lambda raw: raw["model"]["dims"].append(7),  # more dims than layers
        lambda raw: raw["model"]["layers"].pop(),  # the last layer dropped
    ])
    for i, path in enumerate(malformed_json + edited):
        for command in ("eval", "energy"):
            assert main([command, "--checkpoint", path,
                         "--out", str(tmp_path / f"{command}{i}"),
                         "--data", train_csv, "--test-data", test_csv]) == 4


def test_malformed_schedule_file_exits_4(tmp_path, capsys, malformed_json,
                                         trained_checkpoint, schedule_file,
                                         small_csvs):
    train_csv, test_csv = small_csvs
    data = ["--data", train_csv, "--test-data", test_csv]
    w_r = json.loads(Path(schedule_file).read_text())["entries"][0]["w_r"]
    edited = _edited_copies(tmp_path, schedule_file, [
        lambda raw, key=key, value=value: raw["entries"][0].update(
            {key: value})
        for key, value in (("w_cut", -1), ("w_cut", 2.0 * w_r), ("v_g", "x"),
                           ("v_g", -0.1), ("w_r", 0.0), ("w_r", None),
                           ("g_m_cutoff", [1e-5]), ("layer", "x"),
                           ("layer", 7), ("layer", True), ("flag", [1]))]
        + [lambda raw: raw.update(grid=["x"])])
    for i, path in enumerate(malformed_json + edited):
        for argv in (["energy", "--max-samples", "5"],
                     ["eval", "--mode", "crossbar"],
                     ["neat", "--iters", "1"]):
            capsys.readouterr()
            assert main(argv + ["--checkpoint", trained_checkpoint,
                                "--schedule", path, "--out",
                                str(tmp_path / f"{argv[0]}{i}")] + data) == 4
            assert path in capsys.readouterr().err, (argv, path)


def test_malformed_device_file_exits_4(tmp_path, malformed_json):
    good = tmp_path / "device.json"
    save_device_file(good, *default_device())
    edited = _edited_copies(tmp_path, good, [
        lambda raw: raw.update(vth="abc"),
        lambda raw: raw.update(vth=[1]),
        lambda raw: raw.update(kp=True),
    ])
    for i, path in enumerate(malformed_json + edited):
        assert main(["cutoff", "--device", path,
                     "--out", str(tmp_path / f"run{i}")]) == 4


def test_non_finite_values_exit_4(tmp_path, capsys, trained_checkpoint,
                                  schedule_file, small_csvs):
    # No artifact may carry NaN or Infinity; a run that would exits 4 with
    # one error line and leaves only its manifest, itself strict JSON.
    train_csv, test_csv = small_csvs
    data = ["--data", train_csv, "--test-data", test_csv]
    ckpt = ["--checkpoint", trained_checkpoint]
    energy = ["energy", *ckpt, "--schedule", schedule_file,
              "--max-samples", "5"] + data
    infinite_weight = _edited_copies(tmp_path, trained_checkpoint, [
        lambda raw: raw["model"]["layers"][0]["weights"].__setitem__(
            0, float("inf"))])[0]  # written as the literal Infinity
    big_label, latin1 = tmp_path / "big_label.csv", tmp_path / "latin1.csv"
    big_label.write_text("f0,label\n1.0,99999999999999999999999\n")
    latin1.write_bytes("f0,label\n1.0,0\n\u00e9,1\n".encode("latin-1"))
    runs = [energy + ["--pulse-width", "nan"], energy + ["--c-gate", "nan"],
            energy + ["--vsupply", "1e200"],
            energy + ["--vsupply", "1e200", "--device-mode", "ideal_switch"],
            ["report", *ckpt, "--vsupply", "1e200", "--device-mode",
             "ideal_switch", "--max-samples", "5"] + data,
            # Every cell is off below vth and gates cost nothing: the
            # baseline energy is zero and the gain would divide by it.
            ["report", *ckpt, "--device-mode", "ideal_switch",
             "--baseline-vg", "0.5", "--compare-vg", "0.4", "--c-gate", "0",
             "--max-samples", "5"] + data,
            ["power-mc", "--rows", "2", "--cols", "2", "--samples", "2",
             "--c-gate", "nan"],
            ["eval", *ckpt, "--mode", "crossbar", "--schedule", schedule_file,
             "--vsupply", "1e308"] + data,
            ["eval", "--checkpoint", infinite_weight] + data,
            ["train", "--epochs", "1", "--data", str(big_label)],
            ["train", "--epochs", "1", "--data", str(latin1)],
            # Training that diverges stops at its first non-finite loss.
            ["train", "--lr", "1e300", "--hidden", "4", "--epochs", "2"],
            ["neat", *ckpt, "--vg-grid", "0.8,1.0", "--retrain-lr", "1e300",
             "--iters", "1"] + data]
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 4, argv
        assert len(capsys.readouterr().err.splitlines()) == 1, argv
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]
        assert read_json_object(out / "run_manifest.json")["exit_code"] == 4


def test_negative_seed_exits_4(tmp_path, capsys, trained_checkpoint):
    runs = [["train", "--hidden", "4", "--epochs", "1"],
            ["neat", "--checkpoint", trained_checkpoint, "--vg-grid",
             "0.8,1.0", "--iters", "1"],
            ["power-mc", "--rows", "2", "--cols", "2", "--samples", "2"]]
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}"
        capsys.readouterr()
        assert main(argv + ["--seed", "-1", "--out", str(out)]) == 4, argv
        assert len(capsys.readouterr().err.splitlines()) == 1, argv
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]


def test_test_data_needs_data(tmp_path, capsys, trained_checkpoint,
                              schedule_file):
    # --test-data replaces the test split of --data; without --data it
    # would be ignored in favour of the bundled split.
    ckpt = ["--checkpoint", trained_checkpoint]
    runs = {"train": ["--hidden", "4", "--epochs", "1"],
            "neat": [*ckpt, "--vg-grid", "0.8,1.0", "--iters", "1"],
            "eval": ckpt,
            "energy": [*ckpt, "--schedule", schedule_file,
                       "--max-samples", "5"],
            "report": [*ckpt, "--max-samples", "5"]}
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(runs) == {name for name, p in subparsers.items()
                         if "--test-data" in p._option_string_actions}
    missing = str(tmp_path / "missing.csv")
    for name, argv in runs.items():
        capsys.readouterr()
        assert main([name, *argv, "--test-data", missing,
                     "--out", str(tmp_path / name)]) == 2, name
        assert len(capsys.readouterr().err.splitlines()) == 1, name


def test_report_honours_device_mode(tmp_path, trained_checkpoint, small_csvs):
    train_csv, test_csv = small_csvs
    reports = {}
    for mode in ("analytical", "ideal_switch"):
        out = tmp_path / mode
        assert main(["report", "--checkpoint", trained_checkpoint,
                     "--device-mode", mode, "--out", str(out),
                     "--max-samples", "20", "--data", train_csv,
                     "--test-data", test_csv]) == 0
        reports[mode] = json.loads((out / "report.json").read_text())
    t, mem = default_device()
    model = load_checkpoint(trained_checkpoint).model
    x_tr, _ = read_dataset_csv(train_csv)
    x_te, y_te = read_dataset_csv(test_csv)
    grid = parse_vg_values("0.7:1.0:0.05")
    table = cutoff_table(grid, t, mem)
    for leg in ("baseline", "compare"):
        ideal, analytical = reports["ideal_switch"][leg], reports["analytical"][leg]
        schedule = homogeneous_schedule(model, ideal["v_g"], table, mem)
        direct = network_energy(model, x_te[:20], schedule, t, mem, x_tr,
                                mode=IDEAL_SWITCH)
        assert ideal["total_J"] == direct["total"]
        assert ideal["total_J"] != analytical["total_J"]
        for mode, entry in ((IDEAL_SWITCH, ideal), (ANALYTICAL, analytical)):
            assert entry["accuracy"] == evaluate(
                model, x_te[:20], y_te[:20], schedule, t, mem, x_tr, mode)


def test_report_takes_any_gate_voltage(tmp_path, trained_checkpoint,
                                       small_csvs):
    # Cutoffs are solved at the two legs' voltages only, so 0.83 V needs
    # no grid point.
    train_csv, test_csv = small_csvs
    out = tmp_path / "report"
    assert main(["report", "--checkpoint", trained_checkpoint,
                 "--compare-vg", "0.83", "--max-samples", "20",
                 "--data", train_csv, "--test-data", test_csv,
                 "--out", str(out)]) == 0
    compare = json.loads((out / "report.json").read_text())["compare"]
    t, mem = default_device()
    model = load_checkpoint(trained_checkpoint).model
    x_tr, _ = read_dataset_csv(train_csv)
    x_te, y_te = read_dataset_csv(test_csv)
    schedule = homogeneous_schedule(model, 0.83, cutoff_table([0.83], t, mem),
                                    mem)
    direct = network_energy(model, x_te[:20], schedule, t, mem, x_tr)
    assert compare["v_g"] == 0.83
    assert compare["total_J"] == direct["total"]
    assert compare["accuracy"] == np.mean(
        np.argmax(direct["logits"], axis=1) == y_te[:20])


def test_cutoff_ignores_device_file_env(tmp_path, monkeypatch):
    # The manifest records --device; nothing else may pick the device.
    other = tmp_path / "other.json"
    save_device_file(other, TransistorParams(vth=0.77, kp=4e-4),
                     MemristorParams())
    assert main(["cutoff", "--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("ONETR_DEVICE_FILE", str(other))
    assert main(["cutoff", "--out", str(tmp_path / "env")]) == 0
    for name in ("cutoff_table.csv", "run_manifest.json"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "env" / name).read_bytes())


def test_failed_run_manifest_carries_exit_code(tmp_path, trained_checkpoint,
                                               schedule_file, small_csvs):
    train_csv, test_csv = small_csvs
    argv = ["energy", "--checkpoint", trained_checkpoint, "--schedule",
            schedule_file, "--out", str(tmp_path), "--data", train_csv,
            "--test-data", test_csv]
    manifest = tmp_path / "run_manifest.json"
    assert main(argv + ["--max-samples", "5"]) == 0
    assert json.loads(manifest.read_text())["exit_code"] == 0
    assert main(argv + ["--max-samples", "-5"]) == 4
    assert json.loads(manifest.read_text())["exit_code"] == 4


def _recording_namespace(reads):
    """An argparse namespace that adds the name of each read to ``reads``."""
    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)
    return Recording()


def test_every_declared_option_is_read(tmp_path, trained_checkpoint,
                                       schedule_file, small_csvs):
    # Each argv form on its own reads every option its command declares.
    # Runs _run (the argv-form check, then args.func), not main: main's
    # manifest echo reads every field, and main reads --out itself.
    train_csv, test_csv = small_csvs
    data = ["--data", train_csv, "--test-data", test_csv]
    ckpt = ["--checkpoint", trained_checkpoint]
    homogeneous = ["--vg", "0.8", "--vg-grid", "0.8,1.0"]
    retrain = ["--iters", "1", "--epochs-per-iter", "1"]
    forms = [
        ["characterize", "--gm", "1e-5", "--vg", "0.9"],
        ["cutoff", "--vg", "0.8,1.0"],
        ["power-mc", "--vg", "0.9", "--rows", "2", "--cols", "2",
         "--samples", "2"],
        ["train", "--hidden", "4", "--epochs", "1"] + data,
        ["search-vg"] + ckpt,
        ["search-vg"] + ckpt + homogeneous + ["--step-down"],
        ["neat"] + ckpt + retrain + data,
        ["neat"] + ckpt + homogeneous + retrain + data,
        ["neat"] + ckpt + ["--schedule", schedule_file] + retrain + data,
        ["eval"] + ckpt + data,
        ["eval"] + ckpt + ["--mode", "crossbar", "--schedule",
                           schedule_file] + data,
        ["energy"] + ckpt + ["--schedule", schedule_file,
                             "--max-samples", "5"] + data,
        ["report"] + ckpt + ["--max-samples", "5"] + data,
    ]
    parser = build_parser()
    for i, argv in enumerate(forms):
        reads = set()
        args = parser.parse_args(argv, namespace=_recording_namespace(reads))
        declared = set(vars(args)) - {"command", "func", "out"}
        reads.clear()  # parsing reads every field
        out = tmp_path / f"form{i}"
        out.mkdir()
        assert _run(args, out) == 0
        assert declared - reads == set(), argv


def test_failed_write_keeps_previous_artifact(tmp_path):
    path = tmp_path / "artifact.json"
    _write_json(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        _write_json(path, {"a": 2, "b": object()})  # fails mid-dump

    def rows():
        yield [1.0]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        _write_csv(tmp_path / "artifact.csv", ["x"], rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]


@pytest.mark.parametrize("write", [
    lambda p: write_dataset_csv(p, [[1.0, float("nan")]], [0]),
    lambda p: write_dataset_csv(p, [[float("-inf"), 1.0]], [0]),
    lambda p: save_checkpoint(p, Model.new([2, 2], seed=0), history=[
        {"iteration": 1, "accuracy": float("inf")}])])
def test_library_writers_reject_non_finite_values(tmp_path, write):
    # The library writers share the CLI's artifact helpers, so a NaN or an
    # infinity fails the write and leaves no file behind.
    with pytest.raises(DomainError):
        write(tmp_path / "artifact")
    assert not any(tmp_path.iterdir())

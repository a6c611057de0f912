import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import tilesim
from tilesim.cli import main
from tilesim.runner import run_simulation
from tilesim.scenario import MAX_EXTRA_PARTITIONS, load_scenario
from tilesim.trace import TraceRecord, read_jsonl


def test_run_writes_trace_and_metrics(tmp_path):
    trace_out = tmp_path / "out.jsonl"
    metrics_out = tmp_path / "metrics.json"
    rc = main(["run", "--scenario", "fig3", "--trace-out", str(trace_out),
               "--metrics-out", str(metrics_out), "--quiet"])
    assert rc == 0
    lines = trace_out.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "run-start"
    assert json.loads(lines[-1])["kind"] == "run-end"
    metrics = json.loads(metrics_out.read_text())
    assert metrics["faults"]["replaced"] == 1


def test_run_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["run", "--scenario", "storm", "--trace-out", str(a), "--quiet"])
    main(["run", "--scenario", "storm", "--trace-out", str(b), "--quiet"])
    assert a.read_bytes() == b.read_bytes()


def test_seed_override_changes_outcome(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["run", "--scenario", "storm", "--seed", "1", "--trace-out", str(a), "--quiet"])
    main(["run", "--scenario", "storm", "--seed", "2", "--trace-out", str(b), "--quiet"])
    assert a.read_bytes() != b.read_bytes()


def test_validate_ok_and_exit_codes(tmp_path):
    assert main(["validate", "--scenario", "fig6", "--quiet"]) == 0
    bad = tmp_path / "bad.scenario"
    bad.write_text(json.dumps({"horizon": 0, "tiles": [], "tile_groups": []}))
    assert main(["validate", "--scenario", str(bad), "--quiet"]) == 1


def test_validate_unknown_file():
    assert main(["validate", "--scenario", "/nope/missing.scenario", "--quiet"]) == 1


def test_metrics_recompute_matches(tmp_path):
    trace_out = tmp_path / "t.jsonl"
    metrics_out = tmp_path / "m1.json"
    main(["run", "--scenario", "exhaustion", "--trace-out", str(trace_out),
          "--metrics-out", str(metrics_out), "--quiet"])
    recomputed = tmp_path / "m2.json"
    rc = main(["metrics", "--trace", str(trace_out),
               "--metrics-out", str(recomputed), "--quiet"])
    assert rc == 0
    assert recomputed.read_bytes() == metrics_out.read_bytes()


def test_replay_check_passes():
    assert main(["replay-check", "--scenario", "fig3", "--quiet"]) == 0


def test_set_override(tmp_path):
    metrics_out = tmp_path / "m.json"
    rc = main(["run", "--scenario", "fig3", "--set",
               "supervisor.transient_threshold=3", "--metrics-out",
               str(metrics_out), "--quiet"])
    assert rc == 0
    metrics = json.loads(metrics_out.read_text())
    # below the replacement threshold the fault is corrected in place
    assert metrics["faults"]["corrected"] == 1
    assert metrics["faults"]["replaced"] == 0


def test_fail_on_loss_exit_code(tmp_path):
    doc = {
        "name": "loss", "seed": 1, "horizon": 20000,
        "tiles": [{"id": "C0"}, {"id": "C1"}, {"id": "C2"}],
        "threads": [{"id": "Ta", "criticality": 5, "checkpoint_period": 1000,
                     "state_words": 4, "work_per_tick": 100}],
        "thread_groups": [{"id": "TG1", "threads": ["Ta"]}],
        "tile_groups": [{"id": "G1", "members": ["C0", "C1", "C2"],
                         "thread_groups": ["TG1"]}],
        "faults": {"explicit": [
            {"at": 1200, "kind": "permanent-cell", "partition": "shared", "cell": 0},
            {"at": 1500, "kind": "sefi-shared", "duration": 3000}]},
    }
    path = tmp_path / "loss.scenario"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--quiet"]) == 0
    assert main(["run", "--scenario", str(path), "--quiet", "--fail-on-loss"]) == 2


def test_bad_override_exits_1_without_traceback(capsys):
    for overrides, field in [
        (["costs.boot_time=abc"], "costs.boot_time"),
        (["fabric.extra_partitions=-1"], "fabric.extra_partitions"),
        (["threads[0].checksum_cost=-100"], "threads[0].checksum_cost"),
        (["supervisor.transient_threshold=abc"], "supervisor.transient_threshold"),
        (["costs=3"], "costs"),
        ([f"faults.explicit[0].mask={2**64}"], "faults.explicit[0]"),
        (['faults.explicit[0].masks=["a"]'], "faults.explicit[0].masks"),
    ]:
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert main(["run", "--scenario", "fig3", *sets, "--quiet"]) == 1, overrides
        err = capsys.readouterr().err
        assert field + ":" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("partition,extra", [("free0", "1"), ("shared", "0")])
def test_reserved_partition_name_exits_1(capsys, verb, partition, extra):
    rc = main([verb, "--scenario", "fig3", "--set", f'tiles[0].partition="{partition}"',
               "--set", f"fabric.extra_partitions={extra}", "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "tiles[0].partition:" in err
    assert "Traceback" not in err


def test_thread_listed_twice_exits_1(capsys):
    rc = main(["validate", "--scenario", "fig3", "--set",
               'thread_groups[0].threads=["Ta","Tb","Ta"]', "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "thread_groups[0]: thread 'Ta' is already listed" in err
    assert "Traceback" not in err


def test_thread_group_run_by_no_tile_group_exits_1(capsys):
    rc = main(["validate", "--scenario", "fig3", "--set",
               'thread_groups=[{"id":"TG1","threads":["Ta"]},{"id":"TG-z","threads":["Tb"]}]',
               "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "thread_groups[1]: thread group 'TG-z' is run by no tile group" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_too_many_extra_partitions_exits_1(capsys, verb):
    rc = main([verb, "--scenario", "fig3", "--set",
               f"fabric.extra_partitions={MAX_EXTRA_PARTITIONS + 1}", "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "fabric.extra_partitions:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["run", "replay-check"])
@pytest.mark.parametrize("until", ["0", "-5"])
def test_until_below_one_exits_1_naming_until(capsys, verb, until):
    assert main([verb, "--scenario", "fig3", "--until", until, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "--until:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, error", [
    ('{"at": 0, "actor": "sim", "kind": "run-st', "line 3, column 35: Unterminated string starting at"),
    ('{"at":0}', "line 3: record has no 'actor' field"),
    ('[0]', "line 3: a record must be a JSON object"),
    ('{"at":0,"actor":"sim","kind":"x"} {"at":1}', "line 3, column 35: Extra data"),
    ('{"at":0,"actor":"sim","kind":"x"}}', "line 3, column 34: Extra data"),
    ('   {"at": 1, x}', "line 3, column 14: Expecting property name enclosed in double quotes"),
    ('"run-start"', "line 3: a record must be a JSON object"),
    ('{"at":"5","actor":"sim","kind":"run-end"}',
     "line 3: a record's 'at' must be an integer and its 'actor' and 'kind' strings"),
    ('{"at":true,"actor":"sim","kind":"run-end"}',
     "line 3: a record's 'at' must be an integer and its 'actor' and 'kind' strings"),
], ids=["cut-short", "missing-field", "not-an-object", "two-records", "stray-brace",
        "indented", "a-string", "at-a-string", "at-a-bool"])
def test_unreadable_trace_exits_1_naming_the_line(tmp_path, capsys, text, error):
    # a good record and a blank line come first: the count is of file lines
    path = tmp_path / "t.jsonl"
    path.write_text('{"at":0,"actor":"sim","kind":"run-start"}\n\n' + text + "\n")
    assert main(["metrics", "--trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {error}\n"


@pytest.mark.parametrize("text, error", [
    ('{"at":5,"actor":"injector","kind":"fault"}', "record 2 (fault) has no 'id' field"),
    ('{"at":5,"actor":"sim","kind":"tg-active","tg":"TG1"}',
     "record 2 (tg-active) has no 'active' field"),
], ids=["fault-without-id", "tg-active-without-active"])
def test_record_without_a_field_metrics_reads_exits_1_naming_it(tmp_path, capsys, text, error):
    # the blank line is no record: the count is of records, not of file lines
    path = tmp_path / "t.jsonl"
    path.write_text('{"at":0,"actor":"sim","kind":"run-start"}\n\n' + text + "\n")
    assert main(["metrics", "--trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {error}\n"


@pytest.mark.parametrize("text, error", [
    ('{"at":5,"actor":"G1","kind":"checkpoint-end","duration":"3","tiles":["C0"]}',
     "record 2 (checkpoint-end): field 'duration' has the wrong type"),
    ('{"at":5,"actor":"injector","kind":"fault","id":[1],"fault_kind":"seu",'
     '"disposition":"applied"}',
     "record 2 (fault): field 'id' has the wrong type"),
    ('{"at":5,"actor":"supervisor","kind":"fault-detected","id":1,"latency":3,'
     '"group":["G"]}',
     "record 2 (fault-detected): field 'group' has the wrong type"),
    ('{"at":0,"actor":"sim","kind":"run-start","tg_map":[]}',
     "record 2 (run-start): field 'tg_map' has the wrong type"),
    ('{"at":0,"actor":"sim","kind":"run-start","tg_map":{"TG1":[1]}}',
     "record 2 (run-start): field 'tg_map' has the wrong type"),
    ('{"at":5,"actor":"G1","kind":"checkpoint-end","duration":3,"tiles":["C0",1]}',
     "record 2 (checkpoint-end): field 'tiles' has the wrong type"),
], ids=["duration-a-string", "id-a-list", "group-a-list", "tg-map-a-list", "thread-an-int",
        "tile-an-int"])
def test_field_of_the_wrong_type_exits_1_naming_the_record(tmp_path, capsys, text, error):
    path = tmp_path / "t.jsonl"
    path.write_text('{"at":0,"actor":"sim","kind":"run-start"}\n\n' + text + "\n")
    assert main(["metrics", "--trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {error}\n"


def test_trace_not_utf8_exits_1_naming_the_line(tmp_path, capsys):
    good = '{"at":0,"actor":"sim","kind":"run-start"}\n'
    path = tmp_path / "t.jsonl"
    path.write_bytes((good * 4).encode() + b'{"at":1,"actor":"\xc3\xa9\xff","kind":"x"}\n')
    assert main(["metrics", "--trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 5, column 19: byte 0xff at offset 187 is not UTF-8\n"


def test_scenario_not_utf8_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_bytes(b'{"name": "x\xff"}')
    assert main(["validate", "--scenario", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"{path}: line 1, column 12: byte 0xff at offset 11 is not UTF-8" in err
    assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(tilesim.__file__).resolve().parent.parent))
    child = subprocess.run([sys.executable, "-m", "tilesim", "validate", "--scenario", "fig3"],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "fig3: ok\n"


def test_record_padded_with_blanks_reads_back():
    line = ' \t{"at":5,"actor":"sim","kind":"x","n":1}\t \n'
    assert read_jsonl([line]) == [TraceRecord(5, "sim", "x", {"n": 1})]


def test_files_are_utf8_whatever_the_locale(tmp_path):
    doc = json.loads((resources.files("tilesim") / "scenarios" / "fig3.scenario").read_text())
    doc["name"] = "fig3-\u03a9"
    path, trace_out = tmp_path / "omega.scenario", tmp_path / "out.jsonl"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    code = ("import sys; from tilesim.cli import main; "
            "sys.exit(main(['validate', '--scenario', sys.argv[1], '--quiet']) or "
            "main(['run', '--scenario', sys.argv[1], '--trace-out', sys.argv[2], '--quiet']))")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(Path(tilesim.__file__).resolve().parent.parent))
    child = subprocess.run([sys.executable, "-c", code, str(path), str(trace_out)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    trace, _ = run_simulation(load_scenario(str(path)))
    assert trace_out.read_bytes() == trace.to_jsonl().encode("ascii")


def test_sweep_csv_and_rows(tmp_path):
    csv_out = tmp_path / "rows.csv"
    rc = main(["sweep", "--scenario", "fig3",
               "--grid", "threads[*].checkpoint_period=1000,2000",
               "--seeds", "1,2", "--csv-out", str(csv_out), "--quiet"])
    assert rc == 0
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 grid points x 2 seeds
    assert "overhead_mean" in lines[0]


@pytest.mark.parametrize("seeds", ["1,x", "", "1,,2"])
def test_sweep_rejects_bad_seeds(tmp_path, capsys, seeds):
    csv_out = tmp_path / "rows.csv"
    rc = main(["sweep", "--scenario", "fig3", "--seeds", seeds,
               "--csv-out", str(csv_out), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--seeds:" in err
    assert "Traceback" not in err
    assert not csv_out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "fig3", "--bogus"],
    ["run", "--scenario", "fig3", "--until", "x"],
    # --seeds sets a sweep's seeds, and --seed is no abbreviation of it
    ["sweep", "--scenario", "fig3", "--seed", "5", "--quiet"],
])
def test_usage_error_exits_1_not_the_loss_of_mission_code(capsys, argv):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out


def test_sweep_rejects_non_numeric_grid():
    rc = main(["sweep", "--scenario", "fig3", "--grid", "name=foo,bar", "--quiet"])
    assert rc == 1


def test_single_point_sweep_equals_plain_run(tmp_path):
    from tilesim.runner import run_simulation, sweep
    from tilesim.scenario import load_scenario
    scenario = load_scenario("fig3")
    rows = sweep(scenario.raw, {"threads[*].checkpoint_period": [1000]}, seeds=[42])
    assert len(rows) == 1
    _, summary = run_simulation(load_scenario("fig3"))
    assert rows[0]["checkpoints"] == summary.checkpoints
    assert rows[0]["replaced"] == summary.replaced

"""The one artifact codec (``repro.records``) and the four formats built on it.

Every artifact below comes from one real small run.  Three promises are
checked for each of the four formats: ``write -> read -> write`` is
byte-identical; a file truncated at any byte or with any one field mutated
gives a correct load of a valid prefix, a non-empty problems list, or an
``ArtifactError``/``ValueError`` and never another exception; and the eight
hostile inputs that used to escape as ``JSONDecodeError``/``AttributeError``
/``KeyError`` or as CLI tracebacks are named errors.
"""

from __future__ import annotations

import copy
import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments import ExperimentConfig, load_points, run_sweep, save_points
from repro.experiments.persistence import scenario_to_dict
from repro.experiments.scenario import replay, run_scenario
from repro.experiments.store import SweepStore
from repro.obs import RunObservation
from repro.obs.flight import build_dump, load_dump, save_dump
from repro.obs.live import (
    RunEventLog,
    check_log,
    format_live,
    read_log,
    shard_lane_events,
    summarize_log,
    write_log,
)
from repro.records import (
    ArtifactError,
    JsonlWriter,
    read_json,
    read_jsonl,
    write_json,
)

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=2, post_fail_window=10.0, protocols=("dbf",)
)
#: A sweep's run-log records, as ``run_sweep`` writes them.
SWEEP_RECORDS = (
    {"kind": "sweep", "phase": "begin", "total_tasks": 2, "resumed_tasks": 0,
     "workers": 1},
    {"kind": "seed", "protocol": "dbf", "degree": 4, "seed": 1, "ok": True,
     "elapsed_s": 0.1, "done": 1, "total": 2},
    {"kind": "sweep", "phase": "end", "wall_s": 0.3},
)


# --------------------------------------------------------------------------
# the four formats, from one real run
# --------------------------------------------------------------------------


def _copy_results(src, dst):
    save_points(load_points(src), dst)


def _copy_checkpoint(src, dst):
    """Re-create a checkpoint directory from what the store loads of it."""
    old = SweepStore(src)
    with SweepStore(dst) as new:
        new.open(old.load_config())
        for outcome in old.load_outcomes().values():
            new.append(outcome)


def _copy_dump(src, dst):
    save_dump(load_dump(src), dst)


def _copy_log(src, dst):
    write_log(read_log(src), dst)


def _use_results(path):
    points = load_points(path)
    save_points(points, path + ".again")  # what loads is itself a valid artifact
    assert load_points(path + ".again") == points


def _use_checkpoint(path):
    store = SweepStore(path)
    store.open(TINY)
    store.close()
    assert store.load_config() == TINY
    assert store.grid() == TINY.grid()
    for task, outcome in store.load_outcomes().items():
        assert task in TINY.grid() and isinstance(outcome.seed, int)


def _use_dump(path):
    replay(load_dump(path))  # a ticket that loads re-runs to its own result


def _use_log(path):
    records = read_log(path)
    if not check_log(records):
        format_live(summarize_log(records))
        json.dumps(shard_lane_events(records))


#: name -> (file inside the artifact that gets damaged, copy, use).
FORMATS = {
    "results": ("", _copy_results, _use_results),
    "manifest": ("manifest.json", _copy_checkpoint, _use_checkpoint),
    "shards": ("shards.jsonl", _copy_checkpoint, _use_checkpoint),
    "dump": ("", _copy_dump, _use_dump),
    "log": ("", _copy_log, _use_log),
}


JSONL = {"shards", "log"}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """``{format name: path}`` of artifacts written by one small real run."""
    root = tmp_path_factory.mktemp("artifacts")
    paths = {name: str(root / name) for name in FORMATS}
    paths["shards"] = paths["manifest"] = str(root / "checkpoint")

    save_points(run_sweep(TINY, store=paths["manifest"]), paths["results"])

    obs = RunObservation()
    with RunEventLog(paths["log"], run="shard", meta={"seed": 7}) as log:
        result = run_scenario("dbf", 4, 7, TINY, obs=obs, live_log=log)
        # ... plus one of every record kind a sharded run or a sweep adds.
        log.heartbeat(shard=1, clock=1.0, events=7, barrier=1.0, relays_out=1,
                      relays_in=2, busy_s=0.2, wall_s=0.5)
        log.heartbeat(shard=1, clock=2.0, events=9, barrier=2.0, relays_out=3,
                      relays_in=4, busy_s=0.3, wall_s=1.0)
        log.window(index=0, e_min=0.5, barrier=1.0, n_windows=12, n_relays=3, wall_s=0.4)
        for record in SWEEP_RECORDS:
            log.write(record)
        log.shard_end(shard=1, events=9, relays_out=3, relays_in=4)
        log.violation("fib-loop at t=3")
        log.stall(shard=1, window=2.0, reason="no response", heartbeat={"clock": 2.0})
        log.end(ok=False)
    # The observed run wrote its profile: the tests below damage it too.
    assert [r["kind"] for r in read_log(paths["log"])].count("profile") == 1
    save_dump(build_dump("scenario", "dbf", 4, 7, TINY, scenario_to_dict(result)), paths["dump"])
    return paths


def _bytes_of(path):
    if os.path.isfile(path):
        return open(path, "rb").read()
    return {name: _bytes_of(os.path.join(path, name)) for name in sorted(os.listdir(path))}


@pytest.mark.parametrize("name", sorted(set(FORMATS) - {"shards"}))
def test_write_read_write_is_byte_identical(name, artifacts, tmp_path):
    _, copy_artifact, use = FORMATS[name]
    use(artifacts[name])  # the real artifact is valid to begin with
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    copy_artifact(artifacts[name], first)
    copy_artifact(first, second)
    assert _bytes_of(first) == _bytes_of(artifacts[name])
    assert _bytes_of(second) == _bytes_of(first)


# --------------------------------------------------------------------------
# hostile files: truncation and single-field mutation
# --------------------------------------------------------------------------


def _damaged_copy(name, artifacts, workdir):
    """A scratch copy of the artifact and the path of the file to damage."""
    target = os.path.join(workdir, name)
    if os.path.isdir(target):
        shutil.rmtree(target)
    if os.path.isdir(artifacts[name]):
        shutil.copytree(artifacts[name], target)
    else:
        shutil.copyfile(artifacts[name], target)
    return target, os.path.join(target, FORMATS[name][0]).rstrip(os.sep)


def _use_or_named_error(name, target):
    try:
        FORMATS[name][2](target)
    except ValueError:
        pass  # ArtifactError is one


def _slots(node, out):
    """Every ``(container, key)`` position inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _choices(container, key):
    """The mutations that fit the value at ``container[key]``."""
    value = container[key]
    choices = ["drop", "null"] if isinstance(container, dict) else ["null"]
    if isinstance(value, bool):
        choices.append("string")
    elif isinstance(value, (int, float)):
        choices += ["true", "string"]
    elif isinstance(value, (dict, str)):
        choices.append("list")  # for a string also: an unhashable dict key
    return choices


def _apply(container, key, choice):
    if choice == "drop":
        del container[key]
    else:
        container[key] = {"null": None, "true": True, "string": "x", "list": []}[choice]


def _mutate(document, data):
    slots = _slots(document, [])
    container, key = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
    choice = data.draw(st.sampled_from(_choices(container, key)), label="mutation")
    _apply(container, key, choice)


HOSTILE = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("name", sorted(FORMATS))
@HOSTILE
@given(data=st.data())
def test_truncated_anywhere_is_a_prefix_or_a_named_error(name, artifacts, tmp_path, data):
    target, victim = _damaged_copy(name, artifacts, str(tmp_path))
    size = os.path.getsize(victim)
    with open(victim, "r+b") as f:
        f.truncate(data.draw(st.integers(0, size), label="offset"))
    if name in JSONL:
        pristine = os.path.join(artifacts[name], FORMATS[name][0]).rstrip(os.sep)
        kept = read_jsonl(victim)
        assert kept == read_jsonl(pristine)[: len(kept)]  # a prefix, unaltered
    _use_or_named_error(name, target)


@pytest.mark.parametrize("name", sorted(FORMATS))
@HOSTILE
@given(data=st.data())
def test_one_mutated_field_is_a_problem_or_a_named_error(name, artifacts, tmp_path, data):
    target, victim = _damaged_copy(name, artifacts, str(tmp_path))
    if name not in JSONL:
        document = json.load(open(victim))
        _mutate(document, data)
        with open(victim, "w") as f:
            json.dump(document, f)
    else:
        lines = open(victim).read().splitlines()
        n = data.draw(st.integers(0, len(lines) - 1), label="line")
        wrapper = [json.loads(lines[n])]  # so the record itself can be replaced
        _mutate(wrapper, data)
        lines[n : n + 1] = [json.dumps(v) for v in wrapper]
        with open(victim, "w") as f:
            f.write("".join(line + "\n" for line in lines))
    _use_or_named_error(name, target)


def test_every_mutated_profile_field_still_draws_a_frame(artifacts):
    """Each single-field mutation of the ``profile`` record, exhaustively.

    The watch view must draw a frame for every one, and show each damage
    ``check_log`` finds as a ``LOG PROBLEM`` line.
    """
    records = read_log(artifacts["log"])
    assert check_log(records) == []
    n = next(i for i, r in enumerate(records) if r["kind"] == "profile")
    slots = _slots(records[n], [])
    assert len(slots) > 50  # the phase tree and every metric's fields
    for i, (container, key) in enumerate(slots):
        for choice in _choices(container, key):
            mutated = list(records)
            mutated[n] = copy.deepcopy(records[n])
            _apply(*_slots(mutated[n], [])[i], choice)
            frame = format_live(summarize_log(mutated))
            if check_log(mutated):
                assert "LOG PROBLEM" in frame, (key, choice)


# --------------------------------------------------------------------------
# the codec's own units
# --------------------------------------------------------------------------


class TestReadJsonl:
    def test_missing_file_has_no_records(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []
        assert read_jsonl(tmp_path / "absent.jsonl", repair=True) == []
        assert not (tmp_path / "absent.jsonl").exists()

    @pytest.mark.parametrize(
        "tail", ['{"n": 3', '{"n": 3}', '{"n": 3\n{"n": 4}\n', "\xff\n", "[" * 100_000 + "\n"]
    )
    def test_repair_truncates_to_the_last_complete_record(self, tmp_path, tail):
        path = tmp_path / "log.jsonl"
        good = '{"n": 1}\n\n{"n": 2}\n'
        path.write_bytes(good.encode() + tail.encode("latin-1"))
        assert read_jsonl(path) == [{"n": 1}, {"n": 2}]
        assert path.read_bytes() != good.encode()  # reading alone repairs nothing
        assert read_jsonl(path, repair=True) == [{"n": 1}, {"n": 2}]
        assert path.read_bytes() == good.encode()
        assert read_jsonl(path, repair=True) == [{"n": 1}, {"n": 2}]  # idempotent
        assert path.read_bytes() == good.encode()

    def test_writer_appends_behind_a_repaired_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlWriter(path) as out:
            out.write({"n": 1})
        with open(path, "a") as f:
            f.write('{"n": 2')
        read_jsonl(path, repair=True)
        with JsonlWriter(path, "a") as out:
            out.write({"n": 3})
        assert read_jsonl(path) == [{"n": 1}, {"n": 3}]
        with pytest.raises(ValueError, match="closed"):
            out.write({"n": 4})


class TestWriteJson:
    def test_replaces_atomically_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json({"a": 1}, path)
        write_json({"a": [1, 2]}, path, newline=True)
        assert path.read_text() == '{\n "a": [\n  1,\n  2\n ]\n}\n'
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_previous_file_survives_a_failed_serialisation(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json({"a": 1}, path)
        with pytest.raises(TypeError):
            write_json({"a": object()}, path)
        assert read_json(path, "doc") == {"a": 1}
        assert os.listdir(tmp_path) == ["doc.json"]

    @pytest.mark.parametrize("found", [2, True, 1.0, "1", None])
    def test_read_json_names_the_version_found(self, tmp_path, found):
        path = tmp_path / "doc.json"
        write_json({"v": found}, path)
        with pytest.raises(ArtifactError, match="only version 1") as excinfo:
            read_json(path, "doc", "v", 1)
        assert str(path) in str(excinfo.value)
        assert "\n" not in str(excinfo.value)


# --------------------------------------------------------------------------
# the eight inputs that used to escape, as named regressions
# --------------------------------------------------------------------------


def _cli_error(argv, capsys):
    """Run the CLI; it must exit 2 with exactly one ``error:`` line."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out
    return captured.err


class TestNamedErrors:
    def test_1_torn_results_file(self, artifacts, tmp_path):
        path = tmp_path / "results.json"
        path.write_bytes(open(artifacts["results"], "rb").read()[:500])
        with pytest.raises(ArtifactError, match="results.json.*torn"):
            load_points(str(path))

    def test_2_results_file_holding_a_list(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("[]")
        with pytest.raises(ArtifactError, match="JSON object"):
            load_points(str(path))

    def test_3_results_file_without_points(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text('{"format_version": 3}')
        with pytest.raises(ArtifactError, match="'points'"):
            load_points(str(path))

    @pytest.mark.parametrize(
        "line, needle",
        [("42", "record 1"), ('{"kind": "run"}', "'run'"),
         ('{"kind": "run", "run": {"protocol": "dbf"}}', "lacks 'degree'")],
        ids=["4-non-object", "5-no-payload", "5-payload-missing-a-field"],
    )
    def test_4_5_malformed_shard_record(self, tmp_path, line, needle):
        store = SweepStore(tmp_path / "ck")
        store.open(TINY)
        with open(store.shards_path, "w") as f:
            f.write(line + "\n")
        with pytest.raises(ArtifactError, match=needle) as excinfo:
            store.load_outcomes()
        assert "shards.jsonl" in str(excinfo.value)

    def test_6_manifest_holding_a_list(self, tmp_path):
        store = SweepStore(tmp_path / "ck")
        store.open(TINY)
        with open(store.manifest_path, "w") as f:
            f.write("[]")
        with pytest.raises(ArtifactError, match="manifest.json.*JSON object"):
            SweepStore(store.directory).open(TINY)

    def test_7_torn_flight_dump(self, artifacts, tmp_path, capsys):
        path = tmp_path / "torn.json"
        path.write_bytes(open(artifacts["dump"], "rb").read()[:300])
        with pytest.raises(ArtifactError, match="torn.json"):
            load_dump(str(path))
        assert "torn.json" in _cli_error(["trace", "--dump", str(path)], capsys)

    def test_9_resume_from_an_old_version_manifest(self, artifacts, tmp_path, capsys):
        ck = tmp_path / "ck"
        shutil.copytree(artifacts["manifest"], ck)
        manifest = json.load(open(ck / "manifest.json"))
        manifest["format_version"] = 2
        json.dump(manifest, open(ck / "manifest.json", "w"))
        err = _cli_error(["sweep", "--checkpoint", str(ck), "--resume"], capsys)
        assert "version 2" in err and "only version 3" in err

    def test_halved_log_is_a_valid_prefix(self, artifacts, tmp_path, capsys):
        path = tmp_path / "half.log"
        whole = open(artifacts["log"], "rb").read()
        path.write_bytes(whole[: len(whole) // 2])
        records = read_log(path)
        assert 0 < len(records) < len(read_log(artifacts["log"]))
        assert check_log(records) == []
        assert main(["watch", str(path), "--once", "--check"]) == 0

    def test_foreign_checkpoint_keeps_its_exit_code_and_wording(self, artifacts, capsys):
        err = _cli_error(
            ["sweep", "--checkpoint", artifacts["manifest"], "--runs", "3"], capsys
        )
        assert "different configuration" in err and "fresh directory" in err

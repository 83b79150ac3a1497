"""The pure parts of benchmarks/harness.py: --src parsing, the merge of a
record by label and the parallel probe.  No child is started."""

import importlib.util
import json
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("harness", CHECKOUT / "benchmarks" / "harness.py")
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def test_src_defaults_to_this_checkout_and_resolves_each_tree(tmp_path, monkeypatch):
    args = harness.parse_args("Doc.\n\nMore.", 7, tmp_path / "out.json", [])
    assert args.trees == {"current": CHECKOUT / "src"}
    assert (args.rounds, args.out) == (7, tmp_path / "out.json")
    monkeypatch.chdir(tmp_path)
    args = harness.parse_args("", 10, tmp_path, ["--src", "parent=old/src", "--src", "change=a=b", "--rounds", "3"])
    assert args.trees == {"parent": tmp_path / "old" / "src", "change": tmp_path / "a=b"}
    assert args.rounds == 3


def test_write_replaces_its_labels_keeps_the_others_and_rewrites_host(tmp_path):
    out = tmp_path / "BENCH.json"
    harness.write(out, {"before": {"run_s": 1.0}, "after": {"run_s": 2.0}}, "first", [1.0])
    assert list(json.loads(out.read_text())) == ["host", "before", "after"]
    harness.write(out, {"after": {"run_s": 3.0}, "new": {"run_s": 4.0}}, "second", [1.98, 1.0004])
    record = json.loads(out.read_text())
    assert list(record) == ["host", "before", "after", "new"]
    assert record["before"] == {"run_s": 1.0}
    assert record["after"] == {"run_s": 3.0}
    assert record["new"] == {"run_s": 4.0}
    assert record["host"]["note"] == "second"
    assert record["host"]["parallel_2_over_1"] == [1.98, 1.0]
    assert set(record["host"]) == {"python", "machine", "nproc", "parallel_2_over_1", "note"}


def test_parallel_probe_is_a_throughput_ratio(monkeypatch):
    """The probe is two threads' throughput over one thread's: positive,
    and at most a little over 2 on two threads."""
    monkeypatch.setattr(harness, "PROBE_BYTES", 1 << 20)
    ratio = harness.parallel_probe()
    assert 0.0 < ratio < 3.0

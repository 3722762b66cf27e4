"""Scripts under scripts/ run from a plain checkout, as the README shows."""

import gc
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from chainpebble.checks import BOUNDS
from chainpebble.cli import default_seed
from chainpebble.owf import builtin
from chainpebble.schedule import FAMILIES
from harness import Discard, peak_bytes

ROOT = Path(__file__).resolve().parent.parent


def test_pebbler_panels_runs_without_pythonpath(tmp_path):
    env = {n: v for n, v in os.environ.items() if n != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pebbler_panels.py"), "--k", "3", "--k-max", "5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for family in FAMILIES:
        assert f"{family} pebbler, order 3" in done.stdout
        assert f"| {family:>16}" in done.stdout


def test_pebbler_panels_reads_orders_as_the_cli_does(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pebbler_panels.py"), "--k", "-1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "must be ASCII digits in 0..30" in done.stderr


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pebbler_panels_prints_rows_as_they_come(monkeypatch):
    # no list of 2^(k+1) rows is held: from k = 8 to 14 the panel's peak
    # grows by the trace's O(k) frontier, not by the 2^15 rows' megabytes
    panels = _script("pebbler_panels")
    owf = builtin("md5")  # hashed in C: traced, about half the time of testmix64
    seed = default_seed(owf)
    monkeypatch.setattr(sys, "stdout", Discard())
    panels.print_panel(owf, "optimal", 8, seed)  # first-call allocations
    gc.collect()
    small = peak_bytes(lambda: panels.print_panel(owf, "optimal", 8, seed))
    gc.collect()
    large = peak_bytes(lambda: panels.print_panel(owf, "optimal", 14, seed))
    assert large - small < 64 * 1024, (small, large)


def _numbers(cell):
    return [int(v) for v in re.findall(r"[ws]=\s*(\d+)", cell)]


def test_pebbler_panels_summary_is_the_bounds_table(capsys):
    # each family's measured peaks and each predicted column, k = 1 included
    owf = builtin("testmix64")
    _script("pebbler_panels").print_summary(owf, default_seed(owf), 3)
    rows = [line.split("|") for line in capsys.readouterr().out.splitlines()
            if line[:3].strip().isdigit()]
    assert [int(row[0]) for row in rows] == [1, 2, 3]
    for k, (_, *measured, predicted) in enumerate(rows, 1):
        for family, cell in zip(FAMILIES, measured, strict=True):
            assert _numbers(cell) == [BOUNDS[family].work(k), BOUNDS[family].storage(k)]
        # one storage column stands for speed2 and optimal
        assert BOUNDS["speed2"].storage(k) == BOUNDS["optimal"].storage(k)
        assert _numbers(predicted) == [BOUNDS["speed1"].storage(k),
                                       BOUNDS["speed2"].storage(k), BOUNDS["optimal"].work(k)]


def _bench_module():
    return _script("bench")


def test_loc_counts_code_lines_only(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text('''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a value,
    not a docstring"""

    def f(self):
        """One line."""

        return (1,
                2)
''')
    # import, class, x's two lines, def, return's two lines
    assert _script("loc").code_lines(module) == 7


def test_loc_prints_each_module_and_their_total():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "loc.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *modules, total = [line.split() for line in done.stdout.splitlines()]
    assert {name for name, _ in modules} >= {"inplace", "owf", "pebbler", "protocol"}
    assert total == ["total", str(sum(int(count) for _, count in modules))]


def test_bench_summarizes_runs_by_median_and_quartiles():
    summarize = _bench_module().summarize
    assert summarize([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                                   "iqr": 2.0}
    assert summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def test_bench_takes_each_layer_metric_median_over_traced_runs():
    layer_medians = _bench_module().layer_medians
    runs = [{"owf.fn_ns": 339.0, "pebbler.hashes_max": 7},
            {"owf.fn_ns": 423.0, "pebbler.hashes_max": 7},
            {"owf.fn_ns": 286.0, "pebbler.hashes_max": 7}]
    assert layer_medians(runs) == {"owf.fn_ns": 339.0, "pebbler.hashes_max": 7}
    assert layer_medians(runs[:2]) == {"owf.fn_ns": 381.0, "pebbler.hashes_max": 7}


def test_bench_rejects_checkout_without_label(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--out", str(tmp_path / "b.json"),
         str(ROOT)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "LABEL=PATH" in done.stderr
    assert not (tmp_path / "b.json").exists()


def test_bench_records_whether_a_checkout_has_uncommitted_changes(tmp_path):
    git_dirty = _bench_module().git_dirty
    plain = tmp_path / "plain"
    plain.mkdir()
    assert git_dirty(plain) is None
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
           "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
    (repo / "a.txt").write_text("one\n")
    subprocess.run(git + ["add", "a.txt"], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], cwd=repo, check=True)
    assert git_dirty(repo) is False
    (repo / "a.txt").write_text("two\n")
    assert git_dirty(repo) is True
    subprocess.run(git + ["checkout", "-q", "a.txt"], cwd=repo, check=True)
    (repo / "new.txt").write_text("untracked\n")
    assert git_dirty(repo) is True


def _runs(values):
    return [{"seed": seed, "metrics": {"m": v}} for seed, v in enumerate(values, 1)]


def test_bench_compares_two_checkouts_pair_by_pair():
    compare = _bench_module().compare
    parent = _runs([10.0, 12.0, 11.0, 13.0, 14.0])
    change = _runs([9.0, 12.0, 10.0, 14.0, 13.0])  # seed 2 ties, seed 4 loses
    lower = compare(parent, change, {"name": "m", "better": "lower", "bound": 0.25})
    assert lower == {"pairs": 5, "wins": 3, "ties": 1, "median_delta": (12.0 - 12.0) / 12.0,
                     "parent_iqr": (13.0 - 11.0) / 12.0, "better": "lower", "bound": 0.25}
    higher = compare(parent, change, {"name": "m", "better": "higher", "bound": 0.01})
    assert (higher["wins"], higher["ties"], higher["bound"]) == (1, 1, 0.01)
    worse = compare(parent, _runs([5.0, 6.0, 5.5, 6.5, 7.0]),
                    {"name": "m", "better": "higher", "bound": 0.25})
    assert (worse["wins"], worse["ties"], worse["median_delta"]) == (0, 0, -0.5)


def test_bench_pairs_runs_by_seed_not_by_position():
    compare = _bench_module().compare
    parent = _runs([1.0, 2.0, 3.0])
    change = list(reversed(_runs([1.0, 2.0, 4.0])))  # same seeds, listed backwards
    change.append({"seed": 9, "metrics": {"m": 0.0}})  # no parent run to pair with
    got = compare(parent, change, {"name": "m", "better": "higher", "bound": 0.25})
    assert (got["pairs"], got["wins"], got["ties"]) == (3, 1, 2)


def test_bench_flags_a_metric_worse_than_its_bound():
    module = _bench_module()

    def flagged(before, after, better):
        metric = {"name": "m", "better": better, "bound": 0.25}
        return module.flag_bound(module.compare(_runs(before), _runs(after), metric))

    parent = [10.0, 10.0, 10.0]
    assert flagged(parent, [13.0, 13.0, 13.0], "lower")["beyond_bound"] is True  # +30%
    assert flagged(parent, [11.0, 11.0, 11.0], "lower")["beyond_bound"] is False  # +10%
    assert flagged(parent, [7.0, 7.0, 7.0], "lower")["beyond_bound"] is False  # falls
    assert flagged(parent, [7.0, 7.0, 7.0], "higher")["beyond_bound"] is True  # -30%
    assert flagged(parent, [13.0, 13.0, 13.0], "higher")["beyond_bound"] is False
    reading = flagged(parent, [13.0, 13.0, 13.0], "lower")
    assert {k: v for k, v in reading.items() if k != "beyond_bound"} == module.compare(
        _runs(parent), _runs([13.0, 13.0, 13.0]), {"name": "m", "better": "lower", "bound": 0.25})

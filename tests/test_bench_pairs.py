"""The summary of tools/bench_pairs.py, on canned runs (no subprocess)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [{"name": "wall_s", "better": "lower"},
        {"name": "rate", "better": "higher"}]


def run(pair, wall, rate, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}},
            "seed": pair, "pair": pair,
            "first": "parent" if pair % 2 == 0 else "change"}


def test_summary_of_canned_runs():
    runs = {"w": {
        "parent": [run(0, 1.0, 5.0), run(1, 2.0, 5.0), run(2, 3.0, 5.0),
                   run(3, 4.0, 5.0), run(4, 5.0, 5.0)],
        # the change's list in another order: pairs are matched by index
        "change": [run(4, 5.0, 4.0), run(0, 0.5, 6.0), run(1, 1.5, 6.0),
                   run(2, 2.5, 4.0), run(3, 4.5, 5.0, failed=1)],
    }}
    s = bench_pairs.summarize(runs, SPEC)["w"]
    wall = s["wall_s"]
    assert wall["pairs"] == 5
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 2.5, "q1": 1.5, "q3": 4.5}
    # lower in pairs 0-2, higher in 3, a tie in 4
    assert wall["change_better_in"] == 3
    assert wall["failed"] == [0, 1]
    assert wall["all_correct"] is False
    assert wall["median_change_pct"] == pytest.approx(-100 / 6)
    assert wall["parent_iqr"] == 2.0
    # higher is better: pairs 0 and 1 only
    assert s["rate"]["change_better_in"] == 2
    assert s["rate"]["median_change_pct"] == 0.0


def test_reproduces_a_recorded_bench_file():
    doc = json.loads((ROOT / "BENCH_26.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.summarize(doc["runs"], spec) == doc["summary"]


@pytest.mark.parametrize("extra", [
    [], ["--parent-commit", "abc", "--seconds", "5"],
    ["--parent-commit", "abc", "--pairs", "3"]])
def test_refuses_a_missing_commit_and_a_run_length_or_pair_count(extra,
                                                                  capsys):
    # the run length comes from BENCHMARK.json and the pair count is fixed,
    # so argparse stops these before any run
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["p", "c", "--pr", "1", *extra])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


BOUNDED = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "rate", "better": "higher", "bound": 0.1}]


def paired(parent, change):
    """Runs of one workload, pair k with the k-th (wall, rate) of each."""
    return {"w": {side: [run(k, *vals) for k, vals in enumerate(values)]
                  for side, values in (("parent", parent),
                                       ("change", change))}}


def judged(parent, change, claim=None):
    return bench_pairs.judge(paired(parent, change), BOUNDED, claim)["w"]


PARENT = [(1.0 + 0.01 * k, 5.0) for k in range(10)]  # quartile spread 0.045
WALL = {"workload": "w", "metric": "wall_s"}


@pytest.mark.parametrize("change,met", [
    # 10 of 10 pairs, the median 0.1 lower
    ([(w - 0.1, r) for w, r in PARENT], True),
    # 9 of 10 pairs suffice
    ([(w - 0.1, r) for w, r in PARENT[:9]] + [(1.2, 5.0)], True),
    # 8 of 10 pairs do not, however far the median moves
    ([(w - 0.5, r) for w, r in PARENT[:8]] + [(1.2, 5.0)] * 2, False),
    # 10 of 10 pairs, but by less than the parent's quartile spread
    ([(w - 0.04, r) for w, r in PARENT], False),
], ids=["all-pairs", "nine-pairs", "eight-pairs", "inside-the-spread"])
def test_claim_met(change, met):
    s = judged(PARENT, change, WALL)
    assert s["wall_s"]["claim_met"] is met
    # only the claimed metric is judged as a claim
    assert "claim_met" not in s["rate"]


@pytest.mark.parametrize("scale,rate,within", [
    (1.24, 5.0, True), (1.3, 5.0, False),  # lower is better: +25% allowed
    (1.0, 4.5, True), (1.0, 4.4, False),  # higher is better: -10% allowed
    (0.5, 9.0, True),  # better is always within
])
def test_within_bound(scale, rate, within):
    change = [(w * scale, rate) for w, _ in PARENT]
    s = judged(PARENT, change)
    assert (s["wall_s"]["within_bound"] and s["rate"]["within_bound"]) \
        is within
    assert "claim_met" not in s["wall_s"]


# quartile spreads 0.45 s, wider than 25% of the median 1.45 s, and 4.5,
# wider than 10% of the median 9.5
WIDE = [(1.0 + 0.1 * k, 5.0 + k) for k in range(10)]


@pytest.mark.parametrize("parent,change,unresolved", [
    # a spread inside the bound resolves the metric, whatever the change
    (PARENT, PARENT, (False, False)),
    (PARENT, [(w * 1.3, r) for w, r in PARENT], (False, False)),
    # a wider one leaves it unresolved: equal runs, a better median, the
    # best change run only equal to the worst parent run
    (WIDE, WIDE, (True, True)),
    (WIDE, [(w - 0.5, r + 5) for w, r in WIDE], (True, True)),
    (WIDE, [(1.0, 14.0)] * 10, (True, True)),
    # unless every change run reads better than every parent run
    (WIDE, [(0.99, 14.5)] * 10, (False, False)),
    (WIDE, [(0.5 + 0.04 * k, 15.0 + k) for k in range(10)], (False, False)),
], ids=["narrow-equal", "narrow-worse", "wide-equal", "wide-better-median",
        "wide-touching", "wide-all-better", "wide-all-better-spread"])
def test_unresolved(parent, change, unresolved):
    s = judged(parent, change)
    assert (s["wall_s"]["unresolved"], s["rate"]["unresolved"]) == unresolved

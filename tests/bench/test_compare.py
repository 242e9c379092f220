"""bench/compare.py: the pairwise rule for claiming a gain or a regression."""

import json

from bench.compare import main, verdict

PARENT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_a_consistent_win_beyond_the_parent_spread_is_an_improvement():
    assert verdict(PARENT, [x * 0.9 for x in PARENT], "lower", 0.1) == "improved"
    assert verdict(PARENT, [x * 1.1 for x in PARENT], "higher", 0.1) == "improved"


def test_fewer_than_ten_pairs_cannot_claim_a_gain():
    assert verdict(PARENT[:9], [x * 0.5 for x in PARENT[:9]], "lower", 0.1) == "unchanged"


def test_worse_than_the_bound_is_a_regression():
    assert verdict(PARENT, [x * 1.2 for x in PARENT], "lower", 0.1) == "regressed"
    assert verdict(PARENT, [x * 1.05 for x in PARENT], "lower", 0.1) == "unchanged"


def test_a_parent_noisier_than_the_bound_leaves_the_metric_unresolved():
    noisy = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0, 10.0, 10.0]
    assert verdict(noisy, list(noisy), "lower", 0.1) == "unresolved"
    assert verdict(noisy, [x - 10.0 for x in noisy], "higher", 0.1) == "regressed"


def _doc(path, started, wall, failed=0):
    doc = {
        "env": {"started": started},
        "workloads": {
            "fuzz": {
                "attempted": 100,
                "failed": failed,
                "end_to_end": {"cpu_s": wall, "items_per_s": 100 / wall,
                               "peak_rss_mb": 40.0, "setup_s": 0.2},
            }
        },
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_exit_code_flags_regressions_and_new_failures(tmp_path):
    parents = [_doc(tmp_path / f"p{i}.json", 2 * i + i % 2, 4.0) for i in range(3)]
    same = [_doc(tmp_path / f"c{i}.json", 2 * i + 1 - i % 2, 4.0) for i in range(3)]
    slower = [_doc(tmp_path / f"s{i}.json", 2 * i + 1 - i % 2, 5.0) for i in range(3)]
    failing = [_doc(tmp_path / f"f{i}.json", 2 * i + 1 - i % 2, 4.0, failed=3) for i in range(3)]
    assert main(["--parent", *parents, "--change", *same]) == 0
    assert main(["--parent", *parents, "--change", *slower]) == 1
    assert main(["--parent", *parents, "--change", *failing]) == 1

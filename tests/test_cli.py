import argparse
import random
import time

import pytest

from topkdoc import build_index, errors
from topkdoc.cli import cmd_bench, main, run_bench, sample_patterns

WORKED = {"a.txt": b"abab", "b.txt": b"abba", "c.txt": b"bab"}


@pytest.fixture()
def worked_dir(tmp_path):
    src = tmp_path / "docs"
    src.mkdir()
    for name, data in WORKED.items():
        (src / name).write_bytes(data)
    return src


@pytest.fixture()
def worked_file(tmp_path, worked_dir):
    idx = tmp_path / "worked.idx"
    rc = main(["build", str(worked_dir), str(idx), "--gprime", "7", "--kmax", "1"])
    assert rc == 0
    return idx


def test_build_summary(worked_dir, tmp_path, capsys):
    out = tmp_path / "out.idx"
    rc = main(["build", str(worked_dir), str(out), "--gprime", "7", "--kmax", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0] == ("n=14 d=3 sigma=2 tree_nodes=1 g_prime=7 k_max=1 "
                        "variant=light")
    assert lines[1].startswith("index_bytes=")
    assert "bits_per_symbol=" in lines[1]
    assert out.stat().st_size > 0


def test_build_defaults_echo(worked_dir, tmp_path, capsys):
    out = tmp_path / "out.idx"
    assert main(["build", str(worked_dir), str(out)]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert "k_max=16" in head and "g_prime=400" in head


def test_build_rejects_bad_gprime(worked_dir, tmp_path, capsys):
    rc = main(["build", str(worked_dir), str(tmp_path / "x.idx"), "--gprime", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_build_single_file(tmp_path, capsys):
    src = tmp_path / "one.txt"
    src.write_bytes(b"abracadabra")
    assert main(["build", str(src), str(tmp_path / "one.idx")]) == 0
    assert "d=1" in capsys.readouterr().out


def test_build_line_docs(tmp_path, capsys):
    src = tmp_path / "lines.txt"
    for data in (b"abab\nabba\n\nbab\n", b"abab\r\nabba\r\n\r\nbab\r\n"):
        src.write_bytes(data)
        assert main(["build", str(src), str(tmp_path / "l.idx"), "--line-docs"]) == 0
        assert "n=14 d=3" in capsys.readouterr().out


def test_build_names_the_rejected_file(worked_dir, tmp_path, capsys):
    # Files are documents in name order, so an empty b2.txt, after a.txt
    # and b.txt, is document 3; a 0x00 in c.txt, the fourth, is named
    # likewise.  With --line-docs an empty line is skipped, not rejected.
    (worked_dir / "b2.txt").write_bytes(b"")
    assert main(["build", str(worked_dir), str(tmp_path / "x.idx")]) == 1
    assert capsys.readouterr().err == "error: document 3 is empty\n"
    (worked_dir / "b2.txt").write_bytes(b"b")
    (worked_dir / "c.txt").write_bytes(b"b\x00b")
    assert main(["build", str(worked_dir), str(tmp_path / "x.idx")]) == 1
    assert capsys.readouterr().err.startswith("error: document 4 holds byte 0x00")
    src = tmp_path / "lines.txt"
    src.write_bytes(b"ab\n\nba\n")
    assert main(["build", str(src), str(tmp_path / "l.idx"), "--line-docs"]) == 0
    assert "d=2" in capsys.readouterr().out


def test_query_worked(worked_file, capsys):
    assert main(["query", str(worked_file), "ab", "1"]) == 0
    assert capsys.readouterr().out == "1\t2\n"
    assert main(["query", str(worked_file), "b", "2"]) == 0
    assert capsys.readouterr().out == "1\t2\n2\t2\n"


def test_query_absent_pattern(worked_file, capsys):
    assert main(["query", str(worked_file), "zz", "5"]) == 0
    assert capsys.readouterr().out == ""


def test_query_strategies_and_flags(worked_file, capsys):
    for extra in (["--strategy", "select"], ["--strategy", "dfs"], ["--no-sgst"]):
        assert main(["query", str(worked_file), "b", "2"] + extra) == 0
        assert capsys.readouterr().out == "1\t2\n2\t2\n"


def test_query_missing_index(tmp_path, capsys):
    rc = main(["query", str(tmp_path / "nope.idx"), "ab", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def inspect_rows(lines, n):
    """The size rows of inspect's output, between its first and last
    lines, as name -> {column: value}; checks each row's bits per symbol."""
    rows = {}
    for line in lines[1:-1]:
        name, *columns = line.split()
        rows[name] = dict(column.split("=") for column in columns)
        assert float(rows[name]["bits_per_symbol"]) == \
            pytest.approx(int(rows[name]["bytes"]) * 8 / n, abs=1e-3)
    return rows


def test_inspect_sections_sum_to_file_size(worked_dir, tmp_path, capsys):
    for extra in ([], ["--include-sa", "--variant", "xlight"]):
        idx = tmp_path / "inspect.idx"
        assert main(["build", str(worked_dir), str(idx), "--gprime", "1", "--kmax", "4"]
                    + extra) == 0
        capsys.readouterr()
        assert main(["inspect", str(idx)]) == 0
        lines = capsys.readouterr().out.splitlines()
        variant = "xlight" if extra else "light"
        assert lines[0] == f"n=14 d=3 sigma=2 g_prime=1 k_max=4 variant={variant}"
        rows = {name: int(row["bytes"]) for name, row in inspect_rows(lines, 14).items()}
        sections = ["corpus", "wavelet", "sgst"] + (["suffix_array"] if extra else [])
        assert list(rows) == ["header"] + sections + ["total"]
        assert rows["header"] == 62
        assert rows["total"] == idx.stat().st_size == sum(rows.values()) - rows["total"]


def test_inspect_shows_each_sections_method(tmp_path, capsys):
    # Revisions of one text: the corpus and the wavelet tree deflate.  A
    # stored section's byte-aligned form is its payload after the method
    # byte: its row less the 16-byte frame, that byte and the CRC.
    rng = random.Random(5)
    words = ["".join(rng.choice("abcdefgh") for _ in range(rng.randint(2, 6)))
             for _ in range(40)]
    text = [rng.choice(words) for _ in range(200)]
    src = tmp_path / "revisions"
    src.mkdir()
    for i in range(30):
        text[rng.randrange(len(text))] = rng.choice(words)
        (src / f"{i:02}.txt").write_text(" ".join(text))
    idx = tmp_path / "revisions.idx"
    assert main(["build", str(src), str(idx), "--gprime", "8", "--include-sa"]) == 0
    n = int(capsys.readouterr().out.split()[0].removeprefix("n="))
    assert main(["inspect", str(idx)]) == 0
    rows = inspect_rows(capsys.readouterr().out.splitlines(), n)
    assert list(rows) == ["header", "corpus", "wavelet", "sgst", "suffix_array", "total"]
    assert "method" not in rows["header"] and "method" not in rows["total"]
    sizes = {name: int(row["bytes"]) for name, row in rows.items()}
    assert sizes["total"] == idx.stat().st_size == sum(sizes.values()) - sizes["total"]
    methods = {name: row["method"] for name, row in rows.items() if "method" in row}
    assert methods["corpus"] == methods["wavelet"] == "deflate"
    for name, method in methods.items():
        inflated = int(rows[name]["inflated_bytes"])
        if method == "deflate":
            assert inflated > sizes[name]
        else:
            assert method == "stored" and inflated == sizes[name] - 16 - 1 - 4


def test_inspect_prints_the_wavelet_levels(tmp_path, capsys):
    # Five documents: height 3.  The top two levels hold every one of the
    # n = 15 slots; the last, whose nodes are {1, 2}, {3}, {4} and {5},
    # only those of its one internal node, whose documents own 3 + 3.
    src = tmp_path / "docs"
    src.mkdir()
    for i, doc in enumerate(["ab", "ba", "bb", "aa", "ab"]):
        (src / f"{i}.txt").write_text(doc)
    idx = tmp_path / "levels.idx"
    assert main(["build", str(src), str(idx), "--gprime", "1", "--kmax", "2"]) == 0
    capsys.readouterr()
    assert main(["inspect", str(idx)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "wavelet height=3 level_bits=15,15,6"
    level_bytes = sum(8 + 1 + (bits + 7) // 8 for bits in (15, 15, 6))
    assert main(["inspect", str(idx)]) == 0
    assert f" inflated_bytes={level_bytes}\nsgst " in capsys.readouterr().out


def test_inspect_rejects_a_damaged_index(worked_file, capsys):
    data = bytearray(worked_file.read_bytes())
    data[-1] ^= 1
    worked_file.write_bytes(bytes(data))
    assert main(["inspect", str(worked_file)]) == 1
    assert "CRC" in capsys.readouterr().err


def test_bench_runs_and_is_deterministic(tmp_path, capsys):
    src = tmp_path / "docs"
    src.mkdir()
    for i, doc in enumerate(["bbbbb", "aaaaa", "bbbbbb", "ababab"]):
        (src / f"{i}.txt").write_text(doc)
    idx = tmp_path / "bench.idx"
    assert main(["build", str(src), str(idx), "--gprime", "1", "--kmax", "8"]) == 0
    capsys.readouterr()

    args = ["bench", str(idx), "--num-queries", "25", "--pattern-len", "2",
            "--k", "3", "--seed", "5"]
    outs = []
    for _ in range(2):
        assert main(args) == 0
        outs.append(capsys.readouterr().out)
    strip = lambda text: [
        " ".join(tok for tok in line.split() if not tok.startswith("mean_us="))
        for line in text.splitlines()
    ]
    assert strip(outs[0]) == strip(outs[1])
    assert outs[0].startswith("queries=25 pattern_len=2 k=3 seed=5\n")
    for needle in ("strategy=greedy", "strategy=dfs", "strategy=select",
                   "index_bits_per_symbol="):
        assert needle in outs[0]


def test_bench_zero_queries(worked_file, capsys):
    assert main(["bench", str(worked_file), "--num-queries", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("queries=0")


def test_bench_rejects_work_it_would_not_do(worked_file, capsys):
    # A negative query count and an empty strategy list are errors, not
    # a report of means over no work.
    for args in (["--num-queries", "-5"], ["--strategies", ""], ["--strategies", ","]):
        assert main(["bench", str(worked_file)] + args) == 1
        assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(errors.InvalidParameterError, match="names no strategy"):
        cmd_bench(argparse.Namespace(strategies=" , "))
    idx = build_index(["ab", "ab"], g_prime=7, k_max=1)
    with pytest.raises(errors.InvalidParameterError, match="num_queries = -1"):
        run_bench(idx, num_queries=-1)


def test_bench_rejects_unknown_strategy(worked_file, capsys):
    rc = main(["bench", str(worked_file), "--strategies", "greedy,warp"])
    assert rc == 1
    assert "warp" in capsys.readouterr().err


def test_bench_unsatisfiable_pattern_length(tmp_path, capsys):
    src = tmp_path / "tiny.txt"
    src.write_bytes(b"ab\ncd\n")
    idx = tmp_path / "tiny.idx"
    assert main(["build", str(src), str(idx), "--line-docs"]) == 0
    capsys.readouterr()
    rc = main(["bench", str(idx), "--num-queries", "3", "--pattern-len", "4"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_bench_arguments_raise_package_errors():
    idx = build_index(["ab", "ab"], g_prime=7, k_max=1)
    cases = [(errors.UnknownStrategyError,
              lambda: cmd_bench(argparse.Namespace(strategies="greedy,warp"))),
             (errors.InvalidParameterError, lambda: sample_patterns(idx, 1, 0, random.Random())),
             (errors.InvalidParameterError, lambda: sample_patterns(idx, 1, 7, random.Random())),
             # Every window of 3 symbols crosses a terminator.
             (errors.InvalidParameterError, lambda: sample_patterns(idx, 1, 3, random.Random()))]
    for cls, bad in cases:
        with pytest.raises(cls) as info:
            bad()
        assert isinstance(info.value, errors.Error) and isinstance(info.value, ValueError)


def test_unsatisfiable_pattern_length_fails_before_sampling():
    # Thirty documents of three symbols hold no window of five: the length
    # is rejected before the first draw, not after 1,000 draws per pattern.
    idx = build_index(["abc"] * 30, g_prime=7, k_max=1)
    start = time.perf_counter()
    with pytest.raises(errors.InvalidParameterError, match=r"pattern length 5 outside 1\.\.3"):
        sample_patterns(idx, 10**6, 5, random.Random(0))
    assert time.perf_counter() - start < 1.0
    assert len(sample_patterns(idx, 20, 3, random.Random(0))) == 20


def test_sample_patterns_avoid_terminators():
    idx = build_index(["abab", "abba", "bab"], g_prime=7, k_max=1)
    pats = sample_patterns(idx, 50, 3, random.Random(11))
    assert len(pats) == 50
    assert all(len(p) == 3 and b"\x00" not in p for p in pats)
    again = sample_patterns(idx, 50, 3, random.Random(11))
    assert pats == again


def test_run_bench_work_counters():
    # Corpus with flanked loci: greedy must emit no more than select scans.
    idx = build_index(["bbbbb", "aaaaa", "bbbbbb"], g_prime=1, k_max=8)
    report = run_bench(idx, num_queries=40, pattern_len=2, k=3,
                       strategies=("greedy", "select"), seed=7)
    g = report["strategies"]["greedy"]
    s = report["strategies"]["select"]
    assert report["num_queries"] == 40
    assert g["loci_found"] == s["loci_found"] > 0
    assert g["mean_docs_emitted"] <= s["mean_positions_scanned"]
    assert s["mean_docs_emitted"] == 0.0

from __future__ import annotations

import io
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import DATA_DIR
from minspan import cli
from minspan.cli import main
from minspan.indexing import build_index
from minspan.operators import meet
from minspan.oracle import oracle_bound

RHYME = DATA_DIR / "rhyme.txt"
# a fresh interpreter that imports minspan from this checkout
_ENV = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"}


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestIndexAndQuery:
    def test_pipeline(self, capsys, tmp_path):
        idx = tmp_path / "idx.jsonl"
        code, out = run_cli(capsys, "index", str(RHYME), "-o", str(idx))
        assert code == 0
        assert "1 document(s)" in out

        code, out = run_cli(
            capsys,
            "query", str(idx),
            "--q", "pease AND porridge AND (hot OR cold)",
            "--snippets", "3", "--score",
        )
        assert code == 0
        assert out == "rhyme.txt\t3.5400\t[0..2] [3..5] [31..33]\n"

    def test_query_without_flags_lists_doc_ids(self, capsys, tmp_path):
        idx = tmp_path / "idx.jsonl"
        run_cli(capsys, "index", str(RHYME), "-o", str(idx))
        code, out = run_cli(capsys, "query", str(idx), "--q", "hot OR cold")
        assert code == 0
        assert out == "rhyme.txt\n"

    def test_query_doc_filter(self, capsys, tmp_path):
        idx = tmp_path / "idx.jsonl"
        run_cli(capsys, "index", str(RHYME), "-o", str(idx))
        code, out = run_cli(capsys, "query", str(idx), "--q", "hot", "--doc", "rhyme.txt", "--score")
        assert code == 0
        assert out == "rhyme.txt\t3.0000\n"
        # snippets print as intervals, not as the tuples they equal
        code, out = run_cli(capsys, "query", str(idx), "--q", "hot", "--doc", "rhyme.txt", "--snippets", "2")
        assert code == 0
        assert out == "rhyme.txt\t[2..2] [17..17]\n"
        code = main(["query", str(idx), "--q", "hot", "--doc", "other"])
        assert code == 2
        assert capsys.readouterr().err == "minspan: error: unknown document id: 'other'\n"

    def test_doc_matches_filtered_search(self, capsys, tmp_path):
        # --doc prints the line a full search prints for that id, or nothing
        # when the query has no match there
        other = tmp_path / "other.txt"
        other.write_text("porridge hot and porridge cold, some like it hot\n", encoding="utf-8")
        idx = tmp_path / "idx.jsonl"
        run_cli(capsys, "index", str(RHYME), str(other), "-o", str(idx))
        # "porridge OR pease" requires no term, so no document is pruned
        queries = (
            "hot",
            "pease AND porridge",
            "porridge < hot",
            "porridge ++ hot",
            "(hot OR cold) WITHIN 1",
            "porridge OR pease",
            "porridge MINUS hot",
        )
        printed = 0
        for text in queries:
            argv = ("query", str(idx), "--q", text, "--score", "--snippets", "2")
            code, everything = run_cli(capsys, *argv)
            assert code == 0
            for doc_id in ("rhyme.txt", "other.txt"):
                code, out = run_cli(capsys, *argv, "--doc", doc_id)
                assert code == 0
                expected = "".join(line for line in everything.splitlines(True) if line.startswith(doc_id + "\t"))
                assert out == expected, (text, doc_id)
                printed += bool(out)
        assert 0 < printed < 2 * len(queries)

    def test_index_output_deterministic(self, capsys, tmp_path):
        one, two = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(capsys, "index", str(RHYME), "-o", str(one))
        run_cli(capsys, "index", str(RHYME), "-o", str(two))
        assert one.read_bytes() == two.read_bytes()

    def test_negative_snippets_is_runtime_error(self, capsys, tmp_path):
        idx = tmp_path / "idx.jsonl"
        run_cli(capsys, "index", str(RHYME), "-o", str(idx))
        code = main(["query", str(idx), "--q", "hot", "--snippets", "-1"])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_parse_error_is_runtime_error(self, capsys, tmp_path):
        idx = tmp_path / "idx.jsonl"
        run_cli(capsys, "index", str(RHYME), "-o", str(idx))
        code, _ = run_cli(capsys, "query", str(idx), "--q", "(hot")
        assert code == 2

    def test_deep_nesting_runs(self, capsys, tmp_path):
        idx = tmp_path / "idx.jsonl"
        run_cli(capsys, "index", str(RHYME), "-o", str(idx))
        code, out = run_cli(capsys, "query", str(idx), "--q", "(" * 3000 + "hot" + ")" * 3000)
        assert (code, out) == (0, "rhyme.txt\n")

    def test_missing_index_file(self, capsys):
        code, _ = run_cli(capsys, "query", "no-such-index.jsonl", "--q", "hot")
        assert code == 2

    def test_index_line_that_is_no_utf8_is_named(self, capsys, tmp_path):
        idx = tmp_path / "idx.jsonl"
        run_cli(capsys, "index", str(RHYME), "-o", str(idx))
        with idx.open("ab") as fh:
            fh.write(b'{"doc": "\xff", "words": ""}\n')
        assert main(["query", str(idx), "--q", "hot"]) == 2
        assert capsys.readouterr().err.startswith("minspan: error: bad index record on line 2: ")

    def test_input_that_is_no_utf8_is_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"pease \xff porridge\n")
        assert main(["index", str(RHYME), str(bad), "-o", str(tmp_path / "idx.jsonl")]) == 2
        assert capsys.readouterr().err.startswith(f"minspan: error: {bad} is not UTF-8: ")
        assert not (tmp_path / "idx.jsonl").exists()

    def test_file_name_that_is_no_utf8_is_refused(self, capsys, tmp_path):
        # the name decodes to the id "b\udcff.txt", which no dump could write
        bad = tmp_path / os.fsdecode(b"b\xff.txt")
        bad.write_text("pease porridge\n", encoding="utf-8")
        idx = tmp_path / "idx.jsonl"
        assert main(["index", str(RHYME), str(bad), "-o", str(idx)]) == 2
        err = capsys.readouterr().err
        assert err == "minspan: error: document id 'b\\udcff.txt' is not encodable as UTF-8\n"
        assert not idx.exists()

    def test_failed_dump_leaves_the_previous_index(self, capsys, tmp_path, monkeypatch):
        idx, new = tmp_path / "idx.jsonl", tmp_path / "new.jsonl"
        assert main(["index", str(RHYME), "-o", str(idx)]) == 0
        before = idx.read_bytes()
        records = cli._records

        def write_first_record_then_fail(docs):
            yield records(docs)[0]
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "_records", write_first_record_then_fail)
        capsys.readouterr()
        for out in (idx, new):
            assert main(["index", str(RHYME), "-o", str(out)]) == 2
            assert capsys.readouterr().err == "minspan: error: no space left on device\n"
        assert idx.read_bytes() == before
        assert os.listdir(tmp_path) == ["idx.jsonl"]

    def test_repeated_file_name_is_refused(self, capsys, tmp_path):
        # the id is the file name, so two inputs in different directories clash
        inputs = [tmp_path / d / "x.txt" for d in ("a", "b")]
        for path in inputs:
            path.parent.mkdir()
            path.write_text("pease porridge\n", encoding="utf-8")
        idx, new = tmp_path / "idx.jsonl", tmp_path / "new.jsonl"
        assert main(["index", str(RHYME), "-o", str(idx)]) == 0
        before = idx.read_bytes()
        capsys.readouterr()
        for out in (idx, new):
            assert main(["index", *map(str, inputs), "-o", str(out)]) == 2
            assert capsys.readouterr() == ("", "minspan: error: duplicate document id: 'x.txt'\n")
        assert idx.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["a", "b", "idx.jsonl"]

    def test_index_writes_the_dump_of_the_built_index(self, capsys, tmp_path):
        words, blank = tmp_path / "words.txt", tmp_path / "blank.txt"
        words.write_text("İstanbul a_b Straße 42 straße\n", encoding="utf-8")
        blank.write_text(" \t\n", encoding="utf-8")
        idx = tmp_path / "idx.jsonl"
        assert main(["index", str(RHYME), str(words), str(blank), "-o", str(idx)]) == 0
        buf = io.StringIO()
        build_index((p.name, p.read_text(encoding="utf-8")) for p in (RHYME, words, blank)).dump_jsonl(buf)
        assert idx.read_bytes() == buf.getvalue().encode()

    def test_output_mode_follows_the_umask_and_an_existing_file(self, capsys, tmp_path):
        idx = tmp_path / "idx.jsonl"
        umask = os.umask(0o027)
        try:
            assert main(["index", str(RHYME), "-o", str(idx)]) == 0
            assert stat.S_IMODE(idx.stat().st_mode) == 0o640
            idx.chmod(0o600)
            assert main(["index", str(RHYME), "-o", str(idx)]) == 0
            assert stat.S_IMODE(idx.stat().st_mode) == 0o600
        finally:
            os.umask(umask)

    def test_a_symlinked_output_keeps_its_link(self, capsys, tmp_path):
        idx, link = tmp_path / "idx.jsonl", tmp_path / "link.jsonl"
        idx.write_text("old\n", encoding="utf-8")
        link.symlink_to(idx)
        assert main(["index", str(RHYME), "-o", str(link)]) == 0
        assert link.is_symlink()
        assert idx.read_text(encoding="utf-8").startswith('{"doc": "rhyme.txt"')
        assert sorted(os.listdir(tmp_path)) == ["idx.jsonl", "link.jsonl"]

    def test_output_that_is_no_regular_file_is_written_in_place(self, capsys):
        assert main(["index", str(RHYME), "-o", os.devnull]) == 0
        assert os.path.exists(os.devnull)


class TestEnum:
    def test_count(self, capsys):
        code, out = run_cli(capsys, "enum", "--n", "4", "--count")
        assert code == 0
        assert out == "43\n"

    def test_default_is_count(self, capsys):
        code, out = run_cli(capsys, "enum", "--n", "4")
        assert (code, out) == (0, "43\n")

    def test_levels(self, capsys):
        code, out = run_cli(capsys, "enum", "--n", "1", "--levels")
        assert code == 0
        assert out == "0:1\n1:1\n2:1\n"

    def test_width(self, capsys):
        code, out = run_cli(capsys, "enum", "--n", "4", "--width")
        assert (code, out) == (0, "7\n")

    def test_list_matches_stream(self, capsys):
        code, out = run_cli(capsys, "enum", "--n", "2", "--list")
        assert code == 0
        assert out.splitlines() == [
            "0",
            "{[0..0]}",
            "{[0..0], [1..1]}",
            "{[0..1]}",
            "{[1..1]}",
            "{∅}",
        ]


class TestCheck:
    def test_exhaustive_small(self, capsys):
        code, out = run_cli(capsys, "check", "--n", "3", "--ops", "all")
        assert code == 0
        # the 15 elements of the n = 3 lattice make 225 pairs; the six
        # containment modes follow their enums' order
        per_element = {"crit", "rank", "within"}
        ops = [
            "leq", "join", "meet", "minus", "implies", "crit", "rank", "ordered_meet", "block",
            "containing", "not_containing", "contained_in", "not_contained_in",
            "strictly_containing", "not_strictly_containing", "within",
        ]
        label = {True: "15 elements", False: "225 pairs"}
        assert out.splitlines() == [f"{op}: ok ({label[op in per_element]})" for op in ops] + ["OK"]

    def test_sampled(self, capsys):
        code, out = run_cli(capsys, "check", "--n", "5", "--ops", "leq,join,meet,minus", "--samples", "200")
        assert code == 0
        assert out.splitlines() == [f"{op}: ok (200 pairs)" for op in ("leq", "join", "meet", "minus")] + ["OK"]

    def test_exhaustive_pairs_are_not_held(self, capsys):
        # the 430 elements of the n = 6 lattice make 184,900 pairs, about
        # 11 MiB as one list; made one at a time, they never add up
        tracemalloc.start()
        try:
            code = main(["check", "--n", "6", "--ops", "rank"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == "rank: ok (430 elements)\nOK\n"
        assert peak < 2 * 2**20

    def test_sampled_pairs_are_not_held(self, capsys):
        # 200,000 pairs as one list take about 13 MiB; drawn one at a time,
        # the peak is that of 2,000 pairs
        peaks = {}
        for samples in (2_000, 200_000):
            tracemalloc.start()
            try:
                code = main(["check", "--n", "1", "--ops", "leq", "--samples", str(samples)])
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert capsys.readouterr().out == f"leq: ok ({samples} pairs)\nOK\n"
        assert peaks[200_000] < peaks[2_000] + 2**20, peaks

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_n_rejected(self, capsys, n):
        assert main(["check", "--n", n]) == 2
        assert capsys.readouterr().err == "minspan: error: --n must be positive\n"

    @pytest.mark.parametrize("samples", ["-1", "-5"])
    def test_negative_samples_rejected(self, capsys, samples):
        assert main(["check", "--n", "3", "--samples", samples]) == 2
        assert capsys.readouterr().err == "minspan: error: --samples must be nonnegative\n"

    def test_mismatch_is_reported(self, capsys, monkeypatch):
        # a wrong closed form: join and meet agree only where a == b
        monkeypatch.setitem(cli._CHECKS, "join", lambda a, b, n: meet(a, b) == oracle_bound(a, b, n, "join"))
        code, out = run_cli(capsys, "check", "--n", "3", "--ops", "leq,join")
        assert code == 2
        assert out.splitlines() == ["leq: ok (225 pairs)", "join: FAIL (210 mismatches over 225 pairs)", "MISMATCH"]

    def test_unknown_op(self, capsys):
        code, _ = run_cli(capsys, "check", "--n", "3", "--ops", "frobnicate")
        assert code == 2


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["enum", "--frobnicate"]) == 1

    def test_missing_required(self, capsys):
        assert main(["query"]) == 1


class TestSharedParser:
    def test_repeated_calls_match_fresh_processes(self, capsys, tmp_path):
        # main() reuses one parser per process; no call may leave state behind
        idx = tmp_path / "idx.jsonl"
        calls = [
            ["query"],
            ["index", str(RHYME), "-o", str(idx)],
            ["query", str(idx), "--q", "hot", "--doc", "rhyme.txt", "--score"],
            ["query", str(idx), "--q", "pease AND hot", "--snippets", "2"],
            ["enum", "--n", "3", "--levels"],
            ["enum", "--n", "3"],
        ]
        shared = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            shared.append((code, captured.out, captured.err, idx.read_bytes() if idx.exists() else None))
        idx.unlink()
        fresh = []
        for argv in calls:
            result = subprocess.run(
                [sys.executable, "-m", "minspan.cli", *argv], capture_output=True, text=True, env=_ENV
            )
            fresh.append((result.returncode, result.stdout, result.stderr, idx.read_bytes() if idx.exists() else None))
        assert [s[0] for s in shared] == [1, 0, 0, 0, 0, 0]
        assert shared == fresh


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "minspan.cli", "enum", "--n", "3", "--count"],
        capture_output=True,
        text=True,
        env=_ENV,
    )
    assert result.returncode == 0
    assert result.stdout == "15\n"

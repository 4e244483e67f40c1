import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import squarelab
from squarelab import (
    FormatError,
    covering_count_1d,
    find_boundary_centers_2d,
    find_vertex_centers_2d,
    format_intset_text,
    gen_AN,
    gen_cantor_truncation,
    gen_Dk,
    make_intset,
    parse_intset_text,
    parse_pointset_text,
)
from squarelab.cli import _read_intset, _read_pointset, main

from oracles import oracle_parse_intset, oracle_parse_pointset
from paper_answers import INPUTS, ROWS


def run(*argv):
    return main(list(argv))


class TestGenerate:
    def test_dk_roundtrip(self, tmp_path):
        out = tmp_path / "d3.txt"
        assert run("gen", "dk", "--k", "3", "--out", str(out)) == 0
        assert parse_intset_text(out.read_text()) == gen_Dk(3)

    def test_dk_stdout(self, capsys):
        assert run("gen", "dk", "--k", "2") == 0
        body = capsys.readouterr().out
        assert parse_intset_text(body) == gen_Dk(2)

    def test_an(self, tmp_path):
        out = tmp_path / "a.txt"
        assert run("gen", "an", "--p", "3", "--out", str(out)) == 0
        assert parse_intset_text(out.read_text()) == gen_AN(3)

    def test_vertex_example(self, tmp_path):
        fb, fs = tmp_path / "b.txt", tmp_path / "s.txt"
        assert run("gen", "vertex-example", "--k", "2",
                   "--out-b", str(fb), "--out-s", str(fs)) == 0
        b = parse_pointset_text(fb.read_text())
        s = parse_pointset_text(fs.read_text())
        assert (len(b), len(s)) == (42 * 42, 15 * 15)

    def test_boundary_example(self, tmp_path):
        fb, fs = tmp_path / "b.txt", tmp_path / "s.txt"
        assert run("gen", "boundary-example", "--k", "2",
                   "--out-b", str(fb), "--out-s", str(fs)) == 0
        assert len(parse_pointset_text(fb.read_text())) == 2352

    def test_cantor_both_sides(self, tmp_path):
        fa = tmp_path / "a.txt"
        ft = tmp_path / "t.txt"
        assert run("gen", "cantor", "--s", "2", "--p", "2",
                   "--which", "a", "--out", str(fa)) == 0
        assert run("gen", "cantor", "--s", "2", "--p", "2",
                   "--which", "t", "--out", str(ft)) == 0
        assert parse_intset_text(fa.read_text()) == gen_AN(2)
        assert parse_intset_text(ft.read_text()) == make_intset(range(16))

    def test_cantor_fractional_s(self, tmp_path):
        out = tmp_path / "a.txt"
        assert run("gen", "cantor", "--s", "8/5", "--p", "2",
                   "--out", str(out)) == 0
        tr = gen_cantor_truncation("8/5", 2)
        assert parse_intset_text(out.read_text()) == tr.a_set

    def test_cantor_float_mode_prints_report(self, capsys):
        assert run("gen", "cantor", "--s", "3/2", "--p", "2") == 0
        out, err = capsys.readouterr()
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        vals = [float(v) for v in lines]
        assert len(vals) == 42 and vals == sorted(vals)
        assert out.startswith("#") and "error" in out.splitlines()[0]
        assert "float mode" in err

    def test_countable_manifest(self, tmp_path):
        d = tmp_path / "ct"
        assert run("gen", "countable", "--alpha", "1", "--K", "2",
                   "--out-dir", str(d)) == 0
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["scale"] == 16
        assert [b["k"] for b in manifest["blocks"]] == [1, 2]
        blk = manifest["blocks"][1]
        b_set = parse_pointset_text((d / blk["b_file"]).read_text())
        s_set = parse_pointset_text((d / blk["s_file"]).read_text())
        assert len(b_set) == blk["b_size"]
        assert len(s_set) == blk["s_size"] == blk["n"] ** 2

    def test_splice(self, tmp_path, capsys):
        pat = tmp_path / "p.json"
        pat.write_text("[[0, 3], [1]]")
        assert run("gen", "splice", "--patterns", str(pat), "--a", "0,2,4") == 0
        out = capsys.readouterr().out
        assert [int(v) for v in out.split()] == [1, 13]

    def test_splice_2d(self, tmp_path, capsys):
        pat = tmp_path / "p.json"
        pat.write_text('{"patterns": [[[0, 1], [1, 0]], [[1, 1]]]}')
        assert run("gen", "splice", "--patterns", str(pat), "--a", "0,1,2", "--d", "2") == 0
        assert capsys.readouterr().out == "1 3\n3 1\n"

    @pytest.mark.parametrize("text, message", [
        ("[[0, 3], [1]", "p.json:1: not JSON"),
        ('{"levels": [[0, 3], [1]]}', "under 'patterns'"),
        ("[[0, 3], 1]", "per-level cell lists"),
        (b"[[0, 3], \xff]", "p.json:1: not UTF-8"),
    ])
    def test_splice_malformed_patterns_exit_2(self, tmp_path, capsys, text, message):
        pat = tmp_path / "p.json"
        pat.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert run("gen", "splice", "--patterns", str(pat), "--a", "0,2,4") == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_gen_dk_bad_k_exits_2(self, capsys):
        assert run("gen", "dk", "--k", "1") == 2
        assert capsys.readouterr().err.strip()


class TestFind:
    def test_centers1d_enumerate_and_count(self, tmp_path, capsys):
        f = tmp_path / "d2.txt"
        run("gen", "dk", "--k", "2", "--out", str(f))
        capsys.readouterr()

        assert run("find", "centers1d", "--in", str(f), "--count") == 0
        out, err = capsys.readouterr()
        assert out.strip() == "3352"
        summary = json.loads(err)
        assert summary["centers"] == 3352
        assert summary["input_size"] == 42
        assert summary["bound_ok"] is True

        assert run("find", "centers1d", "--in", str(f)) == 0
        out, _ = capsys.readouterr()
        assert len(out.strip().splitlines()) == 3352

    def test_vertices(self, tmp_path, capsys):
        f = tmp_path / "b.txt"
        f.write_text("0 0\n2 0\n0 2\n2 2\n1 5\n")
        assert run("find", "vertices", "--in", str(f)) == 0
        out, err = capsys.readouterr()
        # centers are emitted in doubled coordinates: (1, 1) prints as "2 2"
        assert out.split() == ["2", "2"]
        assert json.loads(err)["centers"] == 1

    def test_boundaries(self, tmp_path, capsys):
        f = tmp_path / "b.txt"
        grid = [(x, y) for x in range(5) for y in range(5)]
        f.write_text("".join(f"{x} {y}\n" for x, y in grid))
        assert run("find", "boundaries", "--in", str(f), "--rmax", "2",
                   "--count") == 0
        out, err = capsys.readouterr()
        assert out.strip() == str(
            len(find_boundary_centers_2d(
                parse_pointset_text(f.read_text()), 2)))
        assert json.loads(err)["bound_ok"] is True

    def test_boundaries_check_rmax_before_reading_the_input(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1 2\ntwo\n")
        assert run("find", "boundaries", "--in", str(f), "--rmax", "0") == 2
        assert capsys.readouterr() == ("", "error: r_max must be an integer >= 1, got 0\n")

    def test_summary_file(self, tmp_path):
        f = tmp_path / "d2.txt"
        s = tmp_path / "sum.json"
        run("gen", "dk", "--k", "2", "--out", str(f))
        assert run("find", "centers1d", "--in", str(f), "--count",
                   "--summary", str(s)) == 0
        assert json.loads(s.read_text())["centers"] == 3352

    def test_missing_input_exits_2(self, capsys):
        assert run("find", "centers1d", "--in", "/nonexistent/x.txt") == 2
        assert capsys.readouterr().err.strip()

    def test_non_utf8_input_exits_2_naming_the_line(self, tmp_path, capsys):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"# header\r\n# caf\xe9\n1\n")
        assert run("find", "centers1d", "--in", str(f), "--count") == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{f}:2: not UTF-8 text: byte 0xe9" in err

    def test_malformed_input_reports_location(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1\ntwo\n")
        assert run("find", "centers1d", "--in", str(f)) == 2
        err = capsys.readouterr().err
        assert "bad.txt" in err and "2" in err


class TestReadSetFiles:
    """Set files read by path: numpy parses the data past the '#' lines from
    the path of a regular file, or from the stream of one that cannot seek;
    anything else is decoded and walked line by line."""

    @pytest.mark.parametrize("data", [
        b"# header\n# second header\n3\n-1\n2\n",
        b"# caf\xc3\xa9, a UTF-8 header\n5\n4\n",
        b"1\r\n2\r\n",                # CRLF
        b"# header\r5\n6\n",          # a lone CR ends the header line
        b"+5\n7 # seven\n\n-0\n",     # tokens and comments only int() reads
        b"1\t2\n",
        b"",
        b"# only a header",
        b"# only a header\n",
    ])
    def test_intset_file_reads_as_its_text(self, tmp_path, data):
        f = tmp_path / "a.txt"
        f.write_bytes(data)
        text = data.decode().replace("\r\n", "\n").replace("\r", "\n")
        expected = oracle_parse_intset(text, str(f))
        if isinstance(expected, tuple) and expected and isinstance(expected[0], str):
            with pytest.raises(FormatError) as exc:
                _read_intset(str(f))
            assert (str(exc.value), exc.value.lineno) == expected
        else:
            assert _read_intset(str(f)).elems == expected

    @pytest.mark.parametrize("data", [
        b"# points\n1 2\n-3 4\n1 2\n",
        b"1 2\r\n3 4\r\n",
        b"# header\n1 +2 # a comment\n",
        b"",
    ])
    def test_pointset_file_reads_as_its_text(self, tmp_path, data):
        f = tmp_path / "b.txt"
        f.write_bytes(data)
        text = data.decode().replace("\r\n", "\n").replace("\r", "\n")
        assert tuple(_read_pointset(str(f))) == oracle_parse_pointset(text, str(f))

    @pytest.mark.parametrize("read, data, lineno, byte", [
        (_read_intset, b"# caf\xe9\n1\n", 1, "0xe9"),        # in a header line
        (_read_intset, b"# ok\n1\n2\xff\n3\n", 3, "0xff"),   # in a data line
        (_read_intset, b"1\n\n\x80\n", 3, "0x80"),
        (_read_pointset, b"# ok\n1 2\n3 \xfe\n", 3, "0xfe"),
        (_read_pointset, b"# h\xc3\n1 2\n", 1, "0xc3"),      # a truncated sequence
    ])
    def test_non_utf8_bytes_name_their_line(self, tmp_path, read, data, lineno, byte):
        f = tmp_path / "bad.txt"
        f.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            read(str(f))
        assert exc.value.lineno == lineno
        assert str(exc.value) == f"{f}:{lineno}: not UTF-8 text: byte {byte}"

    def test_reads_from_a_pipe(self):
        # as CI does: one process writes A_3, another reads /dev/stdin
        env = dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parents[1]))
        text = format_intset_text(gen_AN(3), header="interpolating set, depth 3")
        out = subprocess.run(
            [sys.executable, "-m", "squarelab.cli", "cover", "--in", "/dev/stdin",
             "--len", "200"], input=text.encode(), capture_output=True, env=env, check=True)
        assert out.stdout.decode() == f"{covering_count_1d(gen_AN(3), 200)}\n"

    def test_reading_a4_holds_about_its_array(self, tmp_path):
        # bytes, decoded text, its data slice and that slice's encoding took
        # ~4.2x the file's size, the file's bytes beside the parsed column
        # 2.27x; parsed by numpy from the open file or from its path, the
        # 7.0 MiB column and numpy's read buffers peak at 7.9 MiB (1.27x the file)
        f = tmp_path / "a4.txt"
        assert run("gen", "an", "--p", "4", "--out", str(f)) == 0
        tracemalloc.start()
        try:
            a = _read_intset(str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a) == 916_716
        column = a.as_array().nbytes
        assert peak <= column + 2 * 2**20, f"{(peak - column) / 2**20:.1f} MiB past the column"


class TestVerify:
    def test_dk_json_report(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run("verify", "dk", "--k", "2", "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["suite"] == "verify:dk"
        assert len(rep["checks"]) == 5
        assert all(c["ok"] for c in rep["checks"])

    def test_an_with_seed(self, capsys):
        assert run("verify", "an", "--p", "3", "--seed", "5") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["seed"] == 5
        assert all(c["ok"] for c in rep["checks"])

    def test_an_reports_the_default_seed(self, capsys):
        assert run("verify", "an", "--p", "3") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 20260816

    @pytest.mark.parametrize("seed", [(), ("--seed", "5")])
    def test_exhaustive_an_reports_no_seed(self, seed, capsys):
        # (2!)**8 = 256 centers, fewer than the samples: every one is replayed
        assert run("verify", "an", "--p", "2", *seed) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["seed"] is None
        assert rep["checks"][0]["sizes"]["exhaustive"] == 1

    @pytest.mark.parametrize("p", ["2", "3"])
    def test_an_negative_seed_exits_2(self, p, capsys):
        assert run("verify", "an", "--p", p, "--seed", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("argv", [("dk", "--k", "2"), ("boundary", "--k", "2"),
                                      ("countable", "--alpha", "1", "--K", "2")])
    def test_unsampled_replays_report_no_seed(self, argv, capsys):
        assert run("verify", *argv) == 0
        assert json.loads(capsys.readouterr().out)["seed"] is None
        with pytest.raises(SystemExit) as exc:
            run("verify", *argv, "--seed", "1")
        assert exc.value.code == 2

    def test_countable_names_a_large_alpha(self, capsys):
        assert run("verify", "countable", "--alpha", "40", "--K", "1") == 2
        assert capsys.readouterr().err == \
            "error: alpha * K must be at most 37, got alpha=40, K=1\n"

    def test_countable(self, capsys):
        assert run("verify", "countable", "--alpha", "1", "--K", "2") == 0
        rep = json.loads(capsys.readouterr().out)
        assert all(c["ok"] for c in rep["checks"])

    def test_dk_refuses_before_replaying(self, capsys):
        # k = 16 would make 4 * 16**6 lookups; the estimate alone must decide
        start = time.perf_counter()
        assert run("verify", "dk", "--k", "16") == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "refusing to materialize" in err and "67,108,864" in err

    def test_dk_with_a_bent_witness_fails_without_a_traceback(self, capsys, monkeypatch):
        # probes past the membership table are misses, not an IndexError
        import squarelab.constructions as cons
        true = cons.witness_radii
        monkeypatch.setattr(cons, "witness_radii", lambda x, y, k: true(x, y, k) + 40)
        assert run("verify", "dk", "--k", "3") == 1
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert [c["name"] for c in rep["checks"] if not c["ok"]] == [
            "dk3_witness_misses", "dk3_radius_over_cap"]
        assert captured.err.splitlines() == [
            "FAILED dk3_witness_misses: lhs=1791 rhs=0",
            "FAILED dk3_radius_over_cap: lhs=1539 rhs=0"]

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        # no real construction fails, so fail the plumbing deliberately
        from squarelab import BoundCheck, bounds_report

        def fake_verify(name, **kw):
            return [BoundCheck.compare("forced", 2, 1)]

        monkeypatch.setattr(bounds_report, "verify_construction", fake_verify)
        assert run("verify", "dk", "--k", "2") == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["checks"][0]["ok"] is False


class TestScanAndTables:
    def test_scan_csv(self, capsys):
        assert run("scan", "--family", "dk_size",
                   "--kmin", "2", "--kmax", "4") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "param,n1,n2,slope,target"
        assert lines[1].startswith("2,2,42,")
        assert len(lines) == 4

    def test_scan_json(self, capsys):
        assert run("scan", "--family", "dk_vertex", "--kmin", "2",
                   "--kmax", "3", "--format", "json") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["suite"] == "scan:dk_vertex"
        assert rep["slopes"][0]["target"] == pytest.approx(4 / 3)

    def test_scan_bad_range_exits_2(self, capsys):
        assert run("scan", "--family", "dk_size",
                   "--kmin", "4", "--kmax", "2") == 2

    def test_cover(self, tmp_path, capsys):
        f = tmp_path / "a.txt"
        run("gen", "dk", "--k", "2", "--out", str(f))
        capsys.readouterr()
        assert run("cover", "--in", str(f), "--len", "1") == 0
        assert capsys.readouterr().out.strip() == "22"

    @pytest.mark.parametrize("text", ["", "# header only\n", "\n\n"])
    def test_cover_of_an_empty_set_warns_in_one_line(self, tmp_path, capsys, text):
        f = tmp_path / "a.txt"
        f.write_text(text)
        assert run("cover", "--in", str(f), "--len", "3") == 0
        captured = capsys.readouterr()
        assert captured.out == "0\n"
        assert captured.err == "warning: covering an empty set needs 0 intervals\n"

    def test_boxcount_single_level(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n1 1\n2 2\n3 3\n")
        assert run("boxcount", "--in", str(f), "--m", "-1") == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_boxcount_csv_table(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n1 1\n2 2\n3 3\n")
        assert run("boxcount", "--in", str(f), "--m=0,-1,-2") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["scale,count", "0,4", "-1,2", "-2,1"]

    @pytest.mark.parametrize("argv, message", [
        (("cover", "--in", "/nonexistent/a.txt", "--len", "0"),
         "interval length must be an integer >= 1, got 0"),
        (("cover", "--in", "bad.txt", "--len", "0"),
         "interval length must be an integer >= 1, got 0"),
        (("boxcount", "--in", "/nonexistent/p.txt", "--m=-1,99"),
         "dyadic level must be an integer with |m| <= 40, got 99"),
    ], ids=["cover-missing-input", "cover-malformed-input", "boxcount-missing-input"])
    def test_parameters_are_checked_before_reading_the_input(self, tmp_path, monkeypatch,
                                                            capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.txt").write_text("1\ntwo\n")
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_ratios_table(self, capsys):
        assert run("ratios", "--s", "2", "--jmax", "4", "--which", "upper") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "j,ratio,target"
        assert lines[1].startswith("2,42.960214665,")
        assert len(lines) == 4

    def test_ratios_sparse_sequence_starts_at_3(self, capsys):
        assert run("ratios", "--s", "2", "--jmax", "5", "--which", "upper",
                   "--sequence", "a") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("3,")

    def test_budget_error_exits_2(self, capsys):
        assert run("gen", "an", "--p", "5") == 2
        err = capsys.readouterr().err
        assert "budget" in err.lower()

    def test_budget_scale_is_the_one_knob(self, tmp_path, capsys, monkeypatch):
        # D_28 marks 4 * 82**3 = 2,205,472 digit sums: over the work limit
        # scaled by 0.1, within the one scaled by 0.12
        out = tmp_path / "d28.txt"
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.1")
        assert run("gen", "dk", "--k", "28", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "estimated 2,205,472 work, budget 2,000,000; raise via SQUARELAB_BUDGET)" in err
        assert "budget=" not in err and not out.exists()
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.12")
        assert run("gen", "dk", "--k", "28", "--out", str(out)) == 0
        assert out.exists()

    @pytest.mark.parametrize("scale", ["inf", "1e400", "nan"])
    def test_non_finite_budget_scale_exits_2(self, scale, capsys, monkeypatch):
        monkeypatch.setenv("SQUARELAB_BUDGET", scale)
        assert run("gen", "dk", "--k", "2") == 2
        assert f"SQUARELAB_BUDGET must be a positive number, got {scale!r}" in \
            capsys.readouterr().err


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        assert run() == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_bad_subcommand_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("gen", "splice", "--patterns", "p.json", "--a", "0,x"),
        ("boxcount", "--in", "b.txt", "--m", "1,,2"),
    ])
    def test_bad_comma_list_is_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "expected a comma list of integers" in capsys.readouterr().err


def data_lines(text: bytes) -> list[bytes]:
    return [line for line in text.splitlines() if not line.startswith(b"#")]


@pytest.fixture(scope="module")
def paper_dir(tmp_path_factory):
    """The one directory the rows of the paper's table run in, in order."""
    path = tmp_path_factory.mktemp("paper")
    for name, text in INPUTS.items():
        (path / name).write_text(text)
    return path


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_paper_answer(row, paper_dir, monkeypatch, capsysbinary):
    monkeypatch.chdir(paper_dir)
    if row.pipe is None:
        if row.budget is not None:
            monkeypatch.setenv("SQUARELAB_BUDGET", row.budget)
        code, (out, err) = main(row.argv.split()), capsysbinary.readouterr()
    else:  # this checkout's squarelab in two processes
        env = dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parents[1]))
        cli = [sys.executable, "-m", "squarelab.cli"]
        producer = subprocess.Popen(cli + row.pipe.split(), env=env, stdout=subprocess.PIPE)
        if row.budget is not None:
            env["SQUARELAB_BUDGET"] = row.budget  # the reader's only
        reader = subprocess.run(cli + row.argv.split(), stdin=producer.stdout,
                                capture_output=True, env=env)
        producer.stdout.close()
        out, err, code = reader.stdout, reader.stderr, reader.returncode
        assert producer.wait() == 0
    assert code == 0, err.decode()[-300:]
    assert row.stdout is None or out.decode() == row.stdout
    text = out if row.file == "-" else Path(row.file).read_bytes()
    assert row.sha256 is None or hashlib.sha256(text).hexdigest() == row.sha256
    assert row.lines is None or len(data_lines(text)) == row.lines
    if row.same_data_as is not None:
        assert data_lines(out) == data_lines(Path(row.same_data_as).read_bytes())
    assert row.centers is None or json.loads(err)["centers"] == row.centers
    if row.report:
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks if not c["ok"]] == []
        digest = hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()
        assert row.checks_sha256 is None or digest == row.checks_sha256

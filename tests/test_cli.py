import hashlib
import json
import os
import re
import shlex
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from primecover import cli, fanout
from primecover.cli import DEFAULT_ETA, main
from primecover.ergodic import ergodic_rows
from primecover.primes import map_prime_intervals, primes_between, sieve_range
from primecover.sequences import (
    NumeratorSequence,
    load_sequence,
    random_sequence,
    sequence_text,
)
from primecover.sievelab import omega_expectation_exact

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_and_serial(capsys, monkeypatch, *argv, forks=3):
    """run_cli results with the work split over 4 processes, and serially.

    forks is the number of workers the split run starts: 3, unless the
    command has nothing to split.
    """
    started = []
    fork = fanout._fork
    monkeypatch.setattr(fanout, "_fork", lambda *a: started.append(1) or fork(*a))
    monkeypatch.setattr(fanout, "MIN_CHUNK", 1)
    monkeypatch.setattr(fanout, "cpu_count", lambda: 4)
    split = run_cli(capsys, *argv)
    assert len(started) == forks
    monkeypatch.setattr(fanout, "cpu_count", lambda: 1)
    serial = run_cli(capsys, *argv)
    assert len(started) == forks
    return split, serial


class TestPrimesCommand:
    def test_count(self, capsys):
        code, out, err = run_cli(capsys, "primes", "--bound", "10")
        assert code == 0 and err == ""
        assert json.loads(out) == {"bound": 10, "count": 4}

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--bound", "10", "--list")
        assert json.loads(out)["primes"] == [2, 3, 5, 7]

    @pytest.mark.parametrize(
        "k, count", [(1, 4), (2, 25), (3, 168), (4, 1229), (5, 9592), (6, 78498), (7, 664579)]
    )
    def test_count_of_power_of_ten(self, capsys, k, count):
        # without --list the count comes from the segment flags alone
        code, out, err = run_cli(capsys, "primes", "--bound", str(10**k))
        assert code == 0 and err == ""
        assert out == json.dumps({"bound": 10**k, "count": count}, sort_keys=True, indent=2) + "\n"

    def test_split_count_equals_serial(self, capsys, monkeypatch):
        split, serial = split_and_serial(capsys, monkeypatch, "primes", "--bound", "100000")
        assert split == serial == (0, '{\n  "bound": 100000,\n  "count": 9592\n}\n', "")

    @pytest.mark.parametrize("bound", [2, 3, 4, 10, 97, 100, 1000, 7919, 10**4])
    def test_listing_bytes_match_sieve(self, capsys, bound):
        primes = list(sieve_range(bound))
        doc = {"bound": bound, "count": len(primes), "primes": primes}
        code, out, _ = run_cli(capsys, "primes", "--bound", str(bound), "--list")
        assert code == 0
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestSeqAndCoverage:
    def test_greedy_build_then_coverage(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        code, out, _ = run_cli(
            capsys, "seq", "build", "--method", "greedy", "--bound", "100",
            "--c", "1/2", "--out", str(out_file),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["method"] == "greedy"
        assert summary["entries"] == 25
        seq = load_sequence(out_file)
        assert seq.c == F(1, 2)

        code, out, _ = run_cli(
            capsys, "coverage", "--seq", str(out_file), "--x", "1", "--y", "100"
        )
        assert code == 0
        assert out.strip() == "0/1"  # greedy at c=1/2 covers the circle by p=7

    def test_greedy_unsaturated_golden_file(self, capsys, tmp_path):
        # c = 1/4 never saturates the circle, so every prime after the first
        # few runs the merge walk; the digest is the file the Fraction scan wrote
        out_file = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys, "seq", "build", "--method", "greedy", "--bound", "2000",
            "--c", "1/4", "--out", str(out_file),
        )
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "50486195315490363adb1732f2bdae8f885cfccafb4258e0fac38b05977f8032"
        )

    def test_greedy_unsaturated_golden_file_at_3e4(self, capsys, tmp_path):
        # 3245 primes at c = 1/4; the digest is the file the Fraction segment
        # cover wrote (about 14 s then)
        out_file = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys, "seq", "build", "--method", "greedy", "--bound", "30000",
            "--c", "1/4", "--out", str(out_file),
        )
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "6773ab5c33ad4618783db54c19f0aec687902259f8166e8e036bf91258c59996"
        )

    def test_greedy_saturated_golden_file(self, capsys, tmp_path):
        # the README's greedy example: c = 1/2 fills the circle at p = 7, and
        # the 9,588 later primes take a = 0; the digest is the file that the
        # loop picking on every prime wrote
        out_file = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys, "seq", "build", "--method", "greedy", "--bound", "100000",
            "--c", "1/2", "--out", str(out_file),
        )
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "d9d20f81bd924ecdc77865baa0ca90dd90fd774037f6d589f512bc434099b89d"
        )

    def test_blocks_build_reports_schedule(self, capsys, tmp_path):
        out_file = tmp_path / "b.json"
        code, out, _ = run_cli(
            capsys, "seq", "build", "--method", "blocks", "--bound", "1000",
            "--c", "1/2", "--epsilons", "1/2,1/2", "--out", str(out_file),
        )
        assert code == 0
        summary = json.loads(out)
        assert len(summary["blocks"]) == 2
        for _, _, eps, achieved in summary["blocks"]:
            assert F(achieved) <= F(eps)

    def test_invalid_c_writes_nothing(self, capsys, tmp_path):
        out_file = tmp_path / "bad.json"
        code, out, err = run_cli(
            capsys, "seq", "build", "--method", "greedy", "--bound", "10",
            "--c", "3/4", "--out", str(out_file),
        )
        assert code == 1
        assert err.strip() == "error: c must be in (0,1/2]"
        assert out == ""
        assert not out_file.exists()

    def test_budget_exhausted_surfaces(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "seq", "build", "--method", "blocks", "--bound", "100",
            "--c", "1/100", "--epsilons", "1/1000000",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert err.startswith("error: budget exhausted at block 1")

    def test_missing_sequence_file(self, capsys):
        code, _, err = run_cli(
            capsys, "coverage", "--seq", "/nonexistent.json", "--x", "1", "--y", "10"
        )
        assert code == 1
        assert err.strip() == "error: sequence file not found"


class TestInputAndOutputFiles:
    @pytest.mark.parametrize(
        "text",
        ['{"entries": [[2, 1]]}', "[[2, 1]]", "", '{"c": "1/4", "entries": [[2]]}'],
        ids=["missing_c", "top_level_list", "empty_file", "short_entry"],
    )
    def test_malformed_sequence_file(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "coverage", "--seq", str(path), "--x", "1", "--y", "10")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_huge_range_end_in_error(self, capsys, tmp_path, default_digit_limit):
        path = tmp_path / "r.json"
        path.write_text(sequence_text(random_sequence(100, F(1, 4), 1729)))
        code, out, err = run_cli(capsys, "coverage", "--seq", str(path), "--x", "1e5000",
                                 "--y", "1")
        assert (code, out) == (1, "")
        assert err == (
            "error: need X < Y, got X=~1.000000e5000 (approximate; exact value has a "
            "5001-digit numerator and a 1-digit denominator), Y=1\n"
        )

    @pytest.mark.parametrize("value", ["9223372036854775808", "1.0", '"1"'])
    def test_entry_value_that_no_column_holds(self, capsys, tmp_path, value):
        path = tmp_path / "big.json"
        path.write_text(f'{{"c": "1/4", "entries": [[2, 1], [3, {value}]]}}')
        code, out, err = run_cli(capsys, "coverage", "--seq", str(path), "--x", "1", "--y", "10")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_huge_c_in_sequence_file(self, capsys, tmp_path, default_digit_limit):
        path = tmp_path / "big.json"
        path.write_text('{"c": "1e5000", "entries": []}')
        code, out, err = run_cli(capsys, "coverage", "--seq", str(path), "--x", "1", "--y", "10")
        assert (code, out) == (1, "")
        assert err == (
            f"error: {path}: c must lie in (0, 1/2], got ~1.000000e5000 (approximate; exact "
            "value has a 5001-digit numerator and a 1-digit denominator)\n"
        )

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "sievelab", "--x", "2", "--y", "50", "--c", "1/4", "--exact",
            "--out", str(target),
        )
        assert code == 1 and out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_out_file_replaced_whole(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("old contents that are longer than the report" * 10)
        args = ("sievelab", "--x", "2", "--y", "50", "--c", "1/4", "--exact")
        code, expected, _ = run_cli(capsys, *args)
        assert code == 0
        code, out, err = run_cli(capsys, *args, "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_text() == expected
        assert os.listdir(tmp_path) == ["x.json"]  # no temporary file left behind
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("argv", [
        ("sievelab", "--c", "1/4", "--x", "2", "--y", "100", "--mc", "20", "--seed", "7"),
        ("sievelab", "--seq", "S", "--x", "2", "--y", "100", "--exact"),
        ("hits", "--seq", "S", "--x", "1/3", "--bound", "300"),
        ("hits", "--seq", "S", "--x-named", "sqrt2", "--bound", "300", "--format", "csv"),
        ("fracparts", "--x", "0.3", "--c", "1/4", "--bound", "300"),
        ("fracparts", "--x-named", "golden", "--c", "1/4", "--bound", "300", "--format", "csv"),
        ("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.7123", "--primes-up-to", "300"),
    ], ids=["sievelab_mc", "sievelab_seq", "hits_json", "hits_csv", "fracparts_json",
            "fracparts_csv", "ergodic"])
    def test_out_file_holds_the_printed_report(self, capsys, tmp_path, argv):
        # every report command writes --out by the one rule in main: the
        # bytes it prints without --out, and nothing on stdout
        seq_path, target = tmp_path / "seq.json", tmp_path / "report.out"
        seq_path.write_text(sequence_text(random_sequence(300, F(1, 4), 5)))
        argv = [str(seq_path) if arg == "S" else arg for arg in argv]
        code, printed, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and printed
        assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_text() == printed

    def test_seq_build_usage_names_out_path(self, capsys):
        # seq build --out keeps the metavar it had before it got its own dest
        with pytest.raises(SystemExit) as exc:
            main(["seq", "build", "--method", "random", "--bound", "100", "--c", "1/4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--out OUT_PATH" in err
        assert err.endswith("error: the following arguments are required: --out\n")


    def test_seq_build_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "seq", "build", "--method", "random", "--bound", "100",
            "--c", "1/4", "--out", str(target),
        )
        assert code == 1 and out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_seq_build_replaces_target_whole(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("old contents that are longer than the file" * 1000)
        code, out, err = run_cli(
            capsys, "seq", "build", "--method", "random", "--bound", "100",
            "--c", "1/4", "--out", str(target),
        )
        assert code == 0 and err == ""
        assert json.loads(out)["out"] == str(target)
        assert target.read_text() == sequence_text(random_sequence(100, F(1, 4), 1729))
        assert os.listdir(tmp_path) == ["x.json"]  # no temporary file left behind

    @pytest.mark.parametrize(
        "method, extra, seed",
        [("random", (), 1729), ("blocks", ("--epsilons", "1/2,1/4"), 1729),
         ("greedy", (), None), ("constant", (), None)],
    )
    def test_seed_default_applies_to_random_and_blocks(self, capsys, tmp_path, method, extra,
                                                        seed):
        target = tmp_path / "x.json"
        code, out, _ = run_cli(capsys, "seq", "build", "--method", method, "--bound", "200",
                               "--c", "1/2", *extra, "--out", str(target))
        assert code == 0
        assert json.loads(out)["seed"] == json.loads(target.read_text())["seed"] == seed


class TestSequenceFileGoldens:
    # the files the benchmark's build workload writes, as the json indent
    # encoder wrote them before sequence_text took over the layout
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--method", "random", "--bound", "1000000", "--c", "1/4", "--seed", "1729"),
                "1e1a9f6850e61a4d0dfb5ff89094fa1e3e4670b2dffc584c75f43f82b5597475",
            ),
            (
                ("--method", "blocks", "--bound", "100000", "--c", "1/2",
                 "--epsilons", "1/2,1/4,1/8"),
                "0ad6fa967e37fa9b36f1d3073eb17a5e0559967669f571a47461451d696c245c",
            ),
        ],
        ids=["random_1e6", "blocks_1e5"],
    )
    def test_benchmark_scale_file(self, capsys, tmp_path, argv, digest):
        out_file = tmp_path / "s.json"
        code, _, _ = run_cli(capsys, "seq", "build", *argv, "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestSievelabCommand:
    def test_exact_expectation(self, capsys):
        code, out, _ = run_cli(
            capsys, "sievelab", "--x", "2", "--y", "7", "--c", "1/2", "--exact"
        )
        assert code == 0
        doc = json.loads(out)
        num, den = doc["omega_expectation"].split("/")
        assert F(int(num), int(den)) == omega_expectation_exact(2, 7, F(1, 2))

    def test_report_for_sequence(self, capsys, tmp_path):
        seq_file = tmp_path / "r.json"
        run_cli(capsys, "seq", "build", "--method", "random", "--bound", "50",
                "--c", "1/4", "--seed", "3", "--out", str(seq_file))
        code, out, _ = run_cli(
            capsys, "sievelab", "--seq", str(seq_file), "--x", "1", "--y", "50"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exact"
        assert "/" in doc["nu"] and "/" in doc["alpha"]
        levels = {int(k): F(v) for k, v in doc["levels"].items()}
        assert sum(levels.values()) == 1

    def test_mc_block(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, "sievelab", "--x", "2", "--y", "30", "--c", "1/4",
            "--mc", "20", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mc"]["trials"] == 20
        assert doc["mc"]["seed"] == 5
        assert 0.0 <= doc["mc"]["mean"] <= 1.0
        # the trials split over processes give the serial bytes
        split, serial = split_and_serial(
            capsys, monkeypatch, "sievelab", "--x", "2", "--y", "30", "--c", "1/4",
            "--mc", "7", "--seed", "5",
        )
        assert split == serial and split[0] == 0

    def test_requires_mode(self, capsys):
        code, _, err = run_cli(capsys, "sievelab", "--x", "2", "--y", "7", "--c", "1/2")
        assert code == 1
        assert "exact" in err


class TestHitsCommands:
    @pytest.fixture()
    def seq_file(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        run_cli(capsys, "seq", "build", "--method", "greedy", "--bound", "200",
                "--c", "1/2", "--out", str(path))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("hits", "--seq", "R", "--x-named", "sqrt2", "--eta", "1e-6", "--bound", "3000"),
        ("hits", "--seq", "R", "--x-named", "sqrt2", "--eta", "1e-6", "--bound", "3000",
         "--format", "csv"),
        ("fracparts", "--x-named", "golden", "--eta", "3e-5", "--c", "1/4", "--bound", "3000"),
        ("fracparts", "--x-named", "golden", "--eta", "3e-5", "--c", "1/4", "--bound", "3000",
         "--format", "csv"),
    ], ids=["hits_json", "hits_csv", "fracparts_json", "fracparts_csv"])
    def test_split_output_equals_serial(self, capsys, monkeypatch, tmp_path, argv):
        # R is a random sequence file to 3000
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "seq", "build", "--method", "random", "--bound", "3000", "--c", "1/4",
                "--out", "R")
        split, serial = split_and_serial(capsys, monkeypatch, *argv)
        assert split == serial and split[0] == 0 and split[2] == ""
        if "csv" in argv:
            rows = [line.split(",") for line in split[1].splitlines()[1:]]
            assert [int(row[0]) for row in rows] == list(sieve_range(3000))
            hits = [int(p) for p, *_, hit, _ in rows if hit == "1"]
            ambiguous = [int(p) for p, *_, ambiguous in rows if ambiguous == "1"]
        else:
            doc = json.loads(split[1])
            hits, ambiguous = doc["hits"], doc["ambiguous"]
        assert hits
        if argv[0] == "fracparts":  # hits and ambiguous primes in the first and last intervals
            assert min(hits) < 500 and max(hits) > 2500
            assert min(ambiguous) < 500 and max(ambiguous) > 2500

    def test_hits_json(self, capsys, seq_file):
        code, out, _ = run_cli(
            capsys, "hits", "--seq", seq_file, "--x", "1/3", "--bound", "100"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == 100
        assert doc["c"] == "1/2"
        assert isinstance(doc["hits"], list)

    def test_hits_csv(self, capsys, seq_file):
        code, out, _ = run_cli(
            capsys, "hits", "--seq", seq_file, "--x-named", "sqrt2",
            "--eta", "1e-14", "--bound", "100", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,distance_num,distance_den,hit,ambiguous"
        assert len(lines) == 1 + 25  # header + pi(100)

    def test_x_named_without_eta_uses_default_eta(self, capsys, seq_file):
        base = ("hits", "--seq", seq_file, "--x-named", "sqrt2", "--bound", "100")
        assert run_cli(capsys, *base) == run_cli(capsys, *base, "--eta", DEFAULT_ETA)

    def test_fracparts_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "fracparts", "--x", "1/2", "--c", "1/4", "--bound", "100"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["hits"] == [2]

    def test_fracparts_requires_point(self, capsys):
        code, _, err = run_cli(capsys, "fracparts", "--c", "1/4", "--bound", "100")
        assert code == 1
        assert "exactly one" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["hits", "fracparts"])
    def test_huge_rational_x(self, capsys, seq_file, default_digit_limit, command, fmt):
        # 10^5000 is an integer, so every row is the row of x = 0; only the
        # label differs, and it is written without the digits of x
        args = ("--seq", seq_file) if command == "hits" else ("--c", "1/4")
        run = lambda x: run_cli(capsys, command, *args, "--x", x, "--bound", "100",
                                "--format", fmt)
        (code, out, err), (_, zero, _) = run("1e5000"), run("0")
        assert (code, err) == (0, "")
        if fmt == "csv":
            assert out == zero
        else:
            doc, expected = json.loads(out), json.loads(zero)
            assert doc.pop("x") == (
                "rational ~1.000000e5000 (approximate; exact value has a 5001-digit "
                "numerator and a 1-digit denominator)"
            )
            assert expected.pop("x") == "rational 0" and doc == expected

    def test_output_file(self, capsys, seq_file, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "hits", "--seq", seq_file, "--x", "0", "--bound", "50",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("p,distance_num")


class TestScanGoldenFiles:
    # digests of what the Fraction classification loops printed; the
    # integer cross-multiplication must keep every byte
    @pytest.fixture(scope="class")
    def random_seq(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "r.json"
        assert main(["seq", "build", "--method", "random", "--bound", "20000",
                     "--c", "1/4", "--seed", "1729", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8a430282d75dd59bc2ac93ff9ba979b4bccc4ec63193d870633eb6d83d75a28b"
        )
        return str(path)

    def test_hits_csv_golden(self, capsys, random_seq):
        code, out, _ = run_cli(
            capsys, "hits", "--seq", random_seq, "--x-named", "sqrt2",
            "--eta", "1e-16", "--bound", "20000", "--format", "csv",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "465f065e2053681b6785c0a97e2830e4b40992914b0c8b2eaababd7bf4836c6e"
        )

    # the dense ergodic CSV before its hit test moved to a mask and a shift;
    # at y = 1/4 closed arc ends are hits (p = 3, 19, 293 and 1153)
    @pytest.mark.parametrize("y, expected", [
        ("0.7123", "306936d0e26e2307e6203eaf08f7294b2dd038cf341089604e91294d0adbaf42"),
        ("0.25", "265f5930936adf040035699484c7724075b7ec5852671bab29f6845884580c28"),
    ])
    def test_ergodic_csv_golden(self, capsys, random_seq, y, expected):
        code, out, _ = run_cli(
            capsys, "ergodic", "--seq", random_seq, "--x", "0.3", "--y", y,
            "--primes-up-to", "20000",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    def test_fracparts_csv_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "fracparts", "--x-named", "golden", "--eta", "1e-16",
            "--c", "1/4", "--bound", "20000", "--format", "csv",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c7e0a2a6618275dc1597b7d331c40c27d42c6e0077138b79aeb16130ba88acc2"
        )


class TestExactGoldenOutputs:
    # digests of what the Fraction sums of level_sets, alpha_and_markov,
    # omega_expectation_exact and the Monte Carlo trials printed; the
    # integer sums must keep every byte
    @pytest.fixture(scope="class")
    def random_seq(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "r.json"
        assert main(["seq", "build", "--method", "random", "--bound", "10000",
                     "--c", "1/4", "--seed", "1729", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e821566775988eb4a76f6b5d13c385a3c1fff99747d2a74f06482528ccf87745"
        )
        return str(path)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("sievelab", "--x", "2", "--y", "300", "--c", "1/4", "--exact"),
             "850d13f939477f05ff37e6c15b0735cd5ee35af2170e4657dbd6c9c6cad420f4"),
            (("sievelab", "--x", "2", "--y", "5000", "--c", "1/4", "--mc", "50",
              "--seed", "1729"),
             "9cf8d8751b119a208e50103283d33b9b29cd6c4e39efac0814a9e5e642f71fbd"),
        ],
        ids=["exact_300", "mc_5000"],
    )
    def test_without_sequence(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    def test_sievelab_report(self, capsys, random_seq):
        code, out, _ = run_cli(capsys, "sievelab", "--seq", random_seq, "--x", "2",
                               "--y", "5000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "017c61232297f6ca128e0d71050ea80da82134b7252e681c53a98894e3a97fea"
        )

    def test_coverage(self, capsys, random_seq):
        code, out, _ = run_cli(capsys, "coverage", "--seq", random_seq, "--x", "1",
                               "--y", "10000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a7b0f230e499f305a20d1501baafdfac10b3a459304bd9ba5dff4b39ab6e06b5"
        )


class TestErgodicCommand:
    def test_csv_shape(self, capsys, tmp_path):
        seq_file = tmp_path / "seq.json"
        run_cli(capsys, "seq", "build", "--method", "greedy", "--bound", "100",
                "--c", "1/2", "--out", str(seq_file))
        code, out, _ = run_cli(
            capsys, "ergodic", "--seq", str(seq_file), "--x", "0.3", "--y", "0.7123",
            "--primes-up-to", "50",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,a_p,d,abs_s,is_hit,method"
        assert len(lines) == 1 + 15
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[5] in ("direct", "closed")
            assert 0.0 <= float(fields[3]) <= 1.0 + 1e-12

    def test_sparse_selection(self, capsys, tmp_path):
        seq_file = tmp_path / "seq.json"
        run_cli(capsys, "seq", "build", "--method", "random", "--bound", "300",
                "--c", "1/2", "--out", str(seq_file))
        code, out, _ = run_cli(
            capsys, "ergodic", "--seq", str(seq_file), "--x", "0.1", "--y", "0.9",
            "--primes-up-to", "300", "--sparse", "geometric",
        )
        assert code == 0
        ps = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert ps == [5, 17, 67, 257]

    @pytest.fixture()
    def seq_file(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        run_cli(capsys, "seq", "build", "--method", "random", "--bound", "300",
                "--c", "1/4", "--seed", "5", "--out", str(path))
        return str(path)

    def test_rational_point(self, capsys, seq_file):
        # "num/den" is read like every other subcommand reads it, as the
        # float nearest to the rational
        args = ("ergodic", "--seq", seq_file, "--primes-up-to", "300")
        code, out, err = run_cli(capsys, *args, "--x", "1/3", "--y=-5/7")
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 1 + 62
        _, decimal, _ = run_cli(capsys, *args, "--x", repr(1 / 3), f"--y={-5 / 7!r}")
        assert out == decimal

    def test_decimal_point_output_unchanged(self, capsys, seq_file):
        # a decimal string still reaches ergodic_rows as float(string)
        code, out, _ = run_cli(
            capsys, "ergodic", "--seq", seq_file, "--x", "0.3", "--y", "0.7123",
            "--primes-up-to", "300",
        )
        assert code == 0
        seq = load_sequence(seq_file)
        rows = list(ergodic_rows(seq.c, float("0.3"), float("0.7123"), *seq.scan(1, 300)))
        expected = [[str(p), str(a), repr(distance), repr(abs(s)), str(int(is_hit)), method]
                    for p, a, distance, s, method, is_hit in rows]
        assert [line.split(",") for line in out.splitlines()[1:]] == expected

    def test_psi_mode(self, capsys, seq_file):
        # the bytes that --sparse psi printed with each of the removed --psi
        # names (log, loglog, sqrt_log), which the CSV never showed
        code, out, err = run_cli(
            capsys, "ergodic", "--seq", seq_file, "--x", "0.3", "--y", "0.5",
            "--primes-up-to", "300", "--sparse", "psi",
        )
        assert code == 0 and err == ""
        assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == [
            3, 5, 11, 17, 37, 67, 131, 257,
        ]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0076abd16edb19a94aabe82d3943fe3ccfe1e21f71b4f36563e4bf5e70ab4840"
        )

    @pytest.mark.parametrize("extra", [
        ("--x", "0.3", "--y", "0.7123"),
        ("--x", "0.3", "--y", "0.7123", "--sparse", "geometric"),
        ("--x", "1/3", "--y", "0.7123"),
    ], ids=["dense", "sparse", "rational"])
    def test_split_output_equals_serial(self, capsys, monkeypatch, seq_file, extra):
        # the sparse set (4 primes here, 9 at 1e6) is not worth a fork
        split, serial = split_and_serial(
            capsys, monkeypatch, "ergodic", "--seq", seq_file, "--primes-up-to", "300", *extra,
            forks=0 if "--sparse" in extra else 3,
        )
        assert split == serial and split[0] == 0

    @pytest.mark.parametrize("drop, bound, prime", [
        (101, 300, 101),  # one prime missing mid-range
        (None, 400, 307),  # the file ends below the bound
    ], ids=["mid_range", "below_bound"])
    def test_missing_prime_fails_before_any_row(self, capsys, monkeypatch, tmp_path, seq_file,
                                                drop, bound, prime):
        seq = load_sequence(seq_file)
        custom = tmp_path / "custom.json"
        entries = tuple((p, a) for p, a in seq.entries if p != drop)
        custom.write_text(sequence_text(replace(seq, entries=entries, method="custom")))
        monkeypatch.setattr(cli, "ergodic_rows", lambda *a: pytest.fail("a row was computed"))
        out_file = tmp_path / "o.csv"
        code, out, err = run_cli(
            capsys, "ergodic", "--seq", str(custom), "--x", "0.3", "--y", "0.5",
            "--primes-up-to", str(bound), "--out", str(out_file),
        )
        assert (code, out, err) == (1, "", f"error: sequence has no entry for prime {prime}\n")
        assert not out_file.exists()

    def test_point_too_large_for_a_float(self, capsys, seq_file):
        code, out, err = run_cli(
            capsys, "ergodic", "--seq", seq_file, "--x", "1e400", "--y", "0.5",
            "--primes-up-to", "300",
        )
        assert code == 1 and out == ""
        assert err == "error: '1e400' is too large for a float\n"


# every per-prime scan of a sequence file, each over the primes to 300
SCANS = {
    "hits_json": ("hits", "--x", "1/3", "--bound", "300"),
    "hits_csv": ("hits", "--x-named", "sqrt2", "--bound", "300", "--format", "csv"),
    "ergodic_dense": ("ergodic", "--x", "0.3", "--y", "0.7123", "--primes-up-to", "300"),
    "ergodic_sparse": ("ergodic", "--x", "0.3", "--y", "0.7123", "--primes-up-to", "300",
                       "--sparse", "geometric"),
    "ergodic_rational": ("ergodic", "--x", "1/3", "--y", "2/7", "--primes-up-to", "300"),
    "coverage": ("coverage", "--x", "1", "--y", "300"),
    "sievelab": ("sievelab", "--x", "2", "--y", "300"),
}


class TestScansZipTheColumns:
    # the scans pair each prime with its numerator by one compare of the
    # prime column, not by a lookup per prime; they must read as the lookups did
    @pytest.fixture()
    def entries(self):
        return random_sequence(300, F(1, 4), 1729).entries

    @staticmethod
    def scan(capsys, tmp_path, name, entries):
        path = tmp_path / "custom.json"
        path.write_text(sequence_text(NumeratorSequence(F(1, 4), tuple(entries))))
        command, *rest = SCANS[name]
        return run_cli(capsys, command, "--seq", str(path), *rest)

    @pytest.mark.parametrize("name", list(SCANS))
    def test_missing_primes_name_the_smallest(self, capsys, tmp_path, entries, name):
        # 67 is in the geometric sparse set (the least prime above 4^3); 101 is not
        kept = [(p, a) for p, a in entries if p not in (67, 101)]
        assert self.scan(capsys, tmp_path, name, kept) == (
            1, "", "error: sequence has no entry for prime 67\n"
        )

    @pytest.mark.parametrize("command", ["coverage", "sievelab"])
    @pytest.mark.parametrize("drop, prime", [(67, 67), (None, 307)], ids=["gap", "past_the_end"])
    def test_a_range_past_the_last_entry_sieves_no_further(
        self, capsys, tmp_path, sieve_no_further_than, entries, command, drop, prime
    ):
        kept = tuple((p, a) for p, a in entries if p != drop)
        path = tmp_path / "custom.json"
        path.write_text(sequence_text(NumeratorSequence(F(1, 4), kept)))
        sieve_no_further_than(293)  # the last entry
        code, out, err = run_cli(
            capsys, command, "--seq", str(path), "--x", "1", "--y", "1000000000000"
        )
        assert (code, out, err) == (1, "", f"error: sequence has no entry for prime {prime}\n")

    @pytest.mark.parametrize("name", ["hits_json", "hits_csv", "ergodic_dense"])
    @pytest.mark.parametrize("drop, prime", [(101, 101), (None, 307)], ids=["gap", "past_the_end"])
    def test_a_split_past_the_last_entry_sieves_no_further(
        self, capsys, monkeypatch, tmp_path, sieve_no_further_than, entries, name, drop, prime
    ):
        # each interval of (1, 10**12] is one scan, and none sieves past the last entry
        kept = tuple((p, a) for p, a in entries if p != drop)
        path = tmp_path / "custom.json"
        path.write_text(sequence_text(NumeratorSequence(F(1, 4), kept)))
        sieve_no_further_than(293)
        command, *rest = (str(10**12) if arg == "300" else arg for arg in SCANS[name])
        split, serial = split_and_serial(capsys, monkeypatch, command, "--seq", str(path), *rest)
        assert split == serial == (1, "", f"error: sequence has no entry for prime {prime}\n")

    @pytest.mark.parametrize("name", ["hits_json", "hits_csv", "ergodic_dense"])
    @pytest.mark.parametrize("lacking", ["last_interval", "two_intervals"])
    def test_missing_primes_under_a_split(self, capsys, monkeypatch, tmp_path, entries, name,
                                          lacking):
        # the four intervals of (1, 300] that a run on 4 CPUs sieves, one per process
        with monkeypatch.context() as mp:
            mp.setattr(fanout, "MIN_CHUNK", 1)
            mp.setattr(fanout, "cpu_count", lambda: 4)
            parts = map_prime_intervals(primes_between, 300, 1)
        assert len(parts) == 4
        if lacking == "last_interval":
            dropped = [parts[3][1]]
        else:  # the earliest worker's error, not the latest, is raised
            dropped = [parts[1][-2], parts[3][0]]
        path, out_file = tmp_path / "custom.json", tmp_path / "o.txt"
        kept = tuple((p, a) for p, a in entries if p not in dropped)
        path.write_text(sequence_text(NumeratorSequence(F(1, 4), kept)))
        command, *rest = SCANS[name]
        split, serial = split_and_serial(
            capsys, monkeypatch, command, "--seq", str(path), *rest, "--out", str(out_file)
        )
        assert split == serial == (
            1, "", f"error: sequence has no entry for prime {dropped[0]}\n"
        )
        assert not out_file.exists()

    @pytest.mark.parametrize("name", list(SCANS))
    def test_entry_at_a_composite_is_never_read(self, capsys, tmp_path, entries, name):
        # (4, 1) shifts every later entry by one place in the columns, so a zip
        # by position would pair 5 with 4's numerator
        with_four = [*entries[:2], (4, 1), *entries[2:]]
        plain = self.scan(capsys, tmp_path, name, entries)
        assert plain[0] == 0
        assert self.scan(capsys, tmp_path, name, with_four) == plain


class TestOneParserPerProcess:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @staticmethod
    def status_and_output(capsys, argv):
        """(status, stdout, stderr) of one main call, an argparse exit included."""
        try:
            return run_cli(capsys, *argv)
        except SystemExit as exc:
            return exc.code, *capsys.readouterr()

    @pytest.mark.parametrize("first, first_status, second", [
        # an explicit seed must not stay behind as the next call's default
        (("sievelab", "--x", "2", "--y", "50", "--c", "1/4", "--mc", "5", "--seed", "7"), 0,
         ("sievelab", "--x", "2", "--y", "50", "--c", "1/4", "--mc", "5")),
        # argparse rejects the first call halfway through its parse
        (("primes", "--bound", "ten", "--list"), 2, ("primes", "--bound", "10")),
        (("hits", "--seq", "S", "--x", "1/3", "--bound", "50", "--format", "csv"), 0,
         ("hits", "--seq", "S", "--x", "1/3", "--bound", "50")),
    ], ids=["sievelab_seed", "usage_error", "hits_format"])
    def test_each_call_prints_what_it_prints_alone(self, capsys, tmp_path, monkeypatch, first,
                                                   first_status, second):
        monkeypatch.chdir(tmp_path)
        assert main(["seq", "build", "--method", "greedy", "--bound", "200", "--c", "1/2",
                     "--out", "S"]) == 0
        capsys.readouterr()
        alone = []
        for argv in (first, second):
            cli._build_parser.cache_clear()  # as in a process of its own
            alone.append(self.status_and_output(capsys, argv))
        assert [status for status, _, _ in alone] == [first_status, 0]
        mixed = [self.status_and_output(capsys, argv) for argv in (first, second, first, second)]
        assert mixed == alone * 2
        if first[0] == "sievelab":
            assert json.loads(mixed[1][1])["mc"]["seed"] == 1729

    def test_main_calls_the_handler_in_the_dispatch_table(self, capsys, monkeypatch):
        # the benchmark tracer wraps handlers by replacing them in module-level dicts
        seen = []

        def wrapper(args):
            seen.append(args.bound)
            return cli.cmd_primes(args)

        monkeypatch.setitem(cli._HANDLERS, "primes", wrapper)
        assert run_cli(capsys, "primes", "--bound", "10") == (
            0, '{\n  "bound": 10,\n  "count": 4\n}\n', ""
        )
        assert seen == [10]


class TestReproducibility:
    def test_identical_runs_bytewise(self, capsys):
        args = ["sievelab", "--x", "2", "--y", "100", "--c", "1/4", "--mc", "30",
                "--seed", "7", "--exact"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_core_count_does_not_change_bytes(self, capsys, monkeypatch):
        split, serial = split_and_serial(
            capsys, monkeypatch, "sievelab", "--x", "2", "--y", "100", "--c", "1/4",
            "--mc", "24", "--seed", "9",
        )
        assert split == serial and split[0] == 0

    def test_seq_files_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(capsys, "seq", "build", "--method", "random", "--bound", "100",
                    "--c", "1/4", "--seed", "11", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


BIG_BOUND = str(2**63)
PAST_THE_TOP = f"sieve bound must be below 2^63, got {BIG_BOUND}"

ERRORS = [
    # (argv, the one stderr line, or 2 where argparse rejects the invocation);
    # "S" stands for a greedy sequence file to 200 at c = 1/2
    (("primes", "--bound", "1"), "bound must be >= 2"),
    (("seq", "build", "--method", "greedy", "--bound", "1", "--c", "1/4", "--out", "o.json"),
     "bound must be >= 2"),
    (("seq", "build", "--method", "blocks", "--bound", "100", "--c", "1/2", "--out", "o.json"),
     "blocks method needs --epsilons"),
    (("seq", "build", "--method", "blocks", "--bound", "100", "--c", "1/2", "--epsilons=",
      "--out", "o.json"), "blocks method needs --epsilons"),
    (("seq", "build", "--method", "blocks", "--bound", "100", "--c", "1/2",
      "--epsilons", "1/2,x", "--out", "o.json"), "cannot parse rational from 'x'"),
    (("seq", "build", "--method", "blocks", "--bound", "100", "--c", "1/2",
      "--epsilons", "2", "--out", "o.json"), "every epsilon must lie in (0, 1)"),
    (("seq", "build", "--method", "random", "--bound", "100", "--c", "abc", "--out", "o.json"),
     "c must be in (0,1/2]"),
    (("seq", "build", "--method", "random", "--bound", "100", "--c", "1/2",
      "--epsilons", "1/2", "--out", "o.json"), "--epsilons needs --method blocks"),
    (("seq", "build", "--method", "greedy", "--bound", "100", "--c", "1/2",
      "--epsilons=", "--out", "o.json"), "--epsilons needs --method blocks"),
    (("seq", "build", "--method", "greedy", "--bound", "100", "--c", "1/2", "--seed", "7",
      "--out", "o.json"), "--seed needs --method random"),
    (("seq", "build", "--method", "constant", "--bound", "100", "--c", "1/2",
      "--seed", "1729", "--out", "o.json"), "--seed needs --method random"),
    (("seq", "build", "--method", "blocks", "--bound", "100", "--c", "1/2",
      "--epsilons", "1/2", "--seed", "1729", "--out", "o.json"), "--seed needs --method random"),
    # c is converted before the epsilons
    (("seq", "build", "--method", "random", "--bound", "100", "--c", "3/4",
      "--epsilons", "x", "--out", "o.json"), "c must be in (0,1/2]"),
    (("sievelab", "--x", "2", "--y", "7"), "give --seq or --c"),
    (("sievelab", "--seq", "S", "--c", "1/4", "--x", "2", "--y", "100", "--out", "o.json"),
     "give --seq or --c, not both"),
    (("sievelab", "--x", "2", "--y", "7", "--c", "1/2", "--out", "o.json"),
     "without --seq, give --exact and/or --mc"),
    (("sievelab", "--x", "7", "--y", "2", "--c", "1/2", "--exact", "--out", "o.json"),
     "need X < Y, got X=7, Y=2"),
    (("sievelab", "--x", "10", "--y", "5", "--c", "1/4", "--mc", "5", "--out", "o.json"),
     "need X < Y, got X=10, Y=5"),
    (("sievelab", "--x", "2", "--y", "7", "--c", "1/2", "--mc", "0", "--out", "o.json"),
     "trials must be >= 1, got 0"),
    # the range is checked before x is formatted for the report
    (("sievelab", "--c", "1/4", "--x", "1e5000", "--y", "1", "--exact"),
     "need X < Y, got X=~1.000000e5000 (approximate; exact value has a 5001-digit numerator "
     "and a 1-digit denominator), Y=1"),
    (("sievelab", "--c", "1/4", "--x", "1e5000", "--y", "1", "--mc", "3"),
     "need X < Y, got X=~1.000000e5000 (approximate; exact value has a 5001-digit numerator "
     "and a 1-digit denominator), Y=1"),
    (("sievelab", "--seq", "missing.json", "--x", "1", "--y", "10", "--out", "o.json"),
     "sequence file not found"),
    (("sievelab", "--x", "2", "--y", "7", "--c", "1/2", "--exact", "--seed", "5",
      "--out", "o.json"), "--seed needs --mc"),
    (("sievelab", "--seq", "S", "--x", "2", "--y", "50", "--seed", "99", "--out", "o.json"),
     "--seed needs --mc"),
    (("coverage", "--seq", "S", "--x", "10", "--y", "1"), "need X < Y, got X=10, Y=1"),
    # past psi_12 = 318665857834031151167461 no prime is proven: the error
    # names the user's range, not is_prime's limit
    (("coverage", "--seq", "S", "--x", "1e30", "--y", "1000000000000000000000000000001"),
     "cannot scan (1000000000000000000000000000000, 1000000000000000000000000000001]: "
     "the sequence ends at prime 199, and a prime it lacks cannot be ruled out in the range, "
     "as primality is proven only below 318665857834031151167461"),
    (("sievelab", "--x", "1e30", "--y", "1000000000000000000000000000001", "--c", "1/4",
      "--exact"),
     "range too large for the exact sweep: (1000000000000000000000000000000, "
     "1000000000000000000000000000001] lies past 250000, where one prime alone has more arc "
     "endpoints than the budget of 500000, and such a prime cannot be ruled out in the range, "
     "as primality is proven only below 318665857834031151167461"),
    (("hits", "--seq", "S", "--bound", "100", "--out", "o.json"),
     "give exactly one of --x or --x-named"),
    (("hits", "--seq", "S", "--x", "1/3", "--x-named", "sqrt2", "--bound", "100",
      "--out", "o.json"), "give exactly one of --x or --x-named"),
    (("hits", "--seq", "S", "--x-named", "sqrt2", "--eta", "0", "--bound", "100",
      "--out", "o.json"), "eta must be > 0"),
    (("hits", "--seq", "S", "--x", "1/3", "--bound", "1", "--out", "o.json"),
     "bound must be >= 2"),
    # the bound is checked before the handler reads the sequence file
    (("hits", "--seq", "missing.json", "--x", "1/3", "--bound", "1"), "bound must be >= 2"),
    (("hits", "--seq", "S", "--x", "1/3", "--eta", "1", "--bound", "100", "--out", "o.json"),
     "--eta needs --x-named"),
    (("hits", "--seq", "S", "--x", "1/3", "--bound", "1000", "--out", "o.json"),
     "sequence has no entry for prime 211"),
    (("hits", "--seq", "S", "--x", "abc", "--bound", "100"), "cannot parse rational from 'abc'"),
    (("fracparts", "--x", "1/2", "--c", "1/4", "--bound", "1", "--out", "o.json"),
     "bound must be >= 2"),
    (("fracparts", "--x", "1/3", "--eta", "1", "--c", "1/4", "--bound", "50", "--out", "o.json"),
     "--eta needs --x-named"),
    (("fracparts", "--x-named", "golden", "--eta", "-1", "--c", "1/4", "--bound", "100",
      "--out", "o.json"), "eta must be > 0"),
    # c is converted before eta
    (("fracparts", "--x", "1/2", "--c", "3/4", "--eta", "0", "--bound", "100",
      "--out", "o.json"), "c must be in (0,1/2]"),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", "1",
      "--out", "o.csv"), "sieve bound must be >= 2, got 1"),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", "1",
      "--sparse", "geometric", "--out", "o.csv"), "sieve bound must be >= 2, got 1"),
    # no sequence column holds a prime of 2^63 or more, and no sieve reaches one
    (("primes", "--bound", BIG_BOUND), PAST_THE_TOP),
    (("primes", "--bound", BIG_BOUND, "--list"), PAST_THE_TOP),
    (("seq", "build", "--method", "blocks", "--bound", BIG_BOUND, "--c", "1/2",
      "--epsilons", "1/2", "--out", "o.json"), PAST_THE_TOP),
    (("hits", "--seq", "S", "--x", "1/3", "--bound", BIG_BOUND, "--out", "o.json"),
     PAST_THE_TOP),
    (("hits", "--seq", "S", "--x", "1/3", "--bound", BIG_BOUND, "--format", "csv",
      "--out", "o.csv"), PAST_THE_TOP),
    (("fracparts", "--x", "1/3", "--c", "1/4", "--bound", BIG_BOUND, "--out", "o.json"),
     PAST_THE_TOP),
    (("fracparts", "--x", "1/3", "--c", "1/4", "--bound", BIG_BOUND, "--format", "csv",
      "--out", "o.csv"), PAST_THE_TOP),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", BIG_BOUND,
      "--out", "o.csv"), PAST_THE_TOP),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", BIG_BOUND,
      "--sparse", "psi", "--out", "o.csv"), PAST_THE_TOP),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", "1000",
      "--out", "o.csv"), "sequence has no entry for prime 211"),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", "200",
      "--sparse", "psi", "--psi", "log", "--out", "o.csv"), 2),
    (("primes",), 2),
    (("seq", "build", "--method", "foo", "--bound", "10", "--c", "1/4", "--out", "o.json"), 2),
    (("hits", "--seq", "S", "--x", "1/3", "--bound", "100", "--format", "xml"), 2),
]


class TestErrorSurface:
    @pytest.mark.parametrize("argv, expected", ERRORS, ids=[" ".join(a) for a, _ in ERRORS])
    def test_invocation_fails_and_writes_nothing(self, capsys, tmp_path, monkeypatch, argv,
                                                 expected):
        monkeypatch.chdir(tmp_path)
        assert main(["seq", "build", "--method", "greedy", "--bound", "200", "--c", "1/2",
                     "--out", "S"]) == 0
        capsys.readouterr()
        if expected == 2:
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        else:
            assert run_cli(capsys, *argv) == (1, "", f"error: {expected}\n")
        assert os.listdir(tmp_path) == ["S"]

    def test_unprintable_certificate_fails_before_the_file(self, capsys, tmp_path, monkeypatch,
                                                            default_digit_limit):
        # the block's certificate passes the int-to-str digit limit: the
        # schedule fails before the sequence file is opened
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "seq", "build", "--method", "blocks", "--bound", "100000",
                                 "--c", "1/10", "--epsilons", "1/2", "--out", "b.json")
        assert (code, out) == (1, "")
        assert err.startswith("error: Exceeds the limit (4300 digits) for integer string conversion")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert os.listdir(tmp_path) == []


def readme_commands():
    """Each `primecover ...` line of README.md's sh blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("primecover "):
                commands.append(shlex.split(line)[1:])
    return commands


class TestReadmeExamples:
    def test_every_example_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {
            "primes", "seq", "coverage", "sievelab", "hits", "fracparts", "ergodic",
        }
        for argv in commands:
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv

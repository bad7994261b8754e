import hashlib
import json
import os
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from primecover.cli import main
from primecover.ergodic import convergence_series
from primecover.primes import sieve_range
from primecover.sequences import load_sequence, random_sequence, sequence_text
from primecover.sievelab import omega_expectation_exact

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("bound", [2, 3, 4, 10, 97, 100, 1000, 7919, 10**4])
    def test_listing_bytes_match_sieve(self, capsys, bound):
        primes = list(sieve_range(bound).primes)
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

    def test_mc_block(self, capsys):
        code, out, _ = run_cli(
            capsys, "sievelab", "--x", "2", "--y", "30", "--c", "1/4",
            "--mc", "20", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mc"]["trials"] == 20
        assert doc["mc"]["seed"] == 5
        assert 0.0 <= doc["mc"]["mean"] <= 1.0

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
    # digests of what the Fraction loops of hit_rows and fractional_rows
    # printed; the integer cross-multiplication must keep every byte
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
        # a decimal string still reaches convergence_series as float(string)
        code, out, _ = run_cli(
            capsys, "ergodic", "--seq", seq_file, "--x", "0.3", "--y", "0.7123",
            "--primes-up-to", "300",
        )
        assert code == 0
        seq = load_sequence(seq_file)
        samples = convergence_series(seq, float("0.3"), float("0.7123"),
                                     list(sieve_range(300).primes))
        expected = [[str(s.p), str(s.a), repr(s.distance), repr(abs(s.s)),
                     str(int(s.is_hit)), s.method] for s in samples]
        assert [line.split(",") for line in out.splitlines()[1:]] == expected

    def test_psi_mode_needs_psi(self, capsys, seq_file):
        args = ("ergodic", "--seq", seq_file, "--x", "0.3", "--y", "0.5", "--primes-up-to", "300")
        code, out, err = run_cli(capsys, *args, "--sparse", "psi")
        assert code == 1 and out == ""
        assert err == "error: --sparse psi needs --psi (log, loglog or sqrt_log)\n"
        code, out, _ = run_cli(capsys, *args, "--sparse", "psi", "--psi", "log")
        assert code == 0
        assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == [
            3, 5, 11, 17, 37, 67, 131, 257,
        ]

    def test_point_too_large_for_a_float(self, capsys, seq_file):
        code, out, err = run_cli(
            capsys, "ergodic", "--seq", seq_file, "--x", "1e400", "--y", "0.5",
            "--primes-up-to", "300",
        )
        assert code == 1 and out == ""
        assert err == "error: '1e400' is too large for a float\n"


class TestReproducibility:
    def test_identical_runs_bytewise(self, capsys):
        args = ["sievelab", "--x", "2", "--y", "100", "--c", "1/4", "--mc", "30",
                "--seed", "7", "--exact"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_thread_env_does_not_change_bytes(self, capsys, monkeypatch):
        args = ["sievelab", "--x", "2", "--y", "100", "--c", "1/4",
                "--mc", "24", "--seed", "9"]
        monkeypatch.setenv("PRIMECOVER_THREADS", "1")
        _, serial, _ = run_cli(capsys, *args)
        monkeypatch.setenv("PRIMECOVER_THREADS", "4")
        _, threaded, _ = run_cli(capsys, *args)
        assert serial == threaded

    def test_seq_files_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(capsys, "seq", "build", "--method", "random", "--bound", "100",
                    "--c", "1/4", "--seed", "11", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


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
      "--out", "o.json"), "--seed needs --method random or blocks"),
    (("seq", "build", "--method", "constant", "--bound", "100", "--c", "1/2",
      "--seed", "1729", "--out", "o.json"), "--seed needs --method random or blocks"),
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
    (("sievelab", "--seq", "missing.json", "--x", "1", "--y", "10", "--out", "o.json"),
     "sequence file not found"),
    (("coverage", "--seq", "S", "--x", "10", "--y", "1"), "need X < Y, got X=10, Y=1"),
    (("hits", "--seq", "S", "--bound", "100", "--out", "o.json"),
     "give exactly one of --x or --x-named"),
    (("hits", "--seq", "S", "--x", "1/3", "--x-named", "sqrt2", "--bound", "100",
      "--out", "o.json"), "give exactly one of --x or --x-named"),
    (("hits", "--seq", "S", "--x-named", "sqrt2", "--eta", "0", "--bound", "100",
      "--out", "o.json"), "eta must be > 0"),
    (("hits", "--seq", "S", "--x", "1/3", "--bound", "1", "--out", "o.json"),
     "bound must be >= 2"),
    (("hits", "--seq", "S", "--x", "1/3", "--bound", "1000", "--out", "o.json"),
     "sequence has no entry for prime 211"),
    (("hits", "--seq", "S", "--x", "abc", "--bound", "100"), "cannot parse rational from 'abc'"),
    (("fracparts", "--x", "1/2", "--c", "1/4", "--bound", "1", "--out", "o.json"),
     "bound must be >= 2"),
    (("fracparts", "--x-named", "golden", "--eta", "-1", "--c", "1/4", "--bound", "100",
      "--out", "o.json"), "eta must be > 0"),
    # c is converted before eta
    (("fracparts", "--x", "1/2", "--c", "3/4", "--eta", "0", "--bound", "100",
      "--out", "o.json"), "c must be in (0,1/2]"),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", "1",
      "--out", "o.csv"), "sieve bound must be >= 2, got 1"),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", "1000",
      "--out", "o.csv"), "sequence has no entry for prime 211"),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", "200",
      "--sparse", "geometric", "--psi", "log", "--out", "o.csv"), "--psi needs --sparse psi"),
    (("ergodic", "--seq", "S", "--x", "0.3", "--y", "0.5", "--primes-up-to", "200",
      "--psi", "log", "--out", "o.csv"), "--psi needs --sparse psi"),
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

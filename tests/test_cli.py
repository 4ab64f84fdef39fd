import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import couplingkit
from couplingkit import TransportProblem, cli, distributions, solve_transport, vdist_halfsum
from couplingkit.cli import Config, build_parser, main
from couplingkit.multidim import Coupling4
from couplingkit.jsonio import coupling_to_obj, dump_json, load_coupling_matrix
from couplingkit.rational import parse_rational
from couplingkit.tables import generate_fixtures

from . import argv_table
from .test_jsonio import dense_rows

F = Fraction

RAMP = {"alphabet": ["1", "2", "3", "4"], "p": ["0.1", "0.2", "0.3", "0.4"]}
UNIFORM4 = {"alphabet": ["1", "2", "3", "4"], "p": ["1/4", "1/4", "1/4", "1/4"]}
DIAG3 = {
    "alphabet": ["1", "2", "3"],
    "matrix": [["1/3", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/3"]],
}
BAND3 = {
    "alphabet": ["1", "2", "3"],
    "matrix": [["1/9", "2/9", "0"], ["1/9", "1/9", "1/9"], ["0", "1/9", "2/9"]],
}


def random_marginal(rng: random.Random, n: int) -> dict:
    """A one-dim distribution file of small integer weights over their sum, zeros included."""
    weights = [rng.randint(0, 3) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    return {"alphabet": [str(i) for i in range(n)], "p": [f"{w}/{sum(weights)}" for w in weights]}


# Tied symbols, P = Q, a two-dim pair, and random pairs with zeros.
SMALL_PAIRS = [(RAMP, UNIFORM4), (RAMP, RAMP), (DIAG3, BAND3)] + [
    (random_marginal(rng, n), random_marginal(rng, n)) for rng in [random.Random(1519)] for n in range(1, 7)
]


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def ramp_file(files):
    return files("ramp.json", RAMP)


@pytest.fixture
def uniform_file(files):
    return files("uniform.json", UNIFORM4)


class TestVdist:
    def test_one_dim(self, capsys, ramp_file, uniform_file):
        assert main(["vdist", ramp_file, uniform_file]) == 0
        assert capsys.readouterr().out.strip() == "1/5 (0.20000)"

    def test_identical_files(self, capsys, ramp_file):
        assert main(["vdist", ramp_file, ramp_file]) == 0
        assert capsys.readouterr().out.strip() == "0 (0.00000)"

    def test_two_dim(self, capsys, files):
        p = files("d.json", DIAG3)
        q = files("b.json", BAND3)
        assert main(["vdist", p, q]) == 0
        assert capsys.readouterr().out.strip() == "5/9 (0.55556)"

    def test_json_format(self, capsys, ramp_file, uniform_file):
        assert main(["vdist", "--format", "json", ramp_file, uniform_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"v": "1/5", "decimal": "0.20000"}

    def test_precision_flag(self, capsys, ramp_file, uniform_file):
        assert main(["vdist", "--precision", "2", ramp_file, uniform_file]) == 0
        assert capsys.readouterr().out.strip() == "1/5 (0.20)"

    def test_unknown_format_exits_2_with_usage(self, capsys, ramp_file, uniform_file):
        with pytest.raises(SystemExit) as exc:
            main(["vdist", "--format", "xml", ramp_file, uniform_file])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "invalid choice: 'xml'" in err

    def test_precision_zero_exits_2(self, capsys, ramp_file, uniform_file):
        assert main(["vdist", "--precision", "0", ramp_file, uniform_file]) == 2
        assert capsys.readouterr().err == "error: precision must be >= 1\n"

    def test_precision_bound_is_exact(self, capsys, ramp_file, uniform_file):
        assert main(["vdist", "--precision", "4300", ramp_file, uniform_file]) == 0
        assert capsys.readouterr().out.startswith("1/5 (0.2000")
        assert main(["vdist", "--precision", "4301", ramp_file, uniform_file]) == 2
        assert capsys.readouterr().err == "error: precision must be <= 4300\n"

    def test_parse_failure_exits_2(self, tmp_path, ramp_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert main(["vdist", ramp_file, str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alphabet,message",
        [
            ([1, "b"], "{path}: 'alphabet' must be a list of strings"),
            ([["a"], "b"], "{path}: 'alphabet' must be a list of strings"),
            (["a", "a", 1], "{path}: 'alphabet' must be a list of strings"),
            ("ab", "{path}: 'alphabet' must be a list of strings"),
            ([], "alphabet must contain at least one symbol"),
            (["a", "b", "a"], "alphabet symbols must be pairwise distinct"),
        ],
    )
    def test_bad_alphabet_exits_2_with_its_message(self, files, capsys, alphabet, message):
        bad = files("bad.json", {"alphabet": alphabet, "p": ["1"]})
        assert main(["vdist", bad, bad]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(path=bad)}\n")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_a_syntax_error_is_placed_as_in_text_mode(self, tmp_path, ramp_file, capsys, newline):
        # "\r\n" and a lone "\r" count as one newline each, so the line and column match an "\n" file
        bad = tmp_path / "bad.json"
        bad.write_bytes('{\n  "alphabet": ["1", "2"],\n  "p": ["1/2" "1/2"]\n}\n'.replace("\n", newline).encode())
        assert main(["vdist", ramp_file, str(bad)]) == 2
        message = "is not valid JSON: Expecting ',' delimiter: line 3 column 15 (char 42)"
        assert capsys.readouterr() == ("", f"error: {bad} {message}\n")
        good = tmp_path / "good.json"
        good.write_bytes(json.dumps(RAMP, indent=2).replace("\n", newline).encode())
        assert main(["vdist", ramp_file, str(good)]) == 0
        assert capsys.readouterr().out == "0 (0.00000)\n"

    def test_invalid_distribution_exits_2(self, files, ramp_file, capsys):
        bad = files("bad.json", {"alphabet": ["1", "2"], "p": ["1/2", "1/3"]})
        assert main(["vdist", ramp_file, bad]) == 2

    def test_alphabet_mismatch_exits_3(self, files, ramp_file):
        other = files(
            "other.json", {"alphabet": ["a", "b"], "p": ["1/2", "1/2"]}
        )
        assert main(["vdist", ramp_file, other]) == 3

    def test_mixed_dimensions_exit_3(self, files, ramp_file):
        q = files("b.json", BAND3)
        assert main(["vdist", ramp_file, q]) == 3


class TestCouple:
    def test_maximal_matches_golden_fixture(self, tmp_path, capsys, ramp_file, uniform_file):
        out = tmp_path / "cmax.json"
        assert main(["couple", ramp_file, uniform_file, "--kind", "maximal", "--out", str(out)]) == 0
        _, parsed = load_coupling_matrix(out)
        rows = tuple(tuple(F(*x) for x in row) for row in dense_rows(parsed, 4))
        golden = json.loads(generate_fixtures()["ramp_uniform_maximal.json"])
        expected = tuple(
            tuple(parse_rational(v) for v in row) for row in golden["matrix"]
        )
        assert rows == expected
        printed = capsys.readouterr().out
        assert "maximal (v = mismatch): true" in printed

    def test_independent_summary(self, tmp_path, capsys, ramp_file, uniform_file):
        out = tmp_path / "cind.json"
        assert main(["couple", ramp_file, uniform_file, "--kind", "independent", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "mismatch: 3/4 (0.75000)" in printed
        assert "maximal (v = mismatch): false" in printed

    def test_equal_inputs_give_diagonal(self, tmp_path, ramp_file):
        out = tmp_path / "diag.json"
        assert main(["couple", ramp_file, ramp_file, "--kind", "maximal", "--out", str(out)]) == 0
        _, rows = load_coupling_matrix(out)
        assert [list(columns) for columns, _ in rows] == [[0], [1], [2], [3]]

    def test_stdout_payload_without_out(self, capsys, ramp_file, uniform_file):
        assert main(["couple", ramp_file, uniform_file, "--kind", "maximal"]) == 0
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert obj["matrix"][3][0] == "9/80"
        assert "v: 1/5" in captured.err

    @pytest.mark.parametrize("kind", ["maximal", "independent"])
    def test_two_dim_couple(self, tmp_path, capsys, files, kind):
        p = files("d.json", DIAG3)
        q = files("b.json", BAND3)
        golden = generate_fixtures()[f"diag_band_{kind}.json"]
        out = tmp_path / "c4.json"
        assert main(["couple", p, q, "--kind", kind, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == golden
        summary = capsys.readouterr().out
        assert "pair mismatch: " in summary and "coordinate mismatch: " in summary
        assert main(["couple", p, q, "--kind", kind]) == 0
        captured = capsys.readouterr()
        assert captured.out == golden
        assert captured.err == summary

    @pytest.mark.parametrize("dim", ["one", "two"])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_json_format_prints_the_summary_as_one_object(self, tmp_path, capsys, files, dim, to_file):
        # The summary is verify's JSON report less "valid", on the stream the
        # table lines take: stdout beside --out, stderr beside the payload.
        p, q = (files("p.json", RAMP), files("q.json", UNIFORM4)) if dim == "one" else (
            files("d.json", DIAG3), files("b.json", BAND3))
        table = tmp_path / "table.json"
        assert main(["couple", p, q, "--kind", "maximal", "--out", str(table)]) == 0
        capsys.readouterr()
        assert main(["verify", str(table), p, q, "--format", "json"]) == 0
        expected = json.loads(capsys.readouterr().out)
        del expected["valid"]
        assert ("pairMismatch" in expected) is (dim == "two")

        out = tmp_path / "c.json"
        argv = ["couple", p, q, "--kind", "maximal", "--format", "json"]
        assert main(argv + (["--out", str(out)] if to_file else [])) == 0
        captured = capsys.readouterr()
        payload, summary = (out.read_text(encoding="utf-8"), captured.out) if to_file else (
            captured.out, captured.err)
        assert payload == table.read_text(encoding="utf-8")
        assert summary == json.dumps(expected, indent=2) + "\n"
        assert captured.err == ("" if to_file else summary)

    @pytest.mark.parametrize("kind", ["maximal", "independent"])
    def test_builds_no_fraction_per_cell(self, tmp_path, capsys, monkeypatch, files, kind):
        pairs = [(files("p.json", RAMP), files("q.json", UNIFORM4)), (files("d.json", DIAG3), files("b.json", BAND3))]
        out = tmp_path / "c.json"
        runs = [["couple", p, q, "--kind", kind, *extra] for p, q in pairs for extra in ([], ["--out", str(out)])]
        expected = []
        for argv in runs:
            assert main(argv) == 0
            expected.append((capsys.readouterr(), out.read_bytes() if "--out" in argv else None))

        def no_fractions(self):
            raise AssertionError("Coupling.j read on the couple path")

        monkeypatch.setattr(cli.Coupling, "j", property(no_fractions))
        for argv, before in zip(runs, expected):
            assert main(argv) == 0
            assert (capsys.readouterr(), out.read_bytes() if "--out" in argv else None) == before


class TestVerify:
    def test_generic_coupling_file(self, tmp_path, capsys, ramp_file, uniform_file):
        fx = tmp_path / "generic.json"
        fx.write_text(generate_fixtures()["ramp_uniform_generic.json"], encoding="utf-8")
        assert main(["verify", str(fx), ramp_file, uniform_file]) == 0
        printed = capsys.readouterr().out
        assert "valid: true" in printed
        assert "mismatch: 19/40 (0.47500)" in printed
        assert "maximal (v = mismatch): false" in printed

    def test_corrupted_matrix_exits_4(self, tmp_path, capsys, ramp_file, uniform_file):
        obj = json.loads(generate_fixtures()["ramp_uniform_generic.json"])
        obj["matrix"][0][0] = "0.06350"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["verify", str(bad), ramp_file, uniform_file]) == 4
        assert "invalid coupling" in capsys.readouterr().err

    def test_constrained_blocks_file(self, tmp_path, capsys, files):
        p = files("d.json", DIAG3)
        q = files("b.json", BAND3)
        fx = tmp_path / "constrained.json"
        fx.write_text(generate_fixtures()["diag_band_constrained.json"], encoding="utf-8")
        assert main(["verify", str(fx), p, q]) == 0
        printed = capsys.readouterr().out
        assert "pair mismatch: 5/9 (0.55556)" in printed
        assert "coordinate mismatch: 5/9 (0.55556)" in printed

    @pytest.mark.parametrize("junk,message", [
        (lambda blocks: blocks.update({"(zz,zz)": {}}), "unexpected block '(zz,zz)'"),
        (lambda blocks: blocks["(2,3)"].update({"extra": ["5", "5", "5"]}),
         "block '(2,3)' has unexpected column 'extra'"),
    ])
    def test_blocks_file_with_extra_keys_exits_2(self, tmp_path, capsys, files, junk, message):
        obj = json.loads(generate_fixtures()["diag_band_maximal.json"])
        junk(obj["blocks"])
        fx = tmp_path / "junk.json"
        fx.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["verify", str(fx), files("d.json", DIAG3), files("b.json", BAND3)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {fx}: {message}\n"

    @pytest.mark.parametrize("fixture,dim", [("ramp_uniform_generic.json", 1), ("diag_band_constrained.json", 2)])
    def test_coupling_file_is_read_once(self, tmp_path, monkeypatch, files, fixture, dim):
        p, q = (files("p.json", RAMP), files("q.json", UNIFORM4)) if dim == 1 else (
            files("p.json", DIAG3), files("q.json", BAND3))
        fx = tmp_path / fixture
        fx.write_text(generate_fixtures()[fixture], encoding="utf-8")
        reads = []
        read_bytes = Path.read_bytes

        def counting_read_bytes(self):
            reads.append(self)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        assert main(["verify", str(fx), p, q]) == 0
        assert reads.count(fx) == 1

    def test_coupling_file_errors_come_before_marginal_errors(self, tmp_path, files, capsys):
        bad_coupling = tmp_path / "c.json"
        bad_coupling.write_text("{oops", encoding="utf-8")
        bad_p = files("p.json", {"alphabet": ["1", "2"], "p": ["1/2", "1/3"]})
        assert main(["verify", str(bad_coupling), bad_p, bad_p]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad_coupling} is not valid JSON")

    @pytest.mark.parametrize("kind", ["matrix", "blocks"])
    def test_dimension_mismatch_comes_before_coupling_entries(self, tmp_path, files, capsys, kind):
        # A coupling file with a malformed entry against marginals of the other dimension.
        if kind == "matrix":
            obj = json.loads(generate_fixtures()["ramp_uniform_generic.json"])
            obj["matrix"][0][0] = "abc"
            marginals, needed = (files("d.json", DIAG3), files("b.json", BAND3)), "one-dim"
        else:
            obj = json.loads(generate_fixtures()["diag_band_constrained.json"])
            obj["blocks"]["(1,1)"]["1"][0] = "abc"
            marginals, needed = (files("p.json", RAMP), files("q.json", UNIFORM4)), "two-dim"
        fx = tmp_path / "c.json"
        fx.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["verify", str(fx), *marginals]) == 3
        assert capsys.readouterr().err == f"error: a {kind} coupling file needs {needed} marginal files\n"

    def test_wrong_alphabet_exits_3(self, tmp_path, files, ramp_file, uniform_file):
        obj = json.loads(generate_fixtures()["ramp_uniform_generic.json"])
        obj["alphabet"] = ["a", "b", "c", "d"]
        fx = tmp_path / "alien.json"
        fx.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["verify", str(fx), ramp_file, uniform_file]) == 3


class TestOracle:
    def test_one_dim(self, capsys, ramp_file, uniform_file):
        assert main(["oracle", ramp_file, uniform_file]) == 0
        printed = capsys.readouterr().out
        assert "objective: 1/5 (0.20000)" in printed
        assert "certified: true" in printed
        assert "agreement: true" in printed

    def test_two_dim_flattens(self, capsys, files):
        p = files("d.json", DIAG3)
        q = files("b.json", BAND3)
        assert main(["oracle", p, q]) == 0
        assert "objective: 5/9 (0.55556)" in capsys.readouterr().out

    def test_out_file_carries_coupling_and_certificate(self, tmp_path, ramp_file, uniform_file):
        out = tmp_path / "opt.json"
        assert main(["oracle", ramp_file, uniform_file, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["certificate"]["objective"] == "1/5"
        assert len(obj["coupling"]["matrix"]) == 4
        u = [parse_rational(x) for x in obj["certificate"]["u"]]
        v = [parse_rational(x) for x in obj["certificate"]["v"]]
        ramp = [F(1, 10), F(1, 5), F(3, 10), F(2, 5)]
        dual = sum(ui * si for ui, si in zip(u, ramp)) + sum(vj * F(1, 4) for vj in v)
        assert dual == F(1, 5)

    def test_json_format(self, capsys, ramp_file, uniform_file):
        assert main(["oracle", "--format", "json", ramp_file, uniform_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["objective"] == "1/5" and obj["v"] == "1/5"
        assert obj["certified"] is True and obj["agreement"] is True
        # without --out the solution itself rides along in the JSON payload
        assert obj["certificate"]["objective"] == "1/5"
        assert len(obj["coupling"]["matrix"]) == 4

    @pytest.mark.parametrize("left, right", SMALL_PAIRS)
    def test_json_format_writes_the_dumped_dicts_bytes(self, capsys, files, left, right):
        # The payload is written from the coupling's rows; the reference
        # dumps the dict of the whole dense coupling.
        paths = [files("p.json", left), files("q.json", right)]
        p, q = cli._one_dim(*cli._load_pair(*paths))
        coupling, certificate, _ = solve_transport(TransportProblem.mismatch(p, q))
        expected = dump_json({
            "objective": str(certificate.objective), "v": str(vdist_halfsum(p, q)),
            "certified": True, "agreement": True,
            "coupling": coupling_to_obj(coupling), "certificate": certificate.to_json_dict(),
        })
        assert main(["oracle", "--format", "json", *paths]) == 0
        assert capsys.readouterr().out == expected

    # Every symbol ties when P = Q, and the pair labels (1,3) and (3,1) tie
    # at zero for diag/band: the simplex's tie-breaks decide these files.
    @pytest.mark.parametrize(
        "left, right, objective, digest, u",
        [
            (RAMP, RAMP, "0 (0.00000)",
             "bf08f43e1ccd572576dc735ecbc49cabb2b1b401e54890e7632abc5f26ae14d1",
             ["0", "-1", "-1", "-1"]),
            (DIAG3, BAND3, "5/9 (0.55556)",
             "825f2456a0e79014912fed19bc720e2205df5e2eec2b7e71a2b4245bd0d11b74",
             ["0", "-1", "0", "-1", "0", "-1", "0", "-1", "0"]),
        ],
        ids=["ramp-ramp", "diag-band"],
    )
    def test_tied_symbols_write_stable_bytes(self, tmp_path, capsys, files, left, right, objective, digest, u):
        out = tmp_path / "opt.json"
        assert main(["oracle", files("p.json", left), files("q.json", right), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"objective: {objective}\nv: {objective}\ncertified: true\nagreement: true\n"
        )
        certificate = json.loads(out.read_text())["certificate"]
        assert certificate["u"] == u
        assert certificate["v"] == [str(-F(x)) for x in u]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_without_out_at_n4096_peaks_under_20_mb(self, files, capsys):
        # The 0/1 problem is solved and certified in O(N): any N x N structure
        # at this size (16.8M cells) would take well over 100 MB.
        n = 4096
        rng = random.Random(4096)
        weights = [rng.getrandbits(16) + 1 for _ in range(n)]
        symbols = [str(i) for i in range(n)]
        p = files("p.json", {"alphabet": symbols, "p": [f"{w}/{sum(weights)}" for w in weights]})
        q = files("q.json", {"alphabet": symbols, "p": [f"1/{n}"] * n})
        tracemalloc.start()
        try:
            assert main(["oracle", p, q]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "\ncertified: true\nagreement: true\n" in capsys.readouterr().out
        assert peak < 20_000_000

    def test_json_format_with_out_keeps_payload_slim(self, tmp_path, capsys, ramp_file, uniform_file):
        out = tmp_path / "opt.json"
        assert main(["oracle", "--format", "json", ramp_file, uniform_file, "--out", str(out)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "coupling" not in obj and "certificate" not in obj


class TestAudit:
    def test_uniform_key(self, capsys, files):
        pk = files("pk.json", {"alphabet": ["1", "2", "3", "4"], "p": ["1/4"] * 4})
        assert main(["audit", pk]) == 0
        printed = capsys.readouterr().out
        assert "mismatch, independent:   3/4 (0.75000)" in printed

    def test_ramp_key_with_epsilon(self, capsys, ramp_file):
        assert main(["audit", ramp_file, "--epsilon", "1/4"]) == 0
        printed = capsys.readouterr().out
        assert "v(P_K, P_U):             1/5 (0.20000)" in printed
        assert "consistent (v <= epsilon): True" in printed

    def test_epsilon_below_v_exits_5(self, capsys, ramp_file):
        assert main(["audit", ramp_file, "--epsilon", "0.1"]) == 5
        assert "warning" in capsys.readouterr().err

    def test_point_mass_key(self, capsys, files):
        pk = files("pk.json", {"alphabet": ["1", "2"], "p": ["1", "0"]})
        assert main(["audit", pk]) == 0
        printed = capsys.readouterr().out
        assert "cannot serve as a secret key" in printed

    def test_json_format(self, capsys, ramp_file):
        assert main(["audit", "--format", "json", ramp_file, "--epsilon", "1/4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["v"] == "1/5"
        assert obj["verdictFacts"]["independentStrictGap"] is True

    def test_two_dim_key_rejected(self, files):
        pk = files("pk2.json", DIAG3)
        assert main(["audit", pk]) == 2


class TestBoundary:
    """Hostile inputs end in a documented exit code and a short message, never a traceback."""

    @staticmethod
    def couple_huge_values(files, kind: str, *extra: str) -> subprocess.CompletedProcess:
        # 2201-digit denominators parse, but the coupling's entries have
        # about 4400 digits, past the default int-to-str limit of 4300
        d1, d2 = 10**2200 + 7, 10**2200 + 9
        p = files("p.json", {"alphabet": ["a", "b"], "p": [f"1/{d1}", f"{d1 - 1}/{d1}"]})
        q = files("q.json", {"alphabet": ["a", "b"], "p": [f"1/{d2}", f"{d2 - 1}/{d2}"]})
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(couplingkit.__file__).parents[1]),
            PYTHONINTMAXSTRDIGITS="4300",
        )
        return subprocess.run(
            [sys.executable, "-m", "couplingkit.cli", "couple", p, q, "--kind", kind, *extra],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_huge_values_exit_2_without_traceback(self, files):
        done = self.couple_huge_values(files, "independent")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("kind", ["independent", "maximal"])
    def test_huge_values_leave_an_existing_out_file_unchanged(self, tmp_path, files, kind):
        out = tmp_path / "c.json"
        out.write_bytes(b'{"kept": true}\n')
        done = self.couple_huge_values(files, kind, "--out", str(out))
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert out.read_bytes() == b'{"kept": true}\n'

    def test_huge_exponent_exits_2_without_building_the_power(self, files):
        # Without the exponent bound Fraction would build 10**999999999 and hang.
        pk = files("pk.json", {"alphabet": ["1", "2"], "p": ["1e-999999999", "1"]})
        env = dict(os.environ, PYTHONPATH=str(Path(couplingkit.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "couplingkit.cli", "audit", pk],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "has an exponent over 4300 in magnitude" in done.stderr

    def test_huge_precision_exits_2_before_reading_any_file(self, tmp_path):
        # Without the bound, decimal_string would build 10**1000000000 and
        # then fail at the int-to-str limit; the key file does not exist.
        env = dict(os.environ, PYTHONPATH=str(Path(couplingkit.__file__).parents[1]))
        missing = str(tmp_path / "missing.json")
        done = subprocess.run(
            [sys.executable, "-m", "couplingkit.cli", "audit", missing, "--precision", "1000000000"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 2
        assert done.stderr == "error: precision must be <= 4300\n"

    def test_oversize_coupling_total_exits_4_with_its_constraint(self, files, capsys):
        # 256 distinct 64-bit denominators: every literal is short, but the
        # entries' total has a 4486-digit denominator, past the int-to-str
        # limit, so the message gives its bit length instead of its digits
        n = 16
        symbols = [str(i) for i in range(n)]
        entries = [f"1/{2**63 + 2 * k + 1}" for k in range(n * n)]
        bad = files("bad.json", {"alphabet": symbols, "matrix": [entries[i * n : (i + 1) * n] for i in range(n)]})
        u = files("u.json", {"alphabet": symbols, "p": [f"1/{n}"] * n})
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["verify", bad, u, u]) == 4
        finally:
            sys.set_int_max_str_digits(limit)
        err = capsys.readouterr().err
        assert err == (
            "error: invalid coupling (total_mass): probabilities sum to "
            "<a rational over a 14900-bit denominator>, expected 1\n"
        )

    def test_oracle_disagreement_past_the_limit_exits_1_with_its_message(
        self, files, capsys, monkeypatch, default_digit_limit
    ):
        # Every literal is under 4300 digits; v, over 3**6000 * 5**4000, is not
        a, b = 3**6000, 5**4000
        p = files("p.json", {"alphabet": ["1", "2"], "p": [f"1/{a}", f"{a - 1}/{a}"]})
        q = files("q.json", {"alphabet": ["1", "2"], "p": [f"1/{b}", f"{b - 1}/{b}"]})
        monkeypatch.setattr(cli, "certify_mismatch_coupling", lambda *args: False)
        assert main(["oracle", p, q]) == 1
        bits = (a * b).bit_length()
        assert capsys.readouterr().err == (
            f"internal error: oracle disagreement: objective <a rational over a {bits}-bit denominator>, "
            f"v <a rational over a {bits}-bit denominator>, certified False\n"
        )

    def test_epsilon_past_the_digit_limit_exits_2_with_its_constraint(self, capsys, ramp_file, default_digit_limit):
        # -1e-4300 parses exactly, but its 4301-digit denominator is past the int-to-str limit
        assert main(["audit", ramp_file, "--epsilon=-1e-4300"]) == 2
        bits = (10**4300).bit_length()
        assert capsys.readouterr().err == (
            f"error: epsilon must lie in [0, 1], got <a rational over a {bits}-bit denominator>\n"
        )

    def test_long_literal_is_quoted_briefly(self, files, capsys):
        pk = files("pk.json", {"alphabet": ["1", "2"], "p": ["1" * 5000, "0"]})
        assert main(["audit", pk]) == 2
        err = capsys.readouterr().err
        assert "is too long (over 4300 digits)" in err and "5000 characters" in err
        assert len(err) < 200


class TestUnwritableOut:
    """A failed write to --out exits 2 with one error line and prints nothing else."""

    def test_couple_out_is_a_directory(self, tmp_path, capsys, ramp_file, uniform_file):
        assert main(["couple", ramp_file, uniform_file, "--kind", "maximal", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_oracle_out_under_a_missing_directory(self, tmp_path, capsys, ramp_file, uniform_file):
        out = tmp_path / "missing" / "x.json"
        assert main(["oracle", ramp_file, uniform_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not out.parent.exists()


class TestValidationWork:
    """Each two-dim command validates each input once, through its flat form."""

    @pytest.mark.parametrize("command", ["vdist", "couple", "verify", "oracle"])
    def test_two_dim_commands_build_two_product_alphabets(self, tmp_path, monkeypatch, files, command):
        p, q = files("d.json", DIAG3), files("b.json", BAND3)
        fx = tmp_path / "c.json"
        fx.write_text(generate_fixtures()["diag_band_maximal.json"], encoding="utf-8")
        argv = {
            "vdist": ["vdist", p, q],
            "couple": ["couple", p, q, "--kind", "maximal", "--out", str(tmp_path / "out.json")],
            "verify": ["verify", str(fx), p, q],
            "oracle": ["oracle", p, q],
        }[command]
        calls = {"product": 0, "pmf": 0}
        product, pmf_init = distributions.Alphabet.product, distributions.Pmf.__init__

        def counting_product(self):
            calls["product"] += 1
            return product(self)

        def counting_pmf_init(self, *args, **kwargs):
            calls["pmf"] += 1
            pmf_init(self, *args, **kwargs)

        monkeypatch.setattr(distributions.Alphabet, "product", counting_product)
        monkeypatch.setattr(distributions.Pmf, "__init__", counting_pmf_init)
        assert main(argv) == 0
        assert calls == {"product": 2, "pmf": 2}

    @pytest.mark.parametrize("command", ["vdist", "couple", "verify", "oracle"])
    def test_two_dim_alphabet_mismatch_names_the_two_dim_alphabets(self, tmp_path, files, capsys, command):
        p = files("d.json", DIAG3)
        q = files("b.json", {**BAND3, "alphabet": ["a", "b", "c"]})
        fx = tmp_path / "c.json"
        fx.write_text(generate_fixtures()["diag_band_maximal.json"], encoding="utf-8")
        argv = {
            "vdist": ["vdist", p, q],
            "couple": ["couple", p, q, "--kind", "maximal"],
            "verify": ["verify", str(fx), p, q],
            "oracle": ["oracle", p, q],
        }[command]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: distributions are defined on different alphabets: "
            "('1', '2', '3') vs ('a', 'b', 'c')\n"
        )


class TestParserReuse:
    """main() reuses one parser; every call must print what a fresh parser prints."""

    @staticmethod
    def run(capsys, argv, fresh=False):
        if fresh:
            build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_consecutive_calls_match_fresh_parsers(self, tmp_path, capsys, ramp_file, uniform_file):
        out = str(tmp_path / "c.json")
        sequence = [
            ["vdist", "--format", "json", "--precision", "3", ramp_file, uniform_file],
            ["vdist", ramp_file, uniform_file],
            ["couple", ramp_file, uniform_file, "--kind", "maximal", "--out", out],
            ["couple", ramp_file, uniform_file, "--kind", "independent"],
            ["verify", out, ramp_file, uniform_file, "--format", "json"],
            ["verify", out, ramp_file, uniform_file],
            ["oracle", ramp_file, uniform_file, "--precision", "2"],
            ["oracle", ramp_file, uniform_file],
            ["audit", ramp_file, "--epsilon", "1/10"],
            ["audit", ramp_file],
            ["couple", ramp_file, uniform_file],
            ["vdist", ramp_file, uniform_file],
        ]
        assert build_parser() is build_parser()
        reused = [self.run(capsys, argv) for argv in sequence]
        fresh = [self.run(capsys, argv, fresh=True) for argv in sequence]
        assert reused == fresh
        assert reused[-2][0] == ("exit", 2)

    def test_usage_error_leaks_no_state(self, capsys, ramp_file, uniform_file):
        before = self.run(capsys, ["vdist", ramp_file, uniform_file])
        code, out, err = self.run(
            capsys, ["vdist", "--format", "json", "--precision", "x", ramp_file, uniform_file]
        )
        assert code == ("exit", 2) and out == ""
        assert "invalid int value: 'x'" in err
        assert self.run(capsys, ["vdist", ramp_file, uniform_file]) == before
        assert before == (0, "1/5 (0.20000)\n", "")


class TestOnePassParsing:
    """A command's argv is parsed by its subparser alone, with what the full parser gives."""

    def test_every_argv_shape_matches_the_full_parser(self, tmp_path):
        p, q = argv_table.write_inputs(tmp_path)
        assert len(argv_table.shapes(p, q)) >= 25
        assert argv_table.differences(tmp_path) == []

    def test_extras_and_missing_arguments_keep_their_errors(self, tmp_path):
        p, _ = argv_table.write_inputs(tmp_path)
        for how in ("argv", "sys.argv"):
            code, out, err, _ = argv_table.outcome(how, ["audit", p, "extra"])
            assert (code, out) == (("exit", 2), "")
            assert err.endswith("\ncouplingkit: error: unrecognized arguments: extra\n")
            code, out, err, _ = argv_table.outcome(how, ["audit"])
            assert (code, out) == (("exit", 2), "")
            assert err.endswith("\ncouplingkit audit: error: the following arguments are required: pk_file\n")

    def test_a_command_skips_the_full_parser(self, monkeypatch, tmp_path, capsys):
        p, q = argv_table.write_inputs(tmp_path)

        def full(*args, **kwargs):
            raise AssertionError("the full parser ran on a well-formed command")

        monkeypatch.setattr(build_parser(), "parse_args", full)
        assert main(["vdist", p, q, "--format", "json"]) == 0
        assert main(["audit", p]) == 0
        assert cli._parse(["audit", p]).command == "audit"
        capsys.readouterr()


class TestPublicNames:
    def test_removed_aliases_stay_removed(self):
        for name in ("coupling_validate", "Rational", "format_rational", "UnbalancedProblemError"):
            assert name not in couplingkit.__all__
            assert not hasattr(couplingkit, name)
        assert not hasattr(Coupling4, "flatten")

    def test_every_exported_name_resolves(self):
        for name in couplingkit.__all__:
            assert hasattr(couplingkit, name), name

    def test_config_holds_only_output_options(self):
        assert [f.name for f in dataclasses.fields(Config)] == ["format", "precision"]


class TestTables:
    def test_create_and_confirm(self, tmp_path, capsys):
        fixtures = str(tmp_path / "fx")
        assert main(["tables", "--fixtures", fixtures]) == 0
        assert "created" in capsys.readouterr().out
        assert main(["tables", "--fixtures", fixtures]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 6

    def test_repeated_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["tables", "--fixtures", str(a)]) == 0
        assert main(["tables", "--fixtures", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert len(names) == 6
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_tampered_fixture_exits_6(self, tmp_path, capsys):
        fixtures = tmp_path / "fx"
        assert main(["tables", "--fixtures", str(fixtures)]) == 0
        capsys.readouterr()
        target = fixtures / "diag_band_maximal.json"
        obj = json.loads(target.read_text())
        obj["blocks"]["(1,1)"]["1"][1] = "1/45"
        target.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        assert main(["tables", "--fixtures", str(fixtures)]) == 6
        out = capsys.readouterr().out
        assert "mismatch" in out
        assert "(1,1)" in out and "4/45" in out

    def test_env_var_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COUPLINGKIT_FIXTURES", str(tmp_path / "envfx"))
        assert main(["tables"]) == 0
        assert (tmp_path / "envfx" / "ramp_uniform_maximal.json").exists()

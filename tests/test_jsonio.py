import json
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from couplingkit import (
    Alphabet,
    Coupling,
    DistributionError,
    ParseError,
    Pmf,
    Pmf2,
    coupling_independent,
    coupling_maximal,
    jsonio,
)
from couplingkit.cli import main
from couplingkit.jsonio import (
    coupling4_to_obj,
    coupling_json,
    coupling_to_obj,
    decimal_renderer,
    detect_coupling_kind,
    dump_json,
    load_coupling4_blocks,
    load_coupling_matrix,
    load_distribution,
    load_pmf,
    parse_coupling4_blocks,
    parse_coupling_matrix,
    parse_distribution,
)
from couplingkit.multidim import Coupling4, coupling4_maximal

F = Fraction


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestDistributionFiles:
    def test_pmf_round_trip(self, tmp_path, ramp):
        path = write(tmp_path, "p.json", {"alphabet": list(ramp.alphabet), "p": list(map(str, ramp.p))})
        loaded = load_distribution(path)
        assert isinstance(loaded, Pmf) and loaded.p == ramp.p

    def test_decimal_strings_parse_exactly(self, tmp_path):
        path = write(
            tmp_path,
            "p.json",
            {"alphabet": ["1", "2", "3", "4"], "p": ["0.1", "0.2", "0.3", "0.4"]},
        )
        loaded = load_pmf(path)
        assert loaded.p == (F(1, 10), F(1, 5), F(3, 10), F(2, 5))

    def test_pmf2_round_trip(self, tmp_path, band3):
        matrix = [[str(v) for v in row] for row in band3.p]
        path = write(tmp_path, "q2.json", {"alphabet": list(band3.alphabet), "matrix": matrix})
        loaded = load_distribution(path)
        assert isinstance(loaded, Pmf2) and loaded.p == band3.p

    def test_ambiguous_shape_rejected(self):
        with pytest.raises(ParseError, match="ambiguous"):
            parse_distribution({"alphabet": ["1"], "p": ["1"], "matrix": [["1"]]})

    def test_missing_shape_rejected(self):
        with pytest.raises(ParseError, match="neither"):
            parse_distribution({"alphabet": ["1"]})

    def test_bad_alphabet(self):
        with pytest.raises(ParseError, match="alphabet"):
            parse_distribution({"alphabet": "abc", "p": ["1"]})

    def test_bad_row_length(self):
        with pytest.raises(ParseError):
            parse_distribution({"alphabet": ["1", "2"], "p": ["1"]})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="not valid JSON"):
            load_distribution(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_distribution(tmp_path / "absent.json")

    def test_load_pmf_rejects_matrix_file(self, tmp_path, band3):
        matrix = [[str(v) for v in row] for row in band3.p]
        path = write(tmp_path, "q2.json", {"alphabet": list(band3.alphabet), "matrix": matrix})
        with pytest.raises(ParseError, match="one-dim"):
            load_pmf(path)


def dense_rows(rows, width: int) -> list[list[tuple[int, int]]]:
    """Parsed (columns, pairs) rows with every unlisted cell filled in as ``(0, 1)``."""
    dense = []
    for columns, pairs in rows:
        row = [(0, 1)] * width
        for column, pair in zip(columns, pairs):
            row[column] = pair
        dense.append(row)
    return dense


class TestCouplingFiles:
    def test_matrix_round_trip(self, tmp_path, ramp, uniform4):
        c = coupling_maximal(ramp, uniform4)
        path = write(tmp_path, "c.json", coupling_to_obj(c))
        alphabet, rows = load_coupling_matrix(path)
        assert alphabet == ramp.alphabet and Coupling.over(rows, ramp, uniform4) == c

    def test_decimal_render(self, ramp, uniform4):
        c = coupling_maximal(ramp, uniform4)
        obj = coupling_to_obj(c, decimal_renderer(5))
        assert obj["matrix"][2][0] == "0.03750"
        assert obj["matrix"][3][0] == "0.11250"

    def test_blocks_round_trip(self, tmp_path, diag3, band3):
        c4 = coupling4_maximal(diag3, band3)
        path = write(tmp_path, "c4.json", coupling4_to_obj(c4))
        alphabet, rows = load_coupling4_blocks(path)
        rebuilt = Coupling4(Coupling.over(rows, diag3.flatten(), band3.flatten()), diag3, band3)
        assert alphabet == diag3.alphabet and rebuilt.flat.j == c4.flat.j

    def test_blocks_layout_mirrors_tables(self, diag3, band3):
        obj = coupling4_to_obj(coupling4_maximal(diag3, band3))
        assert list(obj["blocks"].keys())[:3] == ["(1,1)", "(1,2)", "(1,3)"]
        assert obj["blocks"]["(1,1)"]["1"] == ["1/9", "4/45", "0"]
        assert obj["blocks"]["(1,1)"]["2"] == ["2/45", "0", "2/45"]

    def test_missing_block_rejected(self, diag3, band3):
        obj = coupling4_to_obj(coupling4_maximal(diag3, band3))
        del obj["blocks"]["(2,3)"]
        with pytest.raises(ParseError, match="missing block"):
            parse_coupling4_blocks(obj)

    def test_missing_column_rejected(self, diag3, band3):
        obj = coupling4_to_obj(coupling4_maximal(diag3, band3))
        del obj["blocks"]["(1,1)"]["2"]
        with pytest.raises(ParseError, match="missing column"):
            parse_coupling4_blocks(obj)

    def test_extra_block_rejected(self, diag3, band3):
        obj = coupling4_to_obj(coupling4_maximal(diag3, band3))
        obj["blocks"]["(zz,zz)"] = {"1": ["x"]}
        obj["blocks"]["(yy,yy)"] = {}
        with pytest.raises(ParseError, match=r"^coupling4: unexpected block '\(zz,zz\)'$"):
            parse_coupling4_blocks(obj)

    def test_extra_column_rejected(self, diag3, band3):
        obj = coupling4_to_obj(coupling4_maximal(diag3, band3))
        obj["blocks"]["(1,2)"]["extra"] = ["5", "5", "5"]
        with pytest.raises(ParseError, match=r"^coupling4: block '\(1,2\)' has unexpected column 'extra'$"):
            parse_coupling4_blocks(obj)

    def test_missing_key_reported_before_extra_one(self, diag3, band3):
        obj = coupling4_to_obj(coupling4_maximal(diag3, band3))
        obj["blocks"]["(1,1)"]["extra"] = ["0", "0", "0"]
        obj["blocks"]["(1,1)"]["4"] = obj["blocks"]["(1,1)"].pop("3")
        with pytest.raises(ParseError, match="block '\\(1,1\\)' missing column '3'"):
            parse_coupling4_blocks(obj)

    def test_detect_kind(self, tmp_path, ramp, uniform4, diag3, band3):
        m = write(tmp_path, "m.json", coupling_to_obj(coupling_maximal(ramp, uniform4)))
        b = write(tmp_path, "b.json", coupling4_to_obj(coupling4_maximal(diag3, band3)))
        assert detect_coupling_kind(m) == "matrix"
        assert detect_coupling_kind(b) == "blocks"
        neither = write(tmp_path, "n.json", {"alphabet": ["1"]})
        with pytest.raises(ParseError):
            detect_coupling_kind(neither)


class TestLiteralsParsedOnce:
    @pytest.fixture
    def parsed(self, monkeypatch):
        """The literals handed to ``parse_rational`` (distributions) or ``parse_ratio`` (couplings), in call order."""
        calls = []

        def recording(parse):
            def record(text, *cache):
                calls.append(text)
                return parse(text, *cache)

            return record

        for name in ("parse_rational", "parse_ratio"):
            monkeypatch.setattr(jsonio, name, recording(getattr(jsonio, name)))
        return calls

    def test_repeated_literals_parse_once_to_equal_values(self, parsed, diag3, band3):
        pmf = parse_distribution({"alphabet": ["a", "b", "c", "d"], "p": ["1/4"] * 4})
        assert pmf.p == (F(1, 4),) * 4
        assert parsed == ["1/4"]
        parsed.clear()
        obj = coupling4_to_obj(coupling4_maximal(diag3, band3))
        literals = [x for block in obj["blocks"].values() for column in block.values() for x in column]
        _, rows = parse_coupling4_blocks(obj)
        assert [F(*x) for row in dense_rows(rows, 9) for x in row] == [F(x) for x in literals]
        # "0" is recognised with no parser call; every other literal is parsed once, in file order
        assert "0" in literals
        assert parsed == list(dict.fromkeys(x for x in literals if x != "0"))

    def test_first_bad_literal_is_reported_though_it_repeats(self, parsed):
        # "x" recurs after "1/0"; parsing each distinct literal up front could report either
        obj = {"alphabet": ["1", "2"], "matrix": [["0", "x"], ["1/0", "x"]]}
        with pytest.raises(ParseError, match="malformed rational literal 'x'"):
            parse_coupling_matrix(obj)
        assert parsed == ["x"]

    @pytest.mark.parametrize("bad", [["1/2"], {"1": "1/2"}, 1, None])
    def test_non_string_literal_exits_2(self, tmp_path, capsys, bad):
        coupling = write(tmp_path, "c.json", {"alphabet": ["1", "2"], "matrix": [["1/2", bad], ["0", "1/2"]]})
        marginal = write(tmp_path, "p.json", {"alphabet": ["1", "2"], "p": ["1/2", "1/2"]})
        assert main(["verify", str(coupling), str(marginal), str(marginal)]) == 2
        expected = f"error: rational literal must be a string, got {type(bad).__name__}\n"
        assert capsys.readouterr().err == expected


class TestDumpDeterminism:
    def test_dump_is_stable(self, ramp):
        def obj():
            return {"alphabet": list(ramp.alphabet), "p": [str(v) for v in ramp.p]}

        assert dump_json(obj()) == dump_json(obj())
        assert dump_json(obj()).endswith("\n")


# Symbols JSON escapes: quotes, backslashes, control and non-ASCII characters.
SYMBOLS = st.text(st.sampled_from('a1,()"\\/\x00\n\t\x1f\x7f é☃\U0001f600'), max_size=3)


@st.composite
def couplings_to_write(draw):
    """A coupling of any N >= 1, two-dim or not, with cells over one or many denominators.

    The cells are the gaps between sorted cut points in [0, 1], so equal
    points give zero cells and N = 1 gives the one cell "1".  The cut
    points are k/101 (one shared denominator) or a/b for random b (many).
    Or the cells are weights on a few random cells, on the diagonal
    (P = Q) or on one cell (point masses), so rows and two-dim blocks
    may list nothing and whole two-dim columns may be zero.  The
    coupling is built from Fractions, from unreduced pairs (every cell
    listed, or only the non-zero ones), or by a builder on its marginals.
    """
    symbols = draw(st.lists(SYMBOLS, min_size=1, max_size=3, unique=True))
    two_dim = draw(st.booleans())
    alphabet = Alphabet(symbols)
    if two_dim:
        try:
            cells_alphabet = alphabet.product()
        except DistributionError:
            assume(False)
    else:
        cells_alphabet = alphabet
    n = len(cells_alphabet)
    shape = draw(st.sampled_from(["cuts", "sparse", "diagonal", "point"]))
    if shape == "cuts":
        if draw(st.booleans()):
            points = [F(k, 101) for k in draw(st.lists(st.integers(0, 101), min_size=n * n - 1, max_size=n * n - 1))]
        else:
            points = [F(a, b) for b, a in draw(st.lists(
                st.integers(1, 10**6).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b))),
                min_size=n * n - 1, max_size=n * n - 1))]
        cuts = [F(0), *sorted(points), F(1)]
        cells = [b - a for a, b in zip(cuts, cuts[1:])]
    else:
        weights = st.integers(1, 10**6)
        if shape == "point":
            support = {draw(st.integers(0, n * n - 1)): 1}
        elif shape == "diagonal":
            support = {i * (n + 1): draw(weights) for i in draw(st.sets(st.integers(0, n - 1), min_size=1))}
        else:
            support = draw(st.dictionaries(st.integers(0, n * n - 1), weights, min_size=1, max_size=n + 2))
        total = sum(support.values())
        cells = [F(support.get(k, 0), total) for k in range(n * n)]
    j = [cells[i * n:(i + 1) * n] for i in range(n)]
    left = Pmf(cells_alphabet, [sum(row) for row in j])
    right = Pmf(cells_alphabet, [sum(column) for column in zip(*j)])
    source = draw(st.sampled_from(["fractions", "pairs", "maximal", "independent"]))
    if source == "fractions":
        c = Coupling(j, left, right)
    elif source == "pairs":
        k = draw(st.integers(1, 6))
        every = draw(st.booleans())
        c = Coupling.over([([b for b, x in enumerate(row) if every or x],
                            [(k * x.numerator, k * x.denominator) for x in row if every or x]) for row in j], left, right)
    else:
        c = (coupling_maximal if source == "maximal" else coupling_independent)(left, right)
    if two_dim:
        def pmf2(pmf):
            return Pmf2(alphabet, [pmf.p[i:i + len(symbols)] for i in range(0, n, len(symbols))])

        return Coupling4(c, pmf2(left), pmf2(right))
    return c


class TestCouplingWriter:
    @settings(max_examples=200, deadline=None)
    @given(c=couplings_to_write(), potentials=st.lists(st.fractions(), min_size=1, max_size=4))
    def test_writes_the_dumped_layouts_byte_for_byte(self, c, potentials):
        if isinstance(c, Coupling4):
            assert coupling_json(c) == dump_json(coupling4_to_obj(c))
            return
        assert coupling_json(c) == dump_json(coupling_to_obj(c))
        certificate = {"u": list(map(str, potentials)), "v": list(map(str, potentials[::-1])),
                       "objective": str(sum(potentials))}
        solution = {"coupling": coupling_to_obj(c), "certificate": certificate}
        assert coupling_json(c, certificate) == dump_json(solution)

    def test_escaped_symbols_and_integer_cells(self):
        half = Pmf(Alphabet(['"', "\\"]), [F(1, 2), F(1, 2)])
        text = coupling_json(coupling_maximal(half, half))
        assert text == dump_json(coupling_to_obj(coupling_maximal(half, half)))
        assert '"\\""' in text and '"\\\\"' in text and '"0"' in text
        point = Pmf(Alphabet(["é"]), [F(1)])
        assert coupling_json(coupling_independent(point, point)) == (
            '{\n  "alphabet": [\n    "\\u00e9"\n  ],\n  "matrix": [\n    [\n      "1"\n    ]\n  ]\n}\n')


# A bad cell and the error its parse raises.
BAD_CELLS = [
    ("x", "malformed rational literal 'x'"),
    ("1/0", "zero denominator in rational literal '1/0'"),
    (None, "rational literal must be a string, got NoneType"),
    (7, "rational literal must be a string, got int"),
    (["0"], "rational literal must be a string, got list"),
]


class TestZeroCells:
    @settings(max_examples=200, deadline=None)
    @given(c=couplings_to_write(), data=st.data())
    def test_zero_cells_read_as_every_other_cell(self, c, data):
        # TestCouplingWriter holds the writer to the dumped layouts on the same couplings.
        if isinstance(c, Coupling4):
            obj, parse = coupling4_to_obj(c), parse_coupling4_blocks
            symbols = obj["alphabet"]
            size = len(symbols)
            cells = [[x for y1 in symbols for x in block[y1]] for block in obj["blocks"].values()]

            def plant(r, k, value):
                list(obj["blocks"].values())[r][symbols[k // size]][k % size] = value
        else:
            obj, parse = coupling_to_obj(c), parse_coupling_matrix
            cells = obj["matrix"]

            def plant(r, k, value):
                obj["matrix"][r][k] = value

        _, rows = parse(obj)
        reference = [[(k, F(text)) for k, text in enumerate(row) if text != "0"] for row in cells]
        assert [list(zip(columns, (F(*pair) for pair in pairs))) for columns, pairs in rows] == reference
        assert [isinstance(columns, range) for columns, _ in rows] == ["0" not in row for row in cells]

        # Plant two bad cells after the first zero cell; the earlier one is reported.
        width = len(cells[0])
        places = [divmod(i, width) for i in range(width * width)]
        zeros = [i for i, (r, k) in enumerate(places) if cells[r][k] == "0"]
        assume(zeros and zeros[0] + 2 < len(places))
        first, second = sorted(data.draw(st.lists(
            st.integers(zeros[0] + 1, len(places) - 1), min_size=2, max_size=2, unique=True)))
        (bad, message), (other, _) = data.draw(st.lists(st.sampled_from(BAD_CELLS), min_size=2, max_size=2))
        plant(*places[first], bad)
        plant(*places[second], other)
        with warnings.catch_warnings(), pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            # "0".__ne__ of a non-string cell is NotImplemented, whose truth value warns
            warnings.simplefilter("error", DeprecationWarning)
            parse(obj)


def cell_loop_read_row(row, n, where, literals, parse):
    """``jsonio._read_row`` as a plain loop over every cell, the form it must agree with."""
    if not isinstance(row, list) or len(row) != n:
        raise ParseError(f"{where}: expected a list of {n} rational strings")
    for text in row:
        if text == "0":
            continue
        if not isinstance(text, str):
            parse(text)
        elif text not in literals:
            literals[text] = parse(text)
    return row


# Repeated good literals, "0" and other spellings of zero, bad literals and
# every JSON type that is not a string, a list among them (which no dict can
# key, so such a row is walked cell by cell).
ROW_CELLS = st.one_of(
    st.sampled_from(["0", "0", "1/2", "1/2", "1/3", "2", "0/7", "00", "x", "1/0", "-", "1e9999"]),
    st.integers(min_value=-1, max_value=2),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=False),
    st.lists(st.just("1/2"), max_size=1),
    st.dictionaries(st.just("1"), st.just("1/2"), max_size=1),
)


class TestReadRow:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.lists(ROW_CELLS, min_size=1, max_size=8), min_size=1, max_size=3),
        seeded=st.booleans(),
        parser=st.sampled_from(("rational", "ratio")),
    )
    def test_parses_and_fails_as_the_cell_loop(self, rows, seeded, parser):
        def run(read_row):
            calls = []
            cache = {}
            base = jsonio.parse_rational if parser == "rational" else lambda text: jsonio.parse_ratio(text, cache)

            def parse(text):
                calls.append(text)
                return base(text)

            literals = {"0": F(0)} if seeded else {}
            try:
                for i, row in enumerate(rows):
                    assert read_row(row, len(rows[0]), f"row {i}", literals, parse) is row
            except ParseError as exc:
                return calls, literals, str(exc)
            return calls, literals, None

        with warnings.catch_warnings():
            # "0".__ne__ of a non-string cell is NotImplemented, whose truth value warns
            warnings.simplefilter("error", DeprecationWarning)
            expected, got = run(cell_loop_read_row), run(jsonio._read_row)
        # The calls are compared by type and text: 1 and True are equal, and so are 0.0 and False.
        assert [(type(x), repr(x)) for x in got[0]] == [(type(x), repr(x)) for x in expected[0]]
        assert got[1:] == expected[1:]

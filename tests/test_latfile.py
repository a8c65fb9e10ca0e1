from fractions import Fraction as F

import pytest

from latstab import (
    Lattice,
    ParseError,
    parse_lattice_text,
    parse_rational,
    parse_vector,
    serialize_lattice,
    write_lattice_file,
    parse_lattice_file,
)


class TestRationalTokens:
    def test_plain_and_signed(self):
        assert parse_rational("3") == 3
        assert parse_rational("-3") == -3
        assert parse_rational("+3") == 3
        assert parse_rational("2/4") == F(1, 2)
        assert parse_rational("-7/2") == F(-7, 2)

    # the last five are digits of other scripts or a superscript, which \d
    # or int() would read: only 0-9 are digits here
    @pytest.mark.parametrize("bad", ["1.5", "a", "1/0", "1/-2", "--3", "1 /2", "",
                                     "\u0663", "1/1\u0663", "\u0661/4", "-\uff13", "\u00b2"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)


class TestVector:
    def test_parse(self):
        assert parse_vector("1/2 3 -5/7") == (F(1, 2), F(3), F(-5, 7))

    def test_bad_token_position(self):
        with pytest.raises(ParseError):
            parse_vector("1 x 3")

    def test_non_ascii_digit_position(self):
        with pytest.raises(ParseError) as err:
            parse_vector("1 1/1\u0663")
        assert (err.value.line, err.value.column) == (1, 3)


class TestLatticeText:
    def test_parse_with_comments(self):
        text = "# diagonal\n2 2\n1 0\n# fine row\n0 1/2\n"
        L = parse_lattice_text(text)
        assert L.basis == ((F(1), F(0)), (F(0), F(1, 2)))

    def test_header_counts_enforced(self):
        with pytest.raises(ParseError):
            parse_lattice_text("2 2\n1 0\n")
        with pytest.raises(ParseError):
            parse_lattice_text("2 2\n1 0\n0 1\n1 1\n")

    def test_rank_cannot_exceed_dimension(self):
        with pytest.raises(ParseError):
            parse_lattice_text("1 2\n1\n1\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "3\n"])
    def test_missing_header(self, text):
        with pytest.raises(ParseError, match="missing 'n m' header"):
            parse_lattice_text(text)

    @pytest.mark.parametrize("text, column", [
        ("2 x\n1 0\n0 1\n", 3),
        ("\u00b2 1\n1 0\n", 1),  # passes str.isdigit, which int() then refuses
        ("2 \u0662\n1 0\n0 1\n", 3),
    ])
    def test_header_needs_ascii_integers(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_lattice_text(text)
        assert (err.value.line, err.value.column) == (1, column)
        assert "header needs positive integers" in str(err.value)

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_lattice_text("2 2\n1 0\n0 x\n")
        assert err.value.line == 3

    def test_roundtrip(self):
        L = Lattice(((F(1, 2), F(0)), (F(-3, 7), F(5))))
        assert parse_lattice_text(serialize_lattice(L)).basis == L.basis

    def test_file_roundtrip(self, tmp_path):
        L = Lattice(((F(2), F(1)), (F(0), F(1, 3))))
        path = tmp_path / "basis.txt"
        write_lattice_file(str(path), L)
        assert parse_lattice_file(str(path)).basis == L.basis

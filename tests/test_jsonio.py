"""Input parsing, strict rational handling, canonical serialization."""

import json
import os
import re
from fractions import Fraction

import pytest

from toricres import jsonio
from toricres.jsonio import (
    InputError,
    canonical_json,
    laurent_json,
    load_coeffs_file,
    load_family_file,
    load_json,
    load_laurent,
    load_manifest_file,
    load_nefpart_file,
    load_polytope_file,
    load_polytopes_file,
    load_system_file,
    parse_rational,
    rat_str,
    series_json,
    weights_from_points,
)
from toricres.laurent import monomial
from toricres.mirror import P3XP3, WpsFamily
from toricres.polytope import check_nef_partition
from toricres.series import TruncatedSeries

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_rat_str():
    assert rat_str(5) == "5"
    assert rat_str(Fraction(1, 3)) == "1/3"
    assert rat_str(Fraction(-2, 4)) == "-1/2"
    assert rat_str(Fraction(7)) == "7"


def test_parse_rational():
    assert parse_rational(3, "x") == Fraction(3)
    assert parse_rational("-7/2", "x") == Fraction(-7, 2)
    assert parse_rational("4", "x") == Fraction(4)
    with pytest.raises(InputError):
        parse_rational(True, "x")
    with pytest.raises(InputError):
        parse_rational("abc", "x")
    with pytest.raises(InputError):
        parse_rational([1], "x")


def test_load_json_rejects_floats(tmp_path):
    path = write(tmp_path, "f.json", '{"coeffs": [0.5]}')
    with pytest.raises(InputError) as e:
        load_json(path)
    assert "0.5" in str(e.value)
    assert "f.json" in str(e.value)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_load_json_rejects_nonfinite_constants(tmp_path, constant):
    # json hands these to parse_constant, not parse_float
    path = write(tmp_path, "c.json", f'{{"coeffs": [1, {constant}]}}')
    with pytest.raises(InputError, match=constant):
        load_coeffs_file(path)
    path = write(tmp_path, "m.json",
                 '{"cases": [{"name": "x", "argv": ["a"],'
                 f' "golden": {{"a": {constant}}}}}]}}')
    with pytest.raises(InputError, match=constant):
        load_manifest_file(path)


def test_load_json_syntax_error_position(tmp_path):
    path = write(tmp_path, "bad.json", '{"dim": 2,\n  "points": [[1, }')
    with pytest.raises(InputError) as e:
        load_json(path)
    assert "line 2" in str(e.value)
    assert "column" in str(e.value)


def test_load_json_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_json(str(tmp_path / "nope.json"))


def test_load_json_directory(tmp_path):
    with pytest.raises(InputError):
        load_json(str(tmp_path))


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_load_polytope_file():
    poly = load_polytope_file(f"{FIX}/square.json")
    assert poly.ambient_dim == 2
    assert poly.normalized_volume() == 8


def test_load_polytope_missing_key(tmp_path):
    path = write(tmp_path, "p.json", '{"points": [[0, 0]]}')
    with pytest.raises(InputError):
        load_polytope_file(path)


def test_string_integers_are_rejected(tmp_path):
    # a string is iterable, so "10" must not load as the point (1, 0)
    loads = [
        (load_polytope_file,
         '{"dim": 2, "points": ["10", "01", ["-1", "-1"]]}'),
        (lambda path: load_laurent(path, path),
         '{"dim": 2, "terms": [{"exp": ["1", 0], "coef": 1}]}'),
        (load_family_file,
         '{"dims": ["4", 1], "matrix": [[4, 1], [0, 2]]}'),
        (load_polytopes_file, '{"dim": 1, "polytopes": [[["0"], [3]]]}'),
        (load_polytopes_file, '{"dim": 1, "polytopes": [[[true], [3]]]}'),
    ]
    for i, (load, text) in enumerate(loads):
        path = write(tmp_path, f"s{i}.json", text)
        with pytest.raises(InputError, match=f"s{i}.json"):
            load(path)


def test_load_nefpart_file():
    dim, parts = load_nefpart_file(f"{FIX}/p2split.json")
    assert dim == 2
    assert len(parts) == 2
    assert parts[0] == [(1, 0)]


def test_load_laurent_and_roundtrip(tmp_path):
    path = write(tmp_path, "l.json",
                 '{"dim": 2, "terms": ['
                 '{"exp": [1, 0], "coef": "1/2"},'
                 '{"exp": [-1, 2], "coef": 3}]}')
    f = load_laurent(path, path)
    assert f.coefficient((1, 0)) == Fraction(1, 2)
    assert f.coefficient((-1, 2)) == 3
    back = laurent_json(f)
    assert back["terms"][0] == {"exp": [-1, 2], "coef": "3"}


def test_load_laurent_repeated_exponent(tmp_path):
    path = write(tmp_path, "l.json",
                 '{"dim": 1, "terms": ['
                 '{"exp": [1], "coef": 1}, {"exp": [1], "coef": 2}]}')
    with pytest.raises(InputError):
        load_laurent(path, path)


def test_load_laurent_wrong_length(tmp_path):
    path = write(tmp_path, "l.json",
                 '{"dim": 2, "terms": [{"exp": [1], "coef": 1}]}')
    with pytest.raises(InputError):
        load_laurent(path, path)


def test_load_system_file():
    dim, fs = load_system_file(f"{FIX}/pentagon_system.json")
    assert dim == 2
    assert len(fs) == 2
    assert fs[0].coefficient((1, 0)) == Fraction(-1, 3)


def test_load_coeffs_file():
    coeffs = load_coeffs_file(f"{FIX}/a.json", 3)
    assert coeffs == [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
    with pytest.raises(InputError):
        load_coeffs_file(f"{FIX}/a.json", 4)


def test_weights_from_points():
    pts = [(1, 0), (-1, -1), (0, 1)]
    assert weights_from_points(pts, "x") == (1, 1, 1)
    # quadric pencil on the line: kernel rank 2
    with pytest.raises(InputError):
        weights_from_points([(1,), (-1,), (2,), (-2,)], "x")
    # the one relation, (1, 1, -1) up to sign, has entries of both signs
    with pytest.raises(InputError, match="relation .* is not positive"):
        weights_from_points([(1, 0), (0, 1), (1, 1)], "x")


def test_weights_from_points_weighted():
    # fan points of a weighted projective line blown into the plane
    pts = [(1, 0), (0, 1), (-1, -2)]
    w = weights_from_points(pts, "x")
    for j in range(2):
        assert sum(wi * p[j] for wi, p in zip(w, pts)) == 0
    assert w == (1, 2, 1)


def test_load_family_file_product():
    fam = load_family_file(f"{FIX}/p3xp3.json")
    assert fam.dims == (3, 3)
    assert fam == P3XP3


def test_load_family_file_weights():
    fam = load_family_file(f"{FIX}/quintic.json")
    assert fam.weights == (1, 1, 1, 1, 1)
    assert fam.parts == ((0, 1, 2, 3, 4),)


def test_load_family_file_nefpart_style():
    fam = load_family_file(f"{FIX}/p2split.json")
    assert fam.weights == (1, 1, 1)
    assert fam.parts == ((0,), (1, 2))


@pytest.mark.parametrize("text", [
    '{"weights": [1, 1, 1, 1, 1], "parts": [[0, 1, 2, 3, 4]]}',
    '{"dims": [4], "matrix": [[5]]}',
    '{"dim": 4, "parts": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
    '[0, 0, 0, 1], [-1, -1, -1, -1]]]}',
], ids=["weights", "matrix", "nef-style"])
def test_every_spelling_loads_the_same_family(tmp_path, text):
    # the loader returns the family alone; no caller learns the spelling
    fam = load_family_file(write(tmp_path, "f.json", text))
    assert fam == WpsFamily((1, 1, 1, 1, 1), [(0, 1, 2, 3, 4)])


def test_nef_style_family_file_is_parsed_once(monkeypatch):
    calls = []

    def counted(path):
        calls.append(path)
        return load_json(path)

    monkeypatch.setattr(jsonio, "load_json", counted)
    assert load_family_file(f"{FIX}/p2split.json").parts == ((0,), (1, 2))
    assert len(calls) == 1
    # the path form of the nef-partition loader still reads its file
    assert load_nefpart_file(f"{FIX}/p2split.json")[0] == 2
    assert len(calls) == 2


@pytest.mark.parametrize("points, index", [
    ([(2, -1), (-1, -1), (-1, 2)], 3),
    ([(1, 0), (-1, 2), (0, -2)], 2),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 2), (-2, -2, -2)], 2),
    ([(1, 0), (-1, 0)], "infinite"),
])
def test_weights_from_points_refuses_a_proper_sublattice(points, index):
    # each has the relation (1,...,1) but spans an index-m sublattice: a
    # fake projective space P^d/Z_m, not P^d (the last spans only a line)
    with pytest.raises(InputError, match=f"sublattice of index {index},"):
        weights_from_points(points, "x")


def test_nef_style_family_file_refuses_a_fake_weighted_space(tmp_path):
    # P^2/Z_3: a valid nef partition of Cayley volume 9, relation (1,1,1),
    # whose points span an index-3 sublattice; it is not the family P^2
    text = '{"dim": 2, "parts": [[[2, -1], [-1, -1], [-1, 2]]]}'
    path = write(tmp_path, "f.json", text)
    dim, parts = load_nefpart_file(path)
    assert check_nef_partition(parts, dim).delta.normalized_volume() == 9
    with pytest.raises(InputError, match="sublattice of index 3"):
        load_family_file(path)


def test_load_family_file_bad(tmp_path):
    path = write(tmp_path, "f.json", '{"foo": 1}')
    with pytest.raises(InputError):
        load_family_file(path)
    # nefpart-style but not a valid decomposition
    path = write(tmp_path, "g.json", '{"dim": 2, "parts": [[[2, 0]]]}')
    with pytest.raises(InputError):
        load_family_file(path)


@pytest.mark.parametrize("text", [
    '{"weights": [1, 1, 1, 1, 1], "parts": [[0, 1, 2, 3, 4]], "scale": 5}',
    '{"dim": 2, "parts": [[[1, 0]], [[0, 1], [-1, -1]]], "scale": 5}',
    '{"dims": [4], "matrix": [[5]], "scale": 5}',
], ids=["weights", "nef-style", "matrix"])
def test_family_file_refuses_unknown_keys(tmp_path, text):
    # every spelling refuses a key outside its own, as the matrix one did
    path = write(tmp_path, "f.json", text)
    with pytest.raises(InputError, match="unknown key 'scale'"):
        load_family_file(path)


@pytest.mark.parametrize("load, text, message", [
    (load_nefpart_file, '{"dim": 2, "parts": []}', "empty parts list"),
    (load_system_file,
     '{"dim": 2, "polys": [{"dim": 1, "terms": [{"exp": [1], "coef": 1}]}]}',
     "poly 0: dimension != 2"),
    (load_polytope_file, '{"dim": 2, "points": [[0, 0], [1]]}',
     "point [1] does not have 2 coordinates"),
])
def test_load_refuses_malformed_input(tmp_path, load, text, message):
    path = write(tmp_path, "bad.json", text)
    with pytest.raises(InputError, match=re.escape(message)):
        load(path)


def test_load_manifest_file():
    cases = load_manifest_file(f"{FIX}/manifest.json")
    assert len(cases) >= 10
    assert all(c["name"] and isinstance(c["argv"], list) for c in cases)


def test_load_manifest_rejects_bad_case(tmp_path):
    path = write(tmp_path, "m.json",
                 '{"cases": [{"name": "x", "argv": [1]}]}')
    with pytest.raises(InputError):
        load_manifest_file(path)
    path = write(tmp_path, "m2.json",
                 '{"cases": [{"name": "x", "argv": ["a"],'
                 ' "expect_exit": true}]}')
    with pytest.raises(InputError):
        load_manifest_file(path)


def test_series_json():
    s = TruncatedSeries(2, 2, {(0, 0): 1, (1, 1): Fraction(1, 2)})
    out = series_json(s)
    assert out == {"vars": 2, "order": 2,
                   "coeffs": [{"exp": [0, 0], "value": "1"},
                              {"exp": [1, 1], "value": "1/2"}]}
    with pytest.raises(TypeError):
        series_json(monomial(1, (0,)))


def test_manifest_goldens_are_float_free():
    cases = load_manifest_file(f"{FIX}/manifest.json")
    seen = 0
    for case in cases:
        if case["golden"] is not None:
            seen += 1
            assert not any(
                isinstance(v, float) for v in _walk(case["golden"]))
            json.loads(canonical_json(case["golden"]))
    assert seen >= 5


def _walk(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _walk(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk(v)
    else:
        yield obj

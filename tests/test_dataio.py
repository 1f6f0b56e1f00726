import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbu import (
    BinaryTask,
    Dataset,
    FormatError,
    ParameterError,
    apply_standardizer,
    encode_categoricals,
    fit_standardizer,
    parse_csv,
    parse_keel,
    serialize_csv,
    serialize_keel,
    split_binary,
)
from rbu.baselines import ResampleOutcome
from rbu.cli import rebuild_dataset
from rbu.dataio import FeatureMeta

from oracles import (
    naive_keel_rows,
    naive_parse_csv,
    naive_read_rows,
    naive_serialize_csv,
    naive_serialize_keel,
)

KEEL_TOY = """\
@relation toy
@attribute x real [0.0, 10.0]
@attribute y real
@attribute class {positive, negative}
@inputs x, y
@outputs class
@data
1.0, 2.0, positive
3.5, 4.25, negative
5.0, 0.5, negative
"""


class TestParseKeel:
    def test_basic_structure(self):
        ds = parse_keel(KEEL_TOY)
        assert ds.n == 3 and ds.m == 2
        assert [m.name for m in ds.feature_meta] == ["x", "y"]
        assert ds.label_name == "class"
        assert list(ds.labels) == ["positive", "negative", "negative"]
        np.testing.assert_allclose(ds.features[1], [3.5, 4.25])

    def test_range_metadata_kept(self):
        ds = parse_keel(KEEL_TOY)
        assert ds.feature_meta[0].range == (0.0, 10.0)
        assert ds.feature_meta[1].range is None

    def test_arity_mismatch_names_line(self):
        bad = KEEL_TOY + "1.0, 2.0, 3.0, positive\n"
        with pytest.raises(FormatError, match="line 11"):
            parse_keel(bad)

    def test_unknown_categorical_value(self):
        bad = KEEL_TOY.replace("5.0, 0.5, negative", "5.0, 0.5, maybe")
        with pytest.raises(FormatError, match="maybe"):
            parse_keel(bad)

    def test_missing_data_section(self):
        header_only = "\n".join(KEEL_TOY.splitlines()[:5])
        with pytest.raises(FormatError, match="@data"):
            parse_keel(header_only)

    @pytest.mark.parametrize("bounds", ["[a, b]", "[0.0, ten]", "[1.0]", "[0, 1, 2]"])
    def test_malformed_numeric_range_names_line(self, bounds):
        bad = KEEL_TOY.replace("[0.0, 10.0]", bounds)
        with pytest.raises(FormatError, match="line 2: malformed numeric range"):
            parse_keel(bad)

    @pytest.mark.parametrize("bounds", ["[10.0, 0.0]", "[nan, 1]", "[0, nan]", "[inf, -inf]",
                                        "[-inf, 1]", "[0, 1e999]"])
    def test_reversed_or_non_finite_range_names_line(self, bounds):
        bad = KEEL_TOY.replace("[0.0, 10.0]", bounds)
        with pytest.raises(FormatError, match=r"line 2: numeric range .* must be finite"):
            parse_keel(bad)

    def test_range_is_metadata_not_a_cell_check(self):
        # A cell outside its declared range is read, and the range is written
        # back as declared.
        text = KEEL_TOY.replace("[0.0, 10.0]", "[0, 1]").replace("3.5, 4.25", "5, 4.25")
        ds = parse_keel(text)
        assert ds.features[1, 0] == 5.0
        assert ds.feature_meta[0].range == (0.0, 1.0)
        again = parse_keel(serialize_keel(ds))
        assert again.feature_meta[0].range == (0.0, 1.0)
        np.testing.assert_array_equal(again.features, ds.features)

    def test_single_point_range_kept(self):
        ds = parse_keel(KEEL_TOY.replace("[0.0, 10.0]", "[2.5, 2.5]"))
        assert ds.feature_meta[0].range == (2.5, 2.5)

    def test_malformed_attribute(self):
        bad = KEEL_TOY.replace("@attribute y real", "@attribute y widget")
        with pytest.raises(FormatError, match="line 3"):
            parse_keel(bad)

    def test_missing_values_rejected(self):
        bad = KEEL_TOY.replace("3.5, 4.25, negative", "?, 4.25, negative")
        with pytest.raises(FormatError, match="missing value"):
            parse_keel(bad)

    def test_outputs_can_name_a_middle_attribute(self):
        text = (
            "@relation t\n"
            "@attribute a real\n"
            "@attribute cls {u, v}\n"
            "@attribute b real\n"
            "@outputs cls\n"
            "@data\n"
            "1, u, 2\n"
            "3, v, 4\n"
        )
        ds = parse_keel(text)
        assert [m.name for m in ds.feature_meta] == ["a", "b"]
        assert list(ds.labels) == ["u", "v"]
        np.testing.assert_allclose(ds.features.astype(float), [[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1, purple, p, inf", "unknown categorical value 'purple' for attribute 'color'"),
            ("1, red, maybe, inf", "unknown categorical value 'maybe' for attribute 'cls'"),
            ("inf, purple, maybe, 2", "non-finite value 'inf'"),
            ("?, red, maybe, 2", "missing value '?' is not supported"),
        ],
        ids=["feature-value", "label", "non-finite", "missing-number"],
    )
    def test_first_bad_cell_of_a_row_is_reported(self, row, message):
        text = (
            "@relation t\n"
            "@attribute x real\n"
            "@attribute color {red, blue}\n"
            "@attribute cls {p, n}\n"
            "@attribute y real\n"
            "@outputs cls\n"
            "@data\n"
            "1, red, p, 2\n"
            f"{row}\n"
        )
        with pytest.raises(FormatError, match=f"^line 9: {re.escape(message)}$"):
            parse_keel(text)

    def test_categorical_feature_and_comments(self):
        text = (
            "@relation t\n"
            "% a comment\n"
            "@attribute color {red, blue}\n"
            "@attribute cls {p, n}\n"
            "@data\n"
            "red, p\n"
            "\n"
            "blue, n\n"
        )
        ds = parse_keel(text)
        assert ds.n == 2
        assert not ds.is_encoded
        assert ds.feature_meta[0].allowed == ("red", "blue")


class TestParseCsv:
    def test_basic(self):
        ds = parse_csv("x,y,class\n1,2,a\n3,4,b\n5,6,a\n")
        assert ds.n == 3 and ds.m == 2
        assert ds.label_name == "class"

    def test_header_only_is_an_error(self):
        with pytest.raises(FormatError, match="no data rows"):
            parse_csv("x,y,class\n")

    def test_string_column_becomes_categorical(self):
        ds = parse_csv("x,c,class\n1,a,p\n2,b,p\n3,a,n\n")
        assert ds.feature_meta[1].kind == "categorical"
        encoded = encode_categoricals(ds)
        assert encoded.feature_meta[1].categories == {"a": 0, "b": 1}

    def test_ragged_row_names_line(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_csv("x,y,class\n1,2,a\n1,2\n")

    def test_label_column_by_name_and_index(self):
        text = "cls,x,y\np,1,2\nn,3,4\n"
        by_name = parse_csv(text, label_column="cls")
        by_index = parse_csv(text, label_column=0)
        assert list(by_name.labels) == list(by_index.labels) == ["p", "n"]
        assert [m.name for m in by_name.feature_meta] == ["x", "y"]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("?,inf,n", "missing value '?' is not supported"),
            ("a,nan,?", "non-finite value 'nan'"),
        ],
        ids=["missing-category", "non-finite"],
    )
    def test_first_bad_cell_of_a_row_is_reported(self, row, message):
        with pytest.raises(FormatError, match=f"^line 3: {re.escape(message)}$"):
            parse_csv(f"c,x,y,class\nb,1,2,p\n{row},?\n")

    def test_missing_label_column(self):
        with pytest.raises(ParameterError, match="not found"):
            parse_csv("x,y\n1,2\n", label_column="class")


class TestEncode:
    def test_first_occurrence_coding(self):
        ds = parse_csv("c,class\nred,p\nblue,p\nred,n\n")
        encoded = encode_categoricals(ds)
        np.testing.assert_allclose(encoded.features[:, 0], [0.0, 1.0, 0.0])

    def test_numeric_dataset_unchanged(self):
        ds = parse_csv("x,y,class\n1,2,a\n3,4,b\n")
        assert encode_categoricals(ds) is ds

    def test_independent_code_spaces(self):
        ds = parse_csv("a,b,class\nx,q,p\ny,r,p\nx,s,n\n")
        encoded = encode_categoricals(ds)
        assert encoded.feature_meta[0].categories == {"x": 0, "y": 1}
        assert encoded.feature_meta[1].categories == {"q": 0, "r": 1, "s": 2}


class TestStandardizer:
    def test_two_point_feature(self):
        ds = parse_csv("x,class\n0,a\n2,b\n")
        scaler = fit_standardizer(ds)
        assert scaler.mean[0] == 1.0 and scaler.std[0] == 1.0  # population std
        out = apply_standardizer(scaler, ds)
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 1.0])

    def test_constant_feature_passes_through_centered(self):
        ds = parse_csv("x,class\n5,a\n5,b\n5,a\n")
        out = apply_standardizer(fit_standardizer(ds), ds)
        np.testing.assert_allclose(out.features[:, 0], [0.0, 0.0, 0.0])

    def test_fit_on_train_only(self):
        train = parse_csv("x,class\n0,a\n2,b\n")
        test = parse_csv("x,class\n10,a\n12,b\n")
        scaler = fit_standardizer(train)
        out = apply_standardizer(scaler, test)
        assert abs(out.features[:, 0].mean()) > 1.0  # test fold is not re-centered

    def test_dimension_mismatch(self):
        scaler = fit_standardizer(parse_csv("x,class\n1,a\n2,b\n"))
        other = parse_csv("x,y,class\n1,2,a\n3,4,b\n")
        with pytest.raises(ParameterError, match="features"):
            apply_standardizer(scaler, other)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
        ).filter(lambda xs: max(xs) - min(xs) > 1e-6)
    )
    def test_transformed_moments(self, values):
        matrix = np.array(values)[:, None]
        scaler = fit_standardizer(matrix)
        out = scaler.transform(matrix)
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9


class TestSplitBinary:
    def test_auto_picks_smaller_class(self):
        ds = parse_csv("x,class\n1,A\n2,A\n3,A\n4,B\n")
        task = split_binary(ds, "auto")
        assert task.minority_label == "B"
        assert task.n_majority == 3 and task.n_minority == 1
        assert list(task.source_rows[task.n_majority :]) == [3]

    def test_tie_demands_explicit_label(self):
        ds = parse_csv("x,class\n1,A\n2,B\n")
        with pytest.raises(ParameterError, match="explicit"):
            split_binary(ds, "auto")
        task = split_binary(ds, "B")
        assert task.minority_label == "B"

    def test_more_than_two_classes(self):
        ds = parse_csv("x,class\n1,A\n2,B\n3,C\n")
        with pytest.raises(ParameterError, match="2 classes"):
            split_binary(ds)

    def test_explicit_majority_as_minority_rejected(self):
        ds = parse_csv("x,class\n1,A\n2,A\n3,A\n4,B\n")
        with pytest.raises(ParameterError, match="larger"):
            split_binary(ds, "A")

    def test_partition_is_exact(self):
        ds = parse_csv("x,y,class\n1,9,A\n2,8,A\n3,7,B\n4,6,A\n")
        task = split_binary(ds)
        # Majority rows, then minority rows, each in file order.
        assert list(task.source_rows) == [0, 1, 3, 2]
        assert task.points.tobytes() == ds.features[[0, 1, 3, 2]].tobytes()
        assert list(task.labels01) == [0, 0, 0, 1]


class TestBinaryTask:
    def test_points_stack_the_classes(self):
        majority, minority = np.arange(12.0).reshape(4, 3), -np.arange(6.0).reshape(2, 3)
        task = BinaryTask(majority, minority)
        assert task.points.tobytes() == np.vstack([majority, minority]).tobytes()
        assert list(task.labels01) == [0, 0, 0, 0, 1, 1]
        assert (task.n_majority, task.n_minority, task.m) == (4, 2, 3)
        assert task.source_rows is None

    def test_classes_are_views_of_points(self):
        task = BinaryTask(np.ones((3, 2)), np.zeros((2, 2)))
        assert task.majority.base is task.points and task.minority.base is task.points
        np.testing.assert_array_equal(task.majority, np.ones((3, 2)))
        np.testing.assert_array_equal(task.minority, np.zeros((2, 2)))

    def test_inputs_are_copied(self):
        majority, minority = np.ones((3, 2)), np.zeros((2, 2))
        task = BinaryTask(majority, minority)
        assert not np.shares_memory(task.points, majority)
        assert not np.shares_memory(task.points, minority)
        majority[0, 0] = minority[0, 0] = 7.0
        assert 7.0 not in task.points

    def test_stacked_takes_its_array_over(self):
        points = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0], [8.0, 9.0]])
        task = BinaryTask._stacked(points, 3, "pos", "neg")
        assert task.points is points and task.majority.base is points
        assert (task.n_majority, task.n_minority, task.minority_label) == (3, 2, "pos")
        assert task.majority_label == "neg" and task.source_rows is None
        np.testing.assert_array_equal(task.minority, points[3:])

    @pytest.mark.parametrize(
        "majority, minority, message",
        [
            (np.ones(3), np.ones((1, 3)), "2-D"),
            (np.ones((2, 3)), np.ones((1, 3, 1)), "2-D"),
            (np.ones((2, 3)), np.ones((1, 2)), "dimensionality"),
        ],
    )
    def test_mis_shaped_classes_refused(self, majority, minority, message):
        with pytest.raises(ValueError, match=message):
            BinaryTask(majority, minority)


class TestRoundTrip:
    def test_keel_encode_csv_cycle(self):
        text = (
            "@relation t\n"
            "@attribute x real\n"
            "@attribute color {red, blue, green}\n"
            "@attribute cls {p, n}\n"
            "@data\n"
            "0.1234567890123456, red, p\n"
            "7.25, green, n\n"
            "-3.5e-7, red, p\n"
        )
        encoded = encode_categoricals(parse_keel(text))
        recovered = parse_csv(serialize_csv(encoded))
        np.testing.assert_allclose(
            recovered.features, encoded.features, rtol=0, atol=1e-12
        )
        assert list(recovered.labels) == list(encoded.labels)

    def test_csv_categorical_column_survives_keel(self):
        ds = parse_csv("x,colour,class\n1.5,red,p\n2,blue,n\n-3,red,n\n")
        text = serialize_keel(ds)
        assert "@attribute colour {red, blue}" in text
        recovered = parse_keel(text)
        assert recovered.feature_meta[1].allowed == ("red", "blue")
        assert recovered.features.tolist() == ds.features.tolist()
        assert list(recovered.labels) == list(ds.labels)

    @pytest.mark.parametrize(
        "text, column",
        [('x,c,class\n1,"a,b",p\n2,d,n\n', "c"), ('x,c,class\n1,a,p\n2,d,"n,o"\n', "class")],
    )
    def test_keel_refuses_a_value_holding_a_comma(self, text, column):
        with pytest.raises(ParameterError, match=f"column '{column}'"):
            serialize_keel(parse_csv(text))

    @pytest.mark.parametrize(
        "text, column",
        [
            ("my col,class\n1,p\n2,n\n", "my col"),
            ("x,my class\n1,p\n2,n\n", "my class"),
            ('x,"my,class"\n1,p\n2,n\n', "my,class"),
            (",class\n1,p\n2,n\n", ""),
            ("x,x\n1,p\n2,n\n", "x"),
        ],
    )
    def test_keel_refuses_a_name_it_cannot_read_back(self, text, column):
        # Declarations split at whitespace and the output names at commas.
        with pytest.raises(ParameterError, match=f"column name '{column}'"):
            serialize_keel(parse_csv(text))

    def test_keel_feature_name_with_a_comma_survives(self):
        ds = parse_csv('"a,b",class\n1.5,p\n2,n\n')
        recovered = parse_keel(serialize_keel(ds))
        assert [m.name for m in recovered.feature_meta] == ["a,b"]
        assert recovered.label_name == "class"
        assert recovered.features.tolist() == ds.features.tolist()

    def test_keel_declared_values_survive_serialization(self):
        text = (
            "@relation t\n"
            "@attribute colour {red, blue, green}\n"
            "@attribute cls {p, n}\n"
            "@data\n"
            "green, p\n"
            "red, n\n"
        )
        assert "@attribute colour {red, blue, green}" in serialize_keel(parse_keel(text))

    def test_keel_serializer_cycle(self):
        ds = parse_keel(KEEL_TOY)
        recovered = parse_keel(serialize_keel(ds))
        np.testing.assert_allclose(
            recovered.features.astype(float), ds.features.astype(float), atol=0
        )
        assert list(recovered.labels) == list(ds.labels)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(
                    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
                ),
                st.sampled_from(["u", "v"]),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_csv_cycle_is_exact(self, rows):
        text = "x,class\n" + "\n".join("%.17g,%s" % (x, c) for x, c in rows) + "\n"
        ds = parse_csv(text)
        again = parse_csv(serialize_csv(ds))
        np.testing.assert_array_equal(again.features, ds.features)
        assert list(again.labels) == list(ds.labels)

    @pytest.mark.parametrize("bounds", [(0.123456789, 1234567.5), (-0.0, 5e-324),
                                        (0.1, 0.30000000000000004), (-1.7976931348623157e308, 1e300)])
    def test_keel_ranges_round_trip_exactly(self, bounds):
        ds = parse_keel(KEEL_TOY.replace("[0.0, 10.0]", "[%r, %r]" % bounds))
        assert ds.feature_meta[0].range == bounds
        again = parse_keel(serialize_keel(ds))
        assert again.feature_meta == ds.feature_meta
        assert [str(b) for b in again.feature_meta[0].range] == [str(b) for b in bounds]

    def test_keel_ranges_keep_column_names_holding_percent_signs(self):
        names = ["rate%", "a%b", "x%%", "%s"]
        text = "@relation t\n" + "".join(f"@attribute {name} real [0.5, 100]\n" for name in names)
        ds = parse_keel(text + "@attribute class {p, n}\n@data\n1, 2, 3, 4, p\n5, 6, 7, 8, n\n")
        written = serialize_keel(ds)
        assert [line.split()[1] for line in written.splitlines()[1:5]] == names
        assert parse_keel(written).feature_meta == ds.feature_meta

    def test_keel_range_given_as_a_list_is_written(self):
        d = Dataset(np.array([[1.0], [2.0]]), np.array(["p", "n"], dtype=object),
                    (FeatureMeta("x", "numeric", range=[0.5, 2]),))
        assert "@attribute x real [0.5, 2]" in serialize_keel(d)


# ---------------------------------------------------------------------------
# The column-at-a-time reader and writers against per-cell oracles.  These
# tests take their example count from the loaded hypothesis profile (the
# "ci" profile in conftest.py runs ten times more).

NUMBERS = ["0", "1.5", "-3", "1e3", "+4", "-0.0", "2.5e-300", "1.7e308", "1_000", "0.1"]
NOT_NUMBERS = ["abc", "1.2.3", "0x1p3", "b c", "nan", "NaN", "inf", "-inf", "1e999", "?", "<null>", ""]
VALUES = ["a", "b c", "?", "neg", "pos"]
PADS = ["", " ", "  ", "\t"]
ROW_COUNTS = [3, 0, 1, 2, 4, 5, 6, 8]
ARITY_CHANGES = [0] * 8 + [-1, 1]  # tokens dropped or added in a faulty row


def padded(draw, token):
    return draw(st.sampled_from(PADS)) + token + draw(st.sampled_from(PADS))


def bad_or(draw, faulty, good):
    """The tokens to draw a cell from: in a faulty text, one cell in five is
    anything but a number."""
    return NOT_NUMBERS if faulty and draw(st.integers(0, 4)) == 0 else good


def cell_types(array):
    return [(type(v), repr(v)) for v in array.ravel()]


def assert_same_outcome(parse, oracle):
    """Both give equal datasets (same dtype, same Python type in every
    cell), or both raise the same FormatError."""
    results = []
    for read in (parse, oracle):
        try:
            results.append(read())
        except FormatError as error:
            results.append(str(error))
    got, want = results
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.features.dtype == want.features.dtype
    assert got.features.shape == want.features.shape
    assert got.features.flags.c_contiguous
    assert cell_types(got.features) == cell_types(want.features)
    assert cell_types(got.labels) == cell_types(want.labels)
    assert got.feature_meta == want.feature_meta
    assert got.label_name == want.label_name


@st.composite
def keel_texts(draw):
    """A KEEL text with its column descriptors and label position.  A faulty
    text mixes bad tokens, wrong arity and undeclared values into its rows."""
    metas = []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            bounds = draw(st.none() | st.lists(st.sampled_from([-3.0, 0.0, 0.1, 1e3]), min_size=2,
                                               max_size=2).map(lambda b: tuple(sorted(b))))
            metas.append(FeatureMeta(f"a{j}", "numeric", range=bounds))
        else:
            values = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3, unique=True))
            metas.append(FeatureMeta(f"a{j}", "categorical", allowed=tuple(values)))
    label_pos = draw(st.integers(0, len(metas) - 1))
    lines = ["@relation r"]
    for meta in metas:
        if meta.allowed is not None:
            lines.append(f"@attribute {meta.name} {{{', '.join(meta.allowed)}}}")
        elif meta.range is not None:
            lines.append(f"@attribute {meta.name} real [%r, %r]" % meta.range)
        else:
            lines.append(f"@attribute {meta.name} real")
    if label_pos != len(metas) - 1 or draw(st.booleans()):
        lines.append(f"@outputs {metas[label_pos].name}")
    lines.append("@data")
    faulty = draw(st.booleans())
    for _ in range(draw(st.sampled_from(ROW_COUNTS))):
        lines.extend(draw(st.lists(st.sampled_from(["", "   ", "% note", " % a, b"]), max_size=1)))
        tokens = []
        for meta in metas:
            good = list(meta.allowed) if meta.allowed is not None else NUMBERS
            tokens.append(padded(draw, draw(st.sampled_from(bad_or(draw, faulty, good)))))
        if faulty:
            width = len(tokens) + draw(st.sampled_from(ARITY_CHANGES))
            tokens = (tokens + ["1"])[: max(width, 0)]
        lines.append(",".join(tokens))
    return "\n".join(lines) + "\n", metas, label_pos


@st.composite
def csv_texts(draw):
    """A CSV text (written by ``csv.writer``, so cells may hold commas) and
    its label column; a faulty text mixes in bad tokens and ragged rows."""
    width = draw(st.integers(1, 4))
    numeric = [draw(st.booleans()) for _ in range(width)]
    faulty = draw(st.booleans())
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([padded(draw, f"c{j}") for j in range(width)])
    for _ in range(draw(st.sampled_from(ROW_COUNTS))):
        if draw(st.booleans()):
            out.write("\n")
        tokens = []
        for is_numeric in numeric:
            good = NUMBERS if is_numeric else VALUES[:2] + ["x,y"]
            tokens.append(padded(draw, draw(st.sampled_from(bad_or(draw, faulty, good)))))
        if faulty:
            change = draw(st.sampled_from(ARITY_CHANGES))
            tokens = tokens[: len(tokens) + change] + ["1"] * change
        writer.writerow(tokens)
    label_column = draw(st.sampled_from([-1, 0, width - 1, "c0"]))
    return out.getvalue(), label_column


class TestReaderMatchesPerCellOracle:
    @settings(derandomize=True, deadline=None)
    @given(keel_texts())
    def test_keel(self, example):
        text, metas, label_pos = example
        assert_same_outcome(
            lambda: parse_keel(text), lambda: naive_read_rows(naive_keel_rows(text), metas, label_pos)
        )

    @settings(derandomize=True, deadline=None)
    @given(csv_texts())
    def test_csv(self, example):
        text, label_column = example
        assert_same_outcome(
            lambda: parse_csv(text, label_column), lambda: naive_parse_csv(text, label_column)
        )

    def test_first_failing_line_wins_over_a_later_ragged_row(self):
        text = KEEL_TOY + "1.0, nan, positive\n1.0, positive\n"
        with pytest.raises(FormatError, match="^line 11: non-finite value 'nan'$"):
            parse_keel(text)
        with pytest.raises(FormatError, match="^line 11: row has 2 values, expected 3$"):
            parse_keel(KEEL_TOY + "1.0, positive\n1.0, nan, positive\n")

    def test_finite_numbers_whose_sum_overflows_are_read(self):
        ds = parse_keel(KEEL_TOY + "1.7e308, 1.7e308, positive\n")
        assert ds.features[-1].tolist() == [1.7e308, 1.7e308]


SCALARS = [float, np.float64, np.float32, np.int64, int]
UNWRITABLE = [None, b"x", b"2.5", 10**400, "?"]  # float() refuses all but b"2.5"; "?" is written as it is


@st.composite
def writable_datasets(draw):
    """A float matrix, or an object array whose columns hold categorical
    strings or numbers of assorted Python and numpy types."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    commas = draw(st.booleans())  # whether string cells may hold a comma
    faulty = draw(st.booleans())  # whether number cells may be ones a writer refuses
    strings = st.sampled_from(["red", "blue", "a,b"] if commas else ["red", "blue"])
    labels = np.array(draw(st.lists(st.sampled_from(["neg", "pos", "p,q"] if commas else ["neg", "pos"]),
                                    min_size=n, max_size=n)), dtype=object)
    if draw(st.booleans()):
        bounds = st.none() | st.lists(finite, min_size=2, max_size=2).map(lambda b: tuple(sorted(b)))
        features = np.array(draw(st.lists(finite, min_size=n * m, max_size=n * m)), dtype=np.float64)
        metas = tuple(FeatureMeta(f"f{j}", "numeric", range=draw(bounds)) for j in range(m))
        return Dataset(features.reshape(n, m), labels, metas)
    features = np.empty((n, m), dtype=object)
    metas = []
    for j in range(m):
        if draw(st.booleans()):
            features[:, j] = draw(st.lists(strings, min_size=n, max_size=n))
            metas.append(FeatureMeta(f"f{j}", "categorical"))
        else:
            for i in range(n):
                kind = draw(st.sampled_from(SCALARS))
                if kind in (int, np.int64):
                    value = draw(st.integers(-(2**62), 2**62))
                else:
                    value = draw(st.floats(allow_nan=False, allow_infinity=False,
                                           width=32 if kind is np.float32 else 64))
                features[i, j] = kind(value)
                if faulty and draw(st.integers(0, 5)) == 0:
                    features[i, j] = draw(st.sampled_from(UNWRITABLE))
            metas.append(FeatureMeta(f"f{j}", "numeric"))
    return Dataset(features, labels, tuple(metas))


def written(serialize, d):
    try:
        return serialize(d)
    except Exception as error:
        return f"refused: {type(error).__name__}: {error}"


class TestWritersMatchPerCellOracle:
    @settings(derandomize=True, deadline=None)
    @given(writable_datasets())
    def test_generated_datasets(self, d):
        assert written(serialize_keel, d) == written(naive_serialize_keel, d)
        assert written(serialize_csv, d) == written(naive_serialize_csv, d)

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-1, 4)), min_size=1, max_size=6))
    def test_decoded_synthetic_rows(self, points):
        raw = parse_csv("x,colour,class\n0,red,neg\n1,blue,neg\n2,red,neg\n3,green,pos\n4,red,pos\n")
        encoded = encode_categoricals(raw)
        scaler = fit_standardizer(encoded)
        task = split_binary(apply_standardizer(scaler, encoded))
        outcome = ResampleOutcome(
            rows=np.arange(len(task.points) + len(points)),
            n_majority=task.n_majority,
            synthetic=scaler.transform(np.array(points)),
        )
        d = rebuild_dataset(raw, encoded, scaler, task, outcome)
        assert serialize_keel(d) == naive_serialize_keel(d)
        assert serialize_csv(d) == naive_serialize_csv(d)

    def test_comma_refusal_names_the_first_row_then_the_first_column(self):
        features = np.array([["red", "x,1"], ["y,2", "z,3"]], dtype=object)
        d = Dataset(features, np.array(["p", "n,o"], dtype=object),
                    (FeatureMeta("a", "categorical"), FeatureMeta("b", "categorical")))
        with pytest.raises(ParameterError, match=r"^KEEL cannot hold 'x,1' of column 'b'"):
            serialize_keel(d)
        assert written(serialize_keel, d) == written(naive_serialize_keel, d)

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([["x,1", 1.0], ["red", None]], "ParameterError: KEEL cannot hold 'x,1'"),
            ([["red", None], ["x,1", 1.0]], "TypeError: float() argument"),
            ([["x,1", None], ["red", 1.0]], "TypeError: float() argument"),
            ([["red", 1.0], ["red", 10**400]], "OverflowError: int too large"),
        ],
    )
    def test_a_cell_float_refuses_is_raised_in_row_order(self, rows, error):
        d = Dataset(np.array(rows, dtype=object), np.array(["p", "n"], dtype=object),
                    (FeatureMeta("a", "categorical"), FeatureMeta("b", "numeric")))
        assert written(serialize_keel, d).startswith(f"refused: {error}")
        assert written(serialize_keel, d) == written(naive_serialize_keel, d)
        assert written(serialize_csv, d) == written(naive_serialize_csv, d)

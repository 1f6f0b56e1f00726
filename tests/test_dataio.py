import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbu import (
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
        assert list(task.minority_indices) == [3]

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
        together = sorted(list(task.majority_indices) + list(task.minority_indices))
        assert together == [0, 1, 2, 3]


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

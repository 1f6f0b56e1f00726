"""``cli.rebuild_dataset`` against a row-by-row oracle, on the results of
every resampling method.

``--hypothesis-profile=ci`` runs these properties with ten times the default
number of examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rbu import (
    ParameterError,
    apply_resample,
    apply_standardizer,
    encode_categoricals,
    fit_standardizer,
    parse_csv,
    split_binary,
)
from rbu.cli import rebuild_dataset

from oracles import RESAMPLE_NAMES, naive_rebuild, resample_spec

rows = st.lists(
    st.tuples(
        st.integers(-3, 3),  # repeated values make distance ties
        st.floats(-10, 10, allow_nan=False),
        st.sampled_from(["red", "blue", "green"]),
        st.booleans(),  # a minority row
    ),
    min_size=6,
    max_size=24,
).filter(lambda rs: 2 <= sum(r[3] for r in rs) <= len(rs) / 2)


@settings(derandomize=True, deadline=None)
@given(
    rows,
    st.sampled_from(RESAMPLE_NAMES),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_rebuild_matches_row_by_row_oracle(rows, method, ratio, k, seed):
    text = "x,y,colour,class\n" + "".join(
        f"{x},{y!r},{colour},{'pos' if minority else 'neg'}\n" for x, y, colour, minority in rows
    )
    raw = parse_csv(text)
    encoded = encode_categoricals(raw)
    scaler = fit_standardizer(encoded)
    task = split_binary(apply_standardizer(scaler, encoded), "pos")
    try:
        result = apply_resample(task, resample_spec(method, ratio, k), seed=seed)
    except ParameterError:
        return  # the method refuses this task: nothing to rebuild
    got = rebuild_dataset(raw, encoded, scaler, task, result)
    want = naive_rebuild(raw, encoded, scaler, task, result)
    assert [(list(got.features[i]), got.labels[i]) for i in range(got.n)] == want

"""``cli.rebuild_dataset`` against a row-by-row oracle, on the outcomes of
every resampling method.

``--hypothesis-profile=ci`` runs these properties with ten times the default
number of examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rbu import (
    ParameterError,
    ResampleSpec,
    apply_standardizer,
    encode_categoricals,
    fit_standardizer,
    parse_csv,
    split_binary,
)
from rbu.baselines import METHODS, apply_resample_detail
from rbu.cli import rebuild_dataset
from rbu.grids import named_specs

from oracles import naive_rebuild

# The method table's names, with "pipeline" standing for ROS then SMOTE (copied
# and synthetic rows in one outcome), and the stl and senn pipelines.
METHOD_CHOICES = sorted(METHODS) + ["stl", "senn"]


def spec_of(method, ratio, k):
    if method in ("stl", "senn"):
        (spec,) = named_specs(method, {"k": [k], "ratio": [ratio]}, k)
        return spec
    if method == "pipeline":
        return ResampleSpec("pipeline", stages=(
            ResampleSpec("ros", {"ratio": ratio}), ResampleSpec("smote", {"k": k, "ratio": 1.0}),
        ))
    given_params = {"ratio": ratio, "k": k, "gamma": 1.0}
    return ResampleSpec(method, {p: v for p, v in given_params.items() if p in METHODS[method].params})


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
    st.sampled_from(METHOD_CHOICES),
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
        outcome = apply_resample_detail(task, spec_of(method, ratio, k), seed=seed)
    except ParameterError:
        return  # the method refuses this task: nothing to rebuild
    got = rebuild_dataset(raw, encoded, scaler, task, outcome)
    want = naive_rebuild(raw, encoded, scaler, task, outcome)
    assert [(list(got.features[i]), got.labels[i]) for i in range(got.n)] == want

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navstream.errors import InvalidInputError
from navstream.merge import (
    PwcParams,
    pwc_eval,
    select_merge_params,
)


def test_params_validate():
    with pytest.raises(InvalidInputError):
        PwcParams(w_step=0, shift=0.0)
    with pytest.raises(InvalidInputError):
        PwcParams(w_step=3, shift=3.0)
    with pytest.raises(InvalidInputError):
        PwcParams(w_step=3, shift=-0.1)


def test_pwc_eval_step_shape():
    params = PwcParams(w_step=3, shift=0.5)
    assert pwc_eval(params, 9) == 10.0
    assert pwc_eval(params, 11) == 10.0
    assert pwc_eval(params, 12) == 13.0


def test_select_two_values_around_target():
    params = select_merge_params({9, 11}, 10)
    assert params.w_step == 3
    assert params.shift == pytest.approx(0.5)
    for v in (9, 10, 11):
        assert pwc_eval(params, v) == 10.0


def test_select_distant_value():
    # bin [target - W/2, target + W/2) must reach down to 5: W = 4 suffices
    params = select_merge_params({5}, 7)
    assert params.w_step == 4
    assert pwc_eval(params, 5) == 7.0
    assert pwc_eval(params, 7) == 7.0


def test_select_target_alone_needs_unit_step():
    params = select_merge_params({7}, 7)
    assert params.w_step == 1
    assert pwc_eval(params, 7) == 7.0


def test_select_requires_values():
    with pytest.raises(InvalidInputError):
        select_merge_params([], 3)


def _covers(w: int, values, target: int) -> bool:
    c = (w / 2.0 - target) % w
    params = PwcParams(w_step=w, shift=c)
    return all(pwc_eval(params, v) == target for v in set(values) | {target})


@given(
    target=st.integers(min_value=-1000, max_value=1000),
    offsets=st.lists(
        st.integers(min_value=-64, max_value=64), min_size=1, max_size=12
    ),
)
@settings(max_examples=300, deadline=None)
def test_select_correct_and_minimal(target, offsets):
    values = [target + d for d in offsets]
    params = select_merge_params(values, target)
    assert _covers(params.w_step, values, target)
    if params.w_step > 1:
        assert not _covers(params.w_step - 1, values, target)


def test_idempotent_on_reconstructed_values():
    params = select_merge_params({3, 8, 12}, 9)
    y = pwc_eval(params, 8)
    assert pwc_eval(params, int(y)) == y

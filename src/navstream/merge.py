"""Piecewise-constant coefficient merge.

f(x) = floor((x + c) / W) * W + W/2 - c maps every integer coefficient in a
width-W bin to the bin center shifted by -c.  Picking (W, c) per
coefficient so that all candidate reconstruction values share the target's
bin makes several decoder states collapse to one identical output, which
is what lets a single M representation serve any predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError


@dataclass(frozen=True)
class PwcParams:
    w_step: int
    shift: float  # canonical, in [0, w_step)

    def __post_init__(self):
        if self.w_step < 1 or int(self.w_step) != self.w_step:
            raise InvalidInputError(f"step must be a positive integer: {self.w_step}")
        if not (0.0 <= self.shift < self.w_step):
            raise InvalidInputError(
                f"shift {self.shift} outside [0, {self.w_step})"
            )


def pwc_eval(params: PwcParams, x: int) -> float:
    w, c = params.w_step, params.shift
    return math.floor((x + c) / w) * w + w / 2.0 - c


def select_merge_params(values, target: int) -> PwcParams:
    """Smallest step W (and matching shift) putting every value in the
    target's bin, so pwc_eval maps each value — and the target — to target.

    The target sits at its bin center, so the bin is
    [target - W/2, target + W/2), closed on the left.
    """
    values = set(values)
    if not values:
        raise InvalidInputError("select_merge_params needs at least one value")
    lo = min(values)
    hi = max(values)
    # need lo >= target - W/2  and  hi < target + W/2
    w = max(1, 2 * (target - lo), 2 * (hi - target) + 1)
    c = (w / 2.0 - target) % w
    return PwcParams(w_step=w, shift=c)

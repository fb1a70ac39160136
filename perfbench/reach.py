"""Oracle reach: the largest n on a fixed ladder that an exact oracle finishes
within ``CEILING_S`` at m = 4, under the default state ceiling.

The ladder stops at the first rung that takes longer or hits the state
ceiling. Inputs follow the ROADMAP baseline: Zipf(4, 0.7) against
uniform(4), and 4-ary randomized response at eps0 = 1 with uniform inputs.
"""

from __future__ import annotations

from time import perf_counter

CEILING_S = 1.0

_SHUFFLE_LADDER = (8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 96, 112, 128, 160, 192, 224,
                   256, 320, 384)
_INPUT_LADDER = (16, 32, 48, 64, 80, 96, 104, 112, 120, 128, 144, 160, 176, 192, 208)
_FIXED_LADDER = (2, 3, 4, 5, 6, 7, 8, 9, 10)
_MATCHED_LADDER = tuple(2**k for k in range(4, 22))


def _cases():
    from shuffleleak import exact
    from shuffleleak.mechanisms import make_krr
    from shuffleleak.probability import make_uniform, make_zipf

    zipf, uniform = make_zipf(4, 0.7), make_uniform(4)
    krr = make_krr(4, 1.0)
    return {
        "position_mi_exact": (lambda n: exact.position_mi_exact(zipf, uniform, n), _SHUFFLE_LADDER),
        "message_mi_exact": (lambda n: exact.message_mi_exact(zipf, uniform, n), _SHUFFLE_LADDER),
        "matched_message_mi": (lambda n: exact.matched_message_mi(zipf, n), _MATCHED_LADDER),
        "input_mi_iid_others": (lambda n: exact.input_mi_iid_others(krr, uniform, n), _INPUT_LADDER),
        "position_mi_fixed_inputs": (
            lambda n: exact.position_mi_fixed_inputs(krr, tuple(1 + i % 4 for i in range(n))),
            _FIXED_LADDER,
        ),
    }


def oracle_reach() -> dict[str, int]:
    from shuffleleak.errors import ResourceLimitError

    reach = {}
    for name, (call, ladder) in _cases().items():
        best = 0
        for n in ladder:
            start = perf_counter()
            try:
                call(n)
            except ResourceLimitError:
                break
            if perf_counter() - start > CEILING_S:
                break
            best = n
        reach[f"exact.reach_n.{name}"] = best
    return reach

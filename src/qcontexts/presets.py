"""Named scenario presets shipped with the tool.

Each preset is a complete, loadable Scenario: loading one and re-serializing
it reproduces its parameters exactly, so the documented numbers and the
numbers the engine runs are the same object.
"""

from __future__ import annotations

import math

from .errors import ScenarioError
from .scenarios import Scenario


def _pair(value: complex | float) -> list[float]:
    z = complex(value)
    return [z.real, z.imag]


def _state(*amplitudes: complex | float) -> list[list[float]]:
    return [_pair(a) for a in amplitudes]


def _projector_json(amplitudes: list[complex]) -> list[list[list[float]]]:
    n = len(amplitudes)
    return [[_pair(amplitudes[i] * amplitudes[j].conjugate()) for j in range(n)] for i in range(n)]


def _complement_json(projector: list[list[list[float]]]) -> list[list[list[float]]]:
    n = len(projector)
    return [
        [[(1.0 if i == j else 0.0) - projector[i][j][0], -projector[i][j][1]] for j in range(n)]
        for i in range(n)
    ]


def _three_box() -> Scenario:
    amp = 1.0 / math.sqrt(3.0)
    box1 = _projector_json([1.0, 0.0, 0.0])
    target = _projector_json([amp, amp, -amp])
    return Scenario(
        name="three-box",
        kind="abl",
        description=(
            "A particle prepared in an equal superposition over three boxes and "
            "post-selected on an equal superposition with the last sign flipped. "
            "Conditioned on both, a look into box 1 finds the particle with "
            "certainty, while its Born weight from the preparation alone is 1/3."
        ),
        parameters={
            "preparation": {"state": _state(amp, amp, amp), "time": 0.0},
            "intermediate": {
                "observable": {
                    "outcomes": [
                        {"label": "box1", "value": 1.0, "projector": box1},
                        {"label": "elsewhere", "value": 0.0, "projector": _complement_json(box1)},
                    ]
                },
                "time": 1.0,
            },
            "postselection": {
                "observable": {
                    "outcomes": [
                        {"label": "b", "value": 1.0, "projector": target},
                        {"label": "other", "value": 0.0, "projector": _complement_json(target)},
                    ]
                },
                "label": "b",
                "time": 2.0,
            },
        },
    )


def _two_slit() -> Scenario:
    amp = 1.0 / math.sqrt(2.0)
    return Scenario(
        name="two-slit",
        kind="gap",
        description=(
            "Which-slit chain analysis: a coherent equal superposition over two "
            "slits reaches the bright fringe with probability 1, but routing the "
            "probability classically through definite slit passages caps it at "
            "1/2. The gap of 1/2 is the interference term the classical chain "
            "cannot carry."
        ),
        parameters={
            "preparation": {"state": _state(amp, amp)},
            "intermediate": {"observable": "Z"},
            "postselection": {"observable": "X", "label": "+1"},
        },
    )


def _geiger() -> Scenario:
    return Scenario(
        name="geiger",
        kind="detector",
        description=(
            "A counter watching an unstable system: every clock tick that passes "
            "without a click is itself a recorded fact, and the click, when it "
            "comes, closes the record. Click times follow the memoryless law of "
            "the supplied rate; the rate is an input, never a prediction."
        ),
        parameters={
            "rate": 1.0,
            "tick": 0.01,
            "horizon": 10.0,
            "seed": 7,
            "runs": 1000,
        },
    )


_PRESETS = {
    "three-box": _three_box,
    "two-slit": _two_slit,
    "geiger": _geiger,
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def load_preset(name: str) -> Scenario:
    if not isinstance(name, str) or name not in _PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; available: {list(preset_names())}", field="preset")
    return _PRESETS[name]()

"""Command-line front end: run scenario files, list and show presets.

Exit codes: 0 success, 2 malformed command line, parse error or unwritable
--out file or stdout, 3 invariant violation, 4 impossible post-selection / no
data, 5 internal tolerance breach.
Failures print one machine-parsable JSON line to stderr, with a `field` key
when the failure names an input field or `out`, and `line` and `column` keys
for a JSON syntax error. Output bytes are written without newline
translation so identical runs are byte-identical.

`main(argv)` is the in-process API: it returns the exit code and leaves the
garbage collector alone. `console()` is the process entry, behind the
`qcontexts` script and `python -m qcontexts.cli`: it runs `main()`, freezes
every live object out of the collector's reach (`gc.freeze`) and exits with
main's code. The streams still flush and atexit still runs; only the
interpreter's collections at shutdown skip the objects that numpy and the
engine keep alive until exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .errors import ImpossibleOutcomeError, InvariantViolation, ScenarioError, ToleranceError
from .scenarios import emit_report, load_preset, load_scenario, preset_names, run_scenario, scenario_to_json

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_IMPOSSIBLE = 4
EXIT_TOLERANCE = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a malformed command line: one parse-error line, exit 2 (subparsers too)
        raise ScenarioError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcontexts",
        description="Run measurement-context scenarios and emit deterministic reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file and emit a report")
    run.add_argument("file", help="path to a scenario JSON file")
    run.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--samples", type=int, default=None, help="override sample/run counts")
    run.add_argument("--out", default=None, help="write the report here instead of stdout")

    preset = sub.add_parser("preset", help="inspect built-in presets")
    preset_sub = preset.add_subparsers(dest="action", required=True)
    preset_sub.add_parser("list", help="list preset names")
    show = preset_sub.add_parser("show", help="print a preset as a loadable scenario file")
    show.add_argument("name", help="preset name")
    return parser


def _write(payload: bytes, out: str | None) -> int:
    try:
        if out is None:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        else:
            with open(out, "wb") as handle:
                handle.write(payload)
    except OSError as exc:  # --out is named as a bad --seed is; stdout is no option, so no field
        if out is None:  # the reader is gone; the interpreter's flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return _fail(EXIT_PARSE, "output-error", ScenarioError(str(exc), field=None if out is None else "out"))
    return EXIT_OK


def _fail(code: int, kind: str, exc: Exception) -> int:
    diagnostic = {"error": kind, "exit_code": code, "message": str(exc)}
    if getattr(exc, "field", None) is not None:
        diagnostic["field"] = exc.field
    if isinstance(exc.__cause__, json.JSONDecodeError):  # a JSON syntax error says where, as numbers too
        diagnostic.update(line=exc.__cause__.lineno, column=exc.__cause__.colno)
    sys.stderr.write(json.dumps(diagnostic, sort_keys=True) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            scenario = load_scenario(args.file)
            report = run_scenario(scenario, seed=args.seed, samples=args.samples)
            return _write(emit_report(report, args.format), args.out)
        if args.action == "list":  # argparse requires a command and a preset action
            return _write(("\n".join(preset_names()) + "\n").encode("utf-8"), None)
        return _write(scenario_to_json(load_preset(args.name)), None)
    except ScenarioError as exc:
        return _fail(EXIT_PARSE, "parse-error", exc)
    except InvariantViolation as exc:
        return _fail(EXIT_INVARIANT, "invariant-violation", exc)
    except ImpossibleOutcomeError as exc:
        return _fail(EXIT_IMPOSSIBLE, "impossible-postselection", exc)
    except ToleranceError as exc:
        return _fail(EXIT_TOLERANCE, "tolerance-breach", exc)


def console() -> None:
    """Process entry: main(), then exit with its code, freezing what lives until exit."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()

"""Diff the CLI of two source trees over one fixed list of invocations.

    python tests/cli_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``bellsim`` package (a
checkout's ``src``).  Each tree runs every invocation in one child process.
The script prints how many invocations give byte-identical stdout and exit
code, and how many of those that write a JSON report (``-o``) give a
byte-identical report; for each other one, its exit codes, the largest
|new - old| of every numeric field of stdout and of the report, the stdout
lines and report fields whose text changed, and a changed stderr.  A number
of stdout is named by the words before it on its line, else by its column
under the last line without numbers (CSV and the convergence table); a
number of a report is named by its keys, list positions dropped.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

#: config documents run through every experiment command
CONFIGS = {
    "diagonal": {"experiment": "custom", "stages": [["K_z", 0.7]]},
    "phase": {"experiment": "custom", "stages": [["K", 0.3], ["J_prime", 0.8], ["J_a", 0.6]]},
    "ou_mandel": {"experiment": "custom",
                  "stages": [["K_OM", 0.2], ["J_a", math.pi / 2], ["J_BS", math.pi / 2]]},
    "small_gamma": {"experiment": "custom", "stages": [["K", 1e-6], ["J_a", 0.6]]},
    "two_sources": {"experiment": "custom",
                    "stages": [["K", 0.3], ["J_BS", 1.0], ["K_OM", 0.2], ["J_BS_wv", 0.7]]},
}
#: config documents that ``run`` rejects with exit code 2
REJECTED_CONFIGS = {
    "tol": {"tol": 1e-12},
    "ideal_stages": {"experiment": "ideal", "stages": [["K", 0.1]]},
}
#: failures, each with its exit code and stderr line, and degenerate summaries
EDGE_CASES = [
    ("run", "--cutoff", "1"), ("chsh", "-e", "horne"), ("chsh", "--angles", "1,2,3"), ("convergence", "--cutoffs", "8,6"),
    ("scan", "--axis", "delta", "--values", "nan"), ("run", "--theta-a", "1e308"),
    ("chsh", "--angles", "1e308,0,0,0"), ("scan", "--axis", "delta", "--values", "0,1e308"),
    ("run", "--gamma", "1e6", "--cutoff", "2"),
    ("run", "--gamma", "1e308"), ("run", "-e", "horne", "--phi", "1e308"),
    ("convergence", "--gamma", "1e308"), ("scan", "--axis", "gamma", "--values", "0.1,1e308"),
    ("scan", "--axis", "phi", "-e", "horne", "--values", "0.1,1e308", "--format", "json"),
    ("scan", "--axis", "phi", "-e", "horne", "--gamma", "1e6", "--cutoff", "4", "--values", "0,1"),
    ("run", "-e", "horne", "--phi", "1e6"),
    ("scan", "--axis", "gamma", "--theta-a", "1e308", "--values", "0.1,0.2"),
    ("convergence", "-e", "horne", "--gamma", "1"), ("run", "--cutoff", "99999999"),
    ("convergence", "-e", "horne", "--gamma", "1", "--estimator", "raw"),
    ("scan", "--axis", "delta", "--values", ""), ("chsh", "--angles", ""),
]
#: stands for the report path in an invocation
REPORT = "REPORT"
NUMBER = re.compile(r"(?<![\w.+-])-?(?:\d+\.?\d*(?:e[+-]?\d+)?|nan|inf)(?![\w.])")


def invocations(configs: list[str], rejected: list[str]) -> list[list[str]]:
    calls = [["verify-algebra"], ["verify-algebra", "--json"], ["list-generators"],
             *map(list, EDGE_CASES), *(["run", "--config", path] for path in rejected),
             ["run", "-e", "horne", "--phi", "0.7", "--cutoff", "30"],
             # passive stages where blocks are largest and J_a has one block per size
             ["chsh", "-e", "ou_mandel", "--cutoff", "30"],
             ["scan", "--axis", "phi", "-e", "horne", "--cutoff", "30", "--points", "5"],
             # a second pair source meets components of many sizes: one stacked eigh per size
             ["run", "--config", configs[list(CONFIGS).index("two_sources")], "--cutoff", "30",
              "--estimator", "raw"],
             # a small gamma, where the source still fills every shell
             ["run", "-e", "ou_mandel", "--cutoff", "30", "--gamma", "0.001"],
             # the largest cutoff, where the stages' reached kets are a small part of the basis
             ["run", "-e", "ideal", "--cutoff", "60", "--theta-a", "0.3"],
             ["run", "-e", "horne", "--cutoff", "60", "--phi", "0.7"],
             ["run", "-e", "ou_mandel", "--cutoff", "60"]]
    for estimator in ("raw", "conditioned"):
        for name in ("ideal", "horne", "ou_mandel"):
            flags = ["-e", name, "--estimator", estimator]
            calls += [["run", *flags, "--gamma", "0.4", "--phi", "2", "--theta-a", "0.3"],
                      ["run", *flags, "--gamma", "1", "--phi", "-1.7", "--cutoff", "16"],
                      ["chsh", *flags, "--gamma", "0.3"],
                      ["convergence", *flags, "--gamma", "1", "--phi", "1.3"],
                      *(["scan", "--axis", axis, *flags, "--phi", "0.8", "--points", "5",
                         "--cutoff", "12"] for axis in ("delta", "gamma", "phi"))]
        for path in configs:
            calls += [[command, "--config", path, "--estimator", estimator]
                      for command in ("run", "chsh", "convergence")]
            calls.append(["scan", "--axis", "gamma", "--config", path, "--estimator", estimator])
    return calls + report_invocations(configs)


def report_invocations(configs: list[str]) -> list[list[str]]:
    """Invocations that write a JSON report: analyzer angles on every
    pipeline (and a CHSH setting at (0, 0) beside them), a delta grid that
    holds 0, ``--dump-state``, and the configs at an analyzer angle."""
    angles = ["--theta-a", "0.3", "--theta-b", "-0.2"]
    calls = []
    for estimator in ("raw", "conditioned"):
        for name in ("ideal", "horne", "ou_mandel"):
            flags = ["-e", name, "--estimator", estimator, "--gamma", "0.4", "--phi", "0.9",
                     "-o", REPORT]
            calls += [["run", *flags, *angles], ["run", *flags, "--dump-state"],
                      ["chsh", *flags], ["chsh", *flags, *angles, "--angles", "0,0.4,0,1.2"],
                      ["convergence", *flags, *angles],
                      ["scan", "--axis", "delta", *flags, "--values", "-0.5,0,0.5",
                       "--format", "json"],
                      *(["scan", "--axis", axis, *flags, *angles, "--values", "0.2,0.7",
                         "--format", "json"] for axis in ("gamma", "phi"))]
        for path in configs:
            calls += [[command, "--config", path, "--estimator", estimator, "--theta-a", "0.3",
                       "-o", REPORT] for command in ("run", "convergence")]
    return calls


def child() -> None:
    from bellsim.cli import main
    results = []
    for argv in json.load(sys.stdin):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback: exit 1, compared by its last line
                code = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
        report = Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
        text = report.read_text() if report and report.exists() else None
        if text is not None:
            report.unlink()
        results.append([code, out.getvalue(), err.getvalue(), text])
    json.dump(results, sys.stdout)


def numbers(line: str, header: list[str]) -> list[tuple[str, float]]:
    named = []
    for k, match in enumerate(NUMBER.finditer(line)):
        words = re.findall(r"[A-Za-z_][\w ]*", NUMBER.sub(" ", line[:match.start()]))
        label = words[-1].strip() if words else (header[k] if k < len(header) else f"#{k}")
        named.append((label, float(match.group())))
    return named


def compare(old: str, new: str) -> tuple[dict[str, float], list[str]]:
    """Largest |new - old| per field over lines of equal text, and the changed lines."""
    deltas, changed, header = {}, [], []
    for a, b in zip(old.splitlines(), new.splitlines()):
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            changed += [f"  - {a}", f"  + {b}"]
            continue
        if not NUMBER.search(a):
            header = re.split(r"[,\s]+", a.strip())
        for (label, x), (_, y) in zip(numbers(a, header), numbers(b, header)):
            gap = 0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(y - x)
            deltas[label] = max(deltas.get(label, 0.0), gap)
    common = min(len(old.splitlines()), len(new.splitlines()))
    changed += [f"  - {a}" for a in old.splitlines()[common:]]
    changed += [f"  + {b}" for b in new.splitlines()[common:]]
    return deltas, changed


def leaves(value, path: str = ""):
    """(keys, value) of every scalar of a JSON document, list positions dropped."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item, path)
    else:
        yield path, value


def compare_reports(old: str | None, new: str | None) -> tuple[dict[str, float], list[str]]:
    """Largest |new - old| per report field, and the fields whose text changed."""
    if old is None or new is None:
        return {}, [f"  report {'missing' if old is None else 'written'} -> "
                    f"{'missing' if new is None else 'written'}"]
    deltas, changed = {}, []
    a, b = list(leaves(json.loads(old))), list(leaves(json.loads(new)))
    if [k for k, _ in a] != [k for k, _ in b]:
        return {}, [f"  report fields {[k for k, _ in a]} -> {[k for k, _ in b]}"]
    for (key, x), (_, y) in zip(a, b):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if numeric:
            deltas[key] = max(deltas.get(key, 0.0), abs(y - x))
        elif x != y:
            changed.append(f"  report {key}: {x!r} -> {y!r}")
    return deltas, changed


def main(old_src: str, new_src: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, document in {**CONFIGS, **REJECTED_CONFIGS}.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(document))
        report = str(Path(tmp) / "report.json")
        calls = [[report if arg == REPORT else arg for arg in argv]
                 for argv in invocations([paths[name] for name in CONFIGS],
                                         [paths[name] for name in REJECTED_CONFIGS])]
        old, new = (json.loads(subprocess.run(
            [sys.executable, __file__, "--child"], input=json.dumps(calls), text=True,
            capture_output=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout)
            for src in (old_src, new_src))
    same = sum(a[:2] == b[:2] for a, b in zip(old, new))
    written = [(a[3], b[3]) for a, b in zip(old, new) if (a[3], b[3]) != (None, None)]
    print(f"byte-identical stdout and exit code: {same} of {len(calls)}")
    print(f"byte-identical JSON reports: {sum(a == b for a, b in written)} of {len(written)}")
    for argv, (code_a, out_a, err_a, rep_a), (code_b, out_b, err_b, rep_b) in zip(
            calls, old, new):
        if (code_a, out_a, err_a, rep_a) == (code_b, out_b, err_b, rep_b):
            continue
        print(" ".join(argv).replace(tmp, "CONFIG")
              + (f"  [exit {code_a} -> {code_b}]" if code_a != code_b else ""))
        deltas, changed = compare(out_a, out_b)
        if rep_a != rep_b:
            report_deltas, report_changed = compare_reports(rep_a, rep_b)
            deltas.update({f"report {k}": v for k, v in report_deltas.items()})
            changed += report_changed
        moved = {k: v for k, v in deltas.items() if v}
        if moved:
            print("  |delta| " + ", ".join(f"{k} {v:.2g}" for k, v in moved.items()))
        if err_a != err_b:
            changed.append(f"  stderr {err_a!r} -> {err_b!r}")
        for line in changed:
            print(line)


if __name__ == "__main__":
    child() if sys.argv[1:] == ["--child"] else main(*sys.argv[1:])

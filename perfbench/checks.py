"""Output checks: reference comparison and invariants for each command.

Outputs are compared numerically, not byte for byte: each number may differ
from the reference by REL_TOL times the largest magnitude in its column (a CSV
column, or a JSON key with list positions merged).  The reason is measured:
`frame --L 24` prints different last digits of A_hat and B_hat with
OPENBLAS_NUM_THREADS=1 and with 2 threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9


def reference_path(label: str, seed: int | None) -> Path:
    suffix = "" if seed is None else f"-seed{seed}"
    return REFERENCE_DIR / f"{label}{suffix}.out"


def parse(text: str) -> tuple[dict[str, list], object]:
    """(CSV columns by header, JSON document or None) of one command's stdout.

    `verify` prints JSON only; `correlation --fit` prints a CSV table, a blank
    line and a JSON report; the other commands print a CSV table.
    """
    if text.lstrip().startswith("{"):
        return {}, json.loads(text)
    table, _, rest = text.partition("\n\n")
    rows = list(csv.reader(io.StringIO(table)))
    if len(rows) < 2:
        raise ValueError("no CSV rows in the output")
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError("ragged CSV rows")
    columns = {h: [_cell(r[i]) for r in body] for i, h in enumerate(header)}
    return columns, (json.loads(rest) if rest.strip() else None)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(doc, path: str = ""):
    """(column, value) pairs of a JSON document; list positions share a column."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value, f"{path}[]")
    else:
        yield path, doc


def _compare_columns(got: dict[str, list], want: dict[str, list],
                     only: tuple[str, ...] | None = None) -> list[str]:
    problems = []
    if only is None and list(got) != list(want):
        return [f"columns {list(got)} differ from reference {list(want)}"]
    for name in only or want:
        g, w = got.get(name), want[name]
        if g is None or len(g) != len(w):
            problems.append(f"column {name}: shape differs from reference")
            continue
        numeric = [abs(v) for v in w if isinstance(v, float) and math.isfinite(v)]
        scale = max(numeric, default=0.0)
        for i, (a, b) in enumerate(zip(g, w)):
            if isinstance(a, float) and isinstance(b, float) and math.isfinite(b):
                if not abs(a - b) <= REL_TOL * scale:
                    problems.append(f"column {name} row {i}: {a!r} vs reference {b!r}")
                    break
            elif a != b:
                problems.append(f"column {name} row {i}: {a!r} vs reference {b!r}")
                break
    return problems


def _json_columns(doc) -> dict[str, list]:
    columns: dict[str, list] = {}
    for path, value in _leaves(doc):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)
        columns.setdefault(path, []).append(value)
    return columns


def compare(text: str, reference: str, only: tuple[str, ...] | None = None) -> list[str]:
    """Differences between an output and its reference; `only` limits the CSV columns."""
    got_csv, got_doc = parse(text)
    want_csv, want_doc = parse(reference)
    problems = _compare_columns(got_csv, want_csv, only)
    if only is None:
        problems += _compare_columns(_json_columns(got_doc), _json_columns(want_doc))
    return problems


def _within(values, limit: float) -> bool:
    return all(isinstance(v, float) and abs(v) <= limit for v in values)


def invariants(subcommand: str, argv: list[str], text: str) -> list[str]:
    """Properties every output must have, whatever the seed."""
    columns, doc = parse(text)
    numbers = [v for col in columns.values() for v in col if isinstance(v, float)]
    problems = [] if all(map(math.isfinite, numbers)) else ["non-finite value in the table"]
    if subcommand == "correlation" and not _within(columns["correlation"], 1.0):
        problems.append("|Cor| > 1")
    if subcommand == "simulate":
        if not (_within(columns["estimate"], 1.0) and _within(columns["analytic"], 1.0)):
            problems.append("|Cor| > 1")
        if not _within(columns["z"], 5.0):
            problems.append("|z| > 5")
        seed = float(argv[argv.index("--seed") + 1])
        if any(s != seed for s in columns["seed"]):
            problems.append("seed column differs from the requested seed")
    if subcommand == "frame":
        a_hat, b_hat, ratio = columns["A_hat"], columns["B_hat"], columns["ratio"]
        if not all(0.0 < a <= b for a, b in zip(a_hat, b_hat)):
            problems.append("not 0 < A_hat <= B_hat")
        order = sorted(range(len(ratio)), key=lambda i: columns["oversample"][i])
        if any(ratio[i] <= ratio[k] for i, k in zip(order, order[1:])):
            problems.append("frame ratio does not decrease with oversample")
        if any(v != "false" for v in columns["ill_conditioned"]):
            problems.append("ill-conditioned analysis matrix")
    if subcommand == "verify" and doc.get("passed") is not True:
        problems.append("verify report did not pass")
    return problems


def seeds_with_reference(label: str) -> list[int]:
    pattern = re.compile(re.escape(label) + r"-seed(\d+)\.out$")
    return sorted(int(m.group(1)) for p in REFERENCE_DIR.iterdir()
                  if (m := pattern.match(p.name)))


# columns of `simulate` that do not depend on the seed
SEED_FREE_COLUMNS = ("t", "d", "replicas", "analytic")


def check(command, seed: int, code: int, text: str) -> list[str]:
    """Problems with one command's run; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        problems = invariants(command.subcommand, command.args(seed), text)
        if not command.seeded:
            return problems + compare(text, reference_path(command.label, None).read_text())
        if reference_path(command.label, seed).exists():
            return problems + compare(text, reference_path(command.label, seed).read_text())
        # another seed's reference still fixes the analytic column
        other = seeds_with_reference(command.label)[0]
        return problems + compare(text, reference_path(command.label, other).read_text(),
                                  only=SEED_FREE_COLUMNS)
    except (ValueError, KeyError, IndexError, AttributeError, TypeError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]

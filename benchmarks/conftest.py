"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures: it prints the
table (visible with ``pytest benchmarks/ --benchmark-only -s``) and also
writes it to ``benchmarks/out/<name>.txt`` so EXPERIMENTS.md can quote
stable artifacts.

Alongside each ``.txt``, :func:`emit` writes a machine-readable twin
``BENCH_<name>.json`` in the canonical ``repro-bench/2`` schema
(``kind="table"``; see :mod:`repro.analysis.bench`) — one schema and
one validator with the ratio records of ``repro bench``.  Both are run
outputs: ``benchmarks/out/`` is ignored by git.
"""

from __future__ import annotations

import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"


def emit(name: str, title: str, body: str) -> None:
    """Print a table and persist it (plus its JSON twin) under
    benchmarks/out/."""
    from repro.analysis.bench import (
        make_bench_record,
        validate_bench_record,
        write_json,
    )

    OUT_DIR.mkdir(exist_ok=True)
    text = f"== {title} ==\n{body}\n"
    print("\n" + text)
    (OUT_DIR / f"{name}.txt").write_text(text)
    record = make_bench_record(
        name, [{"case": name, "title": title, "text": body}], False, "table"
    )
    validate_bench_record(record)
    write_json(str(OUT_DIR / f"BENCH_{name}.json"), record)

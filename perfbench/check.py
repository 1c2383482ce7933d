"""Answer signatures and the ``naive`` reference they are checked against.

Ground answers must match exactly.  Answers holding labelled nulls are
compared by their null-pattern signature (:func:`repro.core.isomorphism
.pattern_key`), as :mod:`repro.workloads.sweep` does: executors may keep
different but equivalent null witnesses.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence

from repro import VadalogReasoner
from repro.core.isomorphism import pattern_key
from repro.core.parser import parse_atom
from repro.core.terms import Constant
from repro.storage.database import Database
from repro.storage.datasources import save_database_sqlite

from workloads import KG_EDB, KG_OUT, Inputs, final_edb

REFERENCE_EXECUTOR = "naive"


def _sha(obj: object) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def facts_digest(facts_by_predicate: Mapping[str, Iterable], predicates: Sequence[str]) -> str:
    parts = []
    for predicate in sorted(predicates):
        facts = list(facts_by_predicate.get(predicate, ()))
        ground = sorted({repr(f.values()) for f in facts if not f.has_nulls})
        patterns = sorted({repr(pattern_key(f)) for f in facts if f.has_nulls})
        parts.append([predicate, ground, patterns])
    return _sha(parts)


def writeback_digest(directory: Path, predicates: Sequence[str]) -> str:
    """Digest of the rows the run wrote back to ``directory/out.db``."""
    parts = []
    with sqlite3.connect(str(directory / KG_OUT)) as connection:
        for predicate in sorted(predicates):
            rows = connection.execute(f'SELECT * FROM "{predicate}"').fetchall()
            parts.append([predicate, sorted(repr(tuple(r)) for r in rows)])
    return _sha(parts)


def write_kg_edb(inputs: Inputs, directory: Path) -> None:
    database = Database()
    for predicate, rows in inputs.data.items():
        database.add_tuples(predicate, rows)
    directory.mkdir(parents=True, exist_ok=True)
    save_database_sqlite(database, directory / KG_EDB)


def query_filter(facts: Iterable, query_text: str) -> List:
    """The facts a point query selects: its constants fixed, the rest free."""
    atom = parse_atom(query_text)
    bound = [(i, t.value) for i, t in enumerate(atom.terms) if isinstance(t, Constant)]
    return [
        f for f in facts
        if f.predicate == atom.predicate
        and all(isinstance(f.terms[i], Constant) and f.terms[i].value == v for i, v in bound)
    ]


def _require_complete(result) -> None:
    if not result.is_complete():
        raise RuntimeError(f"reference run stopped early: {result.stop_reason}")


def reference(inputs: Inputs, workdir: Path) -> Dict[str, str]:
    """Expected digest per check key, from one untimed ``naive`` run."""
    if inputs.workload == "kg-batch":
        write_kg_edb(inputs, workdir)
        reasoner = VadalogReasoner(
            inputs.program, base_path=str(workdir), executor=REFERENCE_EXECUTOR
        )
        result = reasoner.reason()
        _require_complete(result)
        return {
            "answers": facts_digest(result.answers.facts_by_predicate, inputs.outputs),
            "writeback": writeback_digest(workdir, inputs.outputs),
        }
    if inputs.workload == "service-mixed":
        database = final_edb(inputs)
    else:
        database = inputs.data
    result = VadalogReasoner(inputs.program, executor=REFERENCE_EXECUTOR).reason(database=database)
    _require_complete(result)
    by_predicate = result.answers.facts_by_predicate
    if inputs.workload == "point-queries":
        expected = {}
        for _, text in inputs.ops:
            selected = query_filter(by_predicate.get("PSC", ()), text)
            expected[f"query:{text}"] = facts_digest({"PSC": selected}, ["PSC"])
        return expected
    return {"answers": facts_digest(by_predicate, inputs.outputs)}

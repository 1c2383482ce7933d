"""Seeded inputs of the four benchmark workloads.

A generator turns a seed into the only things the system under test is
given: program text, extensional rows and, for the closed loops, the
operation stream of one pass.  :func:`encode` renders them as canonical
bytes; the regeneration check and the input digest are computed over
those bytes.

The shape of each instance comes from the paper's generators in
:mod:`repro.workloads` at their own default seeds.  ``--seed`` then draws
an isomorphic copy: constants are renamed within their kind
(``company12`` stays a company), in the data and in the operation stream.
Every seed thus poses the same work under other names, so the spread
between runs measures the system rather than the luck of the draw; what
still varies is what the reasoner does differently when names hash into
another iteration order.

* ``kg-batch``      -- the paper's AllStrongLinks program over a DBpedia-like
  company graph, extensional relations bound to SQLite, answers written back.
* ``rules-heavy``   -- iWarded synthB composed into 200 rules (Figure 8b).
* ``point-queries`` -- PSC point queries with Zipf-skewed constants.
* ``service-mixed`` -- upserts, retractions and queries at 1:4 against the
  resident reasoning service.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.atoms import Atom
from repro.core.parser import unparse_program
from repro.core.rules import Program, Rule
from repro.workloads.dbpedia import (
    PSC_PROGRAM,
    STRONG_LINKS_PROGRAM_TEMPLATE,
    generate_company_graph,
)
from repro.workloads.iwarded import SCENARIO_CONFIGS, generate_iwarded
from repro.workloads.service import SERVICE_PROGRAM, service_operations, service_scenario

WORKLOADS = ("kg-batch", "rules-heavy", "point-queries", "service-mixed")

#: File names of the kg-batch SQLite databases, relative to the pass directory.
KG_EDB = "edb.db"
KG_OUT = "out.db"
KG_INPUTS = ("Company", "Control", "KeyPerson", "Person")

RULES_HEAVY_BLOCKS = 2
RULES_HEAVY_FACTS = 6
#: reason() calls per batch pass: a pass then holds enough reads to have a
#: 90th percentile, and its median reason() is steadier than a single one.
BATCH_REASONS = 3
POINT_QUERY_COMPANIES = 150
POINT_QUERY_PERSONS = 100
POINT_QUERIES_PER_PASS = 100
POINT_QUERY_ZIPF = 1.1
POINT_QUERY_SEED = 11
SERVICE_NODES = 40
SERVICE_OPS_PER_PASS = 300


@dataclass
class Inputs:
    """Everything one workload gives the system, plus the predicates checked."""

    workload: str
    seed: int
    program: str
    data: Dict[str, List[Tuple[object, ...]]]
    outputs: List[str]
    #: One pass of the closed loop after set-up: ``["reason", None]`` (a batch
    #: ``reason()``), ``["query", text]``, ``["query", None]`` (full output
    #: extraction), ``["upsert", rows]``, ``["retract", rows]``.
    ops: List[list]


def _relations(database) -> Dict[str, List[Tuple[object, ...]]]:
    return {
        name: [tuple(row) for row in database.relation(name).tuples]
        for name in database.relations()
    }


def _kg_batch() -> Inputs:
    graph = generate_company_graph(70, 60, key_person_ratio=0.8)
    binds = "".join(f'@bind("{p}", "sqlite", "{KG_EDB}").\n' for p in KG_INPUTS)
    binds += f'@bind("StrongLink", "sqlite", "{KG_OUT}").\n'
    binds += f'@bind("PSC", "sqlite", "{KG_OUT}").\n'
    binds += '@output("PSC").\n'
    program = binds + STRONG_LINKS_PROGRAM_TEMPLATE.format(threshold=3)
    return Inputs(
        "kg-batch", 0, program, _relations(graph), ["PSC", "StrongLink"],
        [["reason", None]] * BATCH_REASONS,
    )


def _rules_heavy() -> Inputs:
    """synthB blocks, renamed apart so only the rule count grows."""
    program = Program()
    data: Dict[str, List[Tuple[object, ...]]] = {}
    for block in range(RULES_HEAVY_BLOCKS):
        config = dataclasses.replace(
            SCENARIO_CONFIGS["synthB"],
            facts_per_predicate=RULES_HEAVY_FACTS,
            seed=SCENARIO_CONFIGS["synthB"].seed + block,
        )
        block_program, block_database = generate_iwarded(config)

        def rename(atom: Atom, block: int = block) -> Atom:
            return Atom(f"B{block}_{atom.predicate}", atom.terms)

        for rule in block_program.rules:
            program.add_rule(
                Rule(
                    body=tuple(rename(a) for a in rule.body),
                    head=tuple(rename(a) for a in rule.head),
                    conditions=rule.conditions,
                    assignments=rule.assignments,
                    aggregate=rule.aggregate,
                    label=f"B{block}_{rule.label}",
                )
            )
        program.outputs |= {f"B{block}_{name}" for name in block_program.outputs}
        for name, rows in _relations(block_database).items():
            data[f"B{block}_{name}"] = rows
    return Inputs(
        "rules-heavy", 0, unparse_program(program), data, sorted(program.outputs),
        [["reason", None]] * BATCH_REASONS,
    )


def _point_queries() -> Inputs:
    graph = generate_company_graph(POINT_QUERY_COMPANIES, POINT_QUERY_PERSONS)
    rng = random.Random(POINT_QUERY_SEED)
    ranked = [f"company{i}" for i in range(POINT_QUERY_COMPANIES)]
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** POINT_QUERY_ZIPF for rank in range(len(ranked))]
    constants = rng.choices(ranked, weights=weights, k=POINT_QUERIES_PER_PASS)
    ops = [["query", f'PSC("{c}", P)'] for c in constants]
    return Inputs("point-queries", 0, PSC_PROGRAM, _relations(graph), ["PSC"], ops)


def _service_mixed() -> Inputs:
    scenario = service_scenario(n_nodes=SERVICE_NODES)
    ops = [
        [kind, {p: [list(r) for r in rows] for p, rows in arg.items()}
         if isinstance(arg, dict) else arg]
        for kind, arg in service_operations(
            scenario, n_ops=SERVICE_OPS_PER_PASS, update_ratio=(1, 4)
        )
    ]
    return Inputs(
        "service-mixed", 0, SERVICE_PROGRAM, _relations(scenario.database),
        list(scenario.outputs), ops,
    )


_GENERATORS = {
    "kg-batch": _kg_batch,
    "rules-heavy": _rules_heavy,
    "point-queries": _point_queries,
    "service-mixed": _service_mixed,
}


_NUMBERED = re.compile(r"^(\D*)(\d+)$")
_QUOTED = re.compile(r'"([^"]*)"')


def _renaming(constants, rng: random.Random) -> Dict[str, str]:
    """A seeded bijection on ``<kind><number>`` constants, kind-preserving."""
    kinds: Dict[str, List[str]] = {}
    for value in sorted(constants):
        match = _NUMBERED.match(value)
        if match:
            kinds.setdefault(match.group(1), []).append(match.group(2))
    renaming: Dict[str, str] = {}
    for kind, numbers in sorted(kinds.items()):
        shuffled = list(numbers)
        rng.shuffle(shuffled)
        renaming.update({kind + old: kind + new for old, new in zip(numbers, shuffled)})
    return renaming


def _relabel(base: Inputs, seed: int) -> Inputs:
    """The isomorphic copy of ``base`` that ``seed`` draws."""
    rng = random.Random(seed)
    tuples = [r for rows in base.data.values() for r in rows]
    for _, argument in base.ops:
        if isinstance(argument, dict):
            tuples.extend(r for rows in argument.values() for r in rows)
        elif isinstance(argument, str):
            tuples.append(_QUOTED.findall(argument))
    constants = {v for r in tuples for v in r if isinstance(v, str)}
    renaming = _renaming(constants, rng)

    def row(values):
        return tuple(renaming.get(v, v) if isinstance(v, str) else v for v in values)

    data = {predicate: [row(r) for r in rows] for predicate, rows in base.data.items()}
    ops = []
    for kind, argument in base.ops:
        if isinstance(argument, dict):
            argument = {p: [list(row(r)) for r in rows] for p, rows in argument.items()}
        elif isinstance(argument, str):
            argument = _QUOTED.sub(lambda m: f'"{renaming.get(m.group(1), m.group(1))}"', argument)
        ops.append([kind, argument])
    return Inputs(base.workload, seed, base.program, data, base.outputs, ops)


def generate(workload: str, seed: int) -> Inputs:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; use one of {', '.join(WORKLOADS)}")
    return _relabel(_GENERATORS[workload](), seed)


def encode(inputs: Inputs) -> bytes:
    """Canonical bytes of the inputs (row order kept: it is part of the input)."""
    record = dataclasses.asdict(inputs)
    record["data"] = {p: [list(r) for r in rows] for p, rows in sorted(inputs.data.items())}
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode(raw: bytes) -> Inputs:
    record = json.loads(raw)
    record["data"] = {p: [tuple(r) for r in rows] for p, rows in record["data"].items()}
    return Inputs(**record)


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def final_edb(inputs: Inputs) -> Dict[str, List[Tuple[object, ...]]]:
    """The extensional rows after one pass of the operation stream."""
    rows = {p: dict.fromkeys(r) for p, r in inputs.data.items()}
    for kind, arg in inputs.ops:
        if kind in ("upsert", "retract"):
            for predicate, changed in arg.items():
                relation = rows.setdefault(predicate, {})
                for row in changed:
                    if kind == "upsert":
                        relation[tuple(row)] = None
                    else:
                        relation.pop(tuple(row), None)
    return {p: list(r) for p, r in rows.items()}

"""In-memory fact store with dynamic per-position hash indexes.

This is the data substrate shared by the chase engine and the baselines: a
set of facts grouped by predicate, with hash indexes on (predicate,
position, value) built *dynamically* as facts are inserted, mirroring the
"dynamic indexing" idea of the slot-machine join (Section 4): there is no
persistent pre-computed index, the indexes grow with the derived facts and
can be consulted even while incomplete.

The indexes are keyed by the terms themselves (constants, nulls): terms
cache their hash at construction (:mod:`repro.core.terms`), so a probe costs
two dictionary lookups and no tuple allocation.  On top of the full indexes
the store maintains **per-round delta indexes** (:meth:`begin_round`) used
by the compiled rule executors for semi-naive evaluation, plus the insertion
round of every fact so executors can restrict probes to earlier rounds.

:meth:`FactStore.snapshot` returns a :class:`StoreSnapshot`, a read-only
view of the store at the current mutation epoch: the resident reasoner and
the reasoning service answer queries through snapshots, and a read after a
concurrent mutation raises :class:`StaleSnapshotError` instead of observing
a half-applied write.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .atoms import Atom, Fact
from .terms import Constant, Term, Variable

_EMPTY: Tuple[Fact, ...] = ()


class StaleSnapshotError(RuntimeError):
    """A read hit a :class:`StoreSnapshot` after its store was mutated."""


class FactStore:
    """A set of facts with per-position hash indexes and insertion order."""

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._facts: List[Fact] = []
        # Dedup map keyed by (predicate, terms) — the exact equality of Fact
        # itself — so membership works for whole facts and for rows the
        # compiled fire path has not turned into Fact objects yet.  The value
        # is the fact's position in ``_facts``, which :meth:`remove`
        # tombstones.
        self._rows: Dict[Tuple[str, Tuple[Term, ...]], int] = {}
        # Incremented on every mutation; snapshots record it and refuse
        # reads once it moved on (see :class:`StoreSnapshot`).
        self._epoch: int = 0
        self._by_predicate: Dict[str, List[Fact]] = {}
        # predicate -> list of per-position {term: [facts]} dictionaries
        self._position_index: Dict[str, List[Dict[Term, List[Fact]]]] = {}
        self._active_domain: Set[Hashable] = set()
        # Occurrence counts backing the active domain: retraction may only
        # drop a constant when its last occurrence leaves the store.
        self._domain_counts: Dict[Hashable, int] = {}
        # Number of live (non-tombstoned) entries of ``_facts``; removal
        # tombstones the slot to keep row indexes stable (see :meth:`remove`).
        self._live: int = 0
        self._facts_cache: Optional[Tuple[Fact, ...]] = None
        # -- semi-naive round bookkeeping (driven by the chase engine) -------
        self.current_round: int = 0
        self._round_of: Dict[Fact, int] = {}
        self._delta_by_predicate: Dict[str, List[Fact]] = {}
        self._delta_index: Dict[str, List[Dict[Term, List[Fact]]]] = {}
        for fact in facts:
            self.add(fact)

    # -- mutation ------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns ``False`` when an identical fact is present."""
        key = (fact.predicate, fact.terms)
        if key in self._rows:
            return False
        self._epoch += 1
        self._rows[key] = len(self._facts)
        self._facts.append(fact)
        self._facts_cache = None
        self._round_of[fact] = self.current_round
        self._by_predicate.setdefault(fact.predicate, []).append(fact)
        position_dicts = self._position_index.get(fact.predicate)
        if position_dicts is None:
            position_dicts = self._position_index[fact.predicate] = []
        while len(position_dicts) < len(fact.terms):
            position_dicts.append({})
        for index, term in enumerate(fact.terms):
            bucket = position_dicts[index].get(term)
            if bucket is None:
                position_dicts[index][term] = [fact]
            else:
                bucket.append(fact)
            if isinstance(term, Constant):
                self._active_domain.add(term.value)
                self._domain_counts[term.value] = self._domain_counts.get(term.value, 0) + 1
        self._live += 1
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts, returning the number actually added."""
        return sum(1 for fact in facts if self.add(fact))

    def remove(self, fact: Fact) -> bool:
        """Retract a fact; returns ``False`` when it is not in the store.

        Removal is the mutation primitive of the resident reasoner's DRed
        path (:mod:`repro.engine.incremental`).  The fact's slot in the
        insertion sequence is tombstoned (``None``) rather than compacted so
        the positions of the surviving facts stay valid; iteration and
        :meth:`facts` skip tombstones.  Every
        removal bumps the mutation epoch, so snapshots taken before it go
        stale exactly like they do for inserts.
        """
        key = (fact.predicate, fact.terms)
        index = self._rows.pop(key, None)
        if index is None:
            return False
        self._epoch += 1
        stored = self._facts[index]
        self._facts[index] = None
        self._facts_cache = None
        self._live -= 1
        self._round_of.pop(stored, None)
        bucket = self._by_predicate.get(stored.predicate)
        if bucket is not None:
            try:
                bucket.remove(stored)
            except ValueError:  # pragma: no cover - index kept in lockstep
                pass
        position_dicts = self._position_index.get(stored.predicate)
        for position, term in enumerate(stored.terms):
            if position_dicts is not None and position < len(position_dicts):
                entries = position_dicts[position].get(term)
                if entries is not None:
                    try:
                        entries.remove(stored)
                    except ValueError:  # pragma: no cover
                        pass
                    if not entries:
                        del position_dicts[position][term]
            if isinstance(term, Constant):
                count = self._domain_counts.get(term.value, 0) - 1
                if count <= 0:
                    self._domain_counts.pop(term.value, None)
                    self._active_domain.discard(term.value)
                else:
                    self._domain_counts[term.value] = count
        delta_bucket = self._delta_by_predicate.get(stored.predicate)
        if delta_bucket is not None and stored in delta_bucket:
            delta_bucket.remove(stored)
            self._delta_index.pop(stored.predicate, None)
        return True

    def remove_all(self, facts: Iterable[Fact]) -> int:
        """Retract many facts, returning the number actually removed."""
        return sum(1 for fact in facts if self.remove(fact))

    # -- inspection ----------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        return (fact.predicate, fact.terms) in self._rows

    def contains_row(self, predicate: str, terms: Tuple[Term, ...]) -> bool:
        """Duplicate check without constructing a :class:`Fact` object.

        Used by the compiled fire path: most candidate heads are duplicates,
        and a tuple membership test is far cheaper than building the fact
        first.
        """
        return (predicate, terms) in self._rows

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts())

    def facts(self) -> Tuple[Fact, ...]:
        if self._facts_cache is None:
            self._facts_cache = tuple(f for f in self._facts if f is not None)
        return self._facts_cache

    def predicates(self) -> Tuple[str, ...]:
        return tuple(self._by_predicate)

    def by_predicate(self, predicate: str) -> Sequence[Fact]:
        return self._by_predicate.get(predicate, ())

    def count(self, predicate: str) -> int:
        return len(self._by_predicate.get(predicate, ()))

    def active_domain(self) -> Set[Hashable]:
        """Constants occurring anywhere in the store (the ``ACDom`` relation)."""
        return set(self._active_domain)

    def in_active_domain(self, value: Hashable) -> bool:
        return value in self._active_domain

    # -- rounds and deltas ---------------------------------------------------
    def begin_round(self, round_index: int, delta_facts: Iterable[Fact]) -> None:
        """Start a semi-naive round: stamp new facts and index the delta.

        ``delta_facts`` are the facts derived in the previous round; they are
        grouped by predicate and indexed per position so compiled executors
        can seed their joins from the delta with indexed probes.
        """
        self._epoch += 1
        self.current_round = round_index
        self._delta_by_predicate = {}
        self._delta_index = {}
        for fact in delta_facts:
            self._delta_by_predicate.setdefault(fact.predicate, []).append(fact)

    def round_of(self, fact: Fact) -> int:
        """The round in which ``fact`` entered the store (0 for inputs)."""
        return self._round_of.get(fact, 0)

    def delta_facts(self, predicate: str) -> Sequence[Fact]:
        """Facts of the current delta (previous round's derivations)."""
        return self._delta_by_predicate.get(predicate, ())

    def delta_candidates(self, predicate: str, position: int, term: Term) -> Sequence[Fact]:
        """Delta facts with ``term`` at ``position`` (indexed probe).

        The per-position delta index of a predicate is built lazily on first
        probe: most seed atoms carry no constants, so eagerly indexing every
        delta predicate each round would be wasted work.
        """
        position_dicts = self._delta_index.get(predicate)
        if position_dicts is None:
            position_dicts = self._delta_index[predicate] = []
            for fact in self._delta_by_predicate.get(predicate, ()):
                while len(position_dicts) < len(fact.terms):
                    position_dicts.append({})
                for index, fact_term in enumerate(fact.terms):
                    bucket = position_dicts[index].get(fact_term)
                    if bucket is None:
                        position_dicts[index][fact_term] = [fact]
                    else:
                        bucket.append(fact)
        if position >= len(position_dicts):
            return _EMPTY
        return position_dicts[position].get(term, _EMPTY)

    # -- matching ------------------------------------------------------------
    def position_candidates(self, predicate: str, position: int, term: Term) -> Sequence[Fact]:
        """Facts of ``predicate`` with ``term`` at ``position`` (indexed probe)."""
        position_dicts = self._position_index.get(predicate)
        if position_dicts is None or position >= len(position_dicts):
            return _EMPTY
        return position_dicts[position].get(term, _EMPTY)

    def position_dicts(self, predicate: str) -> Optional[List[Dict[Term, List[Fact]]]]:
        """The raw per-position index of a predicate (``None`` when unknown).

        Exposed for the compiled executor, whose innermost probe loop wants
        one dictionary access per bound position instead of a method call.
        """
        return self._position_index.get(predicate)

    def candidates(self, atom: Atom, binding: Dict[Variable, Term]) -> Sequence[Fact]:
        """Facts that could match ``atom`` under the (partial) ``binding``.

        Uses the most selective available position index: among the atom
        positions holding a constant or an already-bound variable, the one
        whose candidate bucket is smallest.  Falls back to a full scan of the
        predicate when the atom has no bound position.
        """
        position_dicts = self._position_index.get(atom.predicate)
        if position_dicts is None:
            return _EMPTY if atom.predicate not in self._by_predicate else self._by_predicate[atom.predicate]
        best: Optional[Sequence[Fact]] = None
        for index, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                bound = binding.get(term)
                if bound is None:
                    continue
                term = bound
            if index >= len(position_dicts):
                return _EMPTY
            bucket = position_dicts[index].get(term)
            if bucket is None:
                return _EMPTY
            if best is None or len(bucket) < len(best):
                best = bucket
                if len(best) <= 1:
                    break
        if best is not None:
            return best
        return self._by_predicate.get(atom.predicate, ())

    def matches(self, atom: Atom, binding: Optional[Dict[Variable, Term]] = None) -> Iterator[Dict[Variable, Term]]:
        """Yield extensions of ``binding`` that match ``atom`` against the store."""
        binding = dict(binding or {})
        ground_atom = atom.substitute(binding)
        for fact in self.candidates(ground_atom, binding):
            extension = ground_atom.match(fact)
            if extension is None:
                continue
            merged = dict(binding)
            merged.update(extension)
            yield merged

    def copy(self) -> "FactStore":
        return FactStore(self.facts())

    # -- read snapshots ------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Mutation counter; bumped by every insert and every round start."""
        return self._epoch

    def snapshot(self) -> "StoreSnapshot":
        """A read-only view of the store at the current mutation epoch."""
        return StoreSnapshot(self)


class StoreSnapshot:
    """Read-only view of a :class:`FactStore` at a fixed mutation epoch.

    The snapshot exposes the read API answer extraction uses, so a query
    can run against a snapshot or a live store interchangeably.  It is a
    zero-copy facade: reads delegate to the underlying store and a cheap
    epoch check at every entry point raises :class:`StaleSnapshotError` if
    the store was mutated after the snapshot was taken, so a reader never
    observes a half-applied write.
    """

    __slots__ = ("_store", "_epoch")

    def __init__(self, store: FactStore) -> None:
        self._store = store
        self._epoch = store.epoch

    def _check(self) -> FactStore:
        store = self._store
        if store.epoch != self._epoch:
            raise StaleSnapshotError(
                "store mutated after the snapshot was taken "
                f"(epoch {store.epoch} != snapshot epoch {self._epoch})"
            )
        return store

    @property
    def stale(self) -> bool:
        return self._store.epoch != self._epoch

    def by_predicate(self, predicate: str) -> Sequence[Fact]:
        return self._check().by_predicate(predicate)

    def __len__(self) -> int:
        return len(self._check())

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._check()


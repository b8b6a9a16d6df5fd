"""The contract every ``Record`` keeps, checked on each subclass there is,
and the import that builds them: no module loads ``dataclasses`` or
``inspect``."""

import copy
import inspect
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import racetrace
from racetrace import cli, explorer, parsing, races, simulator, terms, traces
from racetrace.causality import EventId
from racetrace.terms import (
    Atom,
    Clause,
    Cmp,
    Constraint,
    GTrue,
    Int,
    PidLit,
    Record,
    TagLit,
    Tup,
    Var,
    Wildcard,
)

CS1 = Constraint("cs1", (Clause(Wildcard(), GTrue()),))
CS2 = Constraint("cs2", (Clause(Var("X"), Cmp(">", Var("X"), Int(0))),))
SEND = traces.Send("l1", Tup((Atom("val"), Int(1))), "p1.1")
MAIN = simulator.FunDef("main", (), ())
TRACE = traces.Trace("p1", {"p1": (SEND,), "p1.1": (traces.Rec("l1", CS1),)})
CHECK = races.CandidateCheck("l2", "p1.2", True, False, False, None, False, True)

# Two sets of field values per record, different in every field.
SAMPLES = {
    "Int": ((1,), (2,)),
    "Atom": (("a",), ("b",)),
    "Tup": (((Int(1),),), ((Atom("a"), Int(1)),)),
    "Lst": (((Int(1),),), ((),)),
    "PidLit": (("a",), ("b",)),
    "TagLit": (("a",), ("b",)),
    "Var": (("A",), ("B",)),
    "Wildcard": ((), ()),
    "GTrue": ((), ()),
    "Cmp": (("<", Var("X"), Int(1)), ("==", Var("Y"), Atom("a"))),
    "GChain": ((GTrue(), (("and", GTrue()),)), (Cmp("<", Var("X"), Int(1)), ())),
    "Clause": ((Wildcard(), GTrue()), (Var("X"), Cmp(">", Var("X"), Int(0)))),
    "Constraint": (("cs1", CS1.clauses), ("cs2", CS2.clauses)),
    "Token": (("atom", "a", 1, 2), ("int", "7", 3, 4)),
    "Spawn": (("p1.1",), ("p1.2",)),
    "Send": (("l1", Int(1), "p1.1"), ("l2", Atom("a"), "p1.2")),
    "Rec": (("l1", CS1), ("l2", CS2)),
    "Event": (("p1", traces.Spawn("p1.1")), ("p1.1", SEND)),
    "Interleaving": (("p1", (traces.Event("p1", SEND),)), ("p2", ())),
    "Violation": (("a", "p1[0]", "x"), ("b", "event 2", "y")),
    "SpawnStmt": (("C", "gen", (Var("C"),)), (None, "main", ())),
    "BindStmt": (("X", Int(1)), (None, Atom("a"))),
    "SendStmt": ((Int(1), Var("C")), (Atom("a"), PidLit("p1"))),
    "ReceiveStmt": ((CS1, (simulator.BindStmt(None, Atom("ok")),)), (CS2, ())),
    "FunDef": (("main", (), ()), ("gen", ("C",), (simulator.SendStmt(Int(1), Var("C")),))),
    "Program": (({"main": MAIN}, "main"), ({}, "other")),
    "Outcome": (("completed", ()), ("deadlock", ("p1",))),
    "Origin": (("k1", ("p1", 0), "l1", "l2"), ("k2", ("p1.1", 1), "l3", "l4")),
    "ExploredTrace": (
        (TRACE, simulator.Outcome("completed"), (), 0, None),
        (traces.Trace("p1", {"p1": ()}), simulator.Outcome("deadlock", ("p1",)), ("l1",), 1,
         explorer.Origin("k1", ("p1", 0), "l1", "l2")),
    ),
    "Trace": (("p1", TRACE.procs), ("p2", {"p2": (), "p2.1": ()})),
    "RaceReport": (
        (EventId("p1.1", 0), "l1", {"l2"}, [CHECK]),
        (EventId("p1.1", 1), "l2", set(), []),
    ),
}


def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


RECORDS = {cls.__name__: cls for cls in _records()}


def test_every_record_has_samples_and_every_class_is_a_record_or_listed():
    assert set(RECORDS) == set(SAMPLES)
    # the other classes: mutable state, named tuples, errors
    plain = {"TraceIndex", "TokenStream", "HbGraph", "ProcState", "SysState", "Alignment",
             "ExplorationReport", "Record"}
    for module in (terms, parsing, traces, racetrace.causality, races, simulator, explorer,
                   racetrace.oracles, cli):
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                assert name in RECORDS or name in plain or issubclass(cls, (Exception, tuple)), name


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_record_keeps_the_contract(name):
    cls = RECORDS[name]
    a, b = SAMPLES[name]
    record = cls(*a)
    assert cls.__match_args__ == tuple(f for f in cls.__slots__ if f != "__dict__")
    assert tuple(getattr(record, f) for f in cls.__match_args__) == a
    assert not hasattr(record, "__dict__") or cls is Constraint  # its text and sort key
    # equal iff the same class with equal fields
    assert record == cls(*a) and not record != cls(*a)
    for i in range(len(a)):
        changed = cls(*a[:i], b[i], *a[i + 1:])
        assert record != changed and not record == changed, cls.__match_args__[i]
    try:
        hash(a)
    except TypeError:  # a dict, set, list or Trace among the fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*a))
        assert {record: 1}[cls(*a)] == 1
    for field in cls.__match_args__ + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert tuple(getattr(record, f) for f in cls.__match_args__) == a
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_records_of_other_classes_with_the_same_fields_differ():
    for (n1, c1), (n2, c2) in itertools.combinations(sorted(RECORDS.items()), 2):
        values = SAMPLES[n1][0]
        # Constraint validates its values, Trace reads procs as a mapping
        if len(c2.__match_args__) == len(values) and n2 not in ("Constraint", "Trace"):
            assert c1(*values) != c2(*values) and not c1(*values) == c2(*values), (n1, n2)
    strings = [Atom("a"), Var("a"), PidLit("a"), TagLit("a")]
    assert all(x != y for x, y in itertools.combinations(strings, 2))
    assert Wildcard() == Wildcard() and Wildcard() != GTrue()
    # a record against a non-record: == gives NotImplemented, != its inverse
    assert Int(1) != 1 and not Int(1) == 1 and Int(1) != (1,)


def test_a_record_is_built_from_exactly_its_fields():
    assert simulator.Outcome("completed").blocked == ()
    with pytest.raises(ValueError, match="no clauses"):
        Constraint("cs1", ())


OWN_INIT = {"Constraint", "Outcome", "Trace"}  # validates, has a default, sorts


def test_only_a_record_that_validates_defaults_or_sorts_defines_a_constructor():
    own = {n for n, c in RECORDS.items() if "def __init__(" in inspect.getsource(c)}
    assert own == OWN_INIT
    assert "__init__" not in vars(Record)
    assert all(c.__init__.__qualname__ == f"{n}.__init__" for n, c in RECORDS.items())
    with pytest.raises(TypeError, match="at most 5"):
        type("Six", (Record,), {"__slots__": tuple("abcdef")})


@pytest.mark.parametrize("name", sorted(set(SAMPLES) - OWN_INIT))
def test_a_record_takes_its_fields_in_order_by_position_only(name):
    cls = RECORDS[name]
    a = SAMPLES[name][0]
    with pytest.raises(TypeError):
        cls(*a, None)
    if a:
        with pytest.raises(TypeError):
            cls(*a[:-1])
        with pytest.raises(TypeError):
            cls(**dict(zip(cls.__match_args__, a)))


def test_a_record_prints_as_name_and_fields():
    # byte-identical to the dataclass repr these types had
    assert repr(SEND) == (
        "Send(tag='l1', value=Tup(items=(Atom(name='val'), Int(value=1))), target='p1.1')"
    )
    outcome = simulator.Outcome("deadlock", ("p1",))
    assert repr(outcome) == "Outcome(kind='deadlock', blocked=('p1',))"
    assert repr(parsing.Token("atom", "a", 1, 2)) == "Token(kind='atom', text='a', line=1, col=2)"
    assert repr(CS1) == (
        "Constraint(cs_id='cs1', clauses=(Clause(pattern=Wildcard(), guard=GTrue()),))"
    )
    assert repr(TRACE) == (
        f"Trace(initial='p1', procs={{'p1': ({SEND!r},), 'p1.1': (Rec(tag='l1', cs={CS1!r}),)}})"
    )


def test_a_record_matches_its_fields_in_order():
    match SEND:
        case traces.Send(tag, Tup((Atom(kind), Int(n))), target):
            assert (tag, kind, n, target) == ("l1", "val", 1, "p1.1")
        case _:
            pytest.fail("no match")


def test_importing_racetrace_loads_neither_dataclasses_nor_inspect():
    # which modules are loaded, not how long it takes: nothing here can flake
    src = Path(racetrace.__file__).resolve().parents[1]
    code = "import racetrace, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert run.stdout == "[]\n"

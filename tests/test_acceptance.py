"""Acceptance suite: one test per criterion, one pass/fail line each
under ``pytest -v``. Golden values (linearization and execution counts)
were derived by independent brute force before the implementation and are
frozen here."""

import itertools

from racetrace import (
    Interleaving,
    all_races,
    causally_equivalent,
    declarative_race_oracle,
    distinctness_check,
    enumerate_executions,
    enumerate_linearizations,
    explore,
    orphans,
    parse_interleaving,
    parse_program,
    parse_trace,
    race_set,
    serialize_interleaving,
    serialize_program,
    serialize_trace,
    swap_equiv_oracle,
    tr,
    validate_interleaving,
    validate_trace,
    variant,
)

from conftest import fixture_text

# frozen golden counts
N_A = 5  # linearizations of fix_tau_a
N_F = 2  # executions of proga.prog
N_B = 4  # executions of progb.prog
N_C = 5  # executions of progc.prog


def test_criterion_01_small_example_race_set(tau_a):
    report = race_set(tau_a, "l1")
    assert report.racers == {"l3"}
    by_tag = {c.tag: c for c in report.candidates}
    assert not by_tag["l2"].matches  # {val,0} fails the M > 0 guard
    assert by_tag["l2"].reason() == "value does not match"


def test_criterion_02_race_set_with_justifications(run_trace):
    report = race_set(run_trace, "l2")
    assert report.racers == {"l6", "l8"}
    by_tag = {c.tag: c for c in report.candidates}
    assert by_tag["l1"].already_received  # consumed by the earlier receive
    assert not by_tag["l4"].matches  # {val,0} fails the guard
    assert by_tag["l6"].in_race_set
    assert by_tag["l7"].hb_excluded  # receive precedes the send causally
    assert by_tag["l8"].in_race_set


def test_criterion_03_variant_matches_golden(run_trace):
    v = variant(run_trace, "l2", "l6")
    assert serialize_trace(v) == fixture_text("variant_run_l2_l6.trace")


def test_criterion_04_swap_equivalence_and_invalid_hoist(s_a, s_b, s_bad):
    assert causally_equivalent(s_a, s_b)
    assert swap_equiv_oracle(s_a, s_b)
    bad = validate_interleaving(s_bad)
    assert bad is not None and bad.condition == "3"


def test_criterion_05_race_sets_equal_declarative_oracle(tau_a, run_trace):
    golden_variant = parse_trace(fixture_text("variant_run_l2_l6.trace"))
    for t in (tau_a, run_trace, golden_variant):
        assert sum(len(s) for s in t.procs.values()) <= 20
        sends = {a.tag for _, _, a in t.events() if a.__class__.__name__ == "Send"}
        for report in all_races(t):
            for other in sends - {report.subject}:
                assert (other in report.racers) == declarative_race_oracle(
                    t, report.subject, other
                ), (report.subject, other)


def test_criterion_06_sched_tr_coherence(tau_a, run_trace):
    schedules = enumerate_linearizations(tau_a)
    assert len(schedules) == N_A
    for t, cap in ((tau_a, 10000), (run_trace, 100000)):
        for s in enumerate_linearizations(t, cap=cap):
            assert validate_interleaving(s) is None
            assert tr(s) == t
    for s1, s2 in itertools.combinations(schedules, 2):
        assert causally_equivalent(s1, s2)
    # golden count cross-checked by permutation brute force
    events = schedules[0].events
    brute = {
        perm
        for perm in itertools.permutations(events)
        if validate_interleaving(Interleaving("p1", perm)) is None
        and tr(Interleaving("p1", perm)) == tau_a
    }
    assert len(brute) == N_A
    # equal events, different trace => not equivalent
    for perm in itertools.permutations(events):
        other = Interleaving("p1", perm)
        if validate_interleaving(other) is not None:
            continue
        if tr(other) != tau_a:
            assert not causally_equivalent(schedules[0], other)


def test_criterion_07_variants_drive_new_behavior(proga, progb, progc):
    for program in (proga, progb, progc):
        report = explore(program, seed=0)
        assert distinctness_check(report) is None
        for key in report.order:
            origin = report.traces[key].origin
            if origin is None:
                continue
            parent = report.traces[origin.parent_key].trace
            child = report.traces[key].trace
            assert child != parent  # tr-unequal
            pid, idx = origin.replaced_at
            assert child.procs[pid][idx] != parent.procs[pid][idx]


def test_criterion_08_exploration_completeness(proga, progb, progc):
    for program, expected in ((proga, N_F), (progb, N_B), (progc, N_C)):
        full, limited = enumerate_executions(program)
        assert limited == 0
        assert len(full) == expected
        assert set(explore(program, seed=0).traces) == set(full)


def test_criterion_09_orphans(run_trace):
    assert orphans(run_trace) == {"l7", "l8"}


def test_criterion_10_format_stability():
    for name in ("fix_tau_a.trace", "fix_run.trace", "variant_run_l2_l6.trace"):
        text = fixture_text(name)
        assert serialize_trace(parse_trace(text)) == text
    for name in ("fix_s_a.itl", "fix_s_b.itl", "fix_s_bad.itl"):
        text = fixture_text(name)
        assert serialize_interleaving(parse_interleaving(text)) == text
    for name in ("proga.prog", "progb.prog", "progc.prog"):
        text = fixture_text(name)
        assert serialize_program(parse_program(text)) == text

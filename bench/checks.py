"""Output checks computed apart from privavg, and their self-tests.

Each check recomputes what it compares from the inputs (exact fractions,
the paper's round bound, a coalition projection of its own) or tests a
property the method must have (silence after quiescence, witnesses that
the coalition cannot tell apart).  A check returns a list of failures, each
starting with the tag of the rule it broke.  Each self-test feeds a check a
corrupted copy of a real result and returns the corruptions it let through;
an empty list means every check is live.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from privavg.engine import AuditVerdict

PUBLISHED_FANOUT = 808.4  # transmissions per trial, 20-node comparison
# Witnesses found per delta searched, over a whole op list.  Not per target:
# on some fresh pair cases (2 of 2250 seen) the privacy constraints on the
# substates rule out every shift placement for three of the six deltas.
MIN_YIELD = Fraction(4, 6)


def paper_bound(n: int, m: int, dmax: int) -> int:
    """Round bound 1 + dmax + n^2 + (n - 1) m^2 of the convergence theorem."""
    return 1 + dmax + n * n + (n - 1) * m * m


# --------------------------------------------------------------------------
# Batches: repro_batch and scale_n200
# --------------------------------------------------------------------------


def check_trial(result, n: int) -> list[str]:
    rep = result.report
    where = f"trial {result.seed}"
    errors = []
    if rep.n != n or len(result.states) != n or len(rep.final_states) != n:
        errors.append(f"shape: {where} has n={rep.n}, {len(result.states)} states")
        return errors
    if not (n <= rep.m <= n * (n - 1) and -(-rep.m // n) <= rep.dmax <= n - 1):
        errors.append(f"shape: {where} has m={rep.m}, dmax={rep.dmax}")
    q = Fraction(sum(result.states), n)
    if (rep.q_num, rep.q_den) != (q.numerator, q.denominator):
        errors.append(f"average: {where} reports {rep.q_num}/{rep.q_den}, inputs give {q}")
    for j, (y, z) in enumerate(rep.final_states):
        if z <= 0 or Fraction(y, z) != q:
            errors.append(f"final-state: {where} node {j} ends at {y}/{z}, not {q}")
            break
    bound = paper_bound(n, rep.m, rep.dmax)
    if rep.bound != bound:
        errors.append(f"bound: {where} reports bound {rep.bound}, recomputed {bound}")
    conv, quiet = rep.convergence_round, rep.quiescence_round
    if conv is None or quiet is None or not (conv <= quiet <= bound):
        errors.append(f"order: {where} convergence {conv}, quiescence {quiet}, bound {bound}")
    for audit in ("conservation", "dominance", "absorption"):
        verdict = getattr(rep, audit)
        if not verdict.ok:
            errors.append(f"audit: {where} {audit} failed: {verdict.detail}")
    window = 5 * n
    tail = result.series[-window:]
    if len(result.series) < window or any(
        row.broadcasts or row.mass_transfers or row.transmitting_nodes or row.converged_nodes != n
        for row in tail
    ):
        errors.append(f"silent-tail: {where} has traffic in its last {window} rounds")
    return errors


def check_batch(summary, n: int, trials: int, trials_csv: str, fanout: bool) -> list[str]:
    errors = []
    results = summary.results
    if [r.index for r in results] != list(range(trials)) or summary.failed:
        errors.append(f"shape: batch holds {len(results)} of {trials} trials or flags failures")
        return errors
    for r in results:
        errors.extend(check_trial(r, n))
    slowest = max(r.report.convergence_round or 0 for r in results)
    settle = next((row[0] for row in summary.series_avg if row[4] == 1.0), None)
    if settle != slowest:
        errors.append(f"settle: averaged curve settles at {settle}, slowest trial at {slowest}")
    if fanout:
        own = sum(r.report.tx_broadcast_as_fanout for r in results) / len(results)
        for value in (own, summary.mean_tx_broadcast_as_fanout):
            if not PUBLISHED_FANOUT / 2 <= value <= PUBLISHED_FANOUT * 2:
                errors.append(f"fanout: {value:.1f} transmissions per trial vs {PUBLISHED_FANOUT}")
    rows = trials_csv.splitlines()[1:]
    expected = [
        (str(r.index), str(r.report.convergence_round), str(r.report.quiescence_round),
         str(paper_bound(n, r.report.m, r.report.dmax)))
        for r in results
    ]
    got = [tuple(row.split(",")[i] for i in (0, 5, 6, 9)) for row in rows]
    if got != expected:
        errors.append("csv: trials.csv does not match the trial reports")
    return errors


def self_test_batch(summary, n: int, trials: int, trials_csv: str, fanout: bool) -> list[str]:
    first = summary.results[0]
    rep = first.report
    (y, z), rest = rep.final_states[0], rep.final_states[1:]
    report_cases = {
        "average": dataclasses.replace(rep, q_num=rep.q_num + 1),
        "final-state": dataclasses.replace(rep, final_states=((y + 1, z),) + rest),
        "bound": dataclasses.replace(rep, bound=rep.bound + 1),
        "order": dataclasses.replace(rep, quiescence_round=paper_bound(n, rep.m, rep.dmax) + 1),
        "audit": dataclasses.replace(rep, absorption=AuditVerdict(False, 0, "corrupted")),
    }
    missed = []
    for tag, bad in report_cases.items():
        if not _rejects(check_trial(dataclasses.replace(first, report=bad), n), tag):
            missed.append(tag)
    loud = dataclasses.replace(first.series[-1], mass_transfers=1)
    noisy = dataclasses.replace(first, series=first.series[:-1] + (loud,))
    if not _rejects(check_trial(noisy, n), "silent-tail"):
        missed.append("silent-tail")

    slowest = max(r.report.convergence_round for r in summary.results)
    curve = list(summary.series_avg)
    curve[slowest] = curve[slowest][:4] + (0.5,)
    batch_cases = {"settle": dataclasses.replace(summary, series_avg=curve)}
    if fanout:
        batch_cases["fanout"] = dataclasses.replace(
            summary, mean_tx_broadcast_as_fanout=3 * PUBLISHED_FANOUT
        )
    for tag, bad in batch_cases.items():
        if not _rejects(check_batch(bad, n, trials, trials_csv, fanout), tag):
            missed.append(tag)
    lines = trials_csv.splitlines()
    cells = lines[1].split(",")
    cells[9] = str(int(cells[9]) + 1)
    broken_csv = "\n".join([lines[0], ",".join(cells)] + lines[2:])
    if not _rejects(check_batch(summary, n, trials, broken_csv, fanout), "csv"):
        missed.append("csv")
    return missed


# --------------------------------------------------------------------------
# Witness search
# --------------------------------------------------------------------------


def coalition_view(trace, coalition) -> list[tuple]:
    """What the coalition sees, round by round, built without privavg.privacy.

    Per round: every message a member sent or received (as a sorted
    multiset, since the order inside a round carries no information) and
    each member's full post-step state, flags and fired triggers.
    """
    members = sorted(coalition)
    view = []
    for record in trace.records:
        seen = sorted(
            (type(m).__name__, m.round, m.src, m.dst, m.y, m.z)
            for m in record.messages
            if m.src in coalition or m.dst in coalition
        )
        own = [
            (
                j,
                record.nodes[j].mass_y,
                record.nodes[j].mass_z,
                record.nodes[j].state_y,
                record.nodes[j].state_z,
                record.nodes[j].s,
                record.nodes[j].s_br,
                record.nodes[j].m_tr,
                record.nodes[j].rr_cursor,
                tuple(record.fired[j]),
            )
            for j in members
        ]
        view.append((record.round, tuple(seen), tuple(own)))
    return view


def check_witnesses(case, found, simulate) -> list[str]:
    """found: (delta, witness or None) for each delta of the search."""
    where = f"case {case.index}"
    errors = []
    if all(w is None for _d, w in found):
        errors.append(f"count: {where} has no witness for any delta")
    k = case.dmax + 2
    total = sum(sum(s.uy) for s in case.schedules)
    for delta, w in found:
        if w is None:
            continue
        tag = f"{where} delta {delta}"
        before = len(errors)
        if (w.target, w.helper, w.delta) != (case.target, case.helper, delta):
            errors.append(f"identity: {tag} returned {(w.target, w.helper, w.delta)}")
            continue
        alt_t, alt_h = w.alt_target_schedule, w.alt_helper_schedule
        for who, alt, y0 in (
            ("target", alt_t, case.states[case.target] + delta),
            ("helper", alt_h, case.states[case.helper] - delta),
        ):
            if Fraction(sum(alt.uy), k) != y0 or alt.uz != (1,) * k or len(alt.uy) != k:
                errors.append(f"average: {tag} {who} substates do not average to {y0}")
            if len(set(alt.uy)) != k:
                errors.append(f"distinct: {tag} {who} substates repeat: {alt.uy}")
            if y0 in alt.uy:
                errors.append(f"avoid-y0: {tag} {who} substates contain {y0}")
        alt = list(case.schedules)
        alt[case.target], alt[case.helper] = alt_t, alt_h
        if sum(sum(s.uy) for s in alt) != total:
            errors.append(f"total: {tag} changes the network total")
        if len(errors) > before:
            continue  # the engine refuses malformed schedules; nothing to replay
        alt_trace, _ = simulate(
            case.graph, alt, case.trace.max_rounds, case.trace.quiescence_window
        )
        if coalition_view(alt_trace, case.coalition) != case.view():
            errors.append(f"indistinguishable: {tag} coalition sees a difference")
    return errors


def check_yield(founds) -> list[str]:
    searched = sum(len(found) for found in founds)
    got = sum(w is not None for found in founds for _d, w in found)
    if got < MIN_YIELD * searched:
        return [f"yield: {got} witnesses in {searched} searches, needs {MIN_YIELD} of them"]
    return []


def self_test_witnesses(case, found, simulate) -> list[str]:
    delta, w = next((d, w) for d, w in found if w is not None)
    uy = list(w.alt_target_schedule.uy)
    y0 = case.states[case.target] + delta

    def with_target(values):
        alt = dataclasses.replace(w.alt_target_schedule, uy=tuple(values))
        return [(delta, dataclasses.replace(w, alt_target_schedule=alt))]

    off = uy[:]
    off[0] += 1
    repeat = uy[:]
    repeat[2] += repeat[1] - repeat[0]
    repeat[1] = repeat[0]
    hit = uy[:]
    hit[1] += hit[0] - y0
    hit[0] = y0
    helper_uy = list(w.alt_helper_schedule.uy)
    helper_uy[0] += 1
    drift = dataclasses.replace(
        w, alt_helper_schedule=dataclasses.replace(w.alt_helper_schedule, uy=tuple(helper_uy))
    )

    def leaky(g, schedules, max_rounds, window):
        trace, report = simulate(g, schedules, max_rounds, window)
        records = list(trace.records)
        for i, rec in enumerate(records):
            for pos, m in enumerate(rec.messages):
                if m.src in case.coalition or m.dst in case.coalition:
                    msgs = list(rec.messages)
                    msgs[pos] = dataclasses.replace(m, y=m.y + 1)
                    records[i] = dataclasses.replace(rec, messages=tuple(msgs))
                    return dataclasses.replace(trace, records=records), report
        return trace, report

    cases = {
        "average": (with_target(off), simulate),
        "distinct": (with_target(repeat), simulate),
        "avoid-y0": (with_target(hit), simulate),
        "total": ([(delta, drift)], simulate),
        "indistinguishable": ([(delta, w)], leaky),
        "count": ([(d, None) for d, _w in found], simulate),
    }
    missed = [
        tag for tag, (bad, sim) in cases.items()
        if not _rejects(check_witnesses(case, bad, sim), tag)
    ]
    if not _rejects(check_yield([[(delta, w)] * 3 + [(delta, None)] * 3]), "yield"):
        missed.append("yield")
    return missed


def _rejects(errors: list[str], tag: str) -> bool:
    return any(e.startswith(tag + ":") for e in errors)

"""E10 — Theorem 4.4: the exact typechecking pipeline, end to end.

A suite of (transducer, input type, output type) instances covering both
verdicts, with the decision cost and intermediate automaton sizes; the
cost growth with transducer state count is the practical face of the
complexity discussion (Sections 4-5: "even one or two pebbles can be
quite powerful").
"""

import pytest

from conftest import report
from repro.automata import BottomUpTA
from repro.data import q1_input_dtd, q2_good_output_dtd
from repro.ext import abstract_view_transducer, input_dtd, view_dtd
from repro.lang import Apply, Out, Stylesheet, Template, xslt_to_transducer
from repro.lang import q2_stylesheet
from repro.pebble import copy_transducer, rotation_transducer
from repro.trees import RankedAlphabet
from repro.typecheck import inverse_type, typecheck

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


def leaves_all_a() -> BottomUpTA:
    return BottomUpTA(
        alphabet=ALPHA,
        states={"ok"},
        leaf_rules={"a": {"ok"}},
        rules={(s, "ok", "ok"): {"ok"} for s in ("f", "g")},
        accepting={"ok"},
    )


def test_copy_identity(once):
    machine = copy_transducer(ALPHA)
    result = once(typecheck, machine, leaves_all_a(), leaves_all_a(),
                  method="exact")
    assert result.ok
    report("E10 copy", [("offending-language states",
                         result.stats["offending_states"]),
                        ("seconds", f"{result.stats['seconds']:.3f}")])


def test_copy_inverse_type(once):
    machine = copy_transducer(ALPHA)
    inverse = once(inverse_type, machine, leaves_all_a())
    assert inverse.equivalent(leaves_all_a())


def test_xslt_wrap_stylesheet(once):
    sheet = Stylesheet([
        Template("doc", [Out("D", [Apply()])]),
        Template("sec", [Out("S", [Apply()])]),
        Template("par", [Out("P")]),
    ])
    machine = xslt_to_transducer(sheet, tags={"doc", "sec", "par"},
                                 root_tag="doc")
    from repro.xmlio import parse_dtd

    tau1 = parse_dtd("doc := sec*\nsec := par*\npar :=")
    tau2 = parse_dtd("D := S*\nS := P*\nP :=")
    result = once(typecheck, machine, tau1, tau2, method="exact")
    assert result.ok


def test_q2_against_good_dtd(once):
    machine = xslt_to_transducer(q2_stylesheet(), tags={"root", "a"},
                                 root_tag="root")
    result = once(typecheck, machine, q1_input_dtd(), q2_good_output_dtd(),
                  method="exact")
    assert result.ok
    report("E10 Q2", [("transducer states", machine.stats()["states"]),
                      ("offending-language states",
                       result.stats["offending_states"]),
                      ("seconds", f"{result.stats['seconds']:.2f}")])


def test_relational_export(once):
    machine = abstract_view_transducer()
    result = once(typecheck, machine, input_dtd(), view_dtd(),
                  method="exact")
    assert result.ok


def test_cost_growth_with_state_count(once):
    """Exact typechecking cost as the XSLT stylesheet grows — the shape
    the complexity analysis predicts (fast growth, still feasible for
    1-pebble machines)."""
    from repro.xmlio import parse_dtd

    def build(n_levels: int):
        templates = [Template("t0", [Out("o0", [Apply()])])]
        tags = ["t0"]
        for i in range(1, n_levels):
            templates.append(Template(f"t{i}", [Out(f"o{i}", [Apply()])]))
            tags.append(f"t{i}")
        templates.append(Template("leaf", [Out("oleaf")]))
        tags.append("leaf")
        lines = []
        out_lines = []
        for i in range(n_levels):
            nxt = f"t{i + 1}" if i + 1 < n_levels else "leaf"
            lines.append(f"t{i} := {nxt}*")
            nxt_o = f"o{i + 1}" if i + 1 < n_levels else "oleaf"
            out_lines.append(f"o{i} := {nxt_o}*")
        lines.append("leaf :=")
        out_lines.append("oleaf :=")
        tau1 = parse_dtd("\n".join(lines))
        tau2 = parse_dtd("\n".join(out_lines))
        machine = xslt_to_transducer(Stylesheet(templates), tags=set(tags),
                                     root_tag="t0")
        return machine, tau1, tau2

    def sweep():
        rows = []
        for n_levels in (1, 2, 3, 4):
            machine, tau1, tau2 = build(n_levels)
            result = typecheck(machine, tau1, tau2, method="exact")
            assert result.ok
            rows.append((n_levels, machine.stats()["states"],
                         f"{result.stats['seconds']:.3f}s"))
        return rows

    rows = once(sweep)
    report("E10 cost vs stylesheet depth (levels, states, time)", rows)

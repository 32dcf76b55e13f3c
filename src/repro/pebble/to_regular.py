"""Theorem 4.7, production version: k-pebble automata accept regular tree
languages — computed.

This module computes, for a k-pebble automaton ``A``, a bottom-up tree
automaton with ``inst(A)`` as its language.  It follows the proof of
Theorem 4.7 *exactly* — accessibility in the AND/OR configuration graph,
expressed as "every family of state sets closed under reverse transitions
contains the initial configuration", with one block of universally
quantified set variables per pebble level — but replaces the generic
MSO-compilation of each conjunct by direct deterministic constructions:

* same-node conjuncts (stay / branch0 / branch2) are per-node *filters*;
* parent-child conjuncts (the four move directions) are *edge
  constraints* checked between a node and one child;
* pick conjuncts couple every node with the node carrying pebble ``i-1``
  and are tracked by a tiny product state;
* place conjuncts embed the (recursively computed) automaton of
  ``phi^(i+1)`` as a component.

All components are deterministic, so the only subset construction per
level is the one required by the universal quantifier block
(``forall S-bar = not exists S-bar not``) — the genuine, unavoidable
source of the non-elementary complexity the paper proves in Theorem 4.8.
A single determinization per level serves every conclusion state, since
complementation only flips acceptance of the determinized automaton.

The result is cross-validated in the test suite against (a) the AGAP
acceptance of :mod:`repro.pebble.automaton` on sampled trees and (b) the
literal MSO formula of :mod:`repro.pebble.to_mso` compiled by the generic
compiler, on small machines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.automata.bottom_up import BottomUpTA
from repro.errors import PebbleMachineError
from repro.mso.annotations import (
    all_bits,
    annotated_alphabet,
    cylindrify,
    pack,
    singleton_automaton,
)
from repro.mso.annotations import project as project_vars
from repro.pebble.automaton import PebbleAutomaton
from repro.pebble.quotient import quotient_pebble_automaton
from repro.runtime.cache import memoized
from repro.runtime.governor import current_governor
from repro.runtime.trace import current_tracer
from repro.pebble.transducer import (
    Branch0,
    Branch2,
    Move,
    Pick,
    Place,
    State,
)
from repro.trees.alphabet import RankedAlphabet

#: A node predicate over (base symbol, {var name: bit}).
NodePred = Callable[[str, dict[str, int]], bool]


@dataclass
class _EdgeConstraint:
    """Forbidden pattern: ``child_pred`` at the side-th child together with
    ``parent_pred`` at the parent (the reverse-closure violation of one
    up/down move transition)."""

    side: int
    child_pred: NodePred
    parent_pred: NodePred


@dataclass
class _PickConjunct:
    """One pick transition's conjunct: either no node violates
    ``viol_pred``, or the node carrying ``x_var`` has ``s_var`` unset."""

    x_var: str
    s_var: str
    viol_pred: NodePred


@dataclass
class _DftaComponent:
    """A complete deterministic automaton over a sub-tuple of the level's
    variables, embedded as a component (used for place conjuncts)."""

    variables: tuple[str, ...]
    automaton: BottomUpTA

    def sub_symbol(self, base_symbol: str, bits_by_var: dict[str, int]) -> str:
        return pack(
            base_symbol, tuple(bits_by_var[v] for v in self.variables)
        )


@dataclass
class _Row:
    """Everything the composition needs to know about one annotated symbol
    ``(a, full bit vector)``."""

    child_flags: int
    parent_mask0: int
    parent_mask1: int
    conclusion: tuple[int, ...]
    pick_info: tuple[tuple[int, int, int], ...]  # (x bit, s bit, viol)
    dfta_symbols: tuple[str, ...]


# composite automaton state:
# (child_flags, conclusion, pick_states, dfta_states)
_PickState = tuple[int, int]  # (x_status: 0/1/2, viol: 0/1)


class _LevelCompiler:
    """Compiles one pebble level's ``forall S-bar`` block."""

    def __init__(self, parent: "_ToRegular", level: int) -> None:
        self.parent = parent
        self.automaton = parent.automaton
        self.base = parent.base
        self.level = level
        self.xvars = tuple(f"x{j}" for j in range(1, level))
        states = sorted(self.automaton.levels[level - 1], key=repr)
        self.svars = {q: parent.svar(q) for q in states}
        self.targets = sorted(parent.targets_of_level(level), key=repr)
        self.filters: list[NodePred] = []
        self.edges: list[_EdgeConstraint] = []
        self.picks: list[_PickConjunct] = []
        self.dftas: list[_DftaComponent] = []
        self._collect_conjuncts()
        pickctx = sorted({p.s_var for p in self.picks})
        self.keep_vars = tuple(sorted(set(self.xvars) | set(pickctx)))
        self.all_vars = tuple(
            sorted(set(self.keep_vars) | set(self.svars.values()))
        )
        # per-target complete DFTA over keep_vars (filled by compile()).
        self.results: dict[State, BottomUpTA] = {}
        self._compile()

    # -- conjunct collection ---------------------------------------------------

    def _guard_pred(
        self, symbol: str, bits: tuple[int, ...]
    ) -> NodePred:
        xvars = self.xvars

        def pred(a: str, bv: dict[str, int]) -> bool:
            if a != symbol:
                return False
            return all(bv[x] == want for x, want in zip(xvars, bits))

        return pred

    def _collect_conjuncts(self) -> None:
        svar = self.parent.svar
        for (symbol, state, bits), actions in sorted(
            self.automaton.rules.items(), key=lambda item: repr(item[0])
        ):
            if self.automaton.level_of[state] != self.level:
                continue
            guard = self._guard_pred(symbol, bits)
            s_u = svar(state)
            for action in actions:
                if isinstance(action, Move) and action.direction == "stay":
                    s_v = svar(action.target)
                    self.filters.append(
                        _no_viol(lambda a, bv, g=guard, u=s_u, v=s_v:
                                 g(a, bv) and bv[v] == 1 and bv[u] == 0)
                    )
                elif isinstance(action, Move):
                    s_v = svar(action.target)
                    down = action.direction.startswith("down")
                    side = 0 if action.direction.endswith("left") else 1
                    if down:
                        self.edges.append(_EdgeConstraint(
                            side=side,
                            child_pred=lambda a, bv, v=s_v: bv[v] == 1,
                            parent_pred=lambda a, bv, g=guard, u=s_u:
                                g(a, bv) and bv[u] == 0,
                        ))
                    else:
                        self.edges.append(_EdgeConstraint(
                            side=side,
                            child_pred=lambda a, bv, g=guard, u=s_u:
                                g(a, bv) and bv[u] == 0,
                            parent_pred=lambda a, bv, v=s_v: bv[v] == 1,
                        ))
                elif isinstance(action, Branch0):
                    self.filters.append(
                        _no_viol(lambda a, bv, g=guard, u=s_u:
                                 g(a, bv) and bv[u] == 0)
                    )
                elif isinstance(action, Branch2):
                    s_l, s_r = svar(action.left), svar(action.right)
                    self.filters.append(
                        _no_viol(lambda a, bv, g=guard, u=s_u, l=s_l, r=s_r:
                                 g(a, bv) and bv[l] == 1 and bv[r] == 1
                                 and bv[u] == 0)
                    )
                elif isinstance(action, Pick):
                    self.picks.append(_PickConjunct(
                        x_var=self.xvars[-1],
                        s_var=svar(action.target),
                        viol_pred=lambda a, bv, g=guard, u=s_u:
                            g(a, bv) and bv[u] == 0,
                    ))
                elif isinstance(action, Place):
                    self.dftas.append(
                        self._place_component(symbol, bits, state,
                                              action.target)
                    )
                else:  # pragma: no cover - validation prevents this
                    raise PebbleMachineError(f"unexpected action {action!r}")

    def _place_component(
        self,
        symbol: str,
        bits: tuple[int, ...],
        state: State,
        target: State,
    ) -> _DftaComponent:
        """The conjunct ``forall z: (guard(z) ∧ phi^(i+1)[x_i := z]) =>
        S_u(z)``, computed as ``not exists z (phi ∧ guard-marked(z) ∧
        ¬S_u(z))``."""
        svar = self.parent.svar
        s_u = svar(state)
        phi_vars, phi = self.parent.phi(self.level + 1, target)
        # rename the innermost pebble variable x_level to the fresh "z"
        x_inner = f"x{self.level}"
        renamed_vars = tuple("z" if v == x_inner else v for v in phi_vars)
        union_vars = tuple(
            sorted(set(renamed_vars) | {"z", s_u} | set(self.xvars))
        )
        phi_cyl = cylindrify(phi, self.base, renamed_vars, union_vars)
        guard = self._guard_pred(symbol, bits)
        marked = _marked_node_automaton(
            self.base,
            union_vars,
            "z",
            lambda a, bv, g=guard, u=s_u: g(a, bv) and bv[u] == 0,
        )
        inner = phi_cyl.intersection(marked).trimmed()
        projected = project_vars(inner, self.base, union_vars, ["z"])
        kept = tuple(v for v in union_vars if v != "z")
        det = projected.determinized()
        conjunct = BottomUpTA(
            alphabet=det.alphabet,
            states=det.states,
            leaf_rules=det.leaf_rules,
            rules=det.rules,
            accepting=det.states - det.accepting,
        )
        conjunct = conjunct.minimized()
        return _DftaComponent(variables=kept, automaton=conjunct)

    # -- composition --------------------------------------------------------------

    def _rows(self) -> dict[tuple[str, tuple[int, ...]], list[_Row]]:
        """Distinct row signatures per (symbol, keep-bits)."""
        governor = current_governor()
        keep_pos = [self.all_vars.index(v) for v in self.keep_vars]
        grouped: dict[tuple[str, tuple[int, ...]], dict[_RowKey, _Row]] = {}
        for a in sorted(self.base.symbols):
            for bits in all_bits(len(self.all_vars)):
                governor.tick()
                bv = dict(zip(self.all_vars, bits))
                if not all(f(a, bv) for f in self.filters):
                    continue
                child_flags = 0
                parent_mask0 = 0
                parent_mask1 = 0
                for idx, edge in enumerate(self.edges):
                    if edge.child_pred(a, bv):
                        child_flags |= 1 << idx
                    if edge.parent_pred(a, bv):
                        if edge.side == 0:
                            parent_mask0 |= 1 << idx
                        else:
                            parent_mask1 |= 1 << idx
                row = _Row(
                    child_flags=child_flags,
                    parent_mask0=parent_mask0,
                    parent_mask1=parent_mask1,
                    conclusion=tuple(
                        bv[self.svars[t]] for t in self.targets
                    ),
                    pick_info=tuple(
                        (bv[p.x_var], bv[p.s_var],
                         1 if p.viol_pred(a, bv) else 0)
                        for p in self.picks
                    ),
                    dfta_symbols=tuple(
                        comp.sub_symbol(a, bv) for comp in self.dftas
                    ),
                )
                kb = tuple(bits[i] for i in keep_pos)
                key = (row.child_flags, row.parent_mask0, row.parent_mask1,
                       row.conclusion, row.pick_info, row.dfta_symbols)
                grouped.setdefault((a, kb), {}).setdefault(key, row)
        return {
            group: list(rows.values()) for group, rows in grouped.items()
        }

    def _pick_leaf(self, info: tuple[int, int, int]) -> _PickState:
        x_bit, s_bit, viol = info
        status = 0 if not x_bit else (1 if s_bit else 2)
        return (status, viol)

    def _pick_step(
        self, info: tuple[int, int, int], s1: _PickState, s2: _PickState
    ) -> _PickState:
        x_bit, s_bit, viol = info
        if x_bit:
            status = 1 if s_bit else 2
        else:
            status = max(s1[0], s2[0])  # at most one is nonzero (validity)
        return (status, viol | s1[1] | s2[1])

    def _compile(self) -> None:
        governor = current_governor()
        rows = self._rows()
        base_leaves = sorted(self.base.leaves)
        base_internals = sorted(self.base.internals)
        keep_vectors = all_bits(len(self.keep_vars))
        dfta_autos = [c.automaton for c in self.dftas]

        leaf_rules: dict[str, set] = {}
        rules: dict[tuple[str, object, object], set] = {}
        known: set = set()

        # leaf rules
        for a in base_leaves:
            for kb in keep_vectors:
                targets = set()
                for row in rows.get((a, kb), ()):
                    dfta_states = []
                    dead = False
                    for comp_auto, sub in zip(dfta_autos, row.dfta_symbols):
                        state_set = comp_auto.leaf_rules.get(sub)
                        if not state_set:
                            dead = True
                            break
                        (only,) = state_set
                        dfta_states.append(only)
                    if dead:
                        continue
                    composite = (
                        row.child_flags,
                        row.conclusion,
                        tuple(self._pick_leaf(i) for i in row.pick_info),
                        tuple(dfta_states),
                    )
                    targets.add(composite)
                if targets:
                    leaf_rules[pack(a, kb)] = targets
                    known |= targets

        # internal rules: fixpoint over reachable composite states
        frontier = set(known)
        while frontier:
            new_states: set = set()
            known_list = list(known)
            for a in base_internals:
                for kb in keep_vectors:
                    group = rows.get((a, kb))
                    if not group:
                        continue
                    symbol = pack(a, kb)
                    for s1 in known_list:
                        for s2 in known_list:
                            governor.tick()
                            if (
                                s1 not in frontier
                                and s2 not in frontier
                                and (symbol, s1, s2) in rules
                            ):
                                continue
                            targets = rules.setdefault((symbol, s1, s2), set())
                            for row in group:
                                if s1[0] & row.parent_mask0:
                                    continue
                                if s2[0] & row.parent_mask1:
                                    continue
                                dfta_states = []
                                dead = False
                                for pos, (comp_auto, sub) in enumerate(
                                    zip(dfta_autos, row.dfta_symbols)
                                ):
                                    step = comp_auto.rules.get(
                                        (sub, s1[3][pos], s2[3][pos])
                                    )
                                    if not step:
                                        dead = True
                                        break
                                    (only,) = step
                                    dfta_states.append(only)
                                if dead:
                                    continue
                                composite = (
                                    row.child_flags,
                                    row.conclusion,
                                    tuple(
                                        self._pick_step(info, p1, p2)
                                        for info, p1, p2 in zip(
                                            row.pick_info, s1[2], s2[2]
                                        )
                                    ),
                                    tuple(dfta_states),
                                )
                                targets.add(composite)
                                if composite not in known:
                                    new_states.add(composite)
            governor.add_states(len(new_states))
            known |= new_states
            frontier = new_states

        alphabet = annotated_alphabet(self.base, len(self.keep_vars))
        projected = BottomUpTA(
            alphabet=alphabet,
            states=known or {("_dead",)},
            leaf_rules=leaf_rules,
            rules={key: value for key, value in rules.items() if value},
            accepting=set(),
        )
        det = projected.determinized(keep_subsets=True)
        # one determinization serves every conclusion state: phi[target]
        # is the complement of "exists S-bar: rc ∧ ¬S_target(root)".
        for position, target in enumerate(self.targets):
            accepting_inner = {
                composite
                for composite in known
                if composite[1][position] == 0
                and all(
                    status == 2 or viol == 0
                    for status, viol in composite[2]
                )
                and all(
                    comp_state in comp.automaton.accepting
                    for comp, comp_state in zip(self.dftas, composite[3])
                )
            }
            result = BottomUpTA(
                alphabet=alphabet,
                states=det.states,
                leaf_rules=det.leaf_rules,
                rules=det.rules,
                accepting={
                    subset
                    for subset in det.states
                    if not (subset & accepting_inner)
                },
            )
            for xvar in self.xvars:
                sing = singleton_automaton(self.base, self.keep_vars, xvar)
                result = result.intersection(sing).trimmed()
            self.results[target] = result.minimized()


def _no_viol(viol: NodePred) -> NodePred:
    def passes(a: str, bv: dict[str, int]) -> bool:
        return not viol(a, bv)

    return passes


_RowKey = tuple


def _marked_node_automaton(
    base: RankedAlphabet,
    variables: Sequence[str],
    variable: str,
    pred: NodePred,
) -> BottomUpTA:
    """Deterministic automaton: exactly one node carries ``variable``'s
    bit, and that node satisfies ``pred``."""
    position = list(variables).index(variable)
    vectors = all_bits(len(variables))
    leaf_rules: dict[str, set] = {}
    rules: dict[tuple[str, object, object], set] = {}
    for is_leaf, symbols in ((True, base.leaves), (False, base.internals)):
        for a in sorted(symbols):
            for bits in vectors:
                bv = dict(zip(variables, bits))
                marked = bits[position] == 1
                if marked and not pred(a, bv):
                    continue
                count = 1 if marked else 0
                symbol = pack(a, bits)
                if is_leaf:
                    leaf_rules[symbol] = {count}
                else:
                    for left in (0, 1):
                        for right in (0, 1):
                            total = count + left + right
                            if total <= 1:
                                rules[(symbol, left, right)] = {total}
    return BottomUpTA(
        alphabet=annotated_alphabet(base, len(variables)),
        states={0, 1},
        leaf_rules=leaf_rules,
        rules=rules,
        accepting={1},
    )


class _ToRegular:
    def __init__(self, automaton: PebbleAutomaton) -> None:
        self.automaton = automaton
        self.base = automaton.alphabet
        ordered: list[State] = []
        for level in automaton.levels:
            ordered.extend(sorted(level, key=repr))
        self._index = {state: i for i, state in enumerate(ordered)}
        # level -> (keep_vars, {target: automaton}); values come from the
        # process-wide memo table when an identical automaton recurs.
        self._levels: dict[int, tuple[tuple[str, ...], dict]] = {}

    def svar(self, state: State) -> str:
        return f"S{self._index[state]:04d}"

    def targets_of_level(self, level: int) -> set[State]:
        """Conclusion states needed at a level: the initial state for level
        1, the place targets from level-1 rules otherwise."""
        if level == 1:
            return {self.automaton.initial}
        targets: set[State] = set()
        for (_, state, _), actions in self.automaton.rules.items():
            if self.automaton.level_of[state] != level - 1:
                continue
            for action in actions:
                if isinstance(action, Place):
                    targets.add(action.target)
        return targets

    def _compile_level(self, level: int) -> tuple[tuple[str, ...], dict]:
        compiler = _LevelCompiler(self, level)
        return compiler.keep_vars, compiler.results

    def phi(
        self, level: int, target: State
    ) -> tuple[tuple[str, ...], BottomUpTA]:
        """``phi^(level)[target]`` with its free-variable order."""
        if level not in self._levels:
            with current_governor().phase(f"regularize:level{level}"), \
                    current_tracer().span(f"regularize:level{level}"):
                # memoized across _ToRegular instances: recurring product
                # automata (same transducer x output type) skip the whole
                # quantifier-block construction for the level.
                self._levels[level] = memoized(
                    "pebble.level",
                    (self.automaton,),
                    lambda: self._compile_level(level),
                    extra=(level,),
                )
        keep_vars, results = self._levels[level]
        if target not in results:
            raise PebbleMachineError(
                f"state {target!r} is not a conclusion target of level "
                f"{level}"
            )
        return keep_vars, results[target]


def pebble_automaton_to_ta(automaton: PebbleAutomaton) -> BottomUpTA:
    """The regular tree language of a k-pebble automaton (Theorem 4.7).

    Returns a minimized deterministic bottom-up automaton over the pebble
    automaton's alphabet whose language is ``inst(A)``.

    One-pebble automata without place/pick (alternating tree-walking
    automata — every transducer-times-type product of a 1-pebble
    transducer is one) take the polynomially-better summary construction
    of :mod:`repro.pebble.two_way`; the general case pays the paper's
    hyperexponential price (Theorem 4.8).
    """
    return memoized(
        "pebble.to_regular", (automaton,),
        lambda: _pebble_automaton_to_ta(automaton),
    )


def _pebble_automaton_to_ta(automaton: PebbleAutomaton) -> BottomUpTA:
    from repro.pebble.two_way import is_walking, walking_automaton_to_ta

    governor = current_governor()
    tracer = current_tracer()
    with governor.phase("pebble-to-regular"), \
            tracer.span("pebble-to-regular"):
        with tracer.span("pebble-trim"):
            trimmed = trim_quotient(automaton)
        if is_walking(trimmed):
            with governor.phase("walking-summary"), \
                    tracer.span("walking-summary"):
                with tracer.span("walking-closure"):
                    summary = walking_automaton_to_ta(trimmed)
                return summary.minimized()
        variables, result = _ToRegular(trimmed).phi(1, trimmed.initial)
        assert variables == (), "level 1 must be variable-free"
        return result


def trim_quotient(automaton: PebbleAutomaton) -> PebbleAutomaton:
    """The bisimulation quotient of the trimmed ``automaton``: the same
    language, usually on far fewer states.

    Memoized as one op, ``pebble.trim-quotient``, shared by the
    Theorem 4.4 pipeline and the lazy route, so a repeated check neither
    re-trims nor re-quotients its product.
    """
    return memoized(
        "pebble.trim-quotient", (automaton,),
        lambda: quotient_pebble_automaton(trim_pebble_automaton(automaton)),
    )


def trim_pebble_automaton(automaton: PebbleAutomaton) -> PebbleAutomaton:
    """Drop states unreachable in the state graph (sound: configurations
    with unreachable states cannot influence acceptance).  Product
    automata (Prop 4.6) shrink a lot under this."""
    reachable = {automaton.initial}
    frontier = [automaton.initial]
    by_state: dict = {}
    for (symbol, state, bits), actions in automaton.rules.items():
        by_state.setdefault(state, []).extend(actions)
    while frontier:
        state = frontier.pop()
        for action in by_state.get(state, ()):
            if isinstance(action, (Move, Place, Pick)):
                targets = [action.target]
            elif isinstance(action, Branch2):
                targets = [action.left, action.right]
            else:
                targets = []
            for target in targets:
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
    if reachable == set(automaton.level_of):
        return automaton
    levels = [
        [state for state in sorted(level, key=repr) if state in reachable]
        for level in automaton.levels
    ]
    # every level needs at least one state; pad with the initial state's
    # structure by keeping a dead placeholder if a level empties out.
    for index, level in enumerate(levels):
        if not level:
            levels[index] = [("_dead", index)]
    # per-action keep decisions are cached by object identity: product
    # automata share one action object across many guards, and an id
    # lookup skips re-hashing the dataclass (the rule table pins the
    # objects, so ids are stable).
    keep_cache: dict[int, bool] = {}

    def keep(action) -> bool:
        kept = keep_cache.get(id(action))
        if kept is None:
            kept = keep_cache[id(action)] = (
                not isinstance(action, (Move, Place, Pick, Branch2))
                or _targets_reachable(action, reachable)
            )
        return kept

    rules = {
        key: tuple(action for action in actions if keep(action))
        for key, actions in automaton.rules.items()
        if key[1] in reachable
    }
    return PebbleAutomaton._trusted(
        alphabet=automaton.alphabet,
        levels=levels,
        initial=automaton.initial,
        rules={key: actions for key, actions in rules.items() if actions},
    )


def _targets_reachable(action, reachable: set) -> bool:
    if isinstance(action, (Move, Place, Pick)):
        return action.target in reachable
    if isinstance(action, Branch2):
        return action.left in reachable and action.right in reachable
    return True

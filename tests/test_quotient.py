"""Bisimulation quotients of pebble automata, and the shared-tuple
passes over Prop 4.6 products.

The product shares one action tuple object across every guard with the
same transducer tuple and type state; trim keeps those objects and the
quotient refines on per-tuple signatures.  The differential tests below
hold both to the per-action versions they replaced: ``_flat_quotient``
(the flat refinement, kept here as the reference) and a per-action
reachability trim.
"""

import itertools
from typing import Hashable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import BottomUpTA, bu_to_td
from repro.data import (
    q1_input_dtd,
    q1_output_even_dtd,
    q2_tight_output_dtd,
)
from repro.lang import (
    Apply,
    Out,
    Stylesheet,
    Template,
    q1_transducer,
    q2_stylesheet,
    xslt_to_transducer,
)
from repro.pebble import (
    Branch0,
    Branch2,
    Move,
    PebbleAutomaton,
    Pick,
    Place,
    RuleSet,
    copy_transducer,
    exponential_transducer,
    quotient_pebble_automaton,
    rotation_transducer,
    transducer_times_automaton,
    trim_pebble_automaton,
)
from repro.pebble.transducer import DIRECTIONS, State
from repro.runtime import ResourceGovernor, current_governor, governed
from repro.trees import RankedAlphabet, random_btree
from repro.typecheck import as_automaton
from repro.xmlio import parse_dtd

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


class TestQuotient:
    def test_duplicate_states_merge(self):
        """Two verbatim copies of the same walker collapse to one."""
        rules = RuleSet()
        for name in ("q", "p"):
            rules.add(None, name, Move("down-left", name))
            rules.add("b", name, Branch0())
        rules.add(None, "start", Branch2("q", "p"))
        automaton = PebbleAutomaton(ALPHA, [["start", "q", "p"]], "start",
                                    rules)
        quotient = quotient_pebble_automaton(automaton)
        assert len(quotient.level_of) == 2  # start + merged walker

    def test_language_preserved_on_q1_product(self, rng):
        machine = q1_transducer()
        tau2 = as_automaton(q1_output_even_dtd(), machine.output_alphabet)
        product = transducer_times_automaton(
            machine, bu_to_td(tau2.complemented().trimmed())
        )
        trimmed = trim_pebble_automaton(product)
        quotient = quotient_pebble_automaton(trimmed)
        assert len(quotient.level_of) < len(trimmed.level_of)
        for _ in range(20):
            tree = random_btree(product.alphabet, rng.randint(1, 8), rng)
            assert product.accepts(tree) == quotient.accepts(tree)

    def test_initial_state_survives(self):
        rules = RuleSet()
        rules.add("a", "q", Branch0())
        automaton = PebbleAutomaton(ALPHA, [["q"]], "q", rules)
        quotient = quotient_pebble_automaton(automaton)
        assert quotient.initial in quotient.level_of

    def test_distinguishable_states_not_merged(self):
        rules = RuleSet()
        rules.add("a", "q", Branch0())
        rules.add("b", "p", Branch0())
        rules.add(None, "start", Branch2("q", "p"))
        automaton = PebbleAutomaton(ALPHA, [["start", "q", "p"]], "start",
                                    rules)
        quotient = quotient_pebble_automaton(automaton)
        assert len(quotient.level_of) == 3

    def test_idempotent(self):
        machine = q1_transducer()
        tau2 = as_automaton(q1_output_even_dtd(), machine.output_alphabet)
        product = transducer_times_automaton(
            machine, bu_to_td(tau2.complemented().trimmed())
        )
        once = quotient_pebble_automaton(trim_pebble_automaton(product))
        twice = quotient_pebble_automaton(once)
        assert len(twice.level_of) == len(once.level_of)


# -- the shared-tuple passes against their per-action references -----------


def _flat_quotient(automaton: PebbleAutomaton) -> PebbleAutomaton:
    """The per-action refinement: one signature row per (guard, action)
    of every state.  The reference the shared-tuple quotient must match
    exactly (rule order, tuple order, governor steps)."""
    governor = current_governor()
    states = sorted(automaton.level_of, key=repr)
    n = len(states)
    index = {state: i for i, state in enumerate(states)}
    # initial partition: by level.
    block = [automaton.level_of[state] for state in states]

    # Block ids are kept *stable* across rounds: when a block splits, the
    # first-scanned part keeps the old id and the rest get fresh ids.  At
    # most n-1 splits can ever happen, so ids stay below
    # ``max(initial ids) + n + 1``; the packing base leaves room for that
    # (initial blocks are level indices, which can exceed n when some
    # levels are empty).
    base = max([n] + block) + n + 2
    stride = base * base

    # Encode each state's guarded actions once.  A row abstracts one
    # (symbol, bits, action) as a single integer: a label-id addend for
    # the block-independent part, plus the current blocks of the (at most
    # two) referenced states — so each refinement round only re-maps
    # state references through ``block``, without re-dispatching on the
    # action type.  Rows are bucketed by how many state references they
    # carry: reference-free rows pack to a constant that never changes
    # across rounds, so those sets are final immediately.
    label_ids: dict[tuple, int] = {}
    const_sets: list[set[int]] = [set() for _ in range(n)]
    one_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    two_rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    # Action objects are shared across many guards, so resolve each unique
    # object's kind tag and referenced state indices once (id-keyed; the
    # automaton's rule table pins the objects, so ids are stable).
    act_info: dict[int, tuple[tuple, int, int]] = {}
    for (symbol, state, bits), actions in automaton.rules.items():
        i = index[state]
        consts = const_sets[i]
        ones = one_rows[i]
        twos = two_rows[i]
        for action in actions:
            info = act_info.get(id(action))
            if info is None:
                if isinstance(action, Move):
                    info = (("move", action.direction), index[action.target], -1)
                elif isinstance(action, Place):
                    info = (("place",), index[action.target], -1)
                elif isinstance(action, Pick):
                    info = (("pick",), index[action.target], -1)
                elif isinstance(action, Branch0):
                    info = (("branch0",), -1, -1)
                else:
                    assert isinstance(action, Branch2)
                    info = (
                        ("branch2",),
                        index[action.left],
                        index[action.right],
                    )
                act_info[id(action)] = info
            tag, ref1, ref2 = info
            addend = (
                label_ids.setdefault((tag, symbol, bits), len(label_ids))
                * stride
            )
            if ref1 < 0:
                consts.add(addend)
            elif ref2 < 0:
                ones.append((addend, ref1))
            else:
                twos.append((addend, ref1, ref2))
    const_rows = [frozenset(consts) for consts in const_sets]

    # rdeps[j]: the states whose packed rows reference state j.  A state's
    # signature set only changes when one of its referenced blocks does,
    # so clean states reuse last round's frozenset (whose hash is cached).
    rdeps: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        seen_refs = {ref1 for _, ref1 in one_rows[i]}
        seen_refs.update(r for _, ref1, ref2 in two_rows[i] for r in (ref1, ref2))
        for j in seen_refs:
            rdeps[j].append(i)
    cached_sig: list[frozenset[int]] = [frozenset()] * n
    # every state is dirty in the first round (nothing cached yet).
    dirty = bytearray([1]) * n
    next_fresh = max([n] + block) + 1

    while True:
        signatures: dict[tuple, int] = {}
        claimed: set[int] = set()
        new_block = [0] * n
        for i in range(n):
            governor.tick()
            if dirty[i]:
                packed = {
                    addend + (block[ref1] + 1) * base
                    for addend, ref1 in one_rows[i]
                }
                packed.update([
                    addend + (block[ref1] + 1) * base + block[ref2] + 1
                    for addend, ref1, ref2 in two_rows[i]
                ])
                packed.update(const_rows[i])
                cached_sig[i] = signature_set = frozenset(packed)
            else:
                signature_set = cached_sig[i]
            signature = (block[i], signature_set)
            block_id = signatures.get(signature)
            if block_id is None:
                old = block[i]
                if old not in claimed:
                    claimed.add(old)
                    block_id = old
                else:
                    block_id = next_fresh
                    next_fresh += 1
                signatures[signature] = block_id
            new_block[i] = block_id
        moved = [i for i in range(n) if new_block[i] != block[i]]
        if not moved:
            break
        dirty = bytearray(n)
        for j in moved:
            for i in rdeps[j]:
                dirty[i] = 1
        block = new_block

    # representatives: the repr-least state of each block
    representative: dict[int, State] = {}
    for i, state in enumerate(states):
        representative.setdefault(block[i], state)
    if len(representative) == n:
        return automaton  # nothing merged
    rep_of = [representative[block[i]] for i in range(n)]

    def rep(state: State) -> State:
        return rep_of[index[state]]

    # The rewrite memo is keyed by object identity (actions are shared
    # across rule guards, and hashing an id is far cheaper than hashing a
    # dataclass); results are interned by value so equal rewrites from
    # distinct source objects dedup to one object — which lets the rule
    # buckets below dedup on ids too.  ``keep`` pins the keyed objects so
    # no id is reused while the memo is alive.
    rewritten_by_id: dict[int, Hashable] = {}
    interned: dict = {}
    keep: list = []

    def rewrite(action):
        cached = rewritten_by_id.get(id(action))
        if cached is not None:
            return cached
        if isinstance(action, Move):
            cached = Move(action.direction, rep(action.target))
        elif isinstance(action, Place):
            cached = Place(rep(action.target))
        elif isinstance(action, Pick):
            cached = Pick(rep(action.target))
        elif isinstance(action, Branch2):
            cached = Branch2(rep(action.left), rep(action.right))
        else:
            cached = action
        cached = interned.setdefault(cached, cached)
        rewritten_by_id[id(action)] = cached
        keep.append(action)
        return cached

    levels = [
        sorted(
            {rep(state) for state in level},
            key=repr,
        )
        for level in automaton.levels
    ]
    rules: dict = {}
    for (symbol, state, bits), actions in automaton.rules.items():
        key = (symbol, rep(state), bits)
        bucket = rules.setdefault(key, {})
        for action in actions:
            rewritten = rewrite(action)
            bucket[id(rewritten)] = rewritten
    return PebbleAutomaton._trusted(
        alphabet=automaton.alphabet,
        levels=levels,
        initial=rep(automaton.initial),
        rules={key: tuple(bucket.values()) for key, bucket in rules.items()},
    )


def _targets(action) -> tuple:
    if isinstance(action, (Move, Place, Pick)):
        return (action.target,)
    if isinstance(action, Branch2):
        return (action.left, action.right)
    return ()


def _check_trim(automaton: PebbleAutomaton) -> PebbleAutomaton:
    """Trim ``automaton``; check it against per-action reachability and
    that every kept guard keeps its very tuple object."""
    trimmed = trim_pebble_automaton(automaton)
    reachable = {automaton.initial}
    frontier = [automaton.initial]
    while frontier:
        state = frontier.pop()
        for (_, source, _), actions in automaton.rules.items():
            if source != state:
                continue
            for action in actions:
                for target in _targets(action):
                    if target not in reachable:
                        reachable.add(target)
                        frontier.append(target)
    if reachable == set(automaton.level_of):
        assert trimmed is automaton
        return trimmed
    assert reachable <= set(trimmed.level_of)
    for state in set(trimmed.level_of) - reachable:
        assert state[0] == "_dead"  # an emptied level's placeholder
    assert list(trimmed.rules.items()) == [
        (key, actions)
        for key, actions in automaton.rules.items()
        if actions and key[1] in reachable
    ]
    for key, actions in trimmed.rules.items():
        assert actions is automaton.rules[key]
    return trimmed


def _check_quotient(automaton: PebbleAutomaton) -> PebbleAutomaton:
    """Quotient ``automaton``; check it equals the flat reference in rule
    dict order, tuple order and governor steps."""
    governor, reference_governor = ResourceGovernor(), ResourceGovernor()
    with governed(governor):
        quotient = quotient_pebble_automaton(automaton)
    with governed(reference_governor):
        reference = _flat_quotient(automaton)
    assert (quotient is automaton) == (reference is automaton)
    assert list(quotient.rules.items()) == list(reference.rules.items())
    assert quotient.levels == reference.levels
    assert quotient.initial == reference.initial
    assert governor.steps == reference_governor.steps
    return quotient


def _leaves_in(alphabet: RankedAlphabet, allowed) -> BottomUpTA:
    """Trees over ``alphabet`` whose leaves are all in ``allowed``."""
    return BottomUpTA(
        alphabet=alphabet,
        states={"ok"},
        leaf_rules={symbol: {"ok"} for symbol in sorted(allowed)},
        rules={(s, "ok", "ok"): {"ok"} for s in sorted(alphabet.internals)},
        accepting={"ok"},
    )


def _worked_example(name: str):
    """A worked example's transducer and output type."""
    if name == "copy":
        machine = copy_transducer(ALPHA)
        return machine, _leaves_in(machine.output_alphabet, {"a"})
    if name == "exponential":
        machine = exponential_transducer(ALPHA)
        return machine, _leaves_in(machine.output_alphabet, {"a"})
    if name == "rotation":
        machine = rotation_transducer(
            RankedAlphabet(leaves={"s", "a"}, internals={"r", "f"}),
            pivot="s", root_symbol="r",
        )
        return machine, _leaves_in(machine.output_alphabet, {"a"})
    if name == "q1":
        return q1_transducer(), q1_output_even_dtd()
    if name == "q2":
        machine = xslt_to_transducer(
            q2_stylesheet(), tags=q1_input_dtd().symbols, root_tag="root"
        )
        return machine, q2_tight_output_dtd()
    assert name == "wrap"
    sheet = Stylesheet([
        Template("doc", [Out("D", [Apply()])]),
        Template("sec", [Out("S", [Apply()])]),
        Template("par", [Out("P")]),
    ])
    machine = xslt_to_transducer(
        sheet, tags={"doc", "sec", "par"}, root_tag="doc"
    )
    return machine, parse_dtd("D := S.S*\nS := P*\nP :=")


WORKED = ("copy", "exponential", "rotation", "q1", "q2", "wrap")


@st.composite
def pebble_automata(draw):
    """Pebble automata (k <= 2) over ``ALPHA`` whose guards draw their
    action tuples (possibly empty) from a small pool per level: some
    guards share one tuple object, others get equal but distinct
    copies."""
    k = draw(st.integers(1, 2))
    levels = [
        [f"q{level}.{i}" for i in range(draw(st.integers(1, 4)))]
        for level in range(1, k + 1)
    ]

    def action(level: int):
        same = st.sampled_from(levels[level - 1])
        kinds = [
            st.builds(Move, st.sampled_from(DIRECTIONS), same),
            st.just(Branch0()),
            st.builds(Branch2, same, same),
        ]
        if level < k:
            kinds.append(st.builds(Place, st.sampled_from(levels[level])))
        if level > 1:
            kinds.append(st.builds(Pick, st.sampled_from(levels[level - 2])))
        return st.one_of(kinds)

    rules: dict = {}
    for level, names in enumerate(levels, start=1):
        pool = draw(st.lists(
            st.lists(action(level), max_size=4).map(tuple),
            min_size=1, max_size=4,
        ))
        for state in names:
            for symbol in sorted(ALPHA.symbols):
                for bits in itertools.product((0, 1), repeat=level - 1):
                    choice = draw(st.integers(-1, len(pool) - 1))
                    if choice < 0:
                        continue
                    actions = pool[choice]
                    if draw(st.booleans()):
                        actions = tuple(list(actions))  # equal, distinct
                    rules[(symbol, state, bits)] = actions
    return PebbleAutomaton(ALPHA, levels, levels[0][0], rules)


class TestSharedTuplePasses:
    @pytest.mark.parametrize("name", WORKED)
    def test_worked_example(self, name):
        machine, output_type = _worked_example(name)
        tau2 = as_automaton(output_type, machine.output_alphabet)
        not_tau2 = bu_to_td(tau2.complemented().trimmed())
        product = transducer_times_automaton(machine, not_tau2)
        # one tuple object per (distinct transducer tuple, q_b)
        tuples = {id(actions) for actions in product.rules.values()}
        q_b = len(not_tau2.without_silent().states)
        assert len(tuples) <= len(set(machine.rules.values())) * q_b
        assert len(tuples) < len(product.rules)
        trimmed = _check_trim(product)
        _check_quotient(trimmed)
        _check_quotient(product)

    @given(pebble_automata())
    @settings(max_examples=80, deadline=None)
    def test_random_automata(self, automaton):
        trimmed = _check_trim(automaton)
        _check_quotient(automaton)
        _check_quotient(trimmed)

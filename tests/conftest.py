"""Shared fixtures and hypothesis strategies.

``REPRO_REFERENCE_ALGEBRA=1`` runs the session on the frozenset oracle
algebra and ``REPRO_VALIDATE_TRUSTED=1`` re-validates every trusted
construction (see ``switches.py``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

import switches
from repro.trees import BTree, RankedAlphabet, UTree

if switches.oracle_requested():
    switches.use_oracle(True)
if switches.validation_requested():
    switches.validate_trusted()


@pytest.fixture
def rng():
    return random.Random(20260707)


@pytest.fixture
def small_alphabet() -> RankedAlphabet:
    return RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


@pytest.fixture
def pathological_typecheck():
    """Factory for supervised typecheck jobs whose *exact* run blows up.

    A copying stylesheet over a choice-heavy DTD (every element allows
    every other, E05-style exponential content models): at the default
    ``n`` the exact check takes over 15 s and about 190 MB on one CPU
    of a 2-vCPU host — five times past the small hard limits the tests
    set — while carrying no cooperative budget of its own.
    """
    from repro.runtime.supervisor import JobSpec

    def build(job_id: str, n: int = 26) -> JobSpec:
        rules = ["r := " + ".".join(f"s{i}*" for i in range(n))]
        for i in range(n):
            rules.append(
                f"s{i} := (" + "|".join(f"s{j}" for j in range(n)) + ")*"
            )
        dtd_text = "\n".join(rules)
        sheet_text = "".join(
            f'<xsl:template match="{tag}">'
            f"<{tag}><xsl:apply-templates/></{tag}>"
            "</xsl:template>"
            for tag in ["r"] + [f"s{i}" for i in range(n)]
        )
        return JobSpec(
            id=job_id,
            kind="typecheck",
            params={
                "stylesheet_text": sheet_text,
                "input_dtd_text": dtd_text,
                "output_dtd_text": dtd_text,
                "method": "exact",
            },
        )

    return build


def utrees(labels=("a", "b", "c"), max_leaves=6):
    """Hypothesis strategy for small unranked trees."""
    label = st.sampled_from(list(labels))
    return st.recursive(
        label.map(UTree),
        lambda children: st.builds(
            UTree, label, st.lists(children, max_size=3)
        ),
        max_leaves=max_leaves,
    )


def btrees(leaves=("a", "b"), internals=("f", "g"), max_leaves=6):
    """Hypothesis strategy for small complete binary trees."""
    leaf = st.sampled_from(list(leaves)).map(BTree)
    internal = st.sampled_from(list(internals))
    return st.recursive(
        leaf,
        lambda sub: st.builds(BTree, internal, sub, sub),
        max_leaves=max_leaves,
    )


def words(symbols=("a", "b"), max_size=6):
    """Hypothesis strategy for words."""
    return st.lists(st.sampled_from(list(symbols)), max_size=max_size)

"""The error taxonomy and its CLI exit-code contract.

Every failure anywhere in the repo must surface as a ``ReproError``
subclass, and the CLI must translate outcomes to the documented codes:

====  =========================================================
code  meaning
====  =========================================================
0     success (typechecks / document valid / batch all-ok)
1     type error or invalid document — the *analysis* rejected
2     usage or input error (bad flags, malformed DTD/XML/manifest)
3     a resource budget was exhausted with no fallback
4     a worker crashed or was killed at a hard limit
5     the service shed the job before execution (retryable)
6     the audit refuted the verdict (``miscompiled``)
====  =========================================================

The ``shed`` path (exit 5) is exercised end-to-end in
``tests/test_service_overload.py`` — it only exists behind the daemon.
The ``miscompiled`` path (exit 6) is exercised in ``tests/test_audit.py``
and ``tests/test_audit_chaos.py``; the status-severity ordering test
below pins where it ranks.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import (
    EXIT_CRASHED,
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_TYPE_ERROR,
    EXIT_USAGE,
    AutomatonError,
    FaultInjected,
    ReproError,
    ResourceExhausted,
    SupervisorError,
    XMLParseError,
    exit_code_for,
)

TINY_DTD = "doc := item*\nitem :="
IDENTITY_SHEET = (
    '<xsl:template match="doc"><doc><xsl:apply-templates/></doc>'
    "</xsl:template>"
    '<xsl:template match="item"><item/></xsl:template>'
)


def test_every_domain_error_is_a_repro_error():
    for cls in (AutomatonError, FaultInjected, ResourceExhausted,
                SupervisorError, XMLParseError):
        assert issubclass(cls, ReproError)


@pytest.mark.parametrize(
    ("error", "code"),
    [
        (MemoryError(), EXIT_CRASHED),
        (ResourceExhausted("steps"), EXIT_EXHAUSTED),
        (XMLParseError("bad tag"), EXIT_USAGE),
        (SupervisorError("duplicate id"), EXIT_USAGE),
        (FaultInjected("chaos"), EXIT_USAGE),
        (OSError("no such file"), EXIT_USAGE),
        (ValueError("not ours"), EXIT_CRASHED),
        (KeyboardInterrupt(), EXIT_CRASHED),
    ],
)
def test_exit_code_for_is_total(error, code):
    assert exit_code_for(error) == code


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "tiny.dtd").write_text(TINY_DTD)
    (tmp_path / "identity.xsl").write_text(IDENTITY_SHEET)
    (tmp_path / "valid.xml").write_text("<doc><item/></doc>")
    (tmp_path / "invalid.xml").write_text("<doc><bad/></doc>")
    (tmp_path / "broken.xml").write_text("<doc><item></doc>")
    return tmp_path


def test_cli_validate_exit_codes(workspace, capsys):
    dtd = str(workspace / "tiny.dtd")
    assert main(["validate", "--dtd", dtd,
                 str(workspace / "valid.xml")]) == EXIT_OK
    assert main(["validate", "--dtd", dtd,
                 str(workspace / "invalid.xml")]) == EXIT_TYPE_ERROR
    assert main(["validate", "--dtd", dtd,
                 str(workspace / "broken.xml")]) == EXIT_USAGE
    assert main(["validate", "--dtd", dtd,
                 str(workspace / "missing.xml")]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_typecheck_exhausted_without_fallback(workspace, capsys):
    code = main([
        "typecheck",
        "--input-dtd", str(workspace / "tiny.dtd"),
        "--output-dtd", str(workspace / "tiny.dtd"),
        # the default route decides this check in about as many steps
        "--method", "exact",
        "--max-steps", "3", "--no-fallback",
        str(workspace / "identity.xsl"),
    ])
    assert code == EXIT_EXHAUSTED
    assert "exhausted" in capsys.readouterr().err


def test_cli_batch_exit_code_is_most_severe_status(workspace, capsys):
    manifest = workspace / "jobs.jsonl"
    ok_job = {"id": "ok", "kind": "validate",
              "params": {"dtd_text": TINY_DTD,
                         "document_text": "<doc><item/></doc>"}}
    bad_job = {"id": "bad", "kind": "validate",
               "params": {"dtd_text": TINY_DTD,
                          "document_text": "<doc><bad/></doc>"}}

    manifest.write_text(json.dumps(ok_job) + "\n")
    assert main(["batch", str(manifest),
                 "--results", str(workspace / "r1.jsonl")]) == EXIT_OK

    manifest.write_text(
        json.dumps(ok_job) + "\n" + json.dumps(bad_job) + "\n"
    )
    assert main(["batch", str(manifest),
                 "--results",
                 str(workspace / "r2.jsonl")]) == EXIT_TYPE_ERROR
    capsys.readouterr()


def test_miscompiled_is_the_most_severe_status():
    from repro.errors import EXIT_MISCOMPILED
    from repro.runtime.supervisor import (
        _SEVERITY,
        _STATUS_EXIT,
        CRASHED,
        MISCOMPILED,
        STATUSES,
    )

    assert MISCOMPILED in STATUSES
    assert _STATUS_EXIT[MISCOMPILED] == EXIT_MISCOMPILED == 6
    # worse than a crash: every other failure is honest about failing
    assert _SEVERITY.index(MISCOMPILED) < _SEVERITY.index(CRASHED)
    assert set(_SEVERITY) == set(STATUSES)


def test_cli_batch_miscompiled_exit_code(workspace, capsys):
    manifest = workspace / "flip.jsonl"
    manifest.write_text(json.dumps({
        "id": "flip", "kind": "typecheck",
        "params": {"stylesheet_text": IDENTITY_SHEET,
                   "input_dtd_text": TINY_DTD,
                   "output_dtd_text": TINY_DTD},
    }) + "\n")
    plan = workspace / "plan.json"
    plan.write_text(json.dumps(
        {"points": {"audit:flip-verdict": {"action": "exception"}}}
    ))
    from repro.errors import EXIT_MISCOMPILED

    code = main(["batch", str(manifest),
                 "--results", str(workspace / "rflip.jsonl"),
                 "--audit", "witness", "--faults", str(plan)])
    assert code == EXIT_MISCOMPILED
    capsys.readouterr()


def test_cli_batch_usage_errors(workspace, capsys):
    results = str(workspace / "r.jsonl")
    missing = str(workspace / "nope.jsonl")
    assert main(["batch", missing, "--results", results]) == EXIT_USAGE

    mangled = workspace / "mangled.jsonl"
    mangled.write_text('{"id": "a", "kind": "validate"\n')
    assert main(["batch", str(mangled),
                 "--results", results]) == EXIT_USAGE

    empty = workspace / "empty.jsonl"
    empty.write_text("")
    assert main(["batch", str(empty), "--results", results]) == EXIT_USAGE
    capsys.readouterr()

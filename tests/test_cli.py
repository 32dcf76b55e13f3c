"""Tests for the command-line interface."""

import importlib

import pytest

from repro.cli import main

DTD_TEXT = """
a := b*.c.e
b :=
c := d*
d :=
e :=
"""

XML_TEXT = "<a> <b/> <b/> <c><d/></c> <e/> </a>"

SHEET_TEXT = """
<xsl:template match="doc"><out><xsl:apply-templates/></out></xsl:template>
<xsl:template match="item"><thing/></xsl:template>
"""

IN_DTD = "doc := item*\nitem :="
OUT_GOOD = "out := thing*\nthing :="
OUT_BAD = "out := thing+\nthing :="


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("schema.dtd", DTD_TEXT),
        ("doc.xml", XML_TEXT),
        ("bad.xml", "<a><c/></a>"),
        ("sheet.xsl", SHEET_TEXT),
        ("in.dtd", IN_DTD),
        ("indoc.xml", "<doc><item/><item/></doc>"),
        ("good.dtd", OUT_GOOD),
        ("bad.dtd", OUT_BAD),
        ("xmlstyle.dtd", "<!ELEMENT a (b*, c, e)> <!ELEMENT b EMPTY> "
                         "<!ELEMENT c (d*)> <!ELEMENT d EMPTY> "
                         "<!ELEMENT e EMPTY>"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


class TestValidate:
    def test_valid_document(self, files, capsys):
        assert main(["validate", "--dtd", files["schema.dtd"],
                     files["doc.xml"]]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_document(self, files, capsys):
        assert main(["validate", "--dtd", files["schema.dtd"],
                     files["bad.xml"]]) == 1
        assert "does not match" in capsys.readouterr().out

    def test_xml_style_dtd_autodetected(self, files):
        assert main(["validate", "--dtd", files["xmlstyle.dtd"],
                     files["doc.xml"]]) == 0


class TestRun:
    def test_applies_stylesheet(self, files, capsys):
        assert main(["run", "--stylesheet", files["sheet.xsl"],
                     files["indoc.xml"]]) == 0
        output = capsys.readouterr().out
        assert "<out>" in output and output.count("<thing/>") == 2


class TestTypecheck:
    def test_exact_pass(self, files, capsys):
        code = main(["typecheck", "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"], files["sheet.xsl"]])
        assert code == 0
        assert "typechecks" in capsys.readouterr().out

    def test_exact_fail_with_counterexample(self, files, capsys):
        code = main(["typecheck", "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["bad.dtd"], files["sheet.xsl"]])
        assert code == 1
        output = capsys.readouterr().out
        assert "DOES NOT typecheck" in output
        assert "<doc/>" in output  # the empty document is the witness

    def test_bounded_engine(self, files, capsys):
        code = main(["typecheck", "--method", "bounded",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"], files["sheet.xsl"]])
        assert code == 0
        assert "sample inputs" in capsys.readouterr().out

    def test_exact_verdict_is_labeled_a_proof(self, files, capsys):
        assert main(["typecheck", "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"],
                     files["sheet.xsl"]]) == 0
        assert "verdict: ok (exact proof)" in capsys.readouterr().out

    def test_bounded_verdict_is_labeled_not_a_proof(self, files, capsys):
        assert main(["typecheck", "--method", "bounded",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"],
                     files["sheet.xsl"]]) == 0
        assert "verdict: ok (bounded — not a proof)" in \
            capsys.readouterr().out

    def test_audit_witness_certifies_type_error(self, files, capsys):
        code = main(["typecheck", "--audit", "witness",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["bad.dtd"], files["sheet.xsl"]])
        assert code == 1  # a *certified* type error is still exit 1
        output = capsys.readouterr().out
        assert "DOES NOT typecheck" in output
        assert "audit: certified (mode=witness" in output

    def test_audit_full_certifies_ok(self, files, capsys):
        code = main(["typecheck", "--audit", "full",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"], files["sheet.xsl"]])
        assert code == 0
        output = capsys.readouterr().out
        assert "audit: certified (mode=full" in output
        assert "seed=" in output

    def test_audit_witness_skips_exact_ok(self, files, capsys):
        code = main(["typecheck", "--audit", "witness",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"], files["sheet.xsl"]])
        assert code == 0
        assert "audit: skipped" in capsys.readouterr().out

    def test_refuted_verdict_exits_6(self, files, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"points": {"audit:flip-verdict": {"action": "exception"}}}'
        )
        from repro.runtime.faults import FaultPlan, injected_faults
        import json as _json

        with injected_faults(
            FaultPlan.from_dict(_json.loads(plan.read_text()))
        ):
            code = main(["typecheck", "--audit", "witness",
                         "--input-dtd", files["in.dtd"],
                         "--output-dtd", files["good.dtd"],
                         files["sheet.xsl"]])
        assert code == 6
        captured = capsys.readouterr()
        assert "audit: failed" in captured.out
        assert "MISCOMPILED" in captured.err

    def test_budget_with_fallback_degrades(self, files, capsys):
        # the default --fallback turns an exhausted exact run into a
        # bounded verdict; the bad DTD still yields its counterexample.
        # --no-cache keeps the tiny budget meaningful: a warm memo table
        # would absorb the very work the budget is sized to interrupt.
        # --method exact: the default route decides this check in a few
        # steps, so a budget it runs out of has to be smaller than that
        code = main(["typecheck", "--method", "exact",
                     "--max-steps", "10", "--no-cache",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["bad.dtd"], files["sheet.xsl"]])
        assert code == 1
        captured = capsys.readouterr()
        assert "degraded to the bounded falsifier" in captured.err
        assert "DOES NOT typecheck" in captured.out

    def test_budget_without_fallback_exits_3(self, files, capsys):
        # --method exact, as above
        code = main(["typecheck", "--method", "exact",
                     "--max-steps", "10", "--no-fallback", "--no-cache",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"], files["sheet.xsl"]])
        assert code == 3
        assert "resource budget exhausted" in capsys.readouterr().err

    def test_generous_budget_changes_nothing(self, files, capsys):
        code = main(["typecheck", "--timeout", "60", "--max-steps", "10000000",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"], files["sheet.xsl"]])
        assert code == 0
        captured = capsys.readouterr()
        assert "typechecks" in captured.out
        assert "degraded" not in captured.err

    def test_no_cache_same_verdict_zero_hits(self, files, capsys):
        code = main(["typecheck", "--no-cache", "--cache-stats",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"], files["sheet.xsl"]])
        assert code == 0
        captured = capsys.readouterr()
        assert "typechecks" in captured.out
        assert "hits=0" in captured.err
        assert "enabled=no" in captured.err

    def test_cache_stats_reports_counters(self, files, capsys):
        code = main(["typecheck", "--cache-stats",
                     "--input-dtd", files["in.dtd"],
                     "--output-dtd", files["good.dtd"], files["sheet.xsl"]])
        assert code == 0
        captured = capsys.readouterr()
        line = next(l for l in captured.err.splitlines()
                    if l.startswith("cache: "))
        for counter in ("hits=", "misses=", "stores=", "evictions=",
                        "entries=", "bytes=", "enabled="):
            assert counter in line

    def test_cached_rerun_reports_hits(self, files, capsys):
        from repro.runtime import GLOBAL_CACHE, clear_cache

        previous = GLOBAL_CACHE.enabled
        GLOBAL_CACHE.enabled = True
        clear_cache()
        try:
            argv = ["typecheck", "--cache-stats",
                    "--input-dtd", files["in.dtd"],
                    "--output-dtd", files["good.dtd"], files["sheet.xsl"]]
            assert main(argv) == 0
            capsys.readouterr()
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert "typechecks" in captured.out
            line = next(l for l in captured.err.splitlines()
                        if l.startswith("cache: "))
            hits = int(line.split("hits=")[1].split()[0])
            assert hits > 0
        finally:
            GLOBAL_CACHE.enabled = previous
            clear_cache()

    def test_run_respects_step_budget(self, files, capsys):
        code = main(["run", "--max-steps", "1",
                     "--stylesheet", files["sheet.xsl"], files["indoc.xml"]])
        assert code == 3
        assert "resource budget exhausted" in capsys.readouterr().err

    def test_library_error_reported(self, files, tmp_path, capsys):
        broken = tmp_path / "broken.dtd"
        broken.write_text("a = oops")
        code = main(["validate", "--dtd", str(broken), files["doc.xml"]])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, files, capsys):
        code = main(["validate", "--dtd", "/nonexistent.dtd",
                     files["doc.xml"]])
        assert code == 2


class TestAuditCommand:
    """``repro audit``: offline re-certification of a results log."""

    import json as _json

    def manifest_and_results(self, files, tmp_path, capsys):
        jobs = [
            {"id": "good", "kind": "typecheck",
             "params": {"stylesheet": files["sheet.xsl"],
                        "input_dtd": files["in.dtd"],
                        "output_dtd": files["good.dtd"]}},
            {"id": "bad", "kind": "typecheck",
             "params": {"stylesheet": files["sheet.xsl"],
                        "input_dtd": files["in.dtd"],
                        "output_dtd": files["bad.dtd"]}},
        ]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            "".join(self._json.dumps(job) + "\n" for job in jobs)
        )
        results = tmp_path / "r.jsonl"
        assert main(["batch", str(manifest),
                     "--results", str(results)]) == 1
        capsys.readouterr()
        return manifest, results

    def test_clean_log_recertifies(self, files, tmp_path, capsys):
        manifest, results = self.manifest_and_results(
            files, tmp_path, capsys
        )
        code = main(["audit", str(results), "--manifest", str(manifest)])
        assert code == 0
        captured = capsys.readouterr()
        lines = [self._json.loads(line)
                 for line in captured.out.splitlines()]
        by_id = {line["id"]: line["audit"]["status"] for line in lines}
        assert by_id == {"good": "skipped", "bad": "certified"}
        assert "certified=1" in captured.err

    def test_full_mode_falsifies_ok_verdicts(self, files, tmp_path,
                                             capsys):
        manifest, results = self.manifest_and_results(
            files, tmp_path, capsys
        )
        code = main(["audit", str(results), "--manifest", str(manifest),
                     "--mode", "full"])
        assert code == 0
        assert "certified=2" in capsys.readouterr().err

    def test_tampered_log_exits_6(self, files, tmp_path, capsys):
        manifest, results = self.manifest_and_results(
            files, tmp_path, capsys
        )
        lines = [self._json.loads(line)
                 for line in results.read_text().splitlines()]
        for line in lines:
            if line["id"] == "bad":
                # forge a well-typed "counterexample": the replay must
                # refute it
                line["detail"]["counterexample_output"] = \
                    "<out><thing/></out>"
        results.write_text(
            "".join(self._json.dumps(line) + "\n" for line in lines)
        )
        code = main(["audit", str(results), "--manifest", str(manifest)])
        assert code == 6
        captured = capsys.readouterr()
        assert "failed=1" in captured.err
        assert "MISCOMPILED: bad" in captured.err

    def test_unmatched_records_are_reported(self, files, tmp_path,
                                            capsys):
        manifest, results = self.manifest_and_results(
            files, tmp_path, capsys
        )
        with open(results, "a") as handle:
            handle.write(self._json.dumps(
                {"id": "stranger", "status": "ok", "detail": {}}
            ) + "\n")
        code = main(["audit", str(results), "--manifest", str(manifest)])
        assert code == 0
        captured = capsys.readouterr()
        assert "unmatched=1" in captured.err


class TestUnexpectedErrors:
    """An exception that is not a ``ReproError`` is a crash of ours: it
    exits 4, like a ``crashed`` batch job.  Ctrl-C still stops the CLI."""

    def argv(self, files):
        return ["typecheck", "--input-dtd", files["in.dtd"],
                "--output-dtd", files["good.dtd"], files["sheet.xsl"]]

    def patch_typecheck(self, monkeypatch, replacement):
        # the package, not ``repro.typecheck``: ``repro`` re-exports the
        # function under that name
        package = importlib.import_module("repro.typecheck")
        monkeypatch.setattr(package, "typecheck", replacement)

    def test_unexpected_exception_exits_crashed(self, files, capsys,
                                                monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        self.patch_typecheck(monkeypatch, boom)
        assert main(self.argv(files)) == 4
        err = capsys.readouterr().err
        assert "RuntimeError('boom')" in err
        assert "Traceback" in err

    def test_keyboard_interrupt_is_not_an_outcome(self, files, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        self.patch_typecheck(monkeypatch, interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(self.argv(files))

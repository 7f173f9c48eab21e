"""Tests for the schema-drift rules and the schema registry itself."""

from repro.analyze import schemas
from repro.analyze.schema_drift import lint_package, lint_sources
from repro.service import protocol


def lint_one(source, filename="x.py"):
    """Per-file rules only (no cross-file dead-key sweep)."""
    return lint_sources([(filename, source)], dead_keys=False)


def hits(source, rule_id):
    return [f for f in lint_one(source) if f.rule_id == rule_id]


class TestVersionLiterals:
    def test_inline_registered_tag_fires_once(self):
        findings = hits('TAG = "repro-stats/1"\n', "schema.inline-version")
        assert len(findings) == 1
        assert "repro-stats/1" in findings[0].message

    def test_unknown_tag_fires_once(self):
        findings = hits('TAG = "repro-bogus/9"\n', "schema.unknown-version")
        assert len(findings) == 1

    def test_docstring_mention_is_exempt(self):
        assert lint_one('"""repro-stats/1"""\n') == []

    def test_prose_containing_tag_is_exempt(self):
        # Only the exact tag shape matches, never a sentence around it.
        assert lint_one('MSG = "expected a repro-stats/1 report"\n') == []

    def test_registry_module_itself_is_exempt(self):
        source = 'STATS_SCHEMA = "repro-stats/1"\n'
        label = "repro/analyze/schemas.py"
        assert lint_sources([(label, source)], dead_keys=False) == []


class TestDocumentLiterals:
    def test_undeclared_key_fires_once(self):
        source = (
            "from repro.analyze.schemas import TRACE_SCHEMA\n"
            "\n"
            "doc = {'schema': TRACE_SCHEMA, 'trace_id': t, 'spans': [],\n"
            "       'extra': 1}\n"
        )
        findings = hits(source, "schema.undeclared-key")
        assert len(findings) == 1
        assert "'extra'" in findings[0].message

    def test_missing_required_key_fires_once(self):
        source = (
            "from repro.analyze.schemas import TRACE_SCHEMA\n"
            "\n"
            "doc = {'schema': TRACE_SCHEMA, 'trace_id': t}\n"
        )
        findings = hits(source, "schema.missing-key")
        assert len(findings) == 1
        assert "'spans'" in findings[0].message

    def test_spread_suppresses_missing_key(self):
        # A **spread can supply anything; only fully-literal documents
        # can be checked for completeness.
        source = (
            "from repro.analyze.schemas import TRACE_SCHEMA\n"
            "\n"
            "doc = {'schema': TRACE_SCHEMA, **rest}\n"
        )
        assert hits(source, "schema.missing-key") == []

    def test_complete_document_is_clean(self):
        source = (
            "from repro.analyze.schemas import TRACE_SCHEMA\n"
            "\n"
            "doc = {'schema': TRACE_SCHEMA, 'trace_id': t, 'spans': []}\n"
        )
        assert lint_one(source) == []

    def test_historical_alias_resolves(self):
        # PROTOCOL_SCHEMA is the service tag's historical alias; a dict
        # keyed on it must check against the service spec.
        source = "doc = {'schema': PROTOCOL_SCHEMA, 'bogus': 1}\n"
        findings = hits(source, "schema.undeclared-key")
        assert len(findings) == 1


class TestServiceRequests:
    def test_unknown_verb_fires_once(self):
        source = "req = {'verb': 'frobnicate', 'job': job_id}\n"
        findings = hits(source, "schema.unknown-verb")
        assert len(findings) == 1
        assert "frobnicate" in findings[0].message

    def test_undeclared_request_key_fires_once(self):
        source = "req = {'verb': 'status', 'jobb': 1}\n"
        findings = hits(source, "schema.undeclared-key")
        assert len(findings) == 1
        assert "'jobb'" in findings[0].message

    def test_valid_request_is_clean(self):
        source = "req = {'verb': 'result', 'job': job_id, 'wait': True}\n"
        assert lint_one(source) == []

    def test_builder_unknown_verb_fires_once(self):
        source = "resp = ok_response('frobnicate')\n"
        assert len(hits(source, "schema.unknown-verb")) == 1

    def test_builder_undeclared_field_fires_once(self):
        source = "resp = ok_response('ping', bogus_field=1)\n"
        findings = hits(source, "schema.undeclared-key")
        assert len(findings) == 1
        assert "bogus_field" in findings[0].message

    def test_builder_declared_fields_are_clean(self):
        source = "resp = ok_response('status', job=j, state=s)\n"
        assert lint_one(source) == []


class TestFleetRequests:
    """Router-side drift: the ``repro-fleet/1`` cache verbs."""

    def test_unknown_cache_verb_fires_once(self):
        source = "req = {'verb': 'cache-del', 'key': key}\n"
        findings = hits(source, "schema.unknown-verb")
        assert len(findings) == 1
        assert "cache-del" in findings[0].message

    def test_undeclared_fleet_request_key_fires_once(self):
        # A cache probe carrying circuit payloads is a routing bug:
        # only submit ships AIGs, the fleet verbs ship keys.
        source = "req = {'verb': 'cache', 'aag_a': text}\n"
        findings = hits(source, "schema.undeclared-key")
        assert len(findings) == 1
        assert "'aag_a'" in findings[0].message

    def test_cache_get_request_is_clean(self):
        source = "req = {'verb': 'cache-get', 'key': key}\n"
        assert lint_one(source) == []

    def test_cache_put_request_is_clean(self):
        source = (
            "req = {'verb': 'cache-put', 'key': key,"
            " 'result': doc, 'meta': meta}\n"
        )
        assert lint_one(source) == []

    def test_fleet_builder_undeclared_field_fires_once(self):
        source = "resp = fleet_response('cache-get', bogus=1)\n"
        findings = hits(source, "schema.undeclared-key")
        assert len(findings) == 1
        assert "bogus" in findings[0].message

    def test_fleet_builder_unknown_verb_fires_once(self):
        source = "resp = fleet_response('cache-del')\n"
        assert len(hits(source, "schema.unknown-verb")) == 1

    def test_fleet_builder_declared_fields_are_clean(self):
        source = (
            "resp = fleet_response('cache', key=key, found=True,"
            " meta=meta)\n"
        )
        assert lint_one(source) == []


class TestDeadKeys:
    SPECS = {
        "repro-test/1": schemas.SchemaSpec(
            "repro-test/1",
            required=("schema", "used"),
            optional=("unused",),
        ),
    }

    def test_never_observed_key_warns_once(self):
        source = "doc = {'schema': 'repro-test/1', 'used': 1}\n"
        findings = [
            f for f in lint_sources([("x.py", source)], specs=self.SPECS)
            if f.rule_id == "schema.dead-key"
        ]
        assert len(findings) == 1
        assert "'unused'" in findings[0].message
        assert findings[0].severity == "warning"

    def test_subscript_read_counts_as_usage(self):
        source = (
            "doc = {'schema': 'repro-test/1', 'used': 1}\n"
            "x = doc['unused']\n"
        )
        findings = lint_sources([("x.py", source)], specs=self.SPECS)
        assert [f for f in findings if f.rule_id == "schema.dead-key"] == []

    def test_get_read_counts_as_usage(self):
        source = (
            "doc = {'schema': 'repro-test/1', 'used': 1}\n"
            "x = doc.get('unused')\n"
        )
        findings = lint_sources([("x.py", source)], specs=self.SPECS)
        assert [f for f in findings if f.rule_id == "schema.dead-key"] == []


class TestPragmas:
    def test_pragma_waives_listed_rules(self):
        source = (
            "doc = {'schema': 'repro-trace/1'}"
            "  # repro-lint: ignore[schema.inline-version,"
            " schema.missing-key]\n"
        )
        assert lint_one(source) == []

    def test_pragma_keeps_unlisted_rules(self):
        source = (
            "doc = {'schema': 'repro-trace/1'}"
            "  # repro-lint: ignore[schema.inline-version]\n"
        )
        findings = lint_one(source)
        assert [f.rule_id for f in findings] == ["schema.missing-key"]


class TestRegistry:
    def test_constants_map_onto_registered_schemas(self):
        for name, tag in schemas.SCHEMA_CONSTANTS.items():
            assert tag in schemas.SCHEMAS, name
            assert schemas.constant_tag(name) == tag

    def test_spec_for_unknown_tag_is_none(self):
        assert schemas.spec_for("repro-bogus/9") is None

    def test_protocol_reexports_registry(self):
        assert protocol.PROTOCOL_SCHEMA == schemas.SERVICE_SCHEMA
        assert protocol.VERBS == frozenset(schemas.SERVICE_VERBS)

    def test_every_schema_requires_its_tag_key(self):
        for spec in schemas.SCHEMAS.values():
            assert "schema" in spec.required, spec.tag
            assert not (spec.required & spec.optional), spec.tag

    def test_lint_report_matches_registry(self):
        from repro.analyze.findings import LintReport

        spec = schemas.spec_for(schemas.LINT_SCHEMA)
        report = LintReport().report()
        assert set(report) == spec.required

    def test_repro_package_is_clean(self):
        findings = lint_package()
        assert findings == [], [f.render() for f in findings]


class TestObservabilityDocuments:
    """Known-bad fixtures for the progress heartbeat schema: the drift
    rules must gate ``repro-progress/1`` documents exactly like the
    older tags."""

    def test_progress_undeclared_key_fires_once(self):
        source = (
            "from repro.analyze.schemas import PROGRESS_SCHEMA\n"
            "\n"
            "doc = {'schema': PROGRESS_SCHEMA, 'seq': 1,\n"
            "       'elapsed_seconds': 0.5, 'phase': 'solve',\n"
            "       'counters': {}, 'speedometer': 9000}\n"
        )
        findings = hits(source, "schema.undeclared-key")
        assert len(findings) == 1
        assert "'speedometer'" in findings[0].message

    def test_progress_missing_counters_fires_once(self):
        source = (
            "from repro.analyze.schemas import PROGRESS_SCHEMA\n"
            "\n"
            "doc = {'schema': PROGRESS_SCHEMA, 'seq': 1,\n"
            "       'elapsed_seconds': 0.5, 'phase': 'solve'}\n"
        )
        findings = hits(source, "schema.missing-key")
        assert len(findings) == 1
        assert "'counters'" in findings[0].message

    def test_complete_progress_document_is_clean(self):
        source = (
            "from repro.analyze.schemas import PROGRESS_SCHEMA\n"
            "\n"
            "doc = {'schema': PROGRESS_SCHEMA, 'seq': 1,\n"
            "       'elapsed_seconds': 0.5, 'phase': 'solve',\n"
            "       'counters': {}, 'deltas': {}, 'rates': {},\n"
            "       'eta_seconds': [1.0, 2.0]}\n"
        )
        assert lint_one(source) == []

    def test_inline_progress_tag_fires(self):
        findings = hits(
            'TAG = "repro-progress/1"\n', "schema.inline-version",
        )
        assert len(findings) == 1

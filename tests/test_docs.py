"""The documentation conformance suite: ``docs/`` must match the code.

Every protocol surface is documented in ``docs/``, and every normative
claim in those documents is checked here against the real implementation
— frame examples round-trip through the actual codec, error-code tables
mirror the registries bidirectionally, the feature table matches
``FEATURES``, and the ``REPRO_*`` configuration matrix is diffed against
a grep of the source tree.  Changing the wire without changing the docs
(or vice versa) fails this suite.
"""

from __future__ import annotations

import json
import re
import typing
from pathlib import Path

import pytest

import repro.service.slow  # noqa: F401 — the "slow" wire type
from repro.core.framing import encode_frame
from repro.core.sketch import Summary
from repro.core.wire import (
    MAX_SUMMARY_CELLS,
    NULL,
    REQUIRED,
    SKETCH_TYPES,
    SUMMARY_TYPES,
    Derived,
)
from repro.engine.rpc import (
    REQUEST_ID_MAX,
    REQUEST_ID_MIN,
    TERMINAL_REPLY_KINDS,
    WIRE_ERROR_CODES,
    RpcReply,
    RpcRequest,
    encode_envelope,
    split_envelope,
)
from repro.engine.cluster import WorkerProtocol
from repro.engine.verbs import WIRE_VERBS
from repro.engine.web import WebServer
from repro.gateway.protocol import (
    FEATURES,
    GATEWAY_ERROR_CODES,
    MIN_SUPPORTED,
    PROTOCOL_VERSION,
    protocol_features,
)

REPO = Path(__file__).resolve().parents[1]
DOCS = REPO / "docs"
PROTOCOL_MD = (DOCS / "PROTOCOL.md").read_text()
GATEWAY_MD = (DOCS / "GATEWAY_API.md").read_text()
CONFIG_MD = (DOCS / "CONFIG.md").read_text()


# ---------------------------------------------------------------------------
# Markdown parsing helpers
# ---------------------------------------------------------------------------
def conformance_block(text: str, name: str) -> str:
    """The fenced code block tagged ``<!-- conformance: name -->``."""
    pattern = (
        rf"<!-- conformance: {re.escape(name)} -->\s*\n\s*```[a-z]*\n(.*?)```"
    )
    match = re.search(pattern, text, re.DOTALL)
    assert match, f"no conformance block named {name!r}"
    # Strip the indentation fenced blocks pick up inside list items.
    lines = match.group(1).splitlines()
    indent = min(
        (len(l) - len(l.lstrip()) for l in lines if l.strip()), default=0
    )
    return "\n".join(l[indent:] for l in lines).strip()


def section(text: str, heading: str) -> str:
    """Everything under ``heading`` up to the next same-level heading."""
    lines = text.splitlines()
    level = heading.split()[0].count("#")
    out: list[str] = []
    active = False
    for line in lines:
        if line.strip() == heading:
            active = True
            continue
        if active and re.match(rf"#{{1,{level}}} ", line):
            break
        if active:
            out.append(line)
    assert out, f"heading {heading!r} not found or empty"
    return "\n".join(out)


def table_first_column(text: str) -> list[str]:
    """Backticked first-column entries of every markdown table row."""
    return re.findall(r"^\|\s*`([A-Za-z0-9_]+)`", text, re.MULTILINE)


# ---------------------------------------------------------------------------
# PROTOCOL.md: frames and envelopes round-trip through the codec
# ---------------------------------------------------------------------------
class TestWireExamples:
    def test_documented_frame_bytes_match_the_codec(self):
        payload = conformance_block(PROTOCOL_MD, "frame-payload")
        documented = bytes.fromhex(conformance_block(PROTOCOL_MD, "frame-hex"))
        assert encode_frame(payload.encode("utf-8")) == documented

    def test_frame_payload_is_a_canonical_request(self):
        payload = conformance_block(PROTOCOL_MD, "frame-payload")
        request = RpcRequest.from_json(payload)
        assert request.to_json() == payload

    def test_request_envelope_round_trips(self):
        documented = json.loads(conformance_block(PROTOCOL_MD, "request-envelope"))
        request = RpcRequest.from_json(json.dumps(documented))
        assert json.loads(request.to_json()) == documented

    def test_reply_envelope_round_trips(self):
        documented = json.loads(conformance_block(PROTOCOL_MD, "reply-envelope"))
        reply = RpcReply.from_json(json.dumps(documented))
        assert json.loads(reply.to_json()) == documented

    def test_binary_envelope_example(self):
        raw = bytes.fromhex(conformance_block(PROTOCOL_MD, "binary-envelope-hex"))
        header, attachment = split_envelope(raw)
        assert attachment == b"\x01\x02\x03"
        reply = RpcReply.from_json(header)
        assert (reply.request_id, reply.kind) == (7, "partial")
        assert encode_envelope(header, attachment) == raw
        framed = bytes.fromhex(
            conformance_block(PROTOCOL_MD, "binary-envelope-framed-hex")
        )
        assert encode_frame(raw) == framed

    @pytest.mark.parametrize("doc", [PROTOCOL_MD, GATEWAY_MD], ids=["tcp", "ws"])
    def test_documented_request_id_range(self, doc):
        assert f"`{REQUEST_ID_MIN}` to `{REQUEST_ID_MAX}`" in doc

    def test_terminal_kinds(self):
        documented = set(conformance_block(PROTOCOL_MD, "terminal-kinds").split())
        assert documented == set(TERMINAL_REPLY_KINDS)

    def test_documented_methods_are_dispatchable(self):
        # The method table is the one before the §3.1 sketch catalogue.
        methods = section(PROTOCOL_MD, "## 3. Methods").split("\n### ")[0]
        rows = table_first_column(methods)
        assert rows, "the method table is empty"
        dispatch = (WebServer._dispatch.__doc__ or "") + _source_of(
            WebServer._dispatch
        )
        for method in rows:
            assert f'method == "{method}"' in dispatch, (
                f"PROTOCOL.md documents method {method!r} but "
                "WebServer._dispatch has no branch for it"
            )


def _source_of(fn) -> str:
    import inspect

    return inspect.getsource(fn)


# ---------------------------------------------------------------------------
# PROTOCOL.md §3.1: the sketch catalogue is rendered from the field tables
# ---------------------------------------------------------------------------
def _summary_tag(sketch_cls: type) -> str | None:
    """The wire tag of the summary a sketch class is generic over."""
    for klass in sketch_cls.__mro__:
        for base in getattr(klass, "__orig_bases__", ()):
            for arg in typing.get_args(base):
                if isinstance(arg, type) and issubclass(arg, Summary):
                    return arg.wire.tag
    return None


def _keys(entry) -> str:
    keys = entry.key if isinstance(entry.key, tuple) else (entry.key,)
    return ", ".join(f"`{key}`" for key in keys)


def _spec_field(entry) -> str:
    if entry.default is REQUIRED:
        default = ""
    elif entry.default is NULL:
        default = " = `null`"
    elif entry.default is None:
        default = " (optional)"
    else:
        default = f" = `{json.dumps(entry.default)}`"
    return f"{_keys(entry)}: {entry.kind.name}{default}"


def render_sketch_catalogue() -> str:
    """The two tables of PROTOCOL.md §3.1, from the live registries."""
    lines = [
        "| sketch `type` | summary `type` | fields (`key`: kind = default) |",
        "|---|---|---|",
    ]
    for name, classes in sorted(SKETCH_TYPES.items()):
        for position, cls in enumerate(classes):
            label = f"`{name}`"
            if cls.wire.variant is not None:
                key, value = cls.wire.variant
                label += f" with `{key}`: `{json.dumps(value)}`"
                label += " (the default)" if position == 0 else ""
            tag = _summary_tag(cls)
            summary = f"`{tag}`" if tag else "that of `inner`"
            fields = "; ".join(_spec_field(e) for e in cls.wire.entries)
            lines.append(f"| {label} | {summary} | {fields} |")
    lines += [
        "",
        "| summary `type` | fields (`key`: kind) | JSON-only derived fields |",
        "|---|---|---|",
    ]
    for tag, cls in sorted(SUMMARY_TYPES.items()):
        fields = "; ".join(
            f"{_keys(e)}: {e.kind.name}"
            for e in cls.wire.entries
            if not isinstance(e, Derived)
        )
        derived = "; ".join(
            f"`{e.key}`: {e.doc}" for e in cls.wire.entries if isinstance(e, Derived)
        )
        lines.append(f"| `{tag}` | {fields} | {derived} |")
    return "\n".join(lines)


def render_value_catalogue() -> str:
    """PROTOCOL.md §3.2's table of lineage and spec values, from the live
    unions: sources, table maps, lineage ops, predicates, buckets."""
    from repro.core.buckets import BUCKET_TYPES
    from repro.engine.dataset import TABLE_MAPS
    from repro.engine.redo_log import LINEAGE_OPS
    from repro.storage.loader import SOURCES
    from repro.table.compute import PREDICATES

    lines = [
        "| value | tag | class | fields (`key`: kind = default) |",
        "|---|---|---|---|",
    ]
    for union in (SOURCES, TABLE_MAPS, LINEAGE_OPS, PREDICATES, BUCKET_TYPES):
        for tag, cls in union.classes.items():
            label = f"`{union.key}`: `{json.dumps(tag)}`"
            if cls.wire.code is not None:
                label += f" (binary `{cls.wire.code}`)"
            fields = "; ".join(_spec_field(e) for e in cls.wire.entries)
            lines.append(f"| {union.name} | {label} | `{cls.__name__}` | {fields} |")
    return "\n".join(lines)


class TestValueCatalogue:
    def test_catalogue_matches_the_unions(self):
        match = re.search(
            r"<!-- generated: value-catalogue -->\n(.*?)\n<!-- /generated -->",
            PROTOCOL_MD,
            re.DOTALL,
        )
        assert match, "PROTOCOL.md lost its value-catalogue block"
        assert match.group(1) == render_value_catalogue(), (
            "docs/PROTOCOL.md §3.2 is out of date; paste the output of "
            "`PYTHONPATH=src:tests python -c \"import test_docs; "
            "print(test_docs.render_value_catalogue())\"` between the markers"
        )


class TestSketchCatalogue:
    def test_catalogue_matches_the_field_tables(self):
        match = re.search(
            r"<!-- generated: sketch-catalogue -->\n(.*?)\n<!-- /generated -->",
            PROTOCOL_MD,
            re.DOTALL,
        )
        assert match, "PROTOCOL.md lost its sketch-catalogue block"
        assert match.group(1) == render_sketch_catalogue(), (
            "docs/PROTOCOL.md §3.1 is out of date; paste the output of "
            "`PYTHONPATH=src:tests python -c \"import test_docs; "
            "print(test_docs.render_sketch_catalogue())\"` between the markers"
        )

    def test_documented_cell_bound(self):
        assert f"**{MAX_SUMMARY_CELLS}**" in section(PROTOCOL_MD, "### 3.1 Sketch specs")


# ---------------------------------------------------------------------------
# PROTOCOL.md §7: the worker wire is rendered from the verb table
# ---------------------------------------------------------------------------
_FLAGS = {
    "dataset_op": "dataset op",
    "refused_draining": "refused while draining",
    "streaming": "streaming",
    "blobs": "blobs",
    "daemon": "daemon",
}


def render_worker_verbs() -> str:
    """The verb table of PROTOCOL.md §7, from the live verb table."""
    lines = [
        "| verb | `WorkerProtocol` method | terminal | flags "
        "| arguments (`key`: kind) | reply payload |",
        "|---|---|---|---|---|---|",
    ]
    for verb in WIRE_VERBS:
        method = f"`{verb.method}`" if verb.method else "— (connection-level)"
        flags = ", ".join(
            label for flag, label in _FLAGS.items() if getattr(verb, flag)
        )
        args = "; ".join(
            f"`{arg.key}`: {arg.kind.name}"
            + (" (omitted when null)" if arg.omit_none else "")
            for arg in verb.args
        )
        reply = verb.reply.name if verb.reply.name != "json" else "—"
        if verb.reply_key is not None:
            reply = f"`{verb.reply_key}`: {reply}"
        if verb.also is not None:
            reply += f", plus the fields of `{verb.also}`"
        lines.append(
            f"| `{verb.wire}` | {method} | `{verb.kind}` | {flags} "
            f"| {args} | {reply} |"
        )
    return "\n".join(lines)


class TestWorkerWire:
    def test_verb_table_matches_the_live_table(self):
        match = re.search(
            r"<!-- generated: worker-verbs -->\n(.*?)\n<!-- /generated -->",
            PROTOCOL_MD,
            re.DOTALL,
        )
        assert match, "PROTOCOL.md lost its worker-verbs block"
        assert match.group(1) == render_worker_verbs(), (
            "docs/PROTOCOL.md §7 is out of date; paste the output of "
            "`PYTHONPATH=src:tests python -c \"import test_docs; "
            "print(test_docs.render_worker_verbs())\"` between the markers"
        )

    def test_rows_are_the_protocol_verbs_each_exactly_once(self):
        """Table rows == ``WorkerProtocol`` verbs == documented verbs."""
        wires = [verb.wire for verb in WIRE_VERBS]
        methods = [verb.method for verb in WIRE_VERBS if verb.method]
        assert len(set(wires)) == len(wires)
        assert len(set(methods)) == len(methods)
        protocol = {
            name
            for name, member in vars(WorkerProtocol).items()
            if callable(member) and not name.startswith("_")
        }
        # close() releases the handle; it is not a message to the worker.
        assert set(methods) == protocol - {"close"}
        documented = table_first_column(section(PROTOCOL_MD, "## 7. Worker wire"))
        assert documented == wires

    def test_documented_reply_keys_match_the_golden_transcript(self):
        """An object reply's documented keys are the keys on the wire."""
        from test_worker_wire_golden import PINNED

        verbs = {verb.wire: verb for verb in WIRE_VERBS}
        checked = set()
        for name, exchange in PINNED.items():
            verb = verbs.get(name.rsplit(".", 1)[1])
            replies = exchange.get("replies") or [{"header": "{}"}]
            payload = json.loads(replies[-1]["header"]).get("payload")
            if verb is None or payload is None:
                continue  # an error reply, or a request-only exchange
            if verb.reply_key is not None:
                assert verb.reply_key in payload, name
            elif verb.reply.name.startswith("{"):
                assert list(payload) == verb.reply.name.strip("{}").split(", "), name
            checked.add(verb.wire)
        assert {"metricsSnapshot", "placement", "inventory"} <= checked


# ---------------------------------------------------------------------------
# Error-code registries: bidirectional cross-checks
# ---------------------------------------------------------------------------
class TestErrorCodeTables:
    def test_wire_codes_match_registry(self):
        documented = set(table_first_column(section(PROTOCOL_MD, "## 4. Error codes")))
        registry = set(WIRE_ERROR_CODES)
        assert documented - registry == set(), (
            "PROTOCOL.md documents codes the registry does not have"
        )
        assert registry - documented == set(), (
            "WIRE_ERROR_CODES has codes PROTOCOL.md does not document"
        )

    def test_gateway_codes_match_registry(self):
        documented = set(
            table_first_column(section(GATEWAY_MD, "## 7. Gateway error codes"))
        )
        registry = set(GATEWAY_ERROR_CODES)
        assert documented == registry, (
            f"doc-only: {documented - registry}, code-only: {registry - documented}"
        )

    def test_registries_do_not_overlap(self):
        # A code must mean one thing: the gateway table extends, never
        # shadows, the wire table.
        assert set(GATEWAY_ERROR_CODES) & set(WIRE_ERROR_CODES) == set()


# ---------------------------------------------------------------------------
# GATEWAY_API.md: versions and the feature table
# ---------------------------------------------------------------------------
class TestGatewayDoc:
    def test_version_numbers(self):
        versioning = section(GATEWAY_MD, "## 1. Protocol versioning")
        assert f"(**{PROTOCOL_VERSION}**)" in versioning
        assert f"(**{MIN_SUPPORTED}**)" in versioning

    def test_feature_table_matches_features(self):
        rows = re.findall(
            r"^\|\s*`([a-z0-9_]+)`\s*\|\s*(\d+)\s*\|",
            section(GATEWAY_MD, "## 1. Protocol versioning"),
            re.MULTILINE,
        )
        documented = {name: int(version) for name, version in rows}
        assert documented == FEATURES

    def test_server_hello_example(self):
        hello = json.loads(conformance_block(GATEWAY_MD, "server-hello"))
        assert hello["type"] == "hello"
        assert hello["protocolVersion"] == PROTOCOL_VERSION
        assert hello["minSupported"] == MIN_SUPPORTED
        assert hello["features"] == protocol_features()


# ---------------------------------------------------------------------------
# CONFIG.md: the flag matrix is diffed against a grep of the source tree
# ---------------------------------------------------------------------------
def flags_in_tree() -> set[str]:
    found: set[str] = set()
    for root in (REPO / "src", REPO / "benchmarks"):
        for path in root.rglob("*.py"):
            found |= set(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
    return found


class TestConfigMatrix:
    def test_every_flag_in_code_is_documented(self):
        documented = set(table_first_column(CONFIG_MD))
        undocumented = flags_in_tree() - documented
        assert undocumented == set(), (
            f"flags read by the code but missing from docs/CONFIG.md: "
            f"{sorted(undocumented)}"
        )

    def test_every_documented_flag_exists_in_code(self):
        documented = set(table_first_column(CONFIG_MD))
        stale = documented - flags_in_tree()
        assert stale == set(), (
            f"docs/CONFIG.md documents flags the code no longer reads: "
            f"{sorted(stale)}"
        )

    def test_flag_count_only_shrinks(self):
        # A new REPRO_* switch doubles the configurations to test; adding
        # one means arguing for it here.
        assert len(table_first_column(CONFIG_MD)) <= 10


# ---------------------------------------------------------------------------
# README's correctness table is rendered from the invariant matrix
# ---------------------------------------------------------------------------
def test_readme_matrix_is_the_live_matrix():
    from test_invariant import render_matrix

    readme = (REPO / "README.md").read_text()
    match = re.search(
        r"<!-- generated: invariant-matrix -->\n(.*?)\n<!-- /generated -->",
        readme,
        re.DOTALL,
    )
    assert match, "README.md lost its invariant-matrix block"
    assert match.group(1) == render_matrix(), (
        "README.md's correctness table is out of date; paste the output of "
        "`PYTHONPATH=src:tests python -c \"import test_invariant; "
        "print(test_invariant.render_matrix())\"` between the markers"
    )


# ---------------------------------------------------------------------------
# Link integrity: every relative link in README.md and docs/ resolves
# ---------------------------------------------------------------------------
def _slugify(heading: str) -> str:
    """GitHub-style heading anchor."""
    text = heading.strip().lstrip("#").strip().lower()
    text = re.sub(r"[`*]", "", text)
    text = re.sub(r"[^a-z0-9 _-]", "", text)
    return text.replace(" ", "-")


def _anchors(text: str) -> set[str]:
    return {
        _slugify(line)
        for line in text.splitlines()
        if re.match(r"#{1,6} ", line)
    }


def _relative_links(text: str) -> list[str]:
    links = re.findall(r"\[[^\]]*\]\(([^)\s]+)\)", text)
    return [
        l
        for l in links
        if not l.startswith(("http://", "https://", "mailto:"))
    ]


MARKDOWN_FILES = sorted(
    [REPO / "README.md", *DOCS.glob("*.md")], key=lambda p: p.name
)


class TestLinks:
    @pytest.mark.parametrize(
        "path", MARKDOWN_FILES, ids=[p.name for p in MARKDOWN_FILES]
    )
    def test_relative_links_resolve(self, path: Path):
        text = path.read_text()
        for link in _relative_links(text):
            target, _, anchor = link.partition("#")
            if target:
                resolved = (path.parent / target).resolve()
                assert resolved.exists(), f"{path.name}: broken link {link!r}"
            else:
                resolved = path
            if anchor and resolved.suffix == ".md":
                assert anchor in _anchors(resolved.read_text()), (
                    f"{path.name}: link {link!r} names a missing anchor"
                )


# ---------------------------------------------------------------------------
# The curl walkthrough names only routes the server actually serves
# ---------------------------------------------------------------------------
class TestEndpointTable:
    def test_documented_paths_exist_in_server(self):
        server_source = (
            REPO / "src" / "repro" / "gateway" / "server.py"
        ).read_text()
        table = section(GATEWAY_MD, "## 2. HTTP endpoints")
        paths = re.findall(r"`(?:GET|POST|DELETE) (/api/v1/[^`\s]+)`", table)
        assert len(paths) >= 13, "the endpoint table lost rows"
        for path in paths:
            # Route tails appear as literals in the dispatcher; dynamic
            # segments ({id}, {name}) and $views are matched structurally.
            tail = path.removeprefix("/api/v1/").split("/")[0]
            if tail:
                assert f'"{tail}"' in server_source or f"'{tail}'" in server_source, (
                    f"endpoint table documents {path} but the server "
                    f"never routes {tail!r}"
                )

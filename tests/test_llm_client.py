from __future__ import annotations

import http.server
import json
import re
import socket
import threading

import pytest

from minigi import llm
from minigi.llm import (
    BadStatusError,
    LiveLlmClient,
    LlmClientConfig,
    MockLlmClient,
    MockScriptExhaustedError,
    NetworkError,
    RateLimitedError,
    ReplayLlmClient,
    TranscriptMissError,
    TimedOutError,
    TranscriptStore,
    make_client,
    request_digest,
)
from minigi.prompts import LlmRequest


def test_mock_returns_canned_text_in_order():
    client = MockLlmClient(LlmClientConfig(mode="mock"), script=["one", "two"])
    assert client.complete(LlmRequest("p1")).raw_text == "one"
    assert client.complete(LlmRequest("p2")).raw_text == "two"
    with pytest.raises(MockScriptExhaustedError):
        client.complete(LlmRequest("p3"))


def test_mock_callable_script_sees_request():
    client = MockLlmClient(LlmClientConfig(mode="mock"), script=lambda r: r.prompt.upper())
    assert client.complete(LlmRequest("abc")).raw_text == "ABC"


def test_default_mock_is_deterministic_and_covers_the_ladder():
    client = MockLlmClient(LlmClientConfig(mode="mock"))
    request = LlmRequest("Rewrite this:\n```\n{\n    x = 1;\n}\n```\n")
    first = client.complete(request)
    second = client.complete(request)
    assert first.raw_text == second.raw_text
    assert len(first.extracted_blocks) == 4  # fifth variant is prose


def test_mock_records_transcripts_and_replay_serves_them(tmp_path):
    config = LlmClientConfig(mode="mock", transcript_dir=tmp_path)
    mock = MockLlmClient(config, script=["hello"])
    request = LlmRequest("prompt text")
    response = mock.complete(request)

    replay = ReplayLlmClient(LlmClientConfig(mode="replay", transcript_dir=tmp_path))
    served = replay.complete(request)
    assert served.raw_text == response.raw_text


def test_replay_miss_is_an_error(tmp_path):
    replay = ReplayLlmClient(LlmClientConfig(mode="replay", transcript_dir=tmp_path))
    with pytest.raises(TranscriptMissError):
        replay.complete(LlmRequest("never recorded"))


def test_replay_requires_transcript_dir():
    from minigi.llm import ClientError

    with pytest.raises(ClientError):
        ReplayLlmClient(LlmClientConfig(mode="replay"))


def test_transcripts_are_append_only(tmp_path):
    store = TranscriptStore(tmp_path)
    store.put("d1", {"response": "first"})
    store.put("d1", {"response": "second"})
    assert store.get("d1")["response"] == "first"


def test_request_digest_depends_on_model_temperature_prompt():
    base = LlmRequest("p", model="m", temperature=0.7)
    assert request_digest(base) == request_digest(LlmRequest("p", model="m", temperature=0.7))
    assert request_digest(base) != request_digest(LlmRequest("q", model="m", temperature=0.7))
    assert request_digest(base) != request_digest(LlmRequest("p", model="x", temperature=0.7))
    assert request_digest(base) != request_digest(LlmRequest("p", model="m", temperature=0.2))


def test_make_client_dispatch(tmp_path):
    assert isinstance(make_client(LlmClientConfig(mode="mock")), MockLlmClient)
    assert isinstance(
        make_client(LlmClientConfig(mode="replay", transcript_dir=tmp_path)), ReplayLlmClient
    )
    assert isinstance(make_client(LlmClientConfig(mode="live")), LiveLlmClient)
    with pytest.raises(ValueError):
        make_client(LlmClientConfig(mode="telepathy"))


@pytest.mark.parametrize("field, value, complaint", [
    ("max_retries", -1, "max_retries must be an integer of at least 0, got -1"),
    ("max_retries", 1.0, "max_retries must be an integer of at least 0, got 1.0"),
    ("request_timeout", 0, "request_timeout must be a number above 0 seconds, got 0"),
    ("request_timeout", -2.5, "request_timeout must be a number above 0 seconds, got -2.5"),
    ("request_timeout", float("nan"), "request_timeout must be a number above 0 seconds"),
    ("request_timeout", "60", "request_timeout must be a number above 0 seconds, got '60'"),
    ("mode", "telepathy", "mode must be one of live, replay, mock, got 'telepathy'"),
])
def test_client_config_refuses_bad_values(field, value, complaint):
    with pytest.raises(ValueError, match=re.escape(complaint)):
        LlmClientConfig(**{field: value})
    assert LlmClientConfig(max_retries=0, request_timeout=1).max_retries == 0


def test_live_request_shape(monkeypatch, tmp_path):
    """One user message with the prompt; temperature and model in the body."""
    captured = {}

    def fake_post(url, body, headers, timeout):
        captured.update(url=url, body=body, headers=headers, timeout=timeout)
        return 200, json.dumps({"choices": [{"message": {"content": "the answer"}}]})

    monkeypatch.setattr(llm, "_post_json", fake_post)
    monkeypatch.setenv("TEST_API_KEY", "sk-test")
    config = LlmClientConfig(
        mode="live",
        endpoint_url="https://example.test/v1/chat/completions",
        api_key_env_var="TEST_API_KEY",
        transcript_dir=tmp_path,
    )
    client = LiveLlmClient(config)
    response = client.complete(LlmRequest("the prompt", temperature=0.7, model="gpt-3.5-turbo"))
    assert response.raw_text == "the answer"
    assert captured["url"] == config.endpoint_url
    assert captured["body"] == {
        "model": "gpt-3.5-turbo",
        "temperature": 0.7,
        "messages": [{"role": "user", "content": "the prompt"}],
    }
    assert captured["headers"]["Authorization"] == "Bearer sk-test"
    # the exchange was recorded
    digest = request_digest(LlmRequest("the prompt", temperature=0.7, model="gpt-3.5-turbo"))
    record = json.loads((tmp_path / f"{digest}.json").read_text())
    assert record["response"] == "the answer"


def test_live_missing_api_key(monkeypatch):
    from minigi.llm import ClientError

    monkeypatch.delenv("NOPE_KEY", raising=False)
    client = LiveLlmClient(LlmClientConfig(mode="live", api_key_env_var="NOPE_KEY"))
    with pytest.raises(ClientError):
        client.complete(LlmRequest("p"))


def test_live_rate_limit_retries_then_fails(monkeypatch):
    calls = {"n": 0}

    def always_429(url, body, headers, timeout):
        calls["n"] += 1
        return 429, "slow down"

    monkeypatch.setattr(llm, "_post_json", always_429)
    monkeypatch.setattr("time.sleep", lambda s: None)
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = LiveLlmClient(
        LlmClientConfig(mode="live", api_key_env_var="TEST_API_KEY", max_retries=2)
    )
    with pytest.raises(RateLimitedError):
        client.complete(LlmRequest("p"))
    assert calls["n"] == 3  # initial try + 2 retries


def test_live_bad_status(monkeypatch):
    monkeypatch.setattr(llm, "_post_json", lambda *a: (500, "boom"))
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = LiveLlmClient(LlmClientConfig(mode="live", api_key_env_var="TEST_API_KEY"))
    with pytest.raises(BadStatusError):
        client.complete(LlmRequest("p"))


class _Endpoint(http.server.BaseHTTPRequestHandler):
    """A chat-completions endpoint on localhost whose answer the path picks."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/slow":
            threading.Event().wait(1.0)  # the tests stub out time.sleep
        status, text = {
            "/ok": (200, json.dumps({"choices": [{"message": {"content": "hi"}}]})),
            "/limited": (429, "slow down"),
            "/broken": (500, "boom"),
            "/malformed": (200, json.dumps({"choices": []})),
        }.get(self.path, (200, "{}"))
        self.send_response(status)
        self.end_headers()
        self.wfile.write(text.encode("utf-8"))

    def log_message(self, *args):
        pass


class _QuietServer(http.server.ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # the client hung up on /slow


@pytest.fixture
def endpoint():
    server = _QuietServer(("127.0.0.1", 0), _Endpoint)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.mark.parametrize("path, outcome", [
    ("/ok", "hi"),
    ("/limited", RateLimitedError),
    ("/broken", BadStatusError),
    ("/malformed", BadStatusError),
    ("/slow", TimedOutError),
])
def test_live_transport_maps_each_answer(monkeypatch, endpoint, path, outcome):
    """The standard-library transport against a local endpoint: a status or
    body the client cannot use, and a timeout, are client errors."""
    monkeypatch.setattr("time.sleep", lambda s: None)
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = LiveLlmClient(LlmClientConfig(
        mode="live", endpoint_url=endpoint + path, api_key_env_var="TEST_API_KEY",
        request_timeout=0.2, max_retries=1,
    ))
    if isinstance(outcome, str):
        assert client.complete(LlmRequest("p")).raw_text == outcome
    else:
        with pytest.raises(outcome):
            client.complete(LlmRequest("p"))


def test_live_transport_refused_connection_is_a_network_error(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    with socket.socket() as probe:  # a port that nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = LiveLlmClient(LlmClientConfig(
        mode="live", endpoint_url=f"http://127.0.0.1:{port}/v1", api_key_env_var="TEST_API_KEY",
    ))
    with pytest.raises(NetworkError):
        client.complete(LlmRequest("p"))

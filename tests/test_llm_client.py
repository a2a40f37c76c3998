from __future__ import annotations

import http.server
import json
import re
import socket
import threading

import pytest

from minigi import llm
from minigi.lang.ast import BaseProgram
from minigi.reporting import RecordWriter
from minigi.search import LlmSearchContext, RandomSamplingConfig, random_sampling
from minigi.llm import (
    ClientError,
    LlmClientConfig,
    TranscriptStore,
    make_client,
    request_digest,
)
from minigi.prompts import PromptTemplate, extract_code_blocks

from conftest import REPO_ROOT

RECORDED_RUN = REPO_ROOT / "tests" / "data" / "recorded_llm_run"


def test_mock_returns_canned_text_in_order():
    client = make_client(LlmClientConfig(mode="mock"), script=["one", "two"])
    assert client.complete("p1") == "one"
    assert client.complete("p2") == "two"
    with pytest.raises(ClientError, match="^mock script exhausted after 2 responses$"):
        client.complete("p3")


def test_mock_callable_script_sees_request():
    client = make_client(LlmClientConfig(mode="mock"), script=str.upper)
    assert client.complete("abc") == "ABC"


def test_default_mock_is_deterministic_and_covers_the_ladder():
    client = make_client(LlmClientConfig(mode="mock"))
    prompt = "Rewrite this:\n```\n{\n    x = 1;\n}\n```\n"
    first = client.complete(prompt)
    assert first == client.complete(prompt)
    assert len(extract_code_blocks(first)) == 4  # fifth variant is prose


def test_mock_records_transcripts_and_replay_serves_them(tmp_path):
    config = LlmClientConfig(mode="mock", transcript_dir=tmp_path)
    response = make_client(config, script=["hello"]).complete("prompt text")

    replay = make_client(LlmClientConfig(mode="replay", transcript_dir=tmp_path))
    assert replay.complete("prompt text") == response == "hello"
    assert replay.requests_made == 1


def test_replay_serves_each_occurrence_of_a_prompt_its_own_reply(tmp_path):
    """A prompt sent again gets a transcript of its own only when its reply
    differs from the reply before it, and replay serves every occurrence
    what was served live."""
    config = LlmClientConfig(mode="mock", transcript_dir=tmp_path)
    live = make_client(config, script=["A", "B"])
    assert [live.complete("p"), live.complete("p")] == ["A", "B"]
    replay = make_client(LlmClientConfig(mode="replay", transcript_dir=tmp_path))
    assert [replay.complete("p"), replay.complete("p")] == ["A", "B"]

    replies = ["A", "A", "B", "q1", "B", "B", "A", "q2", "A"]
    prompts = ["p", "p", "p", "q", "p", "p", "p", "q", "p"]
    run_dir = tmp_path / "run"
    live = make_client(LlmClientConfig(mode="mock", transcript_dir=run_dir), script=replies)
    assert [live.complete(p) for p in prompts] == replies
    digest = request_digest(config, "p")
    assert sorted(path.name for path in run_dir.iterdir()) == sorted(
        # occurrences 2 and 5 of "p" change the reply; 1, 3, 4 and 6 repeat it
        [f"{digest}.json", f"{digest}.2.json", f"{digest}.5.json",
         f"{request_digest(config, 'q')}.json", f"{request_digest(config, 'q')}.1.json"]
    )
    replay = make_client(LlmClientConfig(mode="replay", transcript_dir=run_dir))
    assert [replay.complete(p) for p in prompts] == replies


def test_a_client_digests_each_distinct_prompt_once(tmp_path, monkeypatch):
    """Recording and replay count occurrences by prompt text, so a prompt
    sent again reuses the digest of its first request."""
    digested = []

    def counting(config, prompt):
        digested.append(prompt)
        return request_digest(config, prompt)

    monkeypatch.setattr(llm, "request_digest", counting)
    prompts = ["p", "q", "p", "p", "q"]
    live = make_client(LlmClientConfig(mode="mock", transcript_dir=tmp_path), script=str.upper)
    assert [live.complete(p) for p in prompts] == ["P", "Q", "P", "P", "Q"]
    replay = make_client(LlmClientConfig(mode="replay", transcript_dir=tmp_path))
    assert [replay.complete(p) for p in prompts] == ["P", "Q", "P", "P", "Q"]
    assert digested == ["p", "q", "p", "q"]
    assert live.requests_made == replay.requests_made == 5


def test_replay_miss_is_an_error(tmp_path):
    config = LlmClientConfig(mode="replay", transcript_dir=tmp_path)
    replay = make_client(config)
    digest = request_digest(config, "never recorded")
    with pytest.raises(ClientError, match=f"^no transcript for digest {digest}$"):
        replay.complete("never recorded")


def test_transcripts_are_append_only(tmp_path):
    store = TranscriptStore(tmp_path)
    store.put("d1", {"response": "first"})
    store.put("d1", {"response": "second"})
    assert store.get("d1")["response"] == "first"


def _fail_rename(self, target):
    raise PermissionError(13, "Permission denied")


def _fail_after_writing(self, data, encoding=None):
    with open(self, "w", encoding=encoding) as handle:
        handle.write(data[: len(data) // 2])
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("step, fail, strerror", [
    ("replace", _fail_rename, "Permission denied"),
    ("write_text", _fail_after_writing, "No space left on device"),
])
def test_a_failed_transcript_write_leaves_no_tmp_file(tmp_path, monkeypatch, step, fail, strerror):
    """A write or rename that fails removes the tmp file it left and
    raises a ClientError naming the transcript; the store keeps working."""
    store = TranscriptStore(tmp_path)
    monkeypatch.setattr(llm.Path, step, fail)
    with pytest.raises(ClientError) as raised:
        store.put("abc", {"response": "r"})
    assert str(raised.value) == f"cannot write transcript {tmp_path / 'abc.json'}: {strerror}"
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    store.put("abc", {"response": "r"})
    assert [path.name for path in tmp_path.iterdir()] == ["abc.json"]
    assert store.get("abc")["response"] == "r"


def test_request_digest_depends_on_model_temperature_prompt():
    config = LlmClientConfig(model="m", temperature=0.7)
    digest = request_digest(config, "p")
    assert digest == request_digest(LlmClientConfig(model="m", temperature=0.7), "p")
    assert digest != request_digest(config, "q")
    assert digest != request_digest(LlmClientConfig(model="x", temperature=0.7), "p")
    assert digest != request_digest(LlmClientConfig(model="m", temperature=0.2), "p")


def test_request_digest_is_pinned_so_old_transcripts_stay_replayable():
    """The SHA-256 of the sorted-key JSON of model, temperature and prompt,
    under the default config; a change here orphans every transcript."""
    assert request_digest(LlmClientConfig(), "x") == (
        "cbf7e6daf99f3364cd1083a516e38290363304bcc198cd6e4ea9d895716fe265"
    )


def test_transcripts_of_an_earlier_version_replay_its_whole_run(bench_max, tmp_path):
    """tests/data/recorded_llm_run holds the log and transcripts of `minigi
    sample` on bench_max (mock mode, seed 11, budget 10, the three LLM
    families), recorded while requests were still objects. Replay serves
    every request of that run from them and writes the same log."""
    unit, tests = bench_max
    client = make_client(
        LlmClientConfig(mode="replay", transcript_dir=RECORDED_RUN / "transcripts")
    )
    cfg = RandomSamplingConfig(
        ("llm-simple", "llm-medium", "llm-detailed"), ["clamp_low", "max2"], 11, budget=10
    )
    llm_context = LlmSearchContext(client, PromptTemplate(project_name="bench_max"))
    log = tmp_path / "sample_log.csv"
    with RecordWriter(log) as writer:
        random_sampling(BaseProgram(unit, tests), cfg, llm=llm_context, sink=writer.write)
    assert client.requests_made == 6  # one prompt twice: 5 transcripts
    assert len(list((RECORDED_RUN / "transcripts").iterdir())) == 5
    assert log.read_bytes() == (RECORDED_RUN / "sample_log.csv").read_bytes()


def test_make_client_dispatch(tmp_path, monkeypatch):
    """Each mode takes its replies from its own source: mock from the
    default transformer, replay from the store without writing, live from
    the endpoint."""
    prompt = "Rewrite this:\n```\n{\n    x = 1;\n}\n```\n"
    mock = make_client(LlmClientConfig(mode="mock"))
    assert mock.complete(prompt) == llm._default_mock_response(prompt)

    config = LlmClientConfig(mode="replay", transcript_dir=tmp_path)
    digest = request_digest(config, prompt)
    TranscriptStore(tmp_path).put(digest, {"response": "stored"})
    replay = make_client(config)
    assert [replay.complete(prompt), replay.complete(prompt)] == ["stored", "stored"]
    assert [path.name for path in tmp_path.iterdir()] == [f"{digest}.json"]

    posted = []

    def fake_post(url, body, headers, timeout):
        posted.append(body["messages"][0]["content"])
        return 200, json.dumps({"choices": [{"message": {"content": "sent"}}]})

    monkeypatch.setattr(llm, "_post_json", fake_post)
    monkeypatch.setenv("TEST_API_KEY", "k")
    live = make_client(LlmClientConfig(mode="live", api_key_env_var="TEST_API_KEY"))
    assert live.complete(prompt) == "sent"
    assert posted == [prompt]
    with pytest.raises(ValueError):
        make_client(LlmClientConfig(mode="telepathy"))


@pytest.mark.parametrize("field, value, complaint", [
    ("max_retries", -1, "max_retries must be an integer of at least 0, got -1"),
    ("max_retries", 1.0, "max_retries must be an integer of at least 0, got 1.0"),
    ("request_timeout", 0, "request_timeout must be a finite number above 0 seconds, got 0"),
    ("request_timeout", -2.5,
     "request_timeout must be a finite number above 0 seconds, got -2.5"),
    ("request_timeout", float("nan"), "request_timeout must be a finite number above 0 seconds"),
    ("request_timeout", float("inf"),
     "request_timeout must be a finite number above 0 seconds, got inf"),
    ("request_timeout", "60",
     "request_timeout must be a finite number above 0 seconds, got '60'"),
    ("request_timeout", 2**31, "request_timeout must be at most 2147483647 seconds, got 2147483648"),
    ("request_timeout", 1e10,
     "request_timeout must be at most 2147483647 seconds, got 10000000000.0"),
    ("mode", "telepathy", "mode must be one of live, replay, mock, got 'telepathy'"),
    ("mode", "replay", "replay mode needs a transcript directory"),
])
def test_client_config_refuses_bad_values(field, value, complaint):
    with pytest.raises(ValueError, match=re.escape(complaint)):
        LlmClientConfig(**{field: value})
    assert LlmClientConfig(max_retries=0, request_timeout=1).max_retries == 0
    assert LlmClientConfig(request_timeout=2**31 - 1).request_timeout == 2**31 - 1


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
    client = make_client(config)
    assert client.complete("the prompt") == "the answer"
    assert captured["url"] == config.endpoint_url
    assert captured["body"] == {
        "model": "gpt-3.5-turbo",
        "temperature": 0.7,
        "messages": [{"role": "user", "content": "the prompt"}],
    }
    assert captured["headers"]["Authorization"] == "Bearer sk-test"
    # the exchange was recorded
    digest = request_digest(config, "the prompt")
    record = json.loads((tmp_path / f"{digest}.json").read_text())
    assert record == {
        "request_digest": digest,
        "model": "gpt-3.5-turbo",
        "temperature": 0.7,
        "prompt": "the prompt",
        "response": "the answer",
        "timestamp": record["timestamp"],
    }


def test_live_missing_api_key(monkeypatch):
    monkeypatch.delenv("NOPE_KEY", raising=False)
    client = make_client(LlmClientConfig(mode="live", api_key_env_var="NOPE_KEY"))
    with pytest.raises(ClientError, match="^API key env var NOPE_KEY is not set$"):
        client.complete("p")


def test_live_rate_limit_retries_then_fails(monkeypatch):
    calls = {"n": 0}

    def always_429(url, body, headers, timeout):
        calls["n"] += 1
        return 429, "slow down"

    monkeypatch.setattr(llm, "_post_json", always_429)
    monkeypatch.setattr("time.sleep", lambda s: None)
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = make_client(
        LlmClientConfig(mode="live", api_key_env_var="TEST_API_KEY", max_retries=2)
    )
    with pytest.raises(ClientError, match="^rate limited and retries exhausted$"):
        client.complete("p")
    assert calls["n"] == 3  # initial try + 2 retries


def test_live_bad_status(monkeypatch):
    monkeypatch.setattr(llm, "_post_json", lambda *a: (500, "boom"))
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = make_client(LlmClientConfig(mode="live", api_key_env_var="TEST_API_KEY"))
    with pytest.raises(ClientError, match="^HTTP 500: boom$"):
        client.complete("p")


@pytest.mark.parametrize("content", [None, ["a", "b"], 5])
def test_live_reply_that_is_not_a_string_is_a_client_error(monkeypatch, tmp_path, content):
    """An endpoint sends null content for a refusal or a tool call; such a
    reply is a malformed body, and no transcript is written for it."""
    body = json.dumps({"choices": [{"message": {"content": content}}]})
    monkeypatch.setattr(llm, "_post_json", lambda *a: (200, body))
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = make_client(
        LlmClientConfig(mode="live", api_key_env_var="TEST_API_KEY", transcript_dir=tmp_path)
    )
    error = f"HTTP 200: malformed response body: content is not a string: {json.dumps(content)}"
    with pytest.raises(ClientError, match="^" + re.escape(error) + "$"):
        client.complete("p")
    assert list(tmp_path.iterdir()) == []


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
    ("/limited", "ClientError: rate limited"),
    ("/broken", "ClientError: HTTP 500: boom"),
    ("/malformed", "ClientError: HTTP 200"),
    ("/slow", "ClientError: timed out"),
])
def test_live_transport_maps_each_answer(monkeypatch, endpoint, path, outcome):
    """The standard-library transport against a local endpoint: a status or
    body the client cannot use, and a timeout, are client errors whose
    message starts with the text after `ClientError: `."""
    monkeypatch.setattr("time.sleep", lambda s: None)
    monkeypatch.setenv("TEST_API_KEY", "k")
    client = make_client(LlmClientConfig(
        mode="live", endpoint_url=endpoint + path, api_key_env_var="TEST_API_KEY",
        request_timeout=0.2, max_retries=1,
    ))
    error = outcome.removeprefix("ClientError: ")
    if error == outcome:
        assert client.complete("p") == outcome
    else:
        with pytest.raises(ClientError, match="^" + re.escape(error)):
            client.complete("p")


@pytest.mark.parametrize("timeout", [1e10, float("inf")])
def test_a_timeout_no_socket_can_hold_is_a_client_error(endpoint, timeout):
    """A finite timeout can still be too long for the platform's sockets:
    the request fails as a client error, not an OverflowError. The config
    refuses both timeouts before any request."""
    error = f"^request_timeout {re.escape(repr(timeout))} s is out of range: "
    with pytest.raises(ClientError, match=error):
        llm._post_json(endpoint + "/ok", {}, {}, timeout)
    with pytest.raises(ValueError, match="^request_timeout must be "):
        LlmClientConfig(mode="live", endpoint_url=endpoint + "/ok", request_timeout=timeout)


def test_live_transport_refused_connection_is_a_network_error(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    with socket.socket() as probe:  # a port that nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = make_client(LlmClientConfig(
        mode="live", endpoint_url=f"http://127.0.0.1:{port}/v1", api_key_env_var="TEST_API_KEY",
    ))
    with pytest.raises(ClientError, match="^network error: "):
        client.complete("p")

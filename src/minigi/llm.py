"""Chat-completions transport with transcript recording and offline replay.

One call serves the mutation operator: `complete(prompt) -> text`. The
client's config holds the model and temperature, so a request is the
prompt alone. Three modes share that call:

  live    POSTs a chat-completions request (one user message, no system
          message) and records the exchange in the transcript store;
  replay  serves replies from the transcript store by request digest and
          never touches the network;
  mock    answers from a canned script or a deterministic default
          transformer, also recording transcripts so a mock run can later
          be replayed.

Every failure is a ClientError whose message says what went wrong.
Transcripts are JSON documents named by the request digest, written
atomically (tmp file + rename) and never overwritten; replay serves from
them. A client counts the occurrences of each request: the first reply
is written as `<digest>.json`, and the reply to occurrence k > 0 as
`<digest>.<k>.json` only when it differs from the reply to occurrence
k - 1. Replay serves occurrence k from the highest occurrence at or
below k that has a transcript, which is exactly what was served live.
docs/logs.md lists the keys.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from minigi.checks import LONGEST_WAIT, check_count
from minigi.prompts import extract_code_blocks


MODES = ("live", "replay", "mock")


class ClientError(Exception):
    pass


@dataclass(frozen=True)
class LlmClientConfig:
    """How a client reaches the model. Construction refuses a model that is
    not a non-empty string, a temperature that is not a finite number of at
    least 0, a retry count that is not an integer of at least 0, a timeout
    that is not a finite number above 0 or is above `checks.LONGEST_WAIT`
    seconds, which not every platform's sockets can hold, and a mode
    outside MODES."""

    endpoint_url: str = "https://api.openai.com/v1/chat/completions"
    api_key_env_var: str = "OPENAI_API_KEY"
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.7
    request_timeout: float = 60.0
    max_retries: int = 3
    transcript_dir: Optional[Union[str, Path]] = None
    mode: str = "mock"  # one of MODES

    def __post_init__(self):
        if type(self.model) is not str or not self.model:
            raise ValueError(f"model must be a non-empty string, got {self.model!r}")
        # NaN and infinity are no temperature, and JSON has neither; a JSON true is no number
        if type(self.temperature) not in (int, float) or not 0 <= self.temperature < math.inf:
            raise ValueError(
                f"temperature must be a finite number of at least 0, got {self.temperature!r}"
            )
        check_count("max_retries", self.max_retries, least=0)
        timeout = self.request_timeout
        if type(timeout) not in (int, float) or not 0 < timeout < math.inf:
            raise ValueError(
                f"request_timeout must be a finite number above 0 seconds, got {timeout!r}"
            )
        if timeout > LONGEST_WAIT:
            raise ValueError(
                f"request_timeout must be at most {LONGEST_WAIT} seconds, got {timeout!r}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")


def request_digest(config: LlmClientConfig, prompt: str) -> str:
    """Stable digest of what the endpoint sees: the config's model and
    temperature, and the prompt."""
    payload = json.dumps(
        {"model": config.model, "temperature": config.temperature, "prompt": prompt},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def transcript_name(digest: str, occurrence: int) -> str:
    """The name of the transcript of occurrence `occurrence` (from 0) of
    the request `digest` within one client."""
    return digest if occurrence == 0 else f"{digest}.{occurrence}"


class TranscriptStore:
    """One JSON file per transcript name (`transcript_name`). A missing
    file is no transcript. A file that cannot be read (a store directory
    that is a regular file included) or holds no object with a string
    `response`, and a file or directory that cannot be written, is a
    ClientError naming the file."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def path_for(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def get(self, name: str) -> Optional[dict]:
        path = self.path_for(name)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise ClientError(f"cannot read transcript {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ClientError(f"cannot read transcript {path}: not UTF-8 text") from None
        except ValueError as exc:
            raise ClientError(f"transcript {path}: not JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ClientError(f"transcript {path}: not a JSON object")
        if type(record.get("response")) is not str:
            raise ClientError(f"transcript {path}: no string 'response'")
        return record

    def put(self, name: str, record: dict) -> None:
        path = self.path_for(name)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            if path.exists():  # append-only: first record wins
                return
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
            tmp.replace(path)
        except OSError as exc:
            raise ClientError(f"cannot write transcript {path}: {exc.strerror}") from None


class LlmClientBase:
    def __init__(self, config: LlmClientConfig):
        self.config = config
        self.requests_made = 0
        self.store = (
            TranscriptStore(config.transcript_dir) if config.transcript_dir is not None else None
        )
        # request digest -> the occurrence of its latest request and the reply to it
        self._latest: dict[str, tuple[int, str]] = {}

    def _occurrence(self, digest: str) -> tuple[int, Optional[str]]:
        """The occurrence, from 0, of a new request of `digest`, and the
        reply to the one before it (None for the first)."""
        latest = self._latest.get(digest)
        return (0, None) if latest is None else (latest[0] + 1, latest[1])

    def complete(self, prompt: str) -> str:
        """The model's reply to `prompt`, recorded when there is a store."""
        self.requests_made += 1
        text = self._complete_text(prompt)
        self._record(prompt, text)
        return text

    def _complete_text(self, prompt: str) -> str:
        raise NotImplementedError

    def _record(self, prompt: str, response_text: str) -> None:
        """Write the transcript of this occurrence of `prompt`, unless the
        reply is the previous occurrence's, which replay serves for it."""
        if self.store is None:
            return
        digest = request_digest(self.config, prompt)
        occurrence, previous = self._occurrence(digest)
        self._latest[digest] = occurrence, response_text
        if response_text == previous:
            return
        self.store.put(
            transcript_name(digest, occurrence),
            {
                "request_digest": digest,
                "model": self.config.model,
                "temperature": self.config.temperature,
                "prompt": prompt,
                "response": response_text,
                "timestamp": time.time(),
            },
        )


def _post_json(url: str, body: dict, headers: dict, timeout: float) -> tuple[int, str]:
    """POST `body` as JSON; the HTTP status and the response text. An error
    status is returned, not raised. A timeout that no socket can hold is
    refused before a socket is opened, since `socket.create_connection`
    closes its socket only on OSError. `urllib.request` loads here, on the
    first live request, so other modes do not hold it in memory."""
    if not 0 < timeout <= LONGEST_WAIT:  # NaN fails both comparisons
        raise ClientError(
            f"request_timeout {timeout!r} s is out of range: "
            f"a socket waits more than 0 and at most {LONGEST_WAIT} s"
        )
    import http.client
    import urllib.error
    import urllib.request

    data = json.dumps(body).encode("utf-8")
    try:
        request = urllib.request.Request(
            url, data=data, headers={**headers, "Content-Type": "application/json"}, method="POST"
        )
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8", "replace")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", "replace")
    except TimeoutError as exc:
        raise ClientError(f"timed out: {exc}") from None
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):
            raise ClientError(f"timed out: {exc.reason}") from None
        raise ClientError(f"network error: {exc.reason}") from None
    except (OSError, ValueError, http.client.HTTPException) as exc:  # ValueError: a malformed URL
        raise ClientError(f"network error: {exc}") from None


class LiveLlmClient(LlmClientBase):
    """Talks to any chat-completions-compatible endpoint.

    The wire format is one user-role message carrying the whole prompt;
    variations are requested inside the prompt text, not via an n-choices
    parameter. Rate limiting (HTTP 429) retries with exponential backoff.
    """

    def _complete_text(self, prompt: str) -> str:
        api_key = os.environ.get(self.config.api_key_env_var, "")
        if not api_key:
            raise ClientError(f"API key env var {self.config.api_key_env_var} is not set")
        body = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        headers = {"Authorization": f"Bearer {api_key}"}
        delay = 1.0
        for attempt in range(self.config.max_retries + 1):
            status, text = _post_json(
                self.config.endpoint_url, body, headers, self.config.request_timeout
            )
            if status == 429:
                if attempt < self.config.max_retries:
                    time.sleep(delay)
                    delay *= 2
                continue
            if status != 200:
                raise ClientError(f"HTTP {status}: {text[:200]}")
            try:
                return json.loads(text)["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ClientError(f"HTTP {status}: malformed response body: {exc}") from None
        raise ClientError("rate limited and retries exhausted")


class ReplayLlmClient(LlmClientBase):
    """Serves recorded responses; a missing transcript is an error, not a
    call. Occurrence k of a request is served from its own transcript when
    there is one and otherwise gets the reply served to occurrence k - 1."""

    def __init__(self, config: LlmClientConfig):
        super().__init__(config)
        if self.store is None:
            raise ClientError("replay mode needs a transcript directory")

    def _complete_text(self, prompt: str) -> str:
        digest = request_digest(self.config, prompt)
        occurrence, served = self._occurrence(digest)
        record = self.store.get(transcript_name(digest, occurrence))
        if record is not None:
            served = record["response"]
        elif served is None:
            raise ClientError(f"no transcript for digest {digest}")
        self._latest[digest] = occurrence, served
        return served

    def _record(self, prompt: str, response_text: str) -> None:
        pass  # replay never writes


MockScript = Union[Sequence[str], Callable[[str], str]]


class MockLlmClient(LlmClientBase):
    """Deterministic stand-in for tests and offline runs.

    `script` is either a list of reply texts served in order or a
    callable from prompt to reply text. Without a script, a default
    transformer answers with five variants derived from the code in the
    prompt: the block itself, the block wrapped in another brace level, an
    empty block, the block with its interior lines reversed, and one
    prose-only variant. That mix exercises every rung of the ladder.
    """

    def __init__(self, config: LlmClientConfig, script: Optional[MockScript] = None):
        super().__init__(config)
        self._script = list(script) if isinstance(script, (list, tuple)) else script
        self._cursor = 0

    def _complete_text(self, prompt: str) -> str:
        if self._script is None:
            return _default_mock_response(prompt)
        if callable(self._script):
            return self._script(prompt)
        if self._cursor >= len(self._script):
            raise ClientError(f"mock script exhausted after {self._cursor} responses")
        text = self._script[self._cursor]
        self._cursor += 1
        return text


def _default_mock_response(prompt: str) -> str:
    blocks = extract_code_blocks(prompt)
    code = blocks[0] if blocks else "{ }"
    lines = code.splitlines()
    interior = lines[1:-1] if len(lines) >= 2 else []
    reversed_code = "\n".join([lines[0]] + list(reversed(interior)) + [lines[-1]]) if lines else code
    wrapped = "{\n" + code + "\n}"
    parts = [
        "Here are some alternative implementations.",
        "1.\n```\n" + code + "\n```",
        "2.\n```\n" + wrapped + "\n```",
        "3.\n```\n{ }\n```",
        "4.\n```\n" + reversed_code + "\n```",
        "5. A further variant would restructure the control flow entirely.",
    ]
    return "\n".join(parts)


def make_client(config: LlmClientConfig) -> LlmClientBase:
    if config.mode == "live":
        return LiveLlmClient(config)
    if config.mode == "replay":
        return ReplayLlmClient(config)
    return MockLlmClient(config)

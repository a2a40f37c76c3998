"""Chat-completions transport with transcript recording and offline replay.

One call serves the mutation operator: `complete(prompt) -> text`. The
client's config holds the model and temperature, so a request is the
prompt alone. One client class, `LlmClientBase`, serves the three modes;
they differ only in where a reply comes from:

  live    a chat-completions request (one user message, no system
          message) POSTed to the endpoint (`_live_reply`);
  mock    a canned script or a deterministic default transformer
          (`_mock_reply`);
  replay  the transcript store, by request digest, never the network.

Live and mock replies are recorded in the store, so either run can later
be replayed; replay never writes.

Every failure is a ClientError whose message says what went wrong.
Transcripts are JSON documents named by the request digest, written
atomically (a tmp file renamed into place; a failed write or rename
removes the tmp file) and never overwritten; replay serves from them.
docs/logs.md lists the keys. A client counts the occurrences of each
request: the first reply is written as `<digest>.json`, and the reply to
occurrence k > 0 as `<digest>.<k>.json` only when it differs from the
reply to occurrence k - 1. Replay serves occurrence k from the highest
occurrence at or below k that has a transcript, which is exactly what
was served live. The count lives in the client's `_latest`, keyed by
prompt text, which also holds each prompt's request digest, so a client
digests each distinct prompt once.
"""

from __future__ import annotations

import contextlib
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
    seconds, which not every platform's sockets can hold, a mode outside
    MODES, and replay mode without a transcript directory."""

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
        if self.mode == "replay" and self.transcript_dir is None:
            raise ValueError("replay mode needs a transcript directory")


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
    ClientError naming the file.

    `get` lists the directory once, at its first call, and answers a name
    that listing lacks as no transcript without opening a file: most
    occurrences of a replayed request have none. A directory that does
    not exist lists as empty; one that cannot be listed is the ClientError
    of the file asked for. `put` adds what it writes to the listing."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self._listed: Optional[set[str]] = None  # file names, once listed

    def path_for(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def get(self, name: str) -> Optional[dict]:
        path = self.path_for(name)
        if self._listed is None:
            try:
                self._listed = set(os.listdir(self.directory))
            except FileNotFoundError:
                self._listed = set()
            except OSError as exc:
                raise ClientError(f"cannot read transcript {path}: {exc.strerror}") from None
        if path.name not in self._listed:
            return None
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
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            if path.exists():  # append-only: first record wins
                return
            try:
                tmp.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
                tmp.replace(path)
                if self._listed is not None:
                    self._listed.add(path.name)
            except BaseException:
                with contextlib.suppress(OSError):
                    tmp.unlink(missing_ok=True)
                raise
        except OSError as exc:
            raise ClientError(f"cannot write transcript {path}: {exc.strerror}") from None


class LlmClientBase:
    """The one client. `reply` answers a prompt in live and mock mode; in
    replay mode it is None and the transcript store answers."""

    def __init__(self, config: LlmClientConfig, reply: Optional[Callable[[str], str]]):
        self.config = config
        self.requests_made = 0
        self.store = (
            TranscriptStore(config.transcript_dir) if config.transcript_dir is not None else None
        )
        self._reply = reply
        # prompt -> its request digest, the occurrence of its latest request
        # and the reply to it
        self._latest: dict[str, tuple[str, int, str]] = {}

    def complete(self, prompt: str) -> str:
        """The model's reply to `prompt`, recorded when there is a store. A
        reply equal to the previous occurrence's gets no transcript, since
        replay serves that reply for it."""
        self.requests_made += 1
        if self.store is None:
            return self._reply(prompt)
        latest = self._latest.get(prompt)
        if latest is None:  # only a prompt's first request computes its digest
            digest, occurrence, previous = request_digest(self.config, prompt), 0, None
        else:
            digest, occurrence, previous = latest
            occurrence += 1
        name = transcript_name(digest, occurrence)
        if self._reply is None:
            record = self.store.get(name)
            if record is None and previous is None:
                raise ClientError(f"no transcript for digest {digest}")
            reply = previous if record is None else record["response"]
        else:
            reply = self._reply(prompt)
            if reply != previous:
                self.store.put(name, {
                    "request_digest": digest,
                    "model": self.config.model,
                    "temperature": self.config.temperature,
                    "prompt": prompt,
                    "response": reply,
                    "timestamp": time.time(),
                })
        self._latest[prompt] = digest, occurrence, reply
        return reply


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


def _live_reply(config: LlmClientConfig, prompt: str) -> str:
    """The reply of any chat-completions-compatible endpoint.

    The wire format is one user-role message carrying the whole prompt;
    variations are requested inside the prompt text, not via an n-choices
    parameter. Rate limiting (HTTP 429) retries with exponential backoff.
    A reply whose content is not a string (a refusal or tool call sends
    null) is a malformed body.
    """
    api_key = os.environ.get(config.api_key_env_var, "")
    if not api_key:
        raise ClientError(f"API key env var {config.api_key_env_var} is not set")
    body = {
        "model": config.model,
        "temperature": config.temperature,
        "messages": [{"role": "user", "content": prompt}],
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    delay = 1.0
    for attempt in range(config.max_retries + 1):
        status, text = _post_json(config.endpoint_url, body, headers, config.request_timeout)
        if status == 429:
            if attempt < config.max_retries:
                time.sleep(delay)
                delay *= 2
            continue
        if status != 200:
            raise ClientError(f"HTTP {status}: {text[:200]}")
        try:
            content = json.loads(text)["choices"][0]["message"]["content"]
            if type(content) is not str:
                raise TypeError(f"content is not a string: {json.dumps(content)[:200]}")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ClientError(f"HTTP {status}: malformed response body: {exc}") from None
        return content
    raise ClientError("rate limited and retries exhausted")


MockScript = Union[Sequence[str], Callable[[str], str]]


def _mock_reply(script: Optional[MockScript]) -> Callable[[str], str]:
    """A deterministic stand-in for tests and offline runs.

    `script` is either a list of reply texts served in order or a
    callable from prompt to reply text. Without a script, a default
    transformer answers with five variants derived from the code in the
    prompt: the block itself, the block wrapped in another brace level, an
    empty block, the block with its interior lines reversed, and one
    prose-only variant. That mix exercises every rung of the ladder.
    """
    if script is None:
        return _default_mock_response
    if callable(script):
        return script
    replies = list(script)
    served = 0

    def next_reply(prompt: str) -> str:
        nonlocal served
        if served == len(replies):
            raise ClientError(f"mock script exhausted after {served} responses")
        served += 1
        return replies[served - 1]

    return next_reply


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


def make_client(config: LlmClientConfig, script: Optional[MockScript] = None) -> LlmClientBase:
    """The client of `config.mode`; `script` is the mock's (see `_mock_reply`)."""
    if config.mode == "live":
        return LlmClientBase(config, lambda prompt: _live_reply(config, prompt))
    if config.mode == "replay":
        return LlmClientBase(config, None)
    return LlmClientBase(config, _mock_reply(script))

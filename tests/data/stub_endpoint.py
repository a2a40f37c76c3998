"""A chat-completions endpoint on 127.0.0.1, for running live mode offline.

    python tests/data/stub_endpoint.py PORT_FILE

Listens on a free port of 127.0.0.1 and writes the port's number to
PORT_FILE once it accepts connections. A POST to /v1/chat/completions
with a bearer token gets one choice whose content is the default mock's
reply to the request's user message, so a live run against it logs what
a mock run logs. Any other request gets an error status. Serves until it
is killed.
"""

import json
import os
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

from minigi.llm import _default_mock_response


class ChatCompletions(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path != "/v1/chat/completions":
            return self.answer(404, {"error": f"no endpoint {self.path}"})
        if not self.headers.get("Authorization", "").startswith("Bearer "):
            return self.answer(401, {"error": "no bearer token"})
        prompt = json.loads(body)["messages"][0]["content"]
        content = _default_mock_response(prompt)
        self.answer(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})

    def answer(self, status: int, document: dict) -> None:
        data = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def main(port_file: str) -> None:
    with HTTPServer(("127.0.0.1", 0), ChatCompletions) as server:
        tmp = f"{port_file}.tmp"
        with open(tmp, "w") as handle:
            handle.write(f"{server.server_address[1]}\n")
        os.replace(tmp, port_file)  # a reader never sees a partial number
        server.serve_forever()


if __name__ == "__main__":
    main(*sys.argv[1:])

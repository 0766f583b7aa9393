"""A minimal keep-alive HTTP/1.1 client for the load generator.

One request is one ``sendall`` of head and body together on a socket
with ``TCP_NODELAY`` set, so the client itself adds no Nagle or
delayed-ACK stall: whatever latency a response shows comes from the
server.  Responses are read by ``Content-Length``.
"""

from __future__ import annotations

import json
import socket


class HttpError(RuntimeError):
    """The connection failed or the server sent something unparsable."""


class Connection:
    """One persistent connection to ``host:port``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._buf = b""
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, bytes]:
        """Send one request and return ``(status, body)``."""
        sock = self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if body:
            head += "Content-Type: application/json\r\n"
        try:
            sock.sendall(head.encode("ascii") + b"\r\n" + body)
            return self._read_response()
        except OSError as exc:
            self.close()
            raise HttpError(f"{method} {path}: {exc!r}") from exc

    def get_json(self, path: str) -> tuple[int, dict]:
        status, data = self.request("GET", path)
        return status, json.loads(data)

    def _fill(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise OSError("connection closed by server")
        self._buf += chunk

    def _read_response(self) -> tuple[int, bytes]:
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, self._buf = self._buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        try:
            status = int(lines[0].split(" ", 2)[1])
        except (IndexError, ValueError) as exc:
            raise HttpError(f"bad status line {lines[0]!r}") from exc
        length = 0
        closing = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                closing = True
        while len(self._buf) < length:
            self._fill()
        body, self._buf = self._buf[:length], self._buf[length:]
        if closing:
            self.close()
        return status, body

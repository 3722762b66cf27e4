"""Runs the package's IdentificationServer for the identify workload.

Usage: python3 perfbench/server.py <owf-name>

Listens on an ephemeral loopback port, prints the port on one line, and
serves until its standard input reaches end of file.
"""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chainpebble import IdentificationServer, builtin  # noqa: E402


def main() -> None:
    server = IdentificationServer(builtin(sys.argv[1]), "127.0.0.1", 0)
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        worker.join(timeout=10)


if __name__ == "__main__":
    main()

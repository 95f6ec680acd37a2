"""Publisher script: the program process of the ``publish_train`` workload.

Started as ``python3 perfbench/publisher.py STORE_DIR`` with the
repository's ``src`` on ``PYTHONPATH``.  It imports ``repro``, creates
a fresh on-disk ``PackStore`` with the default ``StoreConfig`` (fsync
on), prints ``ready`` and then serves requests from stdin, one per
line, replying on stdout:

``publish PACKAGE NBYTES`` + NBYTES of image
    ``PackStore.publish``; replies with the digest.
``get PACKAGE DIGEST``
    ``PackStore.get``; replies ``NBYTES`` then the bytes.
``fsck``
    ``PackStore.fsck()``; replies with its JSON report on one line.

End of input closes the store and exits 0.
"""

from __future__ import annotations

import json
import sys


def serve(store_dir: str) -> int:
    from repro.store import PackStore

    store = PackStore.init(store_dir)
    rd, wr = sys.stdin.buffer, sys.stdout.buffer
    wr.write(b"ready\n")
    wr.flush()
    with store:
        for line in iter(rd.readline, b""):
            cmd, *args = line.decode().split()
            if cmd == "publish":
                image = rd.read(int(args[1]))
                reply = store.publish(args[0], image).encode() + b"\n"
            elif cmd == "get":
                data = store.get(args[0], args[1])
                reply = b"%d\n" % len(data) + data
            elif cmd == "fsck":
                reply = json.dumps(store.fsck().to_json()).encode() + b"\n"
            else:
                raise ValueError("unknown request %r" % cmd)
            wr.write(reply)
            wr.flush()
    return 0


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1]))

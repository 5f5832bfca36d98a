#!/usr/bin/env python3
"""Regenerates perfbench/corpus/lint-corpus.txt from git objects.

The corpus holds every `.rs` file that `seccloud-lint` walks at one commit
(it skips `target`, `fixtures`, `node_modules` and dot-directories), in a
single text bundle the benchmark's `lint_corpus` workload lints:

    seccloud-lint-corpus v1
    rev <commit>
    files <count>
    sha256 <hex digest over each path, NUL, 8-byte big-endian length, body>
    --- <path> <byte length>
    <body>

Usage, from the repository root of a git clone:
    python3 perfbench/make_corpus.py [commit]
"""
import hashlib
import subprocess
import sys

REV = sys.argv[1] if len(sys.argv) > 1 else "b9e87482b01ee8da94df4cce083c97880e764482"
SKIP = {"target", ".git", "fixtures", "node_modules"}


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def walked(path):
    parts = path.split("/")
    return path.endswith(".rs") and not any(
        p in SKIP or p.startswith(".") for p in parts[:-1]
    )


rev = git("rev-parse", REV).decode().strip()
paths = sorted(
    p for p in git("ls-tree", "-r", "--name-only", rev).decode().splitlines() if walked(p)
)
digest = hashlib.sha256()
body = bytearray()
for path in paths:
    src = git("show", f"{rev}:{path}")
    src.decode("utf-8")  # the analyzer lints text; refuse anything else
    digest.update(path.encode() + b"\0" + len(src).to_bytes(8, "big") + src)
    body += f"--- {path} {len(src)}\n".encode() + src + b"\n"
header = f"seccloud-lint-corpus v1\nrev {rev}\nfiles {len(paths)}\nsha256 {digest.hexdigest()}\n"
with open("perfbench/corpus/lint-corpus.txt", "wb") as out:
    out.write(header.encode() + bytes(body))
print(f"{len(paths)} files from {rev}")

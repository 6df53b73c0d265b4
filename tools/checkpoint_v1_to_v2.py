"""Convert a version 1 `.mmlm` checkpoint, whose vocabulary holds each word as
a u16 length and its UTF-8 bytes, into version 2, the only version `mmlm`
loads: python3 tools/checkpoint_v1_to_v2.py IN OUT"""

import pathlib
import struct
import sys


def convert(blob: bytes) -> bytes:
    """The same bytes with version 2 and the words joined by "\\n"."""
    if blob[:6] != b"MMLM" + struct.pack("<H", 1):
        raise ValueError("not a version 1 checkpoint")
    start = 10 + struct.unpack_from("<I", blob, 6)[0]
    (count,) = struct.unpack_from("<I", blob, start)  # struct.error past the end
    at, words = start + 4, []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, at)
        words.append(blob[at + 2:at + 2 + n])
        at += 2 + n
        if at > len(blob):
            raise ValueError("truncated vocabulary block")
        if b"\n" in words[-1]:
            raise ValueError(f"vocabulary word {words[-1]!r} holds a newline")
    block = b"\n".join(words)
    return (blob[:4] + struct.pack("<H", 2) + blob[6:start]
            + struct.pack("<II", count, len(block)) + block + blob[at:])


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    try:
        converted = convert(pathlib.Path(sys.argv[1]).read_bytes())
    except (ValueError, struct.error) as exc:
        sys.exit(f"{sys.argv[1]}: {exc}")
    pathlib.Path(sys.argv[2]).write_bytes(converted)

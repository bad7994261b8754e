"""Reading sequence files into a document whose "entries" are two columns.

`sequences.load_sequence` imports this module on its first call, so a
process that reads no sequence file never loads it, nor compiles it
where there is no bytecode cache. `canonical_doc` reads a file that is
`sequences._json_text` of its own keys, rows `_ENTRY_ROW`, in windows
straight into two array('q') columns; `json_doc` reads any other file
through json.loads and raises SequenceFileError for a malformed one. A
canonical file with a value of 2^63 or more, which no column can hold,
goes to `json_doc` too, and NumeratorSequence rejects the value there.
"""

from __future__ import annotations

import json
from array import array
from itertools import chain
from pathlib import Path
from typing import Optional, Union

from .sequences import _ENTRY_ROW, EntryView, SequenceFileError, _json_text

# canonical_doc reads windows of (",\n" + row) repeated. The fixed
# text of such a row comes before p, between p and a, and after a.
_WINDOW = 1 << 20  # bytes read at a time
_KEY = b'\n  "entries": '
_BLOCK_END = b"\n  ]"  # after the last row; no row holds it
_ROW_START, _MIDDLE, _ROW_END = (",\n" + _ENTRY_ROW).encode().split(b"%d")
_ROW_SKELETON = _ROW_START + _MIDDLE + _ROW_END  # a row with its digits deleted
_BETWEEN = _ROW_END + _ROW_START  # after one row's a, before the next row's p
_DIGITS = b"0123456789"


def _window_rows(window: bytes, primes: array, numerators: array) -> bool:
    """Append the window's rows to the columns; False if it is not in the exact layout.

    window is (",\n" + row) * n for rows of _ENTRY_ROW. Its numbers are
    read by one json.loads of the digits and commas left once ' \n[]'
    are deleted. The rest of the window is then confirmed: with its
    digits deleted it must be the skeleton n times, so it holds no other
    byte; JSON's int grammar rules out an empty slot and a leading zero;
    and the fixed text between two numbers must occur intact n times
    (_MIDDLE) and n - 1 times (_BETWEEN), with the window starting on
    _ROW_START, so no digit stands anywhere but in a slot. Digits can
    only break an occurrence of a digit-free string, never make one.
    """
    try:
        flat = json.loads(b"[" + window.translate(None, b" \n[]")[1:] + b"]")
    except ValueError:  # text that is no row, such as a later key's
        return False
    n = len(flat) // 2
    if (
        window.translate(None, _DIGITS) != _ROW_SKELETON * n
        or not window.startswith(_ROW_START)
        or window.count(_MIDDLE) != n
        or window.count(_BETWEEN) != n - 1
    ):
        return False
    primes.fromlist(flat[::2])  # OverflowError past 64 bits: canonical_doc gives None
    numerators.fromlist(flat[1::2])
    return True


def canonical_doc(path: Union[str, Path]) -> Optional[dict]:
    """The document of a file in `_json_text`'s layout with `_ENTRY_ROW` rows; else None.

    The entries block is read _WINDOW bytes at a time, cut after its
    last whole row, into two array('q') columns (`_window_rows`), so
    neither the file's bytes nor an int object per number is held at
    once. A window that runs past the block into a later key's nested
    list, which ends as a row does, is cut again at the block's end. The
    frame, the text before and after the block, is parsed by json.loads
    with "entries" as [], and must equal `_json_text` of the document it
    parsed: json.dumps' layout of the file's own keys. That full match
    also rules out a key written twice. None sends the file to
    `json_doc`, which words every failure.
    """
    primes, numerators = array("q"), array("q")
    try:
        with open(path, "rb") as handle:
            data = bytearray()
            while (cut := data.find(_KEY, max(0, len(data) - _WINDOW - len(_KEY)))) < 0:
                chunk = handle.read(_WINDOW)
                if not chunk:
                    return None
                data += chunk
            cut += len(_KEY)
            head, rest = bytes(data[:cut]), bytes(data[cut:]) + handle.read(2)
            if rest.startswith(b"[]"):
                tail = rest[2:] + handle.read()
            elif rest.startswith(b"[\n"):
                pending = b"," + rest[1:]  # the first row as the others: after ",\n"
                while True:
                    end = pending.rfind(_ROW_END) + len(_ROW_END)
                    if end >= len(_ROW_END):
                        if not _window_rows(pending[:end], primes, numerators):
                            # a later key's nested list ends as a row does: cut at the block's end
                            end = pending.find(_BLOCK_END)
                            rows = pending[:end]
                            if end < 0 or (end and not _window_rows(rows, primes, numerators)):
                                return None
                            pending = pending[end:] + handle.read()
                            break
                        pending = pending[end:]
                    chunk = handle.read(_WINDOW)
                    if not chunk:
                        break
                    pending += chunk
                if not pending.startswith(_BLOCK_END):
                    return None
                tail = pending[len(_BLOCK_END):]
            else:
                return None
        doc = json.loads(frame := head + b"[]" + tail)
        canonical = frame == _json_text(doc).encode()  # 3.12 loads nests deeper than dumps
    except (OSError, ValueError, OverflowError, RecursionError):
        return None
    if not canonical or not isinstance(doc, dict) or not isinstance(doc.get("c"), str):
        return None
    doc["entries"] = EntryView(primes, numerators)
    return doc


def json_doc(path: Union[str, Path]) -> dict:
    """The document of any sequence file, through json.loads; a malformed one raises.

    The schema checks run at C speed (map and set over the parsed lists),
    and NumeratorSequence splits the [p, a] lists into its array('q')
    columns and checks them at C speed too. The program writes every file
    in the layout `canonical_doc` reads, so this path serves hand-written
    files.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SequenceFileError(f"{path}: not a JSON sequence file ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("c"), str):
        raise SequenceFileError(f'{path}: expected an object with "c" as a "num/den" string')
    raw = doc.get("entries")
    if (
        not isinstance(raw, list)
        or not set(map(type, raw)) <= {list}
        or not set(map(len, raw)) <= {2}
        or not set(map(type, chain.from_iterable(raw))) <= {int}
    ):
        raise SequenceFileError(f'{path}: "entries" must be a list of [p, a] integer pairs')
    return doc

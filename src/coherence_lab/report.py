"""Report serialization, standard library only.

Every command writes its report through `dumps_report`; kept apart from
`descriptors`, it lets a command emit a report without loading the Lie and
lattice layers. Reports are written directly in the text of
`json.dumps(report, indent=2)`: with an indent the standard library always
takes its pure-Python encoder, a generator chain per container.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any, Dict

SCHEMA = "coherence-lab/1"

# JSON text of the scalar types, by exact type; subclasses take the
# isinstance branches of _write.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write(x: Any, newline: str, out: list) -> None:
    """Append the JSON text of x to out; newline is the line break and
    indent of the enclosing container. Scalar members are written inline,
    containers recursively."""
    scalar = _SCALARS.get(type(x))
    if scalar is not None:
        out.append(scalar(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in x.items():
            if not isinstance(k, str):
                raise TypeError(f"report keys must be str, not {type(k).__name__}")
            key = encode_basestring_ascii(k)
            scalar = _SCALARS.get(type(v))
            if scalar is not None:
                out.append(f"{sep}{key}: {scalar(v)}")
            else:
                out.append(f"{sep}{key}: ")
                _write(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        texts = []
        for v in x:
            scalar = _SCALARS.get(type(v))
            if scalar is None:
                break
            texts.append(scalar(v))
        else:  # scalars only: one join
            out.append(f"[{inner}{(',' + inner).join(texts)}{newline}]")
            return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def dumps_report(report: Dict[str, Any]) -> str:
    """Deterministic JSON text (insertion order, two-space indent), equal
    to json.dumps(report, indent=2) + "\n" byte for byte. Only dicts with
    str keys, lists, tuples, str, int, bool and None are written; anything
    else raises TypeError."""
    out: list = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)

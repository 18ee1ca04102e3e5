"""File access (no other module opens a file): reading a JSON-object file,
writing an output file, and state files. A state file is one JSON document

    {"d_A": 2, "d_B": 2, "matrix": [[re, im], [re, im], ...]}

with the matrix flattened row-major, one [re, im] pair per entry. Numbers are
written with 17 significant digits so a load/save round trip is exact at
double precision.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError
from .linalg import BipartiteDensityMatrix, as_real


def read_json_object(path: str, kind: str) -> dict:
    """The JSON object in the file at ``path``; a file that cannot be read,
    is not JSON or holds no object is a ConfigError naming its ``kind``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:   # or nested too deep to parse
        raise ConfigError(f"{kind} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{kind} {path} must contain a JSON object")
    return doc


def write_text(path: str, text: str, kind: str) -> None:
    """Write ``text`` to the file at ``path``; a path that cannot be written
    is a ConfigError naming its ``kind``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {kind} {path}: {exc}") from exc


def json_int(x, minimum: int, name: str) -> int:
    """``x`` as an int >= ``minimum``; an integral JSON number such as ``2.0``
    is one, a bool or a fraction is not (a ConfigError naming ``name``)."""
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or isinstance(x, float) and not x.is_integer() or x < minimum):
        raise ConfigError(f"{name!r} must be an integer >= {minimum}, got {x!r}")
    return int(x)


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (exact round trip)."""
    return format(float(x), ".17g")


def matrix_to_pairs(mat: np.ndarray) -> list[list[float]]:
    """Flatten a complex matrix to a row-major list of [re, im] pairs."""
    flat = np.asarray(mat, dtype=np.complex128).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    if not isinstance(pairs, (list, tuple)):
        raise ConfigError(f"matrix must be a list of [re, im] pairs, got {pairs!r}")
    if len(pairs) != dim * dim:
        raise ConfigError(f"matrix has {len(pairs)} entries, expected "
                          f"{dim * dim if dim < 10**6 else 'at least 10**12'}")
    flat = np.empty(dim * dim, dtype=np.complex128)
    try:
        for i, pair in enumerate(pairs):
            re, im = pair if isinstance(pair, (list, tuple)) else ()
            flat[i] = complex(as_real(re), as_real(im))
    except ValueError as exc:   # a pair of the wrong length, or not two finite reals
        raise ConfigError(f"matrix entry {i} is not a [re, im] pair: {pair!r}") from exc
    return flat.reshape(dim, dim)


def state_to_json(state: BipartiteDensityMatrix) -> str:
    """Serialize a bipartite state to the canonical JSON text."""
    entries = ",".join(f"[{fmt17(z.real)},{fmt17(z.imag)}]"
                       for z in state.mat.ravel())
    return (f'{{"d_A":{state.d_A},"d_B":{state.d_B},'
            f'"matrix":[{entries}]}}')


def save_state(path: str, state: BipartiteDensityMatrix) -> None:
    write_text(path, state_to_json(state) + "\n", "state file")


def load_state(path: str) -> BipartiteDensityMatrix:
    """Load and validate a bipartite state file."""
    doc = read_json_object(path, "state file")
    missing = {"d_A", "d_B", "matrix"} - doc.keys()
    if missing:
        raise ConfigError(f"state file is missing fields: {sorted(missing)}")
    d_a, d_b = (json_int(doc[key], 1, key) for key in ("d_A", "d_B"))
    return BipartiteDensityMatrix(pairs_to_matrix(doc["matrix"], d_a * d_b), d_a, d_b)

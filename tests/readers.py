"""Readers for the CLI's outputs, used by the tests to check that an
output holds everything its library object does.

A JSON output is its report's to_dict() plus keys the CLI adds
(`json_fields` drops them); the report readers rebuild the library
object from those fields, so comparing the result with `==` checks
every field. The CSV readers skip the `#` meta line and the header.
"""

import json

import numpy as np

from affinewalk.fourier import BoundSeries, OrbitRecord
from affinewalk.modmath import ModVector
from affinewalk.montecarlo import ProjectionReport
from affinewalk.spectral import CharPoly, Classification, SpectrumReport


def json_fields(text: str) -> dict:
    """The report fields of a JSON output: the document without the keys
    the CLI adds to it."""
    doc = json.loads(text)
    for key in ("meta", "admissible", "blocks", "projected_tv"):
        doc.pop(key, None)
    return doc


def spectrum_report(doc: dict) -> SpectrumReport:
    eig = tuple((complex(re, im), m) for re, im, m in doc.pop("eigenvalues"))
    rep = SpectrumReport(
        charpoly=CharPoly(doc.pop("charpoly")),
        eigenvalues=eig,
        moduli=tuple(abs(z) for z, _ in eig),
        classification=Classification(doc.pop("classification")),
        root_of_unity_order=doc.pop("m", None),
    )
    assert not doc, f"unread keys {sorted(doc)}"
    return rep


def orbit_record(doc: dict) -> OrbitRecord:
    p = doc.pop("p")
    rec = OrbitRecord(
        c=ModVector(p, doc.pop("c")),
        orbit=tuple(ModVector(p, v) for v in doc.pop("orbit")),
        cycle_start=doc.pop("cycle_start"),
        cycle_length=doc.pop("cycle_length"),
        first_large_ell=doc.pop("first_large_ell"),
        threshold=doc.pop("threshold"),
        max_centered_magnitudes=tuple(doc.pop("max_centered_magnitudes")),
    )
    assert not doc, f"unread keys {sorted(doc)}"
    return rec


def projection_report(doc: dict) -> ProjectionReport:
    rep = ProjectionReport(
        m=doc.pop("m"),
        v=ModVector(doc.pop("p"), doc.pop("v")),
        increment_support=tuple((r, pr) for r, pr in doc.pop("increments")),
        u=doc.pop("u"),
        degenerate_prime=doc.pop("degenerate_prime"),
    )
    assert not doc, f"unread keys {sorted(doc)}"
    return rep


def bound_series(text: str) -> BoundSeries:
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    has_exact = "tv_exact" in rows[0].split(",")
    out = BoundSeries(tv_exact=[] if has_exact else None)
    for ln in rows[1:]:
        parts = ln.split(",")
        out.n.append(int(parts[0]))
        out.ub.append(float(parts[1]))
        out.lb.append(float(parts[2]))
        if has_exact:
            out.tv_exact.append(float(parts[3]))
    return out


def states(text: str) -> np.ndarray:
    rows = [
        [int(x) for x in ln.split(",")]
        for ln in text.splitlines()
        if ln.strip() and not ln.startswith("#") and not ln.startswith("x0")
    ]
    return np.array(rows, dtype=np.int64)


def sweep_rows(text: str) -> list[tuple[str, int, int, str]]:
    """(matrix_tag, p, n_mix, method) per data row of a sweep CSV."""
    rows = []
    for ln in text.splitlines():
        if not ln.startswith('"'):
            continue
        tag, rest = ln[1:].rsplit('",', 1)
        p, n, method = rest.split(",")
        rows.append((tag, int(p), int(n), method))
    return rows

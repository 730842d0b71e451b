"""Command-line front end: config parsing, orchestration, JSON/CSV reports.

Subcommands
-----------
eta
    Delocalized eta of a gapped operator at a conjugacy class.
higher-eta
    Cocycle-weighted eta along the spectral-flow unitaries.
gap
    Spectral-gap certificate, optionally with decay thresholds.
norms
    Weighted norm family for a group-algebra element.
cocycle-check
    Cyclicity, cocycle-identity, shift-image, and growth certification.
boundary-check
    Boundary-loop identity over the shipped cocycle/idempotent fixtures.
oracle-compare
    Production backends against independent brute-force oracles.

Configuration
-------------
Flat ``key = value`` text with dotted keys and ``#`` comments, or a JSON
document (nested objects are flattened to dotted keys).  Later sources
win: defaults < config file < positional ``key=value`` overrides <
``--tol``/``--seed``/``--out``/``--dump-integrand`` flags.  Unknown keys
are rejected before any computation starts.

Exit codes
----------
0   every computation finished and every certificate passed
1   a threshold verdict or a certificate failed (the invariant is named)
2   the configuration could not be interpreted or a precondition failed
3   an I/O or resource-budget failure

On exit 0 and 1 the JSON report comes first on stdout (or goes to
``--out``).  Its ``failures`` list holds one string per failed invariant,
starting with the invariant's name, e.g. ``"decay threshold (cocycle
route)"``.  Exit code 1 covers two kinds of failure:

* a *threshold verdict* -- the ``decay threshold`` outcome of ``gap``,
  ``eta`` and ``higher-eta``: the certified gap does not clear the
  threshold set by the exact growth rates of the class and the group, a
  convergence condition rather than a broken identity.  It
  appears only in ``failures``; stdout stays exactly one JSON document.
* a *certificate failure* -- every other entry (``spectral gap``, ``error
  budget``, ``cyclicity``, ``cocycle identity`` and the shift-image checks,
  ``boundary identity``, ``oracle agreement``, and a certificate raised
  inside a computation, whose report then has a ``null`` result).  After
  the report, stdout carries a trailer of ``certificate failed: <entry>``
  followed, where a witness exists, by one ``witness: <tuple>`` line.
  ``error budget`` counts here: the certified error fails the requested
  tolerance.

Reports are deterministic: identical configuration and seed produce
byte-identical JSON (timing goes to stderr, never into the report).  The
``ETALAB_THREADS`` environment variable caps the BLAS thread pools:
importing this module copies it into ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and the related variables that are not already set,
before NumPy is imported.  The cap therefore holds whenever this module
is what first imports NumPy, as in the ``etalab`` script and ``python -m
etalab.cli``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path


def _apply_thread_env() -> str | None:
    count = os.environ.get("ETALAB_THREADS")
    if not count:
        return None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, count)
    return count


# NumPy's BLAS sizes its thread pool once, when numpy is first imported, so
# the cap goes into the environment before the import below.
_apply_thread_env()

import numpy as np

from .cyclic import (
    CyclicCochain,
    area_cocycle,
    class_trace_cochain,
    coboundary,
    max_cocycle_violation,
    max_cyclicity_violation,
    growth_certify,
    periodicity,
    random_delocalized_cochain,
    table_cochain,
)
from .errors import (
    CertificateError,
    ConfigError,
    EtalabError,
    PreconditionError,
    RepresentationError,
    ResourceBudgetError,
)
from .eta import eta_class, eta_higher, gap_thresholds
from .group_algebra import AlgebraElement, norm_report
from .groups import CyclicGroup, FreeAbelianGroup, FreeGroup, GroupModel
from .operators import (
    SchwartzFunction,
    anisotropic_symbol_3d,
    dense_truncation_calculus_batch,
    free_group_model,
    gapped_cover_model,
    lattice_laplace_symbol,
    two_band_chern_symbol,
    wilson_symbol,
)
from .pairing import boundary_identity, scalar_loop_integral, \
    shipped_pairing_fixtures

SCHEMA = "etalab-report/1"

OPERATOR_KINDS = ("laplace", "wilson", "two_band", "anisotropic3d",
                  "free", "cover")
GROUP_KINDS = ("lattice", "cyclic", "free")
COCYCLE_KINDS = ("class_trace", "shifted_class_trace", "area", "delocalized",
                 "coboundary_of_delocalized", "table")
ORACLE_KINDS = ("sign_sum", "dense_calculus", "loop_integral")


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Every tunable of a run, resolved from defaults, file, and overrides.

    ``operator_mass = None`` means "use the model's own default"; a
    truncation ``radius`` of 0 requests the automatic choice; an empty
    ``class_element`` means the group's first generator ("1" on Z and Z/k,
    "a" on F_r, "1,0" on Z^2), and a command that uses the class writes
    that text back; an empty ``cocycle_element`` means ``class_element``.
    """

    group_kind: str = "lattice"
    group_rank: int = 1
    group_order: int = 5
    operator_kind: str = "laplace"
    operator_mass: float | None = None
    operator_seed: int = 0
    class_element: str = ""
    cocycle_kind: str = "class_trace"
    cocycle_element: str = ""
    cocycle_plane: str = "0,1"
    cocycle_rate: float = 0.1
    cocycle_amplitude: float = 1.0
    cocycle_degree: int = 1
    cocycle_table: str = ""
    element_path: str = ""
    tol: float = 1e-8
    quad_rel: float = 1e-10
    tail_frac: float = 0.1
    radius: int = 0
    seed: int = 0
    out: str = ""
    samples: str = ""
    norms_p: float = 2.0
    norms_K: float = 0.1
    norms_q: int = 0
    pairing_fixture: str = "all"
    pairing_tol: float = 1e-6
    oracle_kind: str = "loop_integral"
    oracle_count: int = 5
    oracle_tol: float = 1e-6


def _conv_int(key: str, raw) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected an integer, got {raw!r}")


def _conv_float(key: str, raw) -> float:
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    if not math.isfinite(val):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return val


def _conv_str(key: str, raw) -> str:
    return str(raw)


def _conv_choice(options):
    def conv(key: str, raw) -> str:
        val = str(raw)
        if val not in options:
            raise ConfigError(
                f"{key}: unknown choice {val!r}; one of {', '.join(options)}")
        return val
    return conv


#: dotted config key -> (RunConfig attribute, converter)
KEYS = {
    "group.kind": ("group_kind", _conv_choice(GROUP_KINDS)),
    "group.rank": ("group_rank", _conv_int),
    "group.order": ("group_order", _conv_int),
    "operator.kind": ("operator_kind", _conv_choice(OPERATOR_KINDS)),
    "operator.mass": ("operator_mass", _conv_float),
    "operator.seed": ("operator_seed", _conv_int),
    "class.element": ("class_element", _conv_str),
    "cocycle.kind": ("cocycle_kind", _conv_choice(COCYCLE_KINDS)),
    "cocycle.element": ("cocycle_element", _conv_str),
    "cocycle.plane": ("cocycle_plane", _conv_str),
    "cocycle.rate": ("cocycle_rate", _conv_float),
    "cocycle.amplitude": ("cocycle_amplitude", _conv_float),
    "cocycle.degree": ("cocycle_degree", _conv_int),
    "cocycle.table": ("cocycle_table", _conv_str),
    "element.path": ("element_path", _conv_str),
    "tolerances.tol": ("tol", _conv_float),
    "tolerances.quad_rel": ("quad_rel", _conv_float),
    "tolerances.tail_frac": ("tail_frac", _conv_float),
    "truncation.radius": ("radius", _conv_int),
    "seed": ("seed", _conv_int),
    "output.report": ("out", _conv_str),
    "output.samples": ("samples", _conv_str),
    "norms.p": ("norms_p", _conv_float),
    "norms.K": ("norms_K", _conv_float),
    "norms.q": ("norms_q", _conv_int),
    "pairing.fixture": ("pairing_fixture", _conv_str),
    "pairing.tol": ("pairing_tol", _conv_float),
    "oracle.kind": ("oracle_kind", _conv_choice(ORACLE_KINDS)),
    "oracle.count": ("oracle_count", _conv_int),
    "oracle.tol": ("oracle_tol", _conv_float),
}

#: keys echoed into reports (output paths are plumbing, not inputs)
ECHO_KEYS = tuple(k for k in KEYS if not k.startswith("output."))


def _flatten_json(obj, prefix: str, out: dict):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten_json(val, f"{prefix}{key}." if isinstance(val, dict)
                          else f"{prefix}{key}", out)
        return
    out[prefix.rstrip(".")] = obj


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Dotted-key entries from flat ``key = value`` text or a JSON document."""
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON ({exc})")
        if not isinstance(doc, dict):
            raise ConfigError(f"{source}: JSON config must be an object")
        flat: dict = {}
        _flatten_json(doc, "", flat)
        return flat
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def parse_overrides(pairs) -> dict:
    entries: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(
                f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def resolve_config(entries: dict) -> tuple[RunConfig, set]:
    """Validate dotted-key entries into a RunConfig; reject unknown keys."""
    cfg = RunConfig()
    provided = set()
    for key, raw in entries.items():
        if key not in KEYS:
            raise ConfigError(
                f"unknown config key {key!r}; known keys: "
                f"{', '.join(sorted(KEYS))}")
        attr, conv = KEYS[key]
        setattr(cfg, attr, conv(key, raw))
        provided.add(key)
    if not 0.0 < cfg.tail_frac < 1.0:
        raise ConfigError(
            f"tolerances.tail_frac: must lie in (0, 1), got {cfg.tail_frac}")
    for key, attr in (("tolerances.tol", "tol"),
                      ("tolerances.quad_rel", "quad_rel"),
                      ("pairing.tol", "pairing_tol"),
                      ("oracle.tol", "oracle_tol")):
        if getattr(cfg, attr) <= 0:
            raise ConfigError(f"{key}: must be positive, "
                              f"got {getattr(cfg, attr)}")
    for key, attr in (("truncation.radius", "radius"),
                      ("oracle.count", "oracle_count"),
                      ("cocycle.degree", "cocycle_degree"),
                      ("norms.q", "norms_q")):
        if getattr(cfg, attr) < 0:
            raise ConfigError(f"{key}: must be >= 0, "
                              f"got {getattr(cfg, attr)}")
    if cfg.oracle_count == 0:
        raise ConfigError("oracle.count: must be >= 1")
    return cfg, provided


def config_echo(cfg: RunConfig) -> dict:
    return {key: getattr(cfg, KEYS[key][0]) for key in ECHO_KEYS}


# ---------------------------------------------------------------------------
# object construction from a resolved config
# ---------------------------------------------------------------------------


def build_group(cfg: RunConfig) -> GroupModel:
    if cfg.group_kind == "lattice":
        return FreeAbelianGroup(cfg.group_rank)
    if cfg.group_kind == "cyclic":
        return CyclicGroup(cfg.group_order)
    return FreeGroup(cfg.group_rank)


def build_operator(cfg: RunConfig):
    """The configured operator. Its group's kind, and rank or order, are
    written back into ``cfg``, so that the config echo names that group."""
    mass = {} if cfg.operator_mass is None else {"mass": cfg.operator_mass}
    op = {"laplace": lattice_laplace_symbol,
          "wilson": lambda: wilson_symbol(**mass),
          "two_band": lambda: two_band_chern_symbol(**mass),
          "anisotropic3d": anisotropic_symbol_3d,
          "free": free_group_model,
          "cover": lambda: gapped_cover_model(cfg.operator_seed),
          }[cfg.operator_kind]()
    group = op.element.group
    if isinstance(group, CyclicGroup):
        cfg.group_kind, cfg.group_order = "cyclic", group.order
    else:
        cfg.group_kind = "free" if isinstance(group, FreeGroup) else "lattice"
        cfg.group_rank = group.rank
    return op


def _parse_element(group: GroupModel, text: str, key: str):
    try:
        return group.element_from_text(text)
    except RepresentationError as exc:
        raise ConfigError(f"{key}: {exc}")


def _class_element(group: GroupModel, cfg: RunConfig):
    """``class.element`` as an element of ``group``. An empty one is the
    first generator (the identity of a trivial group), and its text is
    written back into ``cfg`` so that the config echo names the class."""
    if not cfg.class_element:
        first = (group.generators() or [group.identity])[0]
        cfg.class_element = group.element_to_text(first)
    return _parse_element(group, cfg.class_element, "class.element")


def _read_json_file(path: str, key: str) -> dict:
    if not path:
        raise ConfigError(f"{key}: a file path is required")
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{key}: {path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ConfigError(f"{key}: {path}: expected a JSON object")
    return doc


def _table_from_file(group: GroupModel, cfg: RunConfig):
    doc = _read_json_file(cfg.cocycle_table, "cocycle.table")
    degree = _conv_int("cocycle.table degree", doc.get("degree",
                                                       cfg.cocycle_degree))
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ConfigError("cocycle.table: the document needs an 'entries' "
                          "list of {args, value} objects")
    table: dict = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "args" not in entry \
                or "value" not in entry:
            raise ConfigError(f"cocycle.table: entry {i} is not an object "
                              "with 'args' and 'value'")
        args = entry["args"]
        if not isinstance(args, list) or len(args) != degree + 1:
            raise ConfigError(
                f"cocycle.table: entry {i} needs {degree + 1} args for "
                f"degree {degree}, got {args!r}")
        key = tuple(_parse_element(group, str(a), "cocycle.table args")
                    for a in args)
        val = entry["value"]
        if isinstance(val, list):
            if len(val) != 2:
                raise ConfigError(f"cocycle.table: entry {i} value must be a "
                                  "number or a [re, im] pair")
            val = complex(val[0], val[1])
        table[key] = complex(val)
    return table_cochain(group, degree, table)


def build_cocycle(group: GroupModel, cfg: RunConfig) -> CyclicCochain:
    kind = cfg.cocycle_kind
    if kind == "table":
        return _table_from_file(group, cfg)
    el = (_parse_element(group, cfg.cocycle_element, "cocycle.element")
          if cfg.cocycle_element else _class_element(group, cfg))
    if kind == "class_trace":
        return class_trace_cochain(group.conjugacy_class(el))
    if kind == "shifted_class_trace":
        return periodicity(class_trace_cochain(group.conjugacy_class(el)))
    if kind == "area":
        try:
            plane = tuple(int(tok) for tok in cfg.cocycle_plane.split(","))
        except ValueError:
            raise ConfigError(f"cocycle.plane: expected two comma-separated "
                              f"axes, got {cfg.cocycle_plane!r}")
        if not isinstance(group, FreeAbelianGroup):
            raise PreconditionError(
                "the area cocycle lives on a lattice group")
        return area_cocycle(group, el, plane=plane, seed=cfg.seed)
    psi = random_delocalized_cochain(group, el, rate=cfg.cocycle_rate,
                                    seed=cfg.seed,
                                    amplitude=cfg.cocycle_amplitude)
    if kind == "delocalized":
        return psi
    return coboundary(psi)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def json_safe(obj):
    """Recursively coerce a payload into plain JSON types (complex -> re/im)."""
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


def render_report(payload: dict) -> str:
    return json.dumps(json_safe(payload), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def emit_report(payload: dict, path: str | None):
    text = render_report(payload)
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def write_samples_csv(samples, path: str):
    """Integrand dump: one certified sample per row."""
    lines = ["t,re,im,bound"]
    for t, val, bound in samples:
        z = complex(val)
        lines.append(f"{float(t)!r},{z.real!r},{z.imag!r},{float(bound)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Failure:
    """One failed invariant (see "Exit codes" in the module docstring).

    ``entry`` goes into the report's ``failures``; unless ``verdict`` is
    set, it is also printed after the report with its ``witness`` text.
    """

    entry: str
    verdict: bool = False
    witness: str | None = None

    def trailer(self) -> list:
        if self.verdict:
            return []
        lines = [f"certificate failed: {self.entry}"]
        if self.witness is not None:
            lines.append(f"witness: {self.witness}")
        return lines


@dataclass
class Outcome:
    """What a subcommand hands back to the dispatcher; exit code 1 iff
    ``failures`` is non-empty."""

    result: dict | None
    certification: dict
    failures: list
    samples: list | None = None

    @classmethod
    def raised(cls, exc: CertificateError) -> "Outcome":
        entry = exc.invariant + (f" ({exc.message})" if exc.message else "")
        witness = None if exc.witness is None else repr(exc.witness)
        return cls(None, {}, [Failure(entry, witness=witness)])


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _eta_outcome(report) -> Outcome:
    result = report.to_json_dict()
    result["converged"] = bool(report.converged)
    certification = {
        "value": "abs error <= 'error' (quadrature + calculus + tail)",
        "error": "exact sum of the certified interval and tail bounds",
        "tail_bound": "exact closed-form bound beyond the last split point",
        "split_points": list(report.split_points),
        "interval_errors": dict(report.interval_errors),
        "tail_constants": dict(report.tail_constants),
        "threshold": report.threshold.to_json_dict(),
        "diagnostics": dict(report.diagnostics),
    }
    failures = []
    if not report.verdict:
        failures.append(Failure(
            "decay threshold (the certified gap "
            f"{report.threshold.gap:.6g} does not clear the growth "
            "threshold sigma)", verdict=True))
    if not report.converged:
        failures.append(Failure(
            "error budget (certified error "
            f"{report.error:.3e} exceeds the requested tolerance)"))
    return Outcome(result, certification, failures,
                   samples=list(report.samples))


def run_eta(cfg: RunConfig, provided: set) -> Outcome:
    op = build_operator(cfg)
    group = op.element.group
    el = _class_element(group, cfg)
    report = eta_class(op, group.conjugacy_class(el), tol=cfg.tol,
                       radius=cfg.radius or None,
                       quad_rel=cfg.quad_rel, tail_frac=cfg.tail_frac)
    return _eta_outcome(report)


def run_higher_eta(cfg: RunConfig, provided: set) -> Outcome:
    op = build_operator(cfg)
    phi = build_cocycle(op.element.group, cfg)
    report = eta_higher(op, phi, tol=cfg.tol, radius=cfg.radius or None,
                        seed=cfg.seed, quad_rel=cfg.quad_rel,
                        tail_frac=cfg.tail_frac)
    return _eta_outcome(report)


def _gap_diag_summary(diag: dict) -> dict:
    out = dict(diag)
    lam = out.pop("eigenvalues", None)
    if lam is not None:
        arr = np.asarray(lam, dtype=float)
        out["eigenvalue_count"] = int(arr.size)
        out["eigenvalue_range"] = [float(arr.min()), float(arr.max())]
    return out


def run_gap(cfg: RunConfig, provided: set) -> Outcome:
    op = build_operator(cfg)
    cert = op.gap_certificate()
    lower = float(cert)
    history = cert.diagnostics.get("history")
    if history:
        sigma = float(history[-1]["grid_min"])
        sigma_certificate = ("grid minimum of |eigenvalues|; certified "
                             "lower bound 'lower_bound' via the curvature "
                             "slack of D(theta)^2")
    else:
        sigma = lower
        sigma_certificate = f"certificate method {cert.method!r}"
    result = {"sigma": sigma, "lower_bound": lower, "method": cert.method}
    certification = {
        "sigma": sigma_certificate,
        "lower_bound": "certified lower bound on " + (
            "dist(0, nonzero spectrum)" if cert.method == "exact-eigenvalues"
            else "dist(0, spec D)"),
        "diagnostics": _gap_diag_summary(cert.diagnostics),
    }
    failures = []
    if lower <= 0.0:
        failures.append(Failure("spectral gap (no positive gap could be "
                                "certified)"))
    if "class.element" in provided or "cocycle.kind" in provided:
        group = op.element.group
        el = _class_element(group, cfg)
        phi = build_cocycle(group, cfg) if "cocycle.kind" in provided else None
        th = gap_thresholds(op, group.conjugacy_class(el), phi)
        result["thresholds"] = th.to_json_dict()
        result["class_ok"] = bool(th.class_ok)
        certification["thresholds"] = ("exact growth rates of the class "
                                       "and the group; the verdicts compare "
                                       "the thresholds against the "
                                       "certified gap")
        if not th.class_ok:
            failures.append(Failure("decay threshold (class trace route)",
                                    verdict=True))
        if phi is not None:
            result["cocycle_ok"] = bool(th.cocycle_ok)
            if not th.cocycle_ok:
                failures.append(Failure("decay threshold (cocycle route)",
                                        verdict=True))
    return Outcome(result, certification, failures)


def run_norms(cfg: RunConfig, provided: set) -> Outcome:
    if "element.path" in provided:
        doc = _read_json_file(cfg.element_path, "element.path")
        element = AlgebraElement.from_json(doc)
    else:
        element = build_operator(cfg).element
    report = norm_report(element, p=cfg.norms_p, K=cfg.norms_K, q=cfg.norms_q)
    certification = {
        "rd": "exact finite weighted sum over the support",
        "lk": "exact finite weighted sum over the support",
        "uc_upper": "upper bound; the tensor norm lies in "
                    "[uc_lower, uc_upper]",
        "uc_lower": "lower bound from the diagonal restriction",
        "b": "exact sum rd + uc_upper (an upper bound itself)",
        "p": "exact (config echo)",
        "K": "exact (config echo)",
        "q": "exact (config echo)",
    }
    return Outcome(report.to_json_dict(), certification, [])


def _witness_text(group: GroupModel, witness) -> str | None:
    if witness is None:
        return None
    try:
        return "(" + ", ".join(group.element_to_text(g) for g in witness) + ")"
    except (EtalabError, TypeError):
        return repr(witness)


def _witness_json(group: GroupModel, witness):
    if witness is None:
        return None
    try:
        return [group.element_to_json(g) for g in witness]
    except (EtalabError, TypeError):
        return repr(witness)


def run_cocycle_check(cfg: RunConfig, provided: set) -> Outcome:
    if "group.kind" in provided:
        group = build_group(cfg)
    else:
        group = build_operator(cfg).element.group
    phi = build_cocycle(group, cfg)
    tol = cfg.tol
    checks: dict = {}
    failures: list = []

    def record(label: str, pair):
        violation, witness = pair
        ok = bool(violation <= tol)
        checks[label] = {"violation": float(violation),
                         "witness": _witness_json(group, witness),
                         "ok": ok}
        if not ok:
            failures.append(Failure(
                f"{label} (violation {violation:.3e} > {tol:g})",
                witness=_witness_text(group, witness)))

    record("cyclicity", max_cyclicity_violation(phi, radius=2, samples=200,
                                                seed=cfg.seed))
    record("cocycle identity", max_cocycle_violation(phi, radius=2,
                                                     samples=200,
                                                     seed=cfg.seed))
    if not failures:
        shifted = periodicity(phi, check=False)
        record("shift-image cyclicity",
               max_cyclicity_violation(shifted, radius=2, samples=200,
                                       seed=cfg.seed))
        record("shift-image cocycle identity",
               max_cocycle_violation(shifted, radius=2, samples=200,
                                     seed=cfg.seed))
    if phi.growth is None:
        checks["growth"] = {"certified": False,
                            "note": "no growth certificate declared"}
    else:
        checks["growth"] = {"certified": True,
                            **growth_certify(phi, 6, seed=cfg.seed)}
    result = {
        "cochain": {"name": phi.name, "degree": int(phi.degree),
                    "group": repr(group)},
        "checks": checks,
        "verdict": not failures,
    }
    certification = {
        "violations": "normalized sup over sampled tuples (radius 2, "
                      f"200 samples, seed {cfg.seed}); pass iff <= "
                      f"tolerances.tol = {tol:g}",
        "growth": "declared envelope checked over ball tuples (exhaustive "
                  "when feasible, sampled beyond)",
    }
    return Outcome(result, certification, failures)


def run_boundary_check(cfg: RunConfig, provided: set) -> Outcome:
    fixtures = shipped_pairing_fixtures()
    if cfg.pairing_fixture != "all":
        chosen = [f for f in fixtures if cfg.pairing_fixture in f[0]]
        if not chosen:
            names = ", ".join(repr(name) for name, _, _ in fixtures)
            raise ConfigError(
                f"pairing.fixture: {cfg.pairing_fixture!r} matches none of "
                f"the shipped fixtures ({names})")
    else:
        chosen = list(fixtures)
    rows = []
    failures = []
    worst = 0.0
    for name, phi, p in chosen:
        rep = boundary_identity(phi, p, tol=cfg.pairing_tol)
        worst = max(worst, rep["difference"])
        rows.append({
            "fixture": name,
            "lhs": rep["lhs"],
            "rhs": rep["rhs"],
            "difference": float(rep["difference"]),
            "loop_defect": float(rep["loop_defect"]),
            "ok": bool(rep["verdict"]),
        })
        if not rep["verdict"]:
            failures.append(Failure(
                f"boundary identity (fixture {name!r}, difference "
                f"{rep['difference']:.3e} > {cfg.pairing_tol:g})"))
    result = {"fixtures": rows, "max_difference": float(worst),
              "verdict": not failures}
    certification = {
        "identity": "loop pairing of the idempotent's boundary loop against "
                    "-2x its Chern pairing; the two routes share nothing "
                    "below the trace pairing",
        "difference": f"pass iff <= pairing.tol = {cfg.pairing_tol:g}",
    }
    return Outcome(result, certification, failures)


# -- oracle comparisons -----------------------------------------------------


def _sign_sum_eta(op, cls) -> complex:
    """Deck-translate sign sum over the exact cover eigensystem."""
    lam, V = op.eigensystem()
    signs = np.sign(lam)
    total = 0.0 + 0.0j
    for g in op.elements:
        if cls.contains(g):
            U = op.deck_matrix(g)
            diag = np.einsum("ij,ij->j", V.conj(), U.conj().T @ V)
            total += np.sum(signs * diag)
    return complex(total / len(op.elements))


def _compare_sign_sum(cfg: RunConfig) -> list:
    rows = []
    for seed in range(cfg.oracle_count):
        op = gapped_cover_model(seed)
        group = op.element.group
        cls = group.conjugacy_class(1)
        report = eta_class(op, cls, tol=min(cfg.tol, 1e-8))
        oracle = _sign_sum_eta(op, cls)
        rows.append({"label": f"cover seed {seed}",
                     "backend": report.value,
                     "oracle": oracle,
                     "deviation": float(abs(report.value - oracle))})
    return rows


def _compare_dense_calculus(cfg: RunConfig) -> list:
    cases = (("laplace", lattice_laplace_symbol(), 13),
             ("wilson", wilson_symbol(), 13),
             ("anisotropic3d", anisotropic_symbol_3d(), 10))
    fs = [SchwartzFunction("gauss", 1.0), SchwartzFunction("xgauss", 1.0),
          SchwartzFunction("ut_minus_1", 1.0)]
    rows = []
    for label, op, trunc in cases:
        ball = op.element.group.ball(5)
        oracle = dense_truncation_calculus_batch(op.element, fs, 5, trunc)
        for f, table in zip(fs, oracle):
            res = op.functional_calculus(f, 5, tol=1e-10, strict=False)
            dev = max(float(np.abs(res.element.coefficient(g)
                                   - table[g]).max()) for g in ball)
            rows.append({"label": f"{label}/{f.tag}",
                         "backend_error": float(res.error),
                         "deviation": dev})
    return rows


def _compare_loop_integral(cfg: RunConfig) -> list:
    rows = []
    for m in range(9):
        val = scalar_loop_integral(m)
        exact = float(math.comb(2 * m, m))
        rows.append({"label": f"m={m}", "backend": val, "oracle": exact,
                     "deviation": float(abs(val - exact))})
    return rows


def run_oracle_compare(cfg: RunConfig, provided: set) -> Outcome:
    kind = cfg.oracle_kind
    if kind == "sign_sum":
        rows = _compare_sign_sum(cfg)
        oracle_note = ("dense cover eigendecomposition: sum of eigenvalue "
                       "signs weighted by deck-translate diagonals")
    elif kind == "dense_calculus":
        rows = _compare_dense_calculus(cfg)
        oracle_note = ("dense eigendecomposition of the truncated "
                       "convolution action, no quadrature or symbol")
    else:
        rows = _compare_loop_integral(cfg)
        oracle_note = "central binomial coefficients"
    worst = max(row["deviation"] for row in rows)
    failures = []
    if worst > cfg.oracle_tol:
        failures.append(Failure(
            f"oracle agreement ({kind}: max deviation {worst:.3e} > "
            f"{cfg.oracle_tol:g})"))
    result = {"kind": kind, "cases": rows, "max_deviation": float(worst),
              "verdict": not failures}
    certification = {
        "oracle": oracle_note,
        "deviation": f"pass iff <= oracle.tol = {cfg.oracle_tol:g}",
    }
    return Outcome(result, certification, failures)


HANDLERS = {
    "eta": run_eta,
    "higher-eta": run_higher_eta,
    "gap": run_gap,
    "norms": run_norms,
    "cocycle-check": run_cocycle_check,
    "boundary-check": run_boundary_check,
    "oracle-compare": run_oracle_compare,
}

_SUBCOMMAND_HELP = {
    "eta": "delocalized eta of a gapped operator at a conjugacy class",
    "higher-eta": "cocycle-weighted eta along the spectral-flow unitaries",
    "gap": "spectral-gap certificate and decay thresholds",
    "norms": "weighted norm family of a group-algebra element",
    "cocycle-check": "cyclicity / cocycle / shift / growth certification",
    "boundary-check": "boundary-loop identity on the shipped fixtures",
    "oracle-compare": "backends against independent brute-force oracles",
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etalab",
        description="numerical laboratory for delocalized spectral "
                    "invariants: certified eta integrals, cocycle pairings, "
                    "and weighted group-algebra norms")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="subcommand")
    for name, help_text in _SUBCOMMAND_HELP.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="config overrides (dotted keys)")
        p.add_argument("--config", "-c", default=None, metavar="FILE",
                       help="config file: 'key = value' lines or JSON")
        p.add_argument("--out", "-o", default=None, metavar="FILE",
                       help="write the JSON report here (default: stdout)")
        p.add_argument("--dump-integrand", default=None, metavar="FILE",
                       help="write integrand samples as CSV (t,re,im,bound)")
        p.add_argument("--tol", default=None, type=float,
                       help="shorthand for tolerances.tol")
        p.add_argument("--seed", default=None, type=int,
                       help="shorthand for seed")
    return parser


def _gather_entries(ns) -> dict:
    entries: dict = {}
    if ns.config:
        path = Path(ns.config)
        entries.update(parse_config_text(path.read_text(), source=ns.config))
    entries.update(parse_overrides(ns.overrides))
    if ns.tol is not None:
        entries["tolerances.tol"] = ns.tol
    if ns.seed is not None:
        entries["seed"] = ns.seed
    if ns.out is not None:
        entries["output.report"] = ns.out
    if ns.dump_integrand is not None:
        entries["output.samples"] = ns.dump_integrand
    return entries


def main(argv=None) -> int:
    threads = _apply_thread_env()
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if threads:
        print(f"# thread cap: {threads} (ETALAB_THREADS)", file=sys.stderr)
    started = time.perf_counter()
    try:
        cfg, provided = resolve_config(_gather_entries(ns))
        try:
            outcome = HANDLERS[ns.command](cfg, provided)
        except CertificateError as exc:
            outcome = Outcome.raised(exc)
        payload = {
            "schema": SCHEMA,
            "command": ns.command,
            "config": config_echo(cfg),
            "result": outcome.result,
            "certification": outcome.certification,
            "failures": [f.entry for f in outcome.failures],
        }
        emit_report(payload, cfg.out or None)
        if cfg.samples:
            if outcome.samples is None:
                print(f"# no integrand samples for {ns.command!r}; CSV not "
                      "written", file=sys.stderr)
            else:
                write_samples_csv(outcome.samples, cfg.samples)
    except (ConfigError, PreconditionError, RepresentationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ResourceBudgetError, OSError) as exc:
        print(f"resource/io failure: {exc}", file=sys.stderr)
        return 3
    except EtalabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"# {ns.command}: {elapsed:.2f}s", file=sys.stderr)
    for failure in outcome.failures:
        for line in failure.trailer():
            print(line)
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())

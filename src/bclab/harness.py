"""Experiment orchestration: configure, run, persist, and judge runs.

A run is fully described by an :class:`ExperimentConfig`; everything else
(hit records, checkpoint statistics, criterion reports, verdicts) is a
deterministic function of it.  The records' codec, hits.jsonl index lines
and hits.npy, lives here alone; statistics are recomputable bit-exactly
from the persisted records, and the run digest covers exactly the
reproducible payload (timestamps and wall-clock are excluded).
"""

import hashlib
import io
import json
import re
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import accumulate
from pathlib import Path

import numpy as np

from .criteria import PathEnsemble, check_f_criteria
from .intervals import (
    IntervalFamily,
    LebesgueMeasure,
    MeasureOracle,
    PowerMeasure,
)
from .processes import (
    CircleRWProcess,
    HitRecord,
    IIDProcess,
    LSVProcess,
    ProcessSpec,
    SplitChainProcess,
    check_run,
    hit_dtype,
    lsv_calibration,
    packed_records,
    simulate_ensemble,
)
from .seqcore import (JSON_CODECS, Codec, SampledSeq, TableSampler,
                      from_json, log_grid, to_json)

__all__ = [
    "CRITERIA_TOKENS",
    "ExperimentConfig",
    "ExperimentReport",
    "Verdict",
    "aggregate_verdict",
    "config_from_json",
    "config_to_json",
    "emit_report",
    "hits_header",
    "load_run",
    "marginal_measure",
    "report_from_records",
    "run_digest",
    "run_experiment",
]

# Criteria that can be evaluated from a run's own trajectories.
CRITERIA_TOKENS = ("f-i", "f-ii", "f-iii", "f-variance")

# Verdict thresholds (shared with the acceptance suite).
LATE_HIT_MAX = 0.10
BC_MIN_GROWTH = 1.0
L1_DECAY_FACTOR = 0.9
SBC_MEAN_BAND = (0.8, 1.2)
SBC_QUANTILE_BAND = (0.5, 1.5)

# family indices per window of the statistics pass: masses, E and their
# fingerprints are computed this many at a time, whatever n is
_WINDOW = 1 << 16
# hit times per block of load_run's checks
_CHECK = 1 << 16


@dataclass
class ExperimentConfig:
    """Complete description of one Monte Carlo experiment.

    ``checkpoints`` defaults to a geometric grid ending at ``n``;
    ``criteria`` lists tokens from :data:`CRITERIA_TOKENS` to evaluate on
    the simulated ensemble; ``measure`` overrides the stationary marginal
    used for expected hit counts (required for processes without a
    closed form).
    """

    process: ProcessSpec
    family: IntervalFamily
    n: int
    n_traj: int
    seed: int = 0
    checkpoints: tuple[int, ...] | None = None
    criteria: tuple[str, ...] = ()
    measure: MeasureOracle | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.checkpoints is None:
            self.checkpoints = tuple(log_grid(1, int(self.n)).tolist())
        else:
            self.checkpoints = tuple(int(c) for c in self.checkpoints)
        self.criteria = tuple(self.criteria)

    def validate(self):
        check_run(self.process, self.family, self.n, self.n_traj)
        if self.n < 100:
            raise ValueError("n must be >= 100")
        cps = np.asarray(self.checkpoints, dtype=np.int64)
        if cps.size == 0:
            raise ValueError("need at least one checkpoint")
        if cps[0] < 1 or cps[-1] > self.n or np.any(np.diff(cps) <= 0):
            raise ValueError(
                "checkpoints must be strictly increasing within [1, n]")
        bad = [t for t in self.criteria if t not in CRITERIA_TOKENS]
        if bad:
            raise ValueError(
                f"unknown criteria tokens {bad}; supported: {list(CRITERIA_TOKENS)}")
        if self.criteria and self.n_traj < 100:
            raise ValueError("criteria evaluation needs n_traj >= 100")

    def digest(self) -> str:
        """Hash of the experiment content; where it is written never enters."""
        return hashlib.sha256(_config_payload(self)).hexdigest()[:16]


JSON_CODECS[ExperimentConfig] = Codec("config", {None: ExperimentConfig})


def config_to_json(cfg: ExperimentConfig) -> dict:
    """config.json's document: each field of cfg (seqcore.to_json)."""
    return to_json(cfg)


def _config_payload(cfg: ExperimentConfig) -> bytes:
    """Canonical config bytes for digests: out_dir is presentation, not
    content, so it is stripped before hashing."""
    d = config_to_json(cfg)
    d.pop("out_dir", None)
    return json.dumps(d, sort_keys=True, separators=(",", ":")).encode()


def config_from_json(d: dict) -> ExperimentConfig:
    """The validated config whose JSON d is (seqcore.from_json)."""
    return from_json(d, ExperimentConfig)


def marginal_measure(cfg: ExperimentConfig) -> MeasureOracle:
    """Stationary marginal for expected hit counts.

    Explicit ``cfg.measure`` wins; otherwise iid, circle-walk, and every
    split chain (the sticky chain included) have closed forms, and the
    interval map's law is solved from its transfer operator once per gamma.
    """
    if cfg.measure is not None:
        return cfg.measure
    p = cfg.process
    if isinstance(p, IIDProcess):
        if p.marginal == "uniform":
            return LebesgueMeasure()
        return PowerMeasure(p.power)
    if isinstance(p, CircleRWProcess):
        return LebesgueMeasure()
    if isinstance(p, SplitChainProcess):
        return PowerMeasure(p.invariant_power())
    if isinstance(p, LSVProcess):
        return lsv_calibration(p.gamma)
    raise ValueError(
        f"no closed-form stationary marginal for variant {p.variant!r}; "
        f"set cfg.measure explicitly")


@dataclass
class ExperimentReport:
    """Run outputs: records, checkpoint statistics, criterion reports.

    All statistics are pure functions of (config, records); ``s_values``
    is the trajectory-by-checkpoint hit-count matrix.  ``hits.npy`` is
    streamed from the records' hit times to the digest and disk, unjoined.
    ``e_seq`` and ``mu_seq`` are E_n = mu(A_1) + ... + mu(A_n) and
    mu(A_n), kept at the checkpoints only (``e_checkpoints`` is E's
    values there) but fingerprinted as the tables over k = 1..n that the
    criteria read.  No array of length n is kept.
    """

    config: ExperimentConfig
    records: list
    checkpoints: np.ndarray
    e_checkpoints: np.ndarray
    s_values: np.ndarray
    mean_ratio: np.ndarray
    median_s: np.ndarray
    q10: np.ndarray
    q90: np.ndarray
    hit_frac_late: np.ndarray
    record_digests: list
    e_seq: SampledSeq = field(repr=False)
    mu_seq: SampledSeq = field(repr=False)
    criteria: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0
    timestamp: str = ""

    @property
    def ratios(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.e_checkpoints > 0,
                            self.s_values / self.e_checkpoints, np.nan)


_LINE = b'{"hit_count":%d,"renewal_count":%d,"restarts":%d,"trajectory":%d}'
_CANONICAL_LINE = re.compile(
    re.escape(_LINE).replace(b"%d", b"(0|[1-9][0-9]*)"))


def _index_line(rec: HitRecord) -> bytes:
    """rec's hits.jsonl index line, without the newline: compact JSON with
    sorted keys, byte for byte as json.dumps writes it.  The hit times
    themselves are stored in hits.npy."""
    return _LINE % (len(rec.hit_times), rec.renewal_count, rec.restarts,
                    rec.trajectory)


def _parse_index_line(line: bytes) -> tuple:
    """(hit_count, renewal_count, restarts, trajectory) of one hits.jsonl
    index line, which must be exactly as _index_line writes it; any other
    line, valid JSON or not, is a ValueError."""
    m = _CANONICAL_LINE.fullmatch(line)
    if m is None:
        raise ValueError(
            "not a hit record index as bclab writes it: compact JSON "
            "with sorted keys and counters >= 0")
    return tuple(int(v) for v in m.groups())


def hits_header(n: int, count: int) -> bytes:
    """The .npy 1.0 header of count hit times of an n-step run in
    hit_dtype(n), byte for byte as np.save writes it."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": np.lib.format.dtype_to_descr(hit_dtype(n)),
        "fortran_order": False, "shape": (count,)})
    return out.getvalue()


def _record_digests(records: list) -> list:
    """Per-record digests, each of the record's hits.jsonl index line and
    the bytes of its hit times in hits.npy."""
    hashes = [hashlib.sha256(_index_line(rec)) for rec in records]
    for h, rec in zip(hashes, records):
        h.update(rec.hit_times)
    return [h.hexdigest()[:16] for h in hashes]


def _index_payload(records: list) -> bytes:
    """hits.jsonl: each record's index line with its newline."""
    return b"".join(_index_line(rec) + b"\n" for rec in records)


def _npy_chunks(records: list, n: int):
    """hits.npy as the buffers it is written from: its header, then each
    record's hit times."""
    yield hits_header(n, sum(len(rec.hit_times) for rec in records))
    for rec in records:
        yield rec.hit_times


def _expected(cfg: ExperimentConfig, cps: np.ndarray) -> tuple:
    """(E, mu) at the checkpoints cps as SampledSeqs, from one walk over
    the family's masses in windows.  Each window's cumsum starts from the
    running sum carried into its first term, so E is np.cumsum of all n
    masses bit for bit."""
    e_tab, mu_tab = TableSampler(cps), TableSampler(cps)
    total = 0.0
    for _, w in cfg.family.windows(cfg.n, _WINDOW, marginal_measure(cfg)):
        mu_tab.add(w)
        w[0] += total
        np.cumsum(w, out=w)
        total = w[-1]
        e_tab.add(w)
    return e_tab.seq(), mu_tab.seq()


def report_from_records(cfg: ExperimentConfig, records: list,
                        wall_clock_s: float = 0.0,
                        timestamp: str = "") -> ExperimentReport:
    """Deterministic statistics pass over a run's records, which must be
    those simulate_ensemble returns and load_run reads back (their hit
    time values unchecked): else a ValueError naming the trajectory."""
    cfg.validate()
    ids = [rec.trajectory for rec in records]
    if ids != list(range(cfg.n_traj)):
        bad = next(i for i, t in enumerate([*ids, None])
                   if t != i or i >= cfg.n_traj)
        raise ValueError(f"trajectory {bad}: records must hold trajectories "
                         f"0..{cfg.n_traj - 1} in order, one each")
    dtype = hit_dtype(cfg.n)
    for i, rec in enumerate(records):
        ht, counters = rec.hit_times, (rec.renewal_count, rec.restarts)
        if not (ht.dtype == dtype and ht.ndim == 1 and ht.flags.c_contiguous
                and all(type(v) is int and v >= 0 for v in counters)):
            raise ValueError(f"trajectory {i}: hit times must be a "
                             f"C-contiguous 1-d array of {dtype.str}, "
                             f"renewal_count and restarts of type int, >= 0")
    cps = np.asarray(cfg.checkpoints, dtype=np.int64)
    e_seq, mu_seq = _expected(cfg, cps)
    e_cp = e_seq.values

    # S at each checkpoint and a decade before it: one search per record
    probes = np.concatenate((cps, cps // 10))
    at = np.empty((len(records), len(probes)), dtype=np.int64)
    for row, rec in zip(at, records):
        row[:] = np.searchsorted(rec.hit_times, probes, side="right")
    now, ago = np.split(at, 2, axis=1)
    s = now.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(e_cp > 0, s / e_cp, np.nan)
    mean_ratio = ratios.mean(axis=0)
    median_s = np.median(s, axis=0)
    q10 = np.quantile(ratios, 0.1, axis=0)
    q90 = np.quantile(ratios, 0.9, axis=0)
    hit_frac_late = (now > ago).mean(axis=0)

    criteria = {}
    if cfg.criteria:
        ens = PathEnsemble(cps, s)
        for token in cfg.criteria:
            mode = token[len("f-"):]
            criteria[token] = check_f_criteria(ens, e_seq, mode, mu_A=mu_seq)

    return ExperimentReport(
        config=cfg, records=records, checkpoints=cps, e_checkpoints=e_cp,
        s_values=s, mean_ratio=mean_ratio, median_s=median_s, q10=q10,
        q90=q90, hit_frac_late=hit_frac_late,
        record_digests=_record_digests(records), e_seq=e_seq,
        mu_seq=mu_seq,
        criteria=criteria, wall_clock_s=wall_clock_s, timestamp=timestamp,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Simulate the configured ensemble and compute every statistic."""
    cfg.validate()
    marginal_measure(cfg)  # fail, or solve for the law, before simulating
    t0 = time.perf_counter()
    records = simulate_ensemble(cfg.process, cfg.family, cfg.n, cfg.seed,
                                cfg.n_traj)
    wall = time.perf_counter() - t0
    stamp = datetime.now(timezone.utc).isoformat()
    return report_from_records(cfg, records, wall_clock_s=wall,
                               timestamp=stamp)


# ---------------------------------------------------------------------------
# Verdict aggregation


@dataclass
class Verdict:
    prediction: str
    passed: bool
    margins: dict
    reason: str


def _decade_ago_index(cps: np.ndarray):
    idx = np.nonzero(cps <= cps[-1] // 10)[0]
    return int(idx[-1]) if idx.size else None


def aggregate_verdict(report: ExperimentReport, prediction: str) -> Verdict:
    """Judge a finished run against a predicted limit behaviour.

    BC: the median hit count must grow monotonically and gain at least
    one hit over the last decade.  not-BC: the late-window hit fraction
    must stay at or below 0.10.  L1BC: the mean absolute ratio deviation
    must shrink by a decade factor of 0.9.  SBC: final per-trajectory
    ratios must concentrate (mean in [0.8, 1.2], 10-90 quantiles in
    [0.5, 1.5]).  Missing statistics fail with a reason; they never pass
    silently.
    """
    if prediction not in ("BC", "not-BC", "L1BC", "SBC"):
        raise ValueError(f"unknown prediction {prediction!r}")
    cps = report.checkpoints

    if prediction == "not-BC":
        frac = float(report.hit_frac_late[-1])
        return Verdict(prediction, frac <= LATE_HIT_MAX,
                       {"late_hit_fraction": frac, "threshold": LATE_HIT_MAX},
                       f"late-window hit fraction {frac:.4f}")

    i10 = _decade_ago_index(cps)
    if prediction == "BC":
        if i10 is None:
            return Verdict(prediction, False, {},
                           "checkpoints span less than one decade")
        med = report.median_s
        growth = float(med[-1] - med[i10])
        min_step = float(np.min(np.diff(med))) if len(med) > 1 else 0.0
        ok = min_step >= 0 and growth >= BC_MIN_GROWTH
        return Verdict(prediction, ok,
                       {"median_growth_last_decade": growth,
                        "min_median_step": min_step,
                        "threshold": BC_MIN_GROWTH},
                       f"median hit count grew by {growth:.1f} over the last decade")

    if not np.all(report.e_checkpoints > 0):
        return Verdict(prediction, False, {},
                       "expected hit count vanishes at some checkpoint")

    if prediction == "L1BC":
        if i10 is None:
            return Verdict(prediction, False, {},
                           "checkpoints span less than one decade")
        dev = np.abs(report.ratios - 1.0).mean(axis=0)
        final, ago = float(dev[-1]), float(dev[i10])
        ok = np.isfinite(final) and np.isfinite(ago) and final <= L1_DECAY_FACTOR * ago
        return Verdict(prediction, ok,
                       {"final_mean_deviation": final,
                        "decade_ago_mean_deviation": ago,
                        "decay_factor": L1_DECAY_FACTOR},
                       f"mean |ratio - 1| went {ago:.4f} -> {final:.4f}")

    mean = float(report.mean_ratio[-1])
    lo, hi = float(report.q10[-1]), float(report.q90[-1])
    ok = (SBC_MEAN_BAND[0] <= mean <= SBC_MEAN_BAND[1]
          and lo >= SBC_QUANTILE_BAND[0] and hi <= SBC_QUANTILE_BAND[1])
    return Verdict(prediction, ok,
                   {"final_mean_ratio": mean, "final_q10": lo, "final_q90": hi,
                    "mean_band": list(SBC_MEAN_BAND),
                    "quantile_band": list(SBC_QUANTILE_BAND)},
                   f"final ratios: mean {mean:.4f}, q10 {lo:.4f}, q90 {hi:.4f}")


# ---------------------------------------------------------------------------
# Persistence


def _summary_rows(report: ExperimentReport):
    rows = []
    for j, c in enumerate(report.checkpoints):
        rows.append([
            int(c),
            float(report.mean_ratio[j]),
            float(report.median_s[j]),
            float(report.q10[j]),
            float(report.q90[j]),
            float(report.hit_frac_late[j]),
        ])
    return rows


def _csv_payload(report: ExperimentReport) -> bytes:
    out = ["checkpoint,mean_ratio,median_S,q10,q90,hit_frac_late"]
    for row in _summary_rows(report):
        out.append(",".join([str(row[0])] + [repr(v) for v in row[1:]]))
    return ("\n".join(out) + "\n").encode()


def _criteria_payload(report: ExperimentReport, digest: str = None) -> bytes:
    doc = {
        "config_digest": report.config.digest(),
        "record_digests": report.record_digests,
        "criteria": {tok: json.loads(rep.to_json())
                     for tok, rep in sorted(report.criteria.items())},
        "verdicts": {tok: rep.verdict
                     for tok, rep in sorted(report.criteria.items())},
    }
    if digest is not None:
        doc["run_digest"] = digest
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def run_digest(report: ExperimentReport) -> str:
    """Digest of the reproducible payload (records, stats, criteria).

    Timestamps, wall-clock, and the output location never enter, so
    re-running an identical config or recomputing from persisted records
    reproduces it exactly.
    """
    h = hashlib.sha256()
    h.update(_config_payload(report.config))
    h.update(_index_payload(report.records))
    for chunk in _npy_chunks(report.records, report.config.n):
        h.update(chunk)
    h.update(_csv_payload(report))
    h.update(_criteria_payload(report))
    return h.hexdigest()


def _md_payload(report: ExperimentReport, digest: str) -> bytes:
    cfg = report.config
    lines = [
        "# Run summary",
        "",
        f"- process: `{to_json(cfg.process)}`",
        f"- family: `{to_json(cfg.family)}`",
        f"- horizon n = {cfg.n}, trajectories N = {cfg.n_traj}, seed = {cfg.seed}",
        f"- run digest: `{digest}`",
        f"- wall clock: {report.wall_clock_s:.2f} s",
        f"- timestamp: {report.timestamp}",
        "",
        "## Checkpoint statistics",
        "",
        "| checkpoint | mean ratio | median S | q10 | q90 | late hit frac |",
        "|---|---|---|---|---|---|",
    ]
    for row in _summary_rows(report):
        lines.append("| " + " | ".join(
            [str(row[0])] + [f"{v:.6g}" for v in row[1:]]) + " |")
    lines += ["", "## Criterion verdicts", ""]
    if report.criteria:
        lines += ["| criterion | verdict | first failure |", "|---|---|---|"]
        for tok, rep in sorted(report.criteria.items()):
            first = rep.diagnostics.get("first_failure") or "-"
            lines.append(f"| {rep.criterion} | {rep.verdict} | {first} |")
    else:
        lines.append("(no criteria requested)")
    return ("\n".join(lines) + "\n").encode()


def _read_json(path):
    """The JSON document in a file; one nested too deeply to parse is a
    ValueError, as any other malformed document is."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nests too deeply") from None


def _prior_manifest(out: Path) -> dict:
    """manifest.json already in out, or {} when it is missing or unreadable
    or its "complete" is not an object of file hashes as strings."""
    try:
        doc = _read_json(out / "manifest.json")
    except (OSError, ValueError):
        return {}
    complete = doc.get("complete", {}) if isinstance(doc, dict) else None
    if not (isinstance(complete, dict)
            and all(isinstance(v, str) for v in complete.values())):
        return {}
    return doc


def _write_chunks(path: Path, chunks) -> str:
    """Write the byte strings chunks to path in turn; the sha256 of the
    file they make."""
    h = hashlib.sha256()
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
            h.update(chunk)
    return h.hexdigest()


def emit_report(report: ExperimentReport, out_dir=None,
                formats=("csv", "jsonl", "md")) -> dict:
    """Write run artifacts; returns {name: path} plus the run digest.

    ``config.json`` and ``criteria.json`` are always written; formats
    select ``summary.csv``, ``summary.md`` and, with "jsonl", the records'
    ``hits.jsonl`` index and ``hits.npy``, written record by record.
    ``manifest.json`` holds the sha256 of each file, the run digest, the
    wall clock and the timestamp; the hashes of files this call does not
    rewrite are kept when the manifest already there records the same run
    digest.  A failed write leaves ``manifest.json`` describing the
    partial results and raises OSError naming them.
    """
    out = out_dir or report.config.out_dir
    if not out:
        raise ValueError("no output directory configured")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    unknown = [f for f in formats if f not in ("csv", "jsonl", "md")]
    if unknown:
        raise ValueError(f"unknown report formats {unknown}")

    digest = run_digest(report)
    # each file as the byte strings it is written from
    payloads = {"config.json": [(json.dumps(config_to_json(report.config),
                                            sort_keys=True, indent=2)
                                 + "\n").encode()],
                "criteria.json": [_criteria_payload(report, digest)]}
    if "jsonl" in formats:
        payloads["hits.jsonl"] = [_index_payload(report.records)]
        payloads["hits.npy"] = _npy_chunks(report.records, report.config.n)
    if "csv" in formats:
        payloads["summary.csv"] = [_csv_payload(report)]
    if "md" in formats:
        payloads["summary.md"] = [_md_payload(report, digest)]

    prior = _prior_manifest(out)
    written = (dict(prior.get("complete", {}))
               if prior.get("run_digest") == digest else {})
    manifest = {"complete": written, "run_digest": digest,
                "wall_clock_s": report.wall_clock_s,
                "timestamp": report.timestamp}
    try:
        for name, chunks in payloads.items():
            written[name] = _write_chunks(out / name, chunks)
    except OSError as e:
        manifest.update(failed=name, error=str(e))
        try:
            (out / "manifest.json").write_text(
                json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        except OSError:
            pass
        raise OSError(
            f"partial results in {out}: failed writing {name}: {e}") from e
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    paths = {name: str(out / name) for name in payloads}
    paths["digest"] = digest
    return paths


def _first_bad(hits, ends, n):
    """The first trajectory i whose hit times, hits[ends[i - 1]:ends[i]],
    are not strictly increasing within [1, n], or None; _CHECK at a time."""
    # pairs (i, i + 1) that straddle two trajectories may fall
    straddle = ends[:-1][(ends[:-1] > 0) & (ends[:-1] < len(hits))] - 1
    for lo in range(0, len(hits), _CHECK):
        block = hits[lo:lo + _CHECK + 1]  # and the next block's first
        rise = block[1:] > block[:-1]
        rise[straddle[(straddle >= lo) & (straddle < lo + _CHECK)] - lo] = True
        if not (rise.all() and block.min() >= 1 and block.max() <= n):
            bad = (block < 1) | (block > n)
            bad[1:] |= ~rise
            return np.searchsorted(ends, lo + np.argmax(bad), side="right")
    return None


def load_run(run_dir) -> tuple:
    """(config, records) back from a persisted run directory.

    hits.jsonl must hold n_traj lines in trajectory order, each as
    _index_line writes it, and hits.npy exactly what emit_report
    writes for their hit counts: hits_header(n, total), then each
    trajectory's hit times, strictly increasing within [1, n].  The
    records' hit times are read-only views of one read of hits.npy.
    """
    run_dir = Path(run_dir)
    cfg_path, index_path, npy_path = (
        run_dir / name for name in ("config.json", "hits.jsonl", "hits.npy"))
    for path in (cfg_path, index_path, npy_path):
        if not path.exists():
            raise ValueError(f"{run_dir} has no {path.name}")
    cfg = config_from_json(_read_json(cfg_path))
    *lines, last = index_path.read_bytes().split(b"\n")
    if last:
        raise ValueError(f"{index_path} line {len(lines) + 1}: no final newline")
    fields = []
    for i, line in enumerate(lines, 1):
        try:
            fields.append(_parse_index_line(line))
        except ValueError as e:
            raise ValueError(f"{index_path} line {i}: {e}") from None
    if [f[3] for f in fields] != list(range(cfg.n_traj)):
        raise ValueError(f"{index_path} must hold trajectories "
                         f"0..{cfg.n_traj - 1} in order, one per line")
    counts, renewals, restarts, trajectories = zip(*fields)
    data, dtype = npy_path.read_bytes(), hit_dtype(cfg.n)
    ends = list(accumulate(counts))
    header = hits_header(cfg.n, ends[-1])
    body = len(data) - len(header)
    held = body // dtype.itemsize
    # the header for the counts' total, or for the hit times the file holds
    if data[:len(header)] not in (header, hits_header(cfg.n, held)):
        raise ValueError(f"{npy_path} header: not the one bclab writes for "
                         f"{ends[-1]} hit times, .npy 1.0 of {dtype.str}")
    if body != ends[-1] * dtype.itemsize:  # named: the first line past held
        line = next((i for i, e in enumerate(ends, 1) if e > held), len(ends))
        raise ValueError(f"{index_path} line {line}: the hit counts sum to "
                         f"{ends[-1]}; {npy_path.name} holds {body} bytes")
    hits = np.frombuffer(data, dtype, ends[-1], len(header))
    bad = _first_bad(hits, np.array(ends, dtype=np.int64), cfg.n)
    if bad is not None:
        raise ValueError(f"{index_path} line {bad + 1}: hit times must be "
                         f"strictly increasing within [1, {cfg.n}]")
    return cfg, packed_records(trajectories, hits, counts, renewals,
                               restarts)

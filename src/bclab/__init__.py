"""Finite-horizon limit-behaviour experiments for hit counts.

Subpackages
-----------
``seqcore``
    Real sequences with closed-form and tabulated backends, and partial
    sums.
``intervals``
    Intervals on the line and the torus, measure oracles, nested and
    consecutive families, disjointification, the limsup probe.
``processes``
    Stationary process simulators (iid, interval map, circle walk,
    regenerative chains), hit records, and the ensemble driver.
``mixing``
    Dependence-decay profiles: analytic series, kernel-grid estimates,
    and closed-form envelopes.
``criteria``
    Evaluators mapping decay profiles and mass sequences to verdicts on
    hit-count limit behaviour.
``harness``
    Experiment configuration, execution, persistence, and verdict
    aggregation; the CLI lives in ``bclab.cli``.
"""

from .criteria import (
    CriterionReport,
    PathEnsemble,
    check_alpha,
    check_beta_strong,
    check_f_criteria,
    check_l2,
    check_pairwise,
    check_renewal_nested,
    check_tilde,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    Verdict,
    aggregate_verdict,
    config_from_json,
    config_to_json,
    emit_report,
    load_run,
    run_digest,
    run_experiment,
)
from .intervals import (
    CustomFamily,
    Interval,
    IntervalFamily,
    LebesgueMeasure,
    NestedLeftFamily,
    NestedWindowFamily,
    PowerMeasure,
    TabulatedCdfMeasure,
    TorusConsecutiveFamily,
    disjointify,
    limsup_probe,
)
from .mixing import (
    MixingProfile,
    circle_profile,
    circle_tilde_beta,
    dmr_beta_bounds,
    dmr_beta_profile,
    kernel_tilde_beta,
)
from .processes import (
    CircleRWProcess,
    DMRProcess,
    HitRecord,
    IIDProcess,
    LSVProcess,
    lsv_calibration,
    simulate_ensemble,
)
from .seqcore import (
    GeometricSeq,
    PowerLogSeq,
    RealSeq,
    TabulatedSeq,
    constant_seq,
    huber,
    log_grid,
    partial_sums,
    power_seq,
)

__version__ = "0.1.0"

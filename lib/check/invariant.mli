(** The invariant catalogue: executable cross-checks between independent
    implementations of the same quantity.

    Every invariant is {e one-sided (sound)}: it only flags
    contradictions that are bugs under any reading of the paper —
    disagreement between two derivations of the same number, a
    refutation whose recount does not reproduce its own witness, a
    parallel run that differs from the sequential one.  None of them
    asserts completeness claims (e.g. "λ just below the bound must be
    refuted on this horizon"), which are false at finite horizons.

    The catalogue (ids as reported in violations):

    - [prng.smoke] — bounded draws in range, unit floats in [0, 1),
      split streams pairwise distinct from the parent's.
    - [engine.fixed_vs_worst] — {!Search_sim.Engine.detection_time_worst}
      equals the max of [detection_time_fixed] over every C(k, f) fault
      assignment (exhaustive; for oversized hand-written cases, sampled
      plus the adversarial assignment).
    - [engine.monotone_in_f] — worst-case detection time is
      nondecreasing in the fault budget.
    - [byzantine.conservative_rule] — announcement-level simulation with
      valid lie schedules confirms exactly at the crash-model worst case
      with [2 f] tolerated faults, and never confirms a false place.
    - [sim.ratio_within_design] — the adversary's empirical ratio over
      the window stays within the strategy's designed ratio (and >= 1).
    - [strategy.coverage_theorem] — the exponential strategy's integer
      residue count certifies (f+1)-fold coverage; its predicted ratio
      matches the closed-form appendix formula and dominates [lambda0].
    - [covering.cert_consistency] — a [Refuted_gap] recounts to the same
      under-coverage by pointwise {!Search_numerics.Sweep.multiplicity_at};
      a [Not_refuted] window re-verifies, as does its half sub-window.
    - [covering.profile_vs_pointwise] — the sweep's piecewise coverage
      profile partitions the window and agrees with pointwise counting
      at every piece midpoint; [min_multiplicity] agrees with the
      profile minimum.
    - [normalize.monotone_coverage] — dropping unfruitful turns never
      loses λ-coverage; normalised turns are a subsequence of the
      original; the line variant is nondecreasing.
    - [stochastic.oracles] — a point mass reproduces the worst-case
      detection time exactly; the Beck quotient lies between the
      pointwise detection-ratio extremes of the support.
    - [exec.jobs_invariance] — a sharded stochastic map over the case is
      bit-identical at pool sizes 1 and 3.
    - [analysis.self_clean] — the {!Search_analysis} lint, every rule
      family, over the repository's own sources and build artefacts
      reports no findings beyond the checked-in [lint.allow] and
      [lint.budget] entries; a source with no up-to-date artefact is a
      violation.  Evaluated once per process (the verdict is
      case-independent); vacuously satisfied when the source tree, or
      the [_build] tree next to it, is not reachable from the working
      directory. *)

type violation = { invariant : string; detail : string }

val names : unit -> string list
(** Catalogue ids in evaluation order, then registered extension ids
    sorted by name. *)

val register : name:string -> (Case.t -> string list) -> unit
(** Add (or replace, keyed by [name]) an extension invariant.  Layers
    that sit {e above} this library in the dependency graph — e.g. the
    deterministic whole-system simulator, which links the server — hook
    into the fuzz catalogue here at startup instead of being referenced
    directly (which would be a dependency cycle).  Extensions receive
    the raw case (no [ctx]) and run after the built-in catalogue, in
    name order. *)

val check_case : Case.t -> violation list
(** Run the whole catalogue (plus registered extensions) on one case.
    Deterministic: the violation list (contents and order) is a pure
    function of the case and the registered extension set.  An
    invariant that raises an unexpected exception is itself reported as
    a violation; an invalid case yields a single [case.valid]
    violation. *)

val pp_violation : Format.formatter -> violation -> unit

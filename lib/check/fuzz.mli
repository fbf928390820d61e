(** The fuzzing driver: generate, check, shrink, report.

    One run is a pure function of [(seed, cases)].  Cases are checked
    across a domain pool with the PR's deterministic-parallelism
    contract (order-preserving map, per-case split-tree generators), so
    the outcome — and the rendered report, which deliberately contains
    no timing or job-count information — is byte-identical at every
    [jobs] value. *)

type failure = {
  original : Case.t;  (** as generated *)
  shrunk : Case.t;  (** after greedy minimisation *)
  violations : Invariant.violation list;  (** of the shrunk case *)
}

type outcome = { seed : int; cases : int; failures : failure list }

val run :
  ?jobs:int ->
  ?chaos:Search_resilience.Chaos.t ->
  ?attempts:int ->
  ?journal_dir:string ->
  seed:int ->
  cases:int ->
  unit ->
  outcome
(** Generate [cases] cases from [seed], run the invariant catalogue on
    each (sharded over [jobs] domains, default [Pool.default_jobs ()]),
    and shrink every failing case.

    The campaign runs under the supervised runtime: [chaos] injects
    deterministic faults per case, and [attempts] (default 1) is the
    total number of tries per case (more than [Chaos.max_faults]
    reproduces the fault-free outcome exactly);
    [journal_dir] checkpoints each completed case so a killed campaign
    resumes instead of restarting (the journal is deleted when the run
    completes).  A case the supervisor cannot complete surfaces as a
    failure with the pseudo-invariant ["runtime.supervised"] and is not
    shrunk. *)

val report : outcome -> string
(** Deterministic human-readable summary: header, one block per failure
    (shrunk case JSON plus its violations), final verdict line. *)

val save_failures : dir:string -> outcome -> string list
(** Write every failure's shrunk case to the corpus directory; returns
    the paths. *)

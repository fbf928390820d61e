(** The lint driver: discover, load, check, filter, render.

    Determinism contract (same as the rest of the repo): the outcome —
    including the rendered bytes — is a pure function of the source
    tree, the rule selection and the allowlist.  File discovery is
    sorted, findings are totally ordered ({!Finding.compare}), and the
    parallel map preserves input order, so [--jobs 1] and [--jobs 8]
    emit identical reports. *)

type outcome = {
  findings : Finding.t list;  (** surviving findings, sorted *)
  suppressed : int;  (** findings removed by the allowlist *)
  files : int;  (** source files scanned *)
  units : int;  (** compiled implementation units in the call graph *)
  stale : (string * string * int) list;
      (** allow entries (rule, path, lint.allow line) in scope for this
          run that matched no finding *)
  budget_stale : (string * int) list;
      (** [lint.budget] entries (name, line) naming no current [@hot]
          root (empty when [rules] leaves out [hotpath-alloc]) *)
}

val default_dirs : string list
(** [["bench"; "bin"; "lib"; "test"]] — the linted roots. *)

val load_allow : root:string -> (Allow.t, string) result
(** Read [root/lint.allow] (missing file = empty allowlist). *)

val load_budget : root:string -> (Budget.t, string) result
(** Read [root/lint.budget] (missing file = every [@hot] root budgets
    at zero). *)

val run :
  ?jobs:int ->
  ?rules:string list ->
  ?dirs:string list ->
  ?allow:Allow.t ->
  ?budget:Budget.t ->
  root:string ->
  unit ->
  outcome
(** Lint every [.ml]/[.mli] under [root/dir] for [dir] in [dirs]
    (default {!default_dirs}) through the [.cmt]/[.cmti] artefacts dune
    emitted for it: every rule family in {!Catalogue}, over one call
    graph.  A source with no artefact, or whose artefact was compiled
    from other contents, is a [cmt-load] finding.  [rules] keeps only
    the given catalogued ids (unknown ids raise [Invalid_argument]);
    [cmt-load] findings are always kept.  [budget] is the hot-path
    allocation budget ([lint.budget]); [deep-nondet] entries of [allow]
    are also taint barriers.  [jobs] sizes the {!Search_exec.Pool} the
    loads and walks fan out across. *)

val exit_code : ?strict:bool -> outcome -> int
(** The lint exit-code contract (same scheme as the CLI at large):
    0 clean / 1 verified finding / 3 internal — a [cmt-load] finding
    means the tree itself could not be analysed.  With [strict], stale
    allowlist and budget entries also exit 1.  (2 — usage — is the
    argument parser's, not the driver's.) *)

val render_text : outcome -> string
(** Table of findings (via {!Search_numerics.Table}) plus a summary
    line. *)

val render_json : outcome -> string
(** [{"files": .., "units": .., "suppressed": .., "findings": [..],
    "stale": [..]}], pretty, trailing newline; findings round-trip
    through {!Finding.of_json}. *)

val render_github : outcome -> string
(** GitHub Actions workflow commands: one
    [::error file=..,line=..,col=..::[rule] message] annotation per
    finding (stale entries as [::warning] on [lint.allow]), then the
    summary line. *)

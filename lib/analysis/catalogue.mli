(** The exhaustive rule catalogue: every rule id any analysis family
    can emit, in one place.  Backs the [--rules] listing and filter and
    the stale-allowlist check; a test pins that every emitted rule name
    is catalogued. *)

type family =
  | Local  (** per-unit rules ({!Rules}) *)
  | Deep  (** taint / lockset / lock-order *)
  | Hotpath  (** allocation budgets / blocking *)
  | Escape  (** exception flow / leaks / sim hygiene *)
  | Internal  (** analysis-failure pseudo-rules (exit code 3) *)

type entry = { id : string; family : family; doc : string }

val all : entry list
(** {!Rules.all} first (in order), then the interprocedural families,
    then the internal pseudo-rule. *)

val find : string -> entry option
val is_internal : string -> bool
val family_to_string : family -> string

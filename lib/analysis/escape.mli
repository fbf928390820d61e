(** The escape analysis family over the call graph: exception flow
    ([escape-exn]), resource-release discipline ([escape-leak]) and
    simulation hygiene ([escape-realio]), each with witness chains.
    See the implementation header for the exact contracts. *)

val rule_ids : string list
(** The rule identifiers this family can emit. *)

val sanctioned_escapes : string list
(** Exception constructors allowed to escape a boundary:
    [Search_error.Error] plus the fail-fast precondition pair
    [Invalid_argument]/[Assert_failure] (folded into the taxonomy by
    [Search_error.classify] at supervision boundaries). *)

val realio_names : string list
(** Display names of the real-world primitives the sim-hygiene rule
    bans ([Unix] socket/clock/sleep family, [Thread.delay],
    [Sys.time]). *)

val findings :
  exports:(string * string list) list -> Callgraph.t -> Finding.t list
(** All three rule groups.  [exports] maps compilation-unit names to
    their [.mli]-exported dotted value names (from
    {!Cmt_loader.exports}); a [lib/] unit absent from the list
    is treated as fully public.  Byte-identical at any job count. *)

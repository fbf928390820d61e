(** The per-unit rules: one walk over each unit's Typedtree, plus two
    tree-wide checks.

    Rules see resolved paths and instantiated types: [compare] is the
    Stdlib one only if it resolves to [Stdlib.compare], and
    [poly-compare] decides by the operand type, not by its spelling.
    Rules are derived from this repo's actual failure modes, and their
    union with the interprocedural families ({!Catalogue}) is the
    project's determinism and numeric-safety contract.

    Rule ids (stable, used in findings and [lint.allow]):
    - [poly-compare] — [Stdlib]'s [compare]/[=]/[<>]/... at an operand
      type where structural comparison is not exact (in [lib/]: anything
      but [int]/[char]/[bool]/[unit]/[string]/[int32]/[int64]/
      [nativeint] and options, lists, arrays and tuples of them;
      elsewhere: float-carrying or tuple types), ordering on tuples,
      [min]/[max] on floats; a comparison against a constant
      constructor is always exact
    - [float-hygiene] — NaN literals, unguarded [float_of_string], [/. 0.]
    - [lock-discipline] — bare [Mutex.lock]/[unlock]
    - [unsafe-ops] — [Obj.magic], [unsafe_get]/[set], [%identity]
      externals (in [.ml] and [.mli])
    - [output-discipline] — direct stdout/stderr printing inside [lib/]
    - [mli-coverage] — [lib/] modules without an interface file
    - [closed-variant-wildcard] — catch-all [_] in matches on closed
      domain variants
    - [global-mutable-state] — top-level refs/tables in [lib/] *)

type rule = {
  id : string;
  severity : Finding.severity;
  doc : string;  (** one-line description for [--rules] listings *)
  applies : string -> bool;  (** path scope, e.g. [lib/] only *)
}

val all : rule list
(** The registry, in reporting order. *)

val check_unit : file:string -> Cmt_loader.annots -> Finding.t list
(** Every per-unit rule whose scope accepts [file], in one walk over
    the unit compiled from [file].  Unsorted. *)

val check_tree : sources:string list -> Callgraph.t -> Finding.t list
(** The tree-wide rules: [mli-coverage] (an [x.ml] with no [x.mli] in
    [sources]) and [global-mutable-state] (one warning per
    {!Callgraph} cell in a scoped file).  Unsorted. *)

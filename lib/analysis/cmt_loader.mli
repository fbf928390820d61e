(** Discovery and loading of the typed artefacts ([.cmt]/[.cmti]) dune
    emits, and the check that they match the sources on disk.

    Every lint rule needs resolved names and types — which entity a
    spelling refers to after module aliases, [open]s and the library
    wrapper module, and what type an operand has — so the linter reads
    the Typedtree stored in these artefacts rather than parsing
    sources.  Locations inside still point at the original
    repo-relative source files. *)

type annots =
  | Impl of Typedtree.structure  (** a [.cmt] of a [.ml] *)
  | Intf of Typedtree.signature  (** a [.cmti] of a [.mli] *)
  | Other  (** packs and partial (ill-typed) artefacts *)

type unit_info = {
  cmt_path : string;  (** relative to the build dir *)
  modname : string;  (** compilation-unit name, e.g. ["Search_exec__Pool"] *)
  source : string option;
      (** repo-relative source recorded at compile time, when any *)
  digest : Digest.t option;  (** digest of that source at compile time *)
  annots : annots;
}

val build_dir : root:string -> string
(** [_build/default] under [root] when present (a checkout), otherwise
    [root] itself (already inside a build context, as under the
    [@lint] alias). *)

val discover_sources : root:string -> dirs:string list -> string list
(** All [.ml]/[.mli] files under [root/dir] for each [dir], as sorted
    root-relative paths.  Directories named [_build], [_opam] or
    starting with ['.'] are skipped; a missing [dir] contributes
    nothing. *)

val discover : build_dir:string -> dirs:string list -> string list
(** All [.cmt]/[.cmti] paths under [dirs], sorted; relative to
    [build_dir]. *)

val load : build_dir:string -> string -> (unit_info, Finding.t) result
(** Load one artefact.  Serialised internally (compiler-libs
    unmarshalling is not known to be domain-safe); failures become a
    [cmt-load] finding, which the driver classifies as internal. *)

val match_sources :
  root:string ->
  sources:string list ->
  unit_info list ->
  unit_info list * unit_info list * Finding.t list
(** Pair every source with its artefact.  Returns the artefacts of
    [sources] (one per source, in source order), the generated units
    with no source of their own (dune's [*.ml-gen] wrappers, which hold
    the library alias tables), and a [cmt-load] finding for every
    source with no artefact or whose artefact was compiled from
    different contents ([cmt_source_digest] against the file on disk).
    Artefacts of files that are no longer in [sources] are dropped. *)

val dedup : unit_info list -> unit_info list
(** Keep the first unit per compilation-unit name (input order). *)

val exports : unit_info -> (string * string list) option
(** [(modname, exported dotted value names)] of an interface unit: the
    type-checked signature's [Sig_value] names, recursing into plain
    submodule signatures ([include module type of ...] is already
    expanded there).  Module aliases and abstract module types are
    skipped — the export set is an under-approximation, which only
    makes the exception-flow pass quieter.  [None] for anything but an
    interface. *)

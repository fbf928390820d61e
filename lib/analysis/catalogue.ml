(* The exhaustive rule catalogue across all four analysis families
   plus the driver's internal pseudo-rule.  Single source of truth for
   `--rules` listings and for the stale-allowlist check: a rule id
   emitted anywhere but absent here is a bug (pinned by a test), and an
   allowlist entry naming an uncatalogued rule is stale by
   definition. *)

type family = Local | Deep | Hotpath | Escape | Internal

type entry = { id : string; family : family; doc : string }

let family_to_string = function
  | Local -> "local"
  | Deep -> "deep"
  | Hotpath -> "hotpath"
  | Escape -> "escape"
  | Internal -> "internal"

let typed_entries =
  [
    {
      id = "deep-nondet";
      family = Deep;
      doc =
        "def reaches ambient nondeterminism (Random.*, wall clocks, \
         representation hashing, Domain.self), directly or by a call chain";
    };
    {
      id = "deep-race";
      family = Deep;
      doc = "shared mutable cell written from pooled code without a consistent lock";
    };
    {
      id = "deep-lock-order";
      family = Deep;
      doc = "cycle in the lock acquisition order graph";
    };
    {
      id = "hotpath-alloc";
      family = Hotpath;
      doc = "allocation sites reachable from a [@hot] root exceed its lint.budget";
    };
    {
      id = "hotpath-blocking";
      family = Hotpath;
      doc = "blocking primitive reachable from an [@event_loop] root";
    };
    {
      id = "escape-exn";
      family = Escape;
      doc =
        "exception other than Search_error.Error (or the fail-fast \
         Invalid_argument/Assert_failure pair) escapes a public boundary";
    };
    {
      id = "escape-leak";
      family = Escape;
      doc =
        "acquisition site with no release on raising paths and no [@releases] audit";
    };
    {
      id = "escape-realio";
      family = Escape;
      doc = "real Unix socket/clock/sleep primitive reachable from the sim seam";
    };
    {
      id = "cmt-load";
      family = Internal;
      doc =
        "source with no loadable, up-to-date .cmt/.cmti artefact (build with \
         dune build @check and rerun)";
    };
  ]

let all =
  List.map
    (fun (r : Rules.rule) ->
      { id = r.Rules.id; family = Local; doc = r.Rules.doc })
    Rules.all
  @ typed_entries

let find id = List.find_opt (fun e -> String.equal e.id id) all

let is_internal id =
  match find id with
  | Some { family = Internal; _ } -> true
  | Some { family = Local | Deep | Hotpath | Escape; _ } | None -> false

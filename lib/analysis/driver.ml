module Table = Search_numerics.Table
module Json = Search_numerics.Json
module Pool = Search_exec.Pool
module Par = Search_exec.Par

type outcome = {
  findings : Finding.t list;
  suppressed : int;
  files : int;
  units : int;
  stale : (string * string * int) list;
  budget_stale : (string * int) list;
}

let default_dirs = [ "bench"; "bin"; "lib"; "test" ]

let load_allow ~root = Allow.load (Filename.concat root "lint.allow")
let load_budget ~root = Budget.load (Filename.concat root "lint.budget")

let validate_rules = function
  | None -> ()
  | Some ids ->
      List.iter
        (fun id ->
          if Option.is_none (Catalogue.find id) then
            invalid_arg
              (Printf.sprintf "Driver.run: unknown rule %S (known: %s)" id
                 (String.concat ", "
                    (List.map (fun e -> e.Catalogue.id) Catalogue.all))))
        ids

(* One pipeline for every family: load the artefacts, pair them with
   the sources, walk each fresh unit once for the per-unit rules, build
   the call graph once for the interprocedural families.  Loads are
   serialised (compiler-libs unmarshalling); the walks and summaries are
   order-preserving parallel maps over immutable Typedtree data, and the
   global passes fold over sorted names — so the findings are
   byte-identical at any pool size. *)
let analyse ~pool ~allow ~budget ~dirs ~root sources =
  let build_dir = Cmt_loader.build_dir ~root in
  let loaded =
    Par.parallel_map pool
      (Cmt_loader.discover ~build_dir ~dirs)
      ~f:(Cmt_loader.load ~build_dir)
  in
  let fresh, generated, unpaired =
    Cmt_loader.match_sources ~root ~sources
      (List.filter_map Result.to_option loaded)
  in
  let impls, intfs =
    List.partition
      (fun u ->
        match u.Cmt_loader.annots with
        | Cmt_loader.Impl _ -> true
        | Cmt_loader.Intf _ | Cmt_loader.Other -> false)
      (fresh @ generated)
  in
  let impls = Cmt_loader.dedup impls in
  let graph =
    Callgraph.build (Par.parallel_map pool impls ~f:Callgraph.summarize)
  in
  let local =
    Par.parallel_map pool fresh ~f:(fun u ->
        match u.Cmt_loader.source with
        | Some file -> Rules.check_unit ~file u.Cmt_loader.annots
        | None -> [])
  in
  let audited file = Allow.permits allow ~rule:"deep-nondet" ~file in
  let exports = List.filter_map Cmt_loader.exports intfs in
  let findings =
    List.filter_map (function Error f -> Some f | Ok _ -> None) loaded
    @ unpaired @ List.concat local
    @ Rules.check_tree ~sources graph
    @ Taint.findings ~audited graph
    @ Lockset.findings graph
    @ Hotpath.findings ~budget graph
    @ Escape.findings ~exports graph
  in
  (findings, List.length impls, Hotpath.stale_budget ~budget graph)

let run ?jobs ?rules ?(dirs = default_dirs) ?(allow = Allow.empty)
    ?(budget = Budget.empty) ~root () =
  validate_rules rules;
  (* internal findings mean the tree could not be analysed: never
     filtered away *)
  let selected id =
    Catalogue.is_internal id
    || match rules with None -> true | Some ids -> List.mem id ids
  in
  let sources = Cmt_loader.discover_sources ~root ~dirs in
  let findings, units, budget_stale =
    Pool.with_pool ?jobs @@ fun pool ->
    analyse ~pool ~allow ~budget ~dirs ~root sources
  in
  let all =
    List.sort_uniq Finding.compare
      (List.filter (fun f -> selected f.Finding.rule) findings)
  in
  let kept, dropped =
    List.partition
      (fun f ->
        not (Allow.permits allow ~rule:f.Finding.rule ~file:f.Finding.file))
      all
  in
  {
    findings = kept;
    suppressed = List.length dropped;
    files = List.length sources;
    units;
    (* an entry naming an uncatalogued rule is always in scope, and so
       always stale *)
    stale =
      Allow.stale allow
        ~in_scope:(fun id -> Option.is_none (Catalogue.find id) || selected id)
        ~findings:all;
    budget_stale = (if selected "hotpath-alloc" then budget_stale else []);
  }

let exit_code ?(strict = false) o =
  if List.exists (fun f -> Catalogue.is_internal f.Finding.rule) o.findings
  then 3
  else if o.findings <> [] then 1
  else if strict && (o.stale <> [] || o.budget_stale <> []) then 1
  else 0

let summary o =
  let errors, warnings =
    List.partition (fun f -> f.Finding.severity = Finding.Error) o.findings
  in
  Printf.sprintf
    "%d finding%s (%d error%s, %d warning%s) in %d files%s; %d suppressed \
     by lint.allow%s"
    (List.length o.findings)
    (if List.length o.findings = 1 then "" else "s")
    (List.length errors)
    (if List.length errors = 1 then "" else "s")
    (List.length warnings)
    (if List.length warnings = 1 then "" else "s")
    o.files
    (if o.units > 0 then Printf.sprintf " + %d compiled units" o.units else "")
    o.suppressed
    ((match List.length o.stale with
     | 0 -> ""
     | n ->
         Printf.sprintf "; %d stale allow entr%s" n
           (if n = 1 then "y" else "ies"))
    ^
    match List.length o.budget_stale with
    | 0 -> ""
    | n ->
        Printf.sprintf "; %d stale budget entr%s" n
          (if n = 1 then "y" else "ies"))

let render_text o =
  let buf = Buffer.create 1024 in
  (match o.findings with
  | [] -> ()
  | findings ->
      let tbl =
        Table.create
          ~title:"lint findings"
          [
            ("location", Table.Left); ("rule", Table.Left);
            ("severity", Table.Left); ("message", Table.Left);
          ]
      in
      List.iter
        (fun f ->
          Table.add_row tbl
            [
              Printf.sprintf "%s:%d:%d" f.Finding.file f.Finding.line
                f.Finding.col;
              f.Finding.rule;
              Finding.severity_to_string f.Finding.severity;
              (match f.Finding.suggestion with
              | None -> f.Finding.message
              | Some s -> f.Finding.message ^ " -- " ^ s);
            ])
        findings;
      Buffer.add_string buf (Table.render tbl));
  List.iter
    (fun (rule, path, line) ->
      Buffer.add_string buf
        (Printf.sprintf
           "stale allow entry (lint.allow:%d): '%s %s' matches no finding\n"
           line rule path))
    o.stale;
  List.iter
    (fun (name, line) ->
      Buffer.add_string buf
        (Printf.sprintf
           "stale budget entry (lint.budget:%d): '%s' matches no [@hot] root\n"
           line name))
    o.budget_stale;
  Buffer.add_string buf (summary o);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let render_json o =
  Json.to_string ~pretty:true
    (Json.Assoc
       [
         ("files", Json.Number (float_of_int o.files));
         ("units", Json.Number (float_of_int o.units));
         ("suppressed", Json.Number (float_of_int o.suppressed));
         ("findings", Json.List (List.map Finding.to_json o.findings));
         ( "stale",
           Json.List
             (List.map
                (fun (rule, path, line) ->
                  Json.Assoc
                    [
                      ("rule", Json.String rule);
                      ("path", Json.String path);
                      ("line", Json.Number (float_of_int line));
                    ])
                o.stale) );
         ( "budget_stale",
           Json.List
             (List.map
                (fun (name, line) ->
                  Json.Assoc
                    [
                      ("name", Json.String name);
                      ("line", Json.Number (float_of_int line));
                    ])
                o.budget_stale) );
       ])
  ^ "\n"

(* GitHub Actions workflow-command annotations: one ::error/::warning
   line per finding so CI findings attach to the PR diff inline.  The
   data segment uses {!Finding.github_escape}. *)
let github_escape = Finding.github_escape

let render_github o =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      let kind =
        match f.Finding.severity with
        | Finding.Error -> "error"
        | Finding.Warning -> "warning"
      in
      Buffer.add_string buf
        (Printf.sprintf "::%s file=%s,line=%d,col=%d::%s\n" kind
           f.Finding.file f.Finding.line f.Finding.col
           (github_escape
              (Printf.sprintf "[%s] %s%s" f.Finding.rule f.Finding.message
                 (match f.Finding.suggestion with
                 | None -> ""
                 | Some s -> " -- " ^ s)))))
    o.findings;
  List.iter
    (fun (rule, path, line) ->
      Buffer.add_string buf
        (Printf.sprintf "::warning file=lint.allow,line=%d::%s\n" line
           (github_escape
              (Printf.sprintf "stale allow entry '%s %s' matches no finding"
                 rule path))))
    o.stale;
  List.iter
    (fun (name, line) ->
      Buffer.add_string buf
        (Printf.sprintf "::warning file=lint.budget,line=%d::%s\n" line
           (github_escape
              (Printf.sprintf
                 "stale budget entry '%s' matches no [@hot] root" name))))
    o.budget_stale;
  Buffer.add_string buf (summary o);
  Buffer.add_char buf '\n';
  Buffer.contents buf

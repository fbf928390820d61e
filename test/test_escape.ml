(* Tests for the escape analysis family: fixture trees compiled into
   throwaway roots ({!Lint_fixture}) and linted through [Driver.run].

   Covers the three advertised detectors — exception flow across public
   boundaries with shortest witness chains ([escape-exn], including the
   [.cmti] export-set privacy contract), release discipline on raising
   paths ([escape-leak], with the [@releases] audit and the
   [Fun.protect] + closer shape), and sim hygiene from the [lib/dst]
   seam ([escape-realio], with the [@real_io] barrier) — plus the rule
   catalogue's exhaustiveness contract, release-on-raise regressions
   for the tree's own with_-wrappers, and the [analysis.self_clean]
   fuzz invariant, which carries the escape family. *)

module Finding = Search_analysis.Finding
module Driver = Search_analysis.Driver
module Escape = Search_analysis.Escape
module Catalogue = Search_analysis.Catalogue
module Rules = Search_analysis.Rules
module Pool = Search_exec.Pool
module Lockfile = Search_resilience.Lockfile
module Client = Search_serve.Client
module Invariant = Search_check.Invariant
module Case = Search_check.Case
module E = Search_numerics.Search_error
open Lint_fixture

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* A stub Unix module: the realio rule matches display names, so a
   local lib/unix.ml exercises it without linking the real library. *)
let unix_stub =
  ( "lib/unix.ml",
    "let sleep (_ : int) = ()\nlet sleepf (_ : float) = ()\n" )

(* ------------------------------------------------------------------ *)
(* escape-exn                                                          *)

let test_exn_direct () =
  with_ocamlc @@ fun () ->
  let root = tree [ ("lib/a.ml", "let go () = raise Not_found\n") ] in
  let { Driver.findings; units; _ } = lint root in
  check_int "one unit" 1 units;
  match by_rule "escape-exn" findings with
  | [ f ] ->
      check_string "at the raise site" "lib/a.ml" f.Finding.file;
      check_int "raise line" 1 f.Finding.line;
      check_bool "witness names the boundary and the site" true
        (contains f.Finding.message
           "exception Not_found escapes public A.go: A.go -> <raise \
            Not_found at lib/a.ml:1>")
  | fs -> Alcotest.failf "expected one escape-exn, got %d" (List.length fs)

let test_exn_transitive_chain () =
  with_ocamlc @@ fun () ->
  let root =
    tree
      [
        ( "lib/b.ml",
          "let deep_raise () = raise Not_found\n\
           let mid () = deep_raise ()\n\
           let top () = mid ()\n" );
      ]
  in
  let findings = (lint root).Driver.findings in
  let exn = by_rule "escape-exn" findings in
  (* all three defs are public boundaries of the mli-less unit *)
  check_int "three boundaries flagged" 3 (List.length exn);
  check_bool "shortest chain from the top" true
    (List.exists
       (fun f ->
         contains f.Finding.message
           "B.top -> B.mid -> B.deep_raise -> <raise Not_found at lib/b.ml:1>")
       exn);
  List.iter
    (fun f ->
      check_string "blamed on the raising def's file" "lib/b.ml"
        f.Finding.file;
      check_int "blamed on the raise line" 1 f.Finding.line)
    exn

let test_exn_handler_and_privacy () =
  with_ocamlc @@ fun () ->
  (* the helper's exception is caught at the call site, and the helper
     itself is private to the unit's .mli: nothing escapes *)
  let root =
    tree
      [
        ("lib/c.mli", "val safe : unit -> int\n");
        ( "lib/c.ml",
          "let helper () = raise Not_found\n\
           let safe () = try helper () with Not_found -> 0\n" );
      ]
  in
  let findings = (lint root).Driver.findings in
  check_int "handled + private: clean" 0
    (List.length (by_rule "escape-exn" findings))

let test_exn_no_mli_is_fully_public () =
  with_ocamlc @@ fun () ->
  (* same sources, no interface: the helper becomes a public boundary
     and is flagged; the catching caller stays clean *)
  let root =
    tree
      [
        ( "lib/c.ml",
          "let helper () = raise Not_found\n\
           let safe () = try helper () with Not_found -> 0\n" );
      ]
  in
  let findings = (lint root).Driver.findings in
  match by_rule "escape-exn" findings with
  | [ f ] ->
      check_bool "the helper, not the catcher" true
        (contains f.Finding.message "escapes public C.helper")
  | fs -> Alcotest.failf "expected one escape-exn, got %d" (List.length fs)

let test_exn_sanctioned_escapes () =
  with_ocamlc @@ fun () ->
  (* the documented fail-fast idiom stays legal at boundaries *)
  let root =
    tree
      [
        ( "lib/s.ml",
          "let check x = if x < 0 then invalid_arg \"neg\" else x\n\
           let sure x = assert (x >= 0); x\n" );
      ]
  in
  let findings = (lint root).Driver.findings in
  check_int "Invalid_argument/Assert_failure sanctioned" 0
    (List.length (by_rule "escape-exn" findings));
  check_bool "sanctioned set is the documented trio" true
    (List.sort String.compare Escape.sanctioned_escapes
    = [ "Assert_failure"; "Invalid_argument"; "Search_error.Error" ])

(* ------------------------------------------------------------------ *)
(* escape-leak                                                         *)

let test_leak_bare_acquisition () =
  with_ocamlc @@ fun () ->
  let root = tree [ ("lib/l.ml", "let leak path = open_out path\n") ] in
  let findings = (lint root).Driver.findings in
  match by_rule "escape-leak" findings with
  | [ f ] ->
      check_string "at the acquisition" "lib/l.ml" f.Finding.file;
      check_int "acquisition line" 1 f.Finding.line;
      check_bool "names the class, the acquirer and the def" true
        (contains f.Finding.message
           "channel acquired by open_out in L.leak is not released")
  | fs -> Alcotest.failf "expected one escape-leak, got %d" (List.length fs)

let test_leak_protected_release () =
  with_ocamlc @@ fun () ->
  let root =
    tree
      [
        ( "lib/l.ml",
          "let ok path =\n\
          \  let oc = open_out path in\n\
          \  Fun.protect\n\
          \    ~finally:(fun () -> close_out_noerr oc)\n\
          \    (fun () -> output_string oc \"x\")\n" );
      ]
  in
  let findings = (lint root).Driver.findings in
  check_int "protect + closer: clean" 0
    (List.length (by_rule "escape-leak" findings))

let test_leak_releases_audit () =
  with_ocamlc @@ fun () ->
  (* ownership transfer: the audit attribute silences the rule *)
  let root =
    tree
      [ ("lib/l.ml", "let[@releases] transfer path = open_out path\n") ]
  in
  let findings = (lint root).Driver.findings in
  check_int "[@releases]: clean" 0
    (List.length (by_rule "escape-leak" findings))

(* ------------------------------------------------------------------ *)
(* escape-realio                                                       *)

let realio_fixture ~barrier =
  [
    unix_stub;
    ( "lib/w.ml",
      Printf.sprintf "let wrap2 () = Unix.sleepf 0.1\nlet%s wrap1 () = wrap2 ()\n"
        (if barrier then "[@real_io]" else "") );
    ("lib/dst/d.ml", "let fiber () = W.wrap1 ()\n");
  ]

let test_realio_chain () =
  with_ocamlc @@ fun () ->
  let root = tree (realio_fixture ~barrier:false) in
  let { Driver.findings; units; _ } = lint root in
  check_int "three units" 3 units;
  match by_rule "escape-realio" findings with
  | [ f ] ->
      check_string "at the referencing def" "lib/w.ml" f.Finding.file;
      check_int "reference line" 1 f.Finding.line;
      check_bool "full chain from the seam" true
        (contains f.Finding.message
           "D.fiber -> W.wrap1 -> W.wrap2 -> Unix.sleepf")
  | fs -> Alcotest.failf "expected one escape-realio, got %d" (List.length fs)

let test_realio_barrier () =
  with_ocamlc @@ fun () ->
  let root = tree (realio_fixture ~barrier:true) in
  let findings = (lint root).Driver.findings in
  check_int "[@real_io] barrier stops the traversal" 0
    (List.length (by_rule "escape-realio" findings))

(* ------------------------------------------------------------------ *)
(* driver                                                              *)

let test_driver_exit_and_jobs_invariance () =
  with_ocamlc @@ fun () ->
  (* one fixture per rule: the driver must exit 1 on escape findings
     and render byte-identically at any job count *)
  let root =
    tree
      (realio_fixture ~barrier:false
      @ [
          ("lib/a.ml", "let go () = raise Not_found\n");
          ("lib/l.ml", "let leak path = open_out path\n");
        ])
  in
  let run jobs = lint ~jobs ~rules:Escape.rule_ids root in
  let out = run 1 in
  check_bool "all three rules fire" true
    (List.for_all
       (fun r -> by_rule r out.Driver.findings <> [])
       Escape.rule_ids);
  check_int "findings exit 1" 1 (Driver.exit_code out);
  check_string "jobs 1 = jobs 4 bytes" (Driver.render_json out)
    (Driver.render_json (run 4))

(* ------------------------------------------------------------------ *)
(* rule catalogue                                                      *)

(* every rule id any family can emit, by construction of the emitters *)
let emitted_ids =
  List.map (fun (r : Rules.rule) -> r.Rules.id) Rules.all
  @ [ "deep-nondet"; "deep-race"; "deep-lock-order" ]
  @ [ "hotpath-alloc"; "hotpath-blocking" ]
  @ Escape.rule_ids
  @ [ "cmt-load" ]

let test_catalogue_exhaustive () =
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "%s is catalogued" id) true
        (Catalogue.find id <> None))
    emitted_ids;
  let ids = List.map (fun (e : Catalogue.entry) -> e.Catalogue.id) Catalogue.all in
  check_int "catalogue has no extras" (List.length emitted_ids)
    (List.length ids);
  check_int "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_catalogue_families () =
  let family id =
    match Catalogue.find id with
    | Some e -> e.Catalogue.family
    | None -> Alcotest.failf "%s not catalogued" id
  in
  List.iter
    (fun id ->
      check_bool (id ^ " in the escape family") true
        (family id = Catalogue.Escape))
    Escape.rule_ids;
  List.iter
    (fun (r : Rules.rule) ->
      check_bool (r.Rules.id ^ " in the local family") true
        (family r.Rules.id = Catalogue.Local))
    Rules.all;
  Alcotest.(check (list string))
    "cmt-load is the one internal id" [ "cmt-load" ]
    (List.filter_map
       (fun (e : Catalogue.entry) ->
         if Catalogue.is_internal e.Catalogue.id then Some e.Catalogue.id
         else None)
       Catalogue.all);
  check_bool "the deleted ids are gone" true
    (Catalogue.find "nondet" = None && Catalogue.find "parse" = None)

(* ------------------------------------------------------------------ *)
(* release-on-raise regressions for the tree's own wrappers            *)

exception Boom

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let test_with_client_releases_on_raise () =
  (* a listening Unix-domain socket lets connect succeed without a
     server loop; the client's fd must be gone after the raise *)
  let path = Filename.temp_file "fsearch_escape" ".sock" in
  Sys.remove path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 4;
      match open_fds () with
      | None -> () (* no /proc: nothing to measure on this platform *)
      | Some before ->
          (match
             Client.with_client ~socket_path:path (fun _ -> raise Boom)
           with
          | exception Boom -> ()
          | _ -> Alcotest.fail "callback exception swallowed");
          check_int "no descriptor survives the raise" before
            (Option.get (open_fds ())))

let test_with_lock_releases_on_raise () =
  let path = Filename.temp_file "fsearch_escape" ".lock" in
  Sys.remove path;
  (match Lockfile.with_lock ~path (fun () -> raise Boom) with
  | exception Boom -> ()
  | _ -> Alcotest.fail "callback exception swallowed");
  check_bool "sentinel unlinked on the raising path" false
    (Sys.file_exists path);
  (* and the lock is immediately re-acquirable, without waiting for
     staleness recovery *)
  check_int "re-acquirable" 41 (Lockfile.with_lock ~path (fun () -> 41))

let test_with_pool_teardown_on_raise () =
  let captured = ref None in
  (match
     Pool.with_pool ~jobs:2 (fun pool ->
         captured := Some pool;
         raise Boom)
   with
  | exception Boom -> ()
  | _ -> Alcotest.fail "callback exception swallowed");
  match !captured with
  | None -> Alcotest.fail "callback never ran"
  | Some pool -> (
      match Pool.async pool (fun () -> 1) with
      | exception E.Error (E.Pool_closed _) -> ()
      | _ -> Alcotest.fail "pool survived the raising path")

(* ------------------------------------------------------------------ *)
(* the registered fuzz invariant                                       *)

let sample_case =
  {
    Case.id = 0;
    m = 4;
    k = 3;
    f = 1;
    horizon = 40.;
    alpha_scale = 1.;
    lambda_frac = 0.5;
    targets = [ (0, 3.) ];
    turn_seed = 7;
  }

(* The escape family rides [analysis.self_clean]: one invariant, every
   family, over fresh artefacts of every source (the test stanza
   depends on the whole tree's @check). *)
let test_escape_invariant_registered () =
  check_bool "self_clean in the built-in catalogue" true
    (List.mem "analysis.self_clean" (Invariant.names ()));
  check_bool "no separate escape invariant" false
    (List.mem "analysis.escape_self_clean" (Invariant.names ()));
  check_bool "sample case valid" true (Case.valid sample_case);
  let violations =
    List.filter
      (fun v -> String.equal v.Invariant.invariant "analysis.self_clean")
      (Invariant.check_case sample_case)
  in
  List.iter
    (fun v -> Printf.eprintf "self_clean: %s\n" v.Invariant.detail)
    violations;
  check_int "own tree lints clean" 0 (List.length violations)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "escape"
    [
      ( "exn",
        [
          Alcotest.test_case "direct raise" `Quick test_exn_direct;
          Alcotest.test_case "transitive chain" `Quick
            test_exn_transitive_chain;
          Alcotest.test_case "handler + mli privacy" `Quick
            test_exn_handler_and_privacy;
          Alcotest.test_case "no mli is fully public" `Quick
            test_exn_no_mli_is_fully_public;
          Alcotest.test_case "sanctioned escapes" `Quick
            test_exn_sanctioned_escapes;
        ] );
      ( "leak",
        [
          Alcotest.test_case "bare acquisition" `Quick
            test_leak_bare_acquisition;
          Alcotest.test_case "protected release" `Quick
            test_leak_protected_release;
          Alcotest.test_case "[@releases] audit" `Quick
            test_leak_releases_audit;
        ] );
      ( "realio",
        [
          Alcotest.test_case "chain from the seam" `Quick test_realio_chain;
          Alcotest.test_case "[@real_io] barrier" `Quick test_realio_barrier;
        ] );
      ( "driver",
        [
          Alcotest.test_case "exit code and jobs invariance" `Quick
            test_driver_exit_and_jobs_invariance;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "every emitted rule catalogued" `Quick
            test_catalogue_exhaustive;
          Alcotest.test_case "families and flags" `Quick
            test_catalogue_families;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "with_client releases on raise" `Quick
            test_with_client_releases_on_raise;
          Alcotest.test_case "with_lock releases on raise" `Quick
            test_with_lock_releases_on_raise;
          Alcotest.test_case "with_pool tears down on raise" `Quick
            test_with_pool_teardown_on_raise;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "escape_self_clean registered" `Quick
            test_escape_invariant_registered;
        ] );
    ]

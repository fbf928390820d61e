(* Tests for the per-unit lint rules and the driver: positive/negative
   fixtures compiled into throwaway trees ({!Lint_fixture}) and linted
   through [Driver.run], the artefact-freshness contract, rule
   selection, the finding JSON round-trip, the allowlist parser, and
   byte-identical reports at different pool sizes. *)

module Finding = Search_analysis.Finding
module Allow = Search_analysis.Allow
module Driver = Search_analysis.Driver
open Lint_fixture

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixtures *)

(* Rules hit by [src] compiled as [path] (plus [extra] files compiled
   before it, e.g. the modules it refers to). *)
let rules_hit ?rules ?(extra = []) ~path src =
  (lint ?rules (tree (extra @ [ (path, src) ]))).Driver.findings
  |> List.filter (fun f -> String.equal f.Finding.file path)
  |> List.map (fun f -> f.Finding.rule)
  |> List.sort_uniq String.compare

let hits rule ?extra ~path src =
  List.exists (String.equal rule) (rules_hit ?extra ~path src)

let test_poly_compare () =
  with_ocamlc @@ fun () ->
  check_bool "float (=) in lib" true
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let eq (a : float) b = a = b");
  check_bool "bare compare" true
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let c x y = compare x y");
  check_bool "compare via min" true
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let m a = min a 1.5");
  check_bool "immediate operand ok" false
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let z n = n = 0");
  (* decided by the operand type, not its spelling: neither operand is
     a literal here *)
  check_bool "int-typed operands ok" false
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let z (a : int) b = a = b");
  check_bool "comparison with a constant constructor ok" false
    (hits "poly-compare" ~path:"lib/sim/fix.ml"
       "let e (a : float list) = a = []");
  check_bool "Int.equal ok" false
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let e a b = Int.equal a b");
  check_bool "local compare definition ok" false
    (hits "poly-compare" ~path:"lib/sim/fix.ml"
       "let compare a b = Int.compare a b\nlet user x y = compare x y");
  (* outside lib/ only float-carrying or compound operands count *)
  check_bool "ident (=) in tests ok" false
    (hits "poly-compare" ~path:"test/fix.ml" "let eq a b = a = b");
  check_bool "float (=) in tests flagged" true
    (hits "poly-compare" ~path:"test/fix.ml" "let eq a = a = 1.5");
  check_bool "float list (=) in tests flagged" true
    (hits "poly-compare" ~path:"test/fix.ml"
       "let e (a : float list) b = a = b")

(* ambient nondeterminism is the taint pass's first round *)
let test_nondet () =
  with_ocamlc @@ fun () ->
  check_bool "Random" true
    (hits "deep-nondet" ~path:"lib/sim/fix.ml" "let r () = Random.int 5");
  check_bool "Sys.time" true
    (hits "deep-nondet" ~path:"lib/sim/fix.ml" "let t () = Sys.time ()");
  check_bool "Hashtbl.hash" true
    (hits "deep-nondet" ~path:"lib/sim/fix.ml" "let h x = Hashtbl.hash x");
  check_bool "pure code ok" false
    (hits "deep-nondet" ~path:"lib/sim/fix.ml" "let r () = 5")

let test_float_hygiene () =
  with_ocamlc @@ fun () ->
  check_bool "nan literal" true
    (hits "float-hygiene" ~path:"lib/sim/fix.ml" "let x = nan");
  check_bool "unguarded float_of_string" true
    (hits "float-hygiene" ~path:"lib/sim/fix.ml"
       "let f s = float_of_string s");
  check_bool "division by 0." true
    (hits "float-hygiene" ~path:"lib/sim/fix.ml" "let f x = x /. 0.");
  check_bool "float_of_string_opt ok" false
    (hits "float-hygiene" ~path:"lib/sim/fix.ml"
       "let f s = float_of_string_opt s")

let test_lock_discipline () =
  with_ocamlc @@ fun () ->
  check_bool "bare lock" true
    (hits "lock-discipline" ~path:"lib/exec/fix.ml" "let f m = Mutex.lock m");
  check_bool "bare unlock" true
    (hits "lock-discipline" ~path:"lib/exec/fix.ml"
       "let f m = Mutex.unlock m");
  check_bool "Mutex.protect ok" false
    (hits "lock-discipline" ~path:"lib/exec/fix.ml"
       "let f m g = Mutex.protect m g")

let test_unsafe_ops () =
  with_ocamlc @@ fun () ->
  check_bool "Obj.magic" true
    (hits "unsafe-ops" ~path:"lib/sim/fix.ml" "let f x = Obj.magic x");
  check_bool "unsafe_get" true
    (hits "unsafe-ops" ~path:"lib/sim/fix.ml"
       "let f a = Array.unsafe_get a 0");
  check_bool "%identity external" true
    (hits "unsafe-ops" ~path:"lib/sim/fix.ml"
       "external id : int -> int = \"%identity\"");
  check_bool "%identity external in an interface" true
    (hits "unsafe-ops" ~path:"lib/sim/fix.mli"
       "external id : int -> int = \"%identity\"");
  check_bool "safe get ok" false
    (hits "unsafe-ops" ~path:"lib/sim/fix.ml" "let f a = Array.get a 0")

let test_output_discipline () =
  with_ocamlc @@ fun () ->
  check_bool "print_string in lib" true
    (hits "output-discipline" ~path:"lib/sim/fix.ml"
       "let f () = print_string \"x\"");
  check_bool "Format.printf in lib" true
    (hits "output-discipline" ~path:"lib/sim/fix.ml"
       "let f () = Format.printf \"x\"");
  check_bool "printing in bin ok" false
    (hits "output-discipline" ~path:"bin/fix.ml"
       "let f () = print_string \"x\"");
  check_bool "formatter-passing ok" false
    (hits "output-discipline" ~path:"lib/sim/fix.ml"
       "let f ppf = Format.fprintf ppf \"x\"")

let test_mli_coverage () =
  with_ocamlc @@ fun () ->
  check_bool "lib module without mli" true
    (hits "mli-coverage" ~path:"lib/sim/fix.ml" "let x = 1");
  check_bool "lib module with mli ok" false
    (hits "mli-coverage"
       ~extra:[ ("lib/sim/fix.mli", "val x : int\n") ]
       ~path:"lib/sim/fix.ml" "let x = 1");
  check_bool "test module without mli ok" false
    (hits "mli-coverage" ~path:"test/fix.ml" "let x = 1")

let fault = ("lib/fault.ml", "type kind = Crash | Byzantine\n")

let test_closed_variant_wildcard () =
  with_ocamlc @@ fun () ->
  check_bool "catch-all over closed variant" true
    (hits "closed-variant-wildcard" ~extra:[ fault ] ~path:"lib/sim/fix.ml"
       "let f k = match k with Fault.Crash -> 1 | _ -> 2");
  check_bool "exhaustive match ok" false
    (hits "closed-variant-wildcard" ~extra:[ fault ] ~path:"lib/sim/fix.ml"
       "let f k = match k with Fault.Crash -> 1 | Fault.Byzantine -> 2");
  check_bool "try with is exempt" false
    (hits "closed-variant-wildcard" ~extra:[ fault ] ~path:"lib/sim/fix.ml"
       "let f g = try g () with Not_found -> 1 | _ -> 2")

let test_global_mutable_state () =
  with_ocamlc @@ fun () ->
  check_bool "top-level ref" true
    (hits "global-mutable-state" ~path:"lib/sim/fix.ml" "let cache = ref 0");
  check_bool "top-level Hashtbl" true
    (hits "global-mutable-state" ~path:"lib/sim/fix.ml"
       "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16");
  check_bool "local ref ok" false
    (hits "global-mutable-state" ~path:"lib/sim/fix.ml"
       "let count xs = let n = ref 0 in List.iter (fun _ -> incr n) xs; !n");
  check_bool "top-level mutex ok" false
    (hits "global-mutable-state" ~path:"lib/sim/fix.ml"
       "let m = Mutex.create ()")

let test_rule_selection () =
  with_ocamlc @@ fun () ->
  let src = "let eq (a : float) b = a = b\nlet r () = Random.int 5" in
  let only = rules_hit ~rules:[ "deep-nondet" ] ~path:"lib/sim/fix.ml" src in
  check_bool "restricted to deep-nondet" true
    (List.for_all (String.equal "deep-nondet") only && only <> [])

(* any catalogued id is a filter, an interprocedural one included *)
let test_rule_selection_typed_family () =
  with_ocamlc @@ fun () ->
  let root =
    tree
      [
        ( "lib/k.ml",
          "let helper x = [ x ]\n\
           let[@hot] kernel x = helper x\n\
           let t () = Sys.time ()\n\
           let eq (a : float) b = a = b\n" );
      ]
  in
  check_bool "unfiltered run has other rules" true
    (List.exists
       (fun f -> not (String.equal f.Finding.rule "hotpath-alloc"))
       (lint root).Driver.findings);
  let o = lint ~rules:[ "hotpath-alloc" ] root in
  check_bool "only hotpath-alloc reported" true
    (o.Driver.findings <> []
    && List.for_all
         (fun f -> String.equal f.Finding.rule "hotpath-alloc")
         o.Driver.findings);
  match lint ~rules:[ "nondet" ] root with
  | _ -> Alcotest.fail "the deleted nondet id was accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Artefacts must match the sources *)

let test_missing_artefact () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [ ("lib/a.ml", "let x = 1\n"); ("lib/a.mli", "val x : int\n");
        ("lib/b.ml", "let y = 2\n") ]
  in
  check_bool "compile a only" true (compile root [ "lib/a.mli"; "lib/a.ml" ]);
  let o = lint root in
  (match by_rule "cmt-load" o.Driver.findings with
  | [ f ] -> check_string "names the source" "lib/b.ml" f.Finding.file
  | fs -> Alcotest.failf "expected one cmt-load, got %d" (List.length fs));
  check_int "internal exit code" 3 (Driver.exit_code o);
  (* and it survives a rule filter: the tree could not be analysed *)
  check_int "whatever the filter" 3
    (Driver.exit_code (lint ~rules:[ "poly-compare" ] root))

let test_stale_artefact () =
  with_ocamlc @@ fun () ->
  let root =
    tree [ ("lib/a.mli", "val x : int\n"); ("lib/a.ml", "let x = 1\n") ]
  in
  check_int "fresh tree is clean" 0 (Driver.exit_code ~strict:true (lint root));
  write_file (Filename.concat root "lib/a.ml") "let x = 2\n";
  let o = lint root in
  (match by_rule "cmt-load" o.Driver.findings with
  | [ f ] ->
      check_string "names the edited source" "lib/a.ml" f.Finding.file;
      check_bool "says why" true
        (contains f.Finding.message "compiled from other contents")
  | fs -> Alcotest.failf "expected one cmt-load, got %d" (List.length fs));
  check_int "internal exit code" 3 (Driver.exit_code o)

(* ------------------------------------------------------------------ *)
(* Finding JSON round-trip *)

let test_finding_json_roundtrip () =
  with_ocamlc @@ fun () ->
  let findings =
    (lint
       (tree
          [
            ( "lib/sim/fix.ml",
              "let eq (a : float) b = a = b\n\
               let r () = Random.bool ()\n\
               let x = nan" );
          ]))
      .Driver.findings
  in
  check_bool "fixture produced findings" true (List.length findings >= 3);
  List.iter
    (fun f ->
      match Finding.of_json (Finding.to_json f) with
      | Ok f' -> check_int "roundtrip exact" 0 (Finding.compare f f')
      | Error e -> Alcotest.failf "of_json failed: %s" e)
    findings

(* ------------------------------------------------------------------ *)
(* Allowlist *)

let test_allow_parse () =
  match
    Allow.parse
      "# header comment\n\
       poly-compare lib/a.ml # why it is fine\n\
       * lib/b.ml\n\n"
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      check_int "two entries" 2 (List.length (Allow.entries t));
      check_bool "listed pair permitted" true
        (Allow.permits t ~rule:"poly-compare" ~file:"lib/a.ml");
      check_bool "other rule same file" false
        (Allow.permits t ~rule:"nondet" ~file:"lib/a.ml");
      check_bool "wildcard rule" true
        (Allow.permits t ~rule:"nondet" ~file:"lib/b.ml");
      check_bool "unlisted file" false
        (Allow.permits t ~rule:"nondet" ~file:"lib/c.ml")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || at (i + 1))
  in
  at 0

let test_allow_rejects_garbage () =
  match Allow.parse "only-one-token\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
      check_bool "error names the line" true (contains msg "lint.allow:1")

(* ------------------------------------------------------------------ *)
(* Driver determinism on a real (temporary) tree *)

let fixture_tree () =
  tree
    [
      ("lib/bad.ml", "let eq (a : float) b = a = b\nlet t () = Sys.time ()\n");
      ("lib/ok.mli", "val add : int -> int -> int\n");
      ("lib/ok.ml", "let add a b = a + b\n");
    ]

let test_driver_jobs_invariance () =
  with_ocamlc @@ fun () ->
  let root = fixture_tree () in
  let o1 = lint ~jobs:1 root in
  let o4 = lint ~jobs:4 root in
  check_bool "found the planted violations" true
    (List.length o1.Driver.findings >= 3);
  check_string "text report byte-identical" (Driver.render_text o1)
    (Driver.render_text o4);
  check_string "json report byte-identical" (Driver.render_json o1)
    (Driver.render_json o4)

let test_driver_allowlist_filters () =
  with_ocamlc @@ fun () ->
  let root = fixture_tree () in
  write_file
    (Filename.concat root "lint.allow")
    "poly-compare lib/bad.ml\n\
     deep-nondet lib/bad.ml\n\
     mli-coverage lib/bad.ml\n";
  match Driver.load_allow ~root with
  | Error e -> Alcotest.failf "load_allow: %s" e
  | Ok allow ->
      let out = lint ~allow root in
      check_int "everything suppressed" 0 (List.length out.Driver.findings);
      check_bool "suppressions counted" true (out.Driver.suppressed >= 3)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "rules",
        [
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "nondet" `Quick test_nondet;
          Alcotest.test_case "float-hygiene" `Quick test_float_hygiene;
          Alcotest.test_case "lock-discipline" `Quick test_lock_discipline;
          Alcotest.test_case "unsafe-ops" `Quick test_unsafe_ops;
          Alcotest.test_case "output-discipline" `Quick test_output_discipline;
          Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
          Alcotest.test_case "closed-variant-wildcard" `Quick
            test_closed_variant_wildcard;
          Alcotest.test_case "global-mutable-state" `Quick
            test_global_mutable_state;
          Alcotest.test_case "rule selection" `Quick test_rule_selection;
          Alcotest.test_case "rule selection, typed family" `Quick
            test_rule_selection_typed_family;
        ] );
      ( "artefacts",
        [
          Alcotest.test_case "missing artefact" `Quick test_missing_artefact;
          Alcotest.test_case "stale artefact" `Quick test_stale_artefact;
        ] );
      ( "finding",
        [ Alcotest.test_case "json roundtrip" `Quick test_finding_json_roundtrip ] );
      ( "allow",
        [
          Alcotest.test_case "parse + permits" `Quick test_allow_parse;
          Alcotest.test_case "rejects garbage" `Quick test_allow_rejects_garbage;
        ] );
      ( "driver",
        [
          Alcotest.test_case "jobs invariance" `Quick
            test_driver_jobs_invariance;
          Alcotest.test_case "allowlist filtering" `Quick
            test_driver_allowlist_filters;
        ] );
    ]

open Typedtree

type rule = {
  id : string;
  severity : Finding.severity;
  doc : string;
  applies : string -> bool;
}

let in_dir dir path = String.starts_with ~prefix:(dir ^ "/") path
let in_lib = in_dir "lib"
let not_in_test path = not (in_dir "test" path)
let everywhere _ = true

let all =
  [
    {
      id = "poly-compare";
      severity = Finding.Error;
      doc =
        "polymorphic compare/equality where structural comparison is not \
         exact (in lib/: any type but scalars and containers of them; \
         elsewhere: float-carrying or tuple types)";
      applies = everywhere;
    };
    {
      id = "float-hygiene";
      severity = Finding.Error;
      doc = "NaN literals, unguarded float_of_string, division by 0.";
      applies = not_in_test;
    };
    {
      id = "lock-discipline";
      severity = Finding.Error;
      doc = "bare Mutex.lock/unlock outside Mutex.protect/Fun.protect";
      applies = everywhere;
    };
    {
      id = "unsafe-ops";
      severity = Finding.Error;
      doc = "Obj.magic, unsafe_get/set, %identity externals";
      applies = everywhere;
    };
    {
      id = "output-discipline";
      severity = Finding.Error;
      doc = "direct stdout/stderr printing inside lib/";
      applies = in_lib;
    };
    {
      id = "mli-coverage";
      severity = Finding.Warning;
      doc = "every lib/ module ships an interface";
      applies = in_lib;
    };
    {
      id = "closed-variant-wildcard";
      severity = Finding.Warning;
      doc = "catch-all _ arm in matches on closed domain variants";
      applies = in_lib;
    };
    {
      id = "global-mutable-state";
      severity = Finding.Warning;
      doc = "top-level refs/tables shared across domains";
      applies = in_lib;
    };
  ]

let rule id = List.find (fun r -> String.equal r.id id) all

type emit = string -> ?suggestion:string -> loc:Location.t -> string -> unit

(* Findings of [id] at [file], dropped when the rule's path scope
   rejects the file. *)
let emitter ~file acc : emit =
 fun id ?suggestion ~loc message ->
  let r = rule id in
  if r.applies file then
    acc :=
      Finding.v ~rule:id ~severity:r.severity ~file ?suggestion ~loc message
      :: !acc

(* The Stdlib name a value path resolves to ([Some "Mutex.lock"]), or
   [None] for anything defined elsewhere — a local [compare] is not
   [Stdlib.compare], however it is spelled. *)
let stdlib_name p =
  let n = Path.name p in
  if String.starts_with ~prefix:"Stdlib." n then Some (Callgraph.strip_stdlib n)
  else None

(* ------------------------------------------------------------------ *)
(* poly-compare                                                        *)

(* Types at which structural comparison is exact: no floats, no type
   variables, no abstract or functional values — the scalars with a
   total structural order, and options, lists, arrays and tuples of
   them.  Abbreviations are not expanded (there is no typing
   environment here), so an alias of [int] reads as abstract. *)
let rec exact ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
      List.exists (Path.same p)
        Predef.
          [
            path_int; path_char; path_bool; path_unit; path_string; path_int32;
            path_int64; path_nativeint;
          ]
  | Types.Tconstr (p, [ a ], _) ->
      List.exists (Path.same p) Predef.[ path_option; path_list; path_array ]
      && exact a
  | Types.Ttuple ts -> List.for_all exact ts
  | _ -> false

let is_tuple ty =
  match Types.get_desc ty with Types.Ttuple _ -> true | _ -> false

(* A constant constructor ([[]], [None], [`A], a constant variant) is an
   immediate: comparing anything against it is exact whatever the
   other operand's type. *)
let constant_operand (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, cd, []) -> cd.Types.cstr_arity = 0
  | Texp_variant (_, None) -> true
  | _ -> false

let against_constant (op : expression) args =
  (match op.exp_desc with
  | Texp_ident (p, _, _) -> (
      match stdlib_name p with
      | Some ("=" | "<>" | "==" | "!=" | "compare" | "<" | "<=" | ">" | ">=")
        ->
          true
      | _ -> false)
  | _ -> false)
  && List.exists
       (function _, Some a -> constant_operand a | _, None -> false)
       args

(* [ty] is the operator's instantiated type, [a -> a -> _]. *)
let check_comparison (emit : emit) ~file name ty loc =
  match (name, Types.get_desc ty) with
  | ("=" | "<>" | "==" | "!=" | "compare"), Types.Tarrow (_, a, _, _) ->
      let hazard =
        if in_lib file then not (exact a)
        else Callgraph.carries_float a || is_tuple a
      in
      if hazard then
        emit "poly-compare" ~loc
          ~suggestion:
            "use a typed comparator (Float.equal, Int.compare, \
             String.equal, List.equal ...) or pattern matching"
          (Printf.sprintf "polymorphic (%s) at %s" name
             (if Callgraph.carries_float a then "a float-carrying type"
              else if is_tuple a then "a tuple type"
              else "a type with no exact structural equality"))
  | ("<" | "<=" | ">" | ">="), Types.Tarrow (_, a, _, _) when is_tuple a ->
      emit "poly-compare" ~loc
        ~suggestion:"compare fields explicitly with typed comparators"
        (Printf.sprintf "polymorphic ordering (%s) on compound values" name)
  | ("min" | "max"), Types.Tarrow (_, a, _, _) when Callgraph.carries_float a
    ->
      emit "poly-compare" ~loc
        ~suggestion:"use Float.min / Float.max (NaN-aware)"
        (Printf.sprintf "polymorphic %s on floats (NaN falls through (<=))"
           name)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* name-based rules                                                    *)

let check_name (emit : emit) name loc =
  match String.split_on_char '.' name with
  | [ "nan" ] | [ "Float"; "nan" ] ->
      emit "float-hygiene" ~loc
        ~suggestion:
          "model absence with option; NaN poisons comparisons and silently \
           passes (<=) guards"
        "literal NaN constructed"
  | [ "float_of_string" ] | [ "Float"; "of_string" ] ->
      emit "float-hygiene" ~loc
        ~suggestion:"use float_of_string_opt and handle the failure explicitly"
        "unguarded float_of_string raises on bad input"
  | [ "Mutex"; ("lock" | "unlock") ] ->
      emit "lock-discipline" ~loc
        ~suggestion:
          "wrap the critical section in Mutex.protect (or Fun.protect \
           ~finally) so exceptions cannot leave the mutex held"
        (Printf.sprintf "bare %s outside an unwind guard" name)
  | [ "Obj"; ("magic" | "repr" | "obj") ] ->
      emit "unsafe-ops" ~loc ~suggestion:"restructure so the types are honest"
        (Printf.sprintf "%s defeats the type system" name)
  | [ ("Array" | "String" | "Bytes" | "Float"); prim ]
    when String.starts_with ~prefix:"unsafe_" prim ->
      emit "unsafe-ops" ~loc
        ~suggestion:
          "use the bounds-checked accessor; prove the win with bench/ before \
           ever reconsidering"
        (Printf.sprintf "%s skips bounds checks" name)
  | [ ( "print_string" | "print_endline" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes" | "prerr_string"
      | "prerr_endline" | "prerr_newline" | "prerr_char" | "stdout"
      | "stderr" ) ]
  | [ "Printf"; ("printf" | "eprintf") ]
  | [ "Format";
      ("printf" | "eprintf" | "print_string" | "print_newline" | "print_flush")
    ] ->
      emit "output-discipline" ~loc
        ~suggestion:
          "library code returns data; route output through Report / Table / \
           Event_log, or take a Format.formatter"
        (Printf.sprintf "direct console output via %s inside lib/" name)
  | _ -> ()

let check_primitive (emit : emit) (vd : value_description) =
  if
    List.exists
      (fun p -> p = "%identity" || String.starts_with ~prefix:"%obj_" p)
      vd.val_prim
  then
    emit "unsafe-ops" ~loc:vd.val_loc
      ~suggestion:"write the conversion honestly, or isolate and test it"
      (Printf.sprintf "external %S uses an unchecked primitive"
         vd.val_name.Location.txt)

(* ------------------------------------------------------------------ *)
(* closed-variant-wildcard                                             *)

(* The repo's closed domain vocabularies: fault kinds, parameter
   regimes, sweep/certificate verdicts, induction cases.  A catch-all
   arm in a match over these swallows future constructors silently —
   exactly how a new fault model would bypass the adversary. *)
let closed_constructors =
  [
    "Crash"; "Byzantine"; "Unsolvable"; "Ratio_one"; "Searching"; "Covered";
    "Gap"; "Refuted_gap"; "Refuted_potential"; "Not_refuted"; "Inconclusive";
    "Case1"; "Case2";
  ]

let rec head_constructors (p : pattern) =
  match p.pat_desc with
  | Tpat_construct (_, cd, _, _) -> [ cd.Types.cstr_name ]
  | Tpat_or (a, b, _) -> head_constructors a @ head_constructors b
  | Tpat_alias (p, _, _) -> head_constructors p
  | _ -> []

let rec is_catch_all (p : pattern) =
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> is_catch_all p
  | _ -> false

(* [lhss] are the value patterns of one match's arms, [None] for an
   arm with a guard (the check needs every arm unguarded) *)
let check_arms (emit : emit) lhss =
  if List.for_all Option.is_some lhss then
    let lhss = List.filter_map Fun.id lhss in
    match
      List.concat_map head_constructors lhss
      |> List.filter (fun c -> List.mem c closed_constructors)
    with
    | [] -> ()
    | witness :: _ ->
        List.iter
          (fun (p : pattern) ->
            if is_catch_all p then
              emit "closed-variant-wildcard" ~loc:p.pat_loc
                ~suggestion:"list the remaining constructors explicitly"
                (Printf.sprintf
                   "catch-all arm in a match on the closed variant of %s: a \
                    new constructor would be silently swallowed"
                   witness))
          lhss

(* ------------------------------------------------------------------ *)
(* the walk                                                            *)

let check_unit ~file annots =
  let acc = ref [] in
  let emit = emitter ~file acc in
  let super = Tast_iterator.default_iterator in
  let expr self e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match stdlib_name p with
        | Some name ->
            check_comparison emit ~file name e.exp_type e.exp_loc;
            check_name emit name e.exp_loc
        | None -> ())
    | Texp_apply
        ( { exp_desc = Texp_ident (p, _, _); exp_loc; _ },
          [ _; (_, Some { exp_desc = Texp_constant (Const_float lit); _ }) ] )
      when Option.equal String.equal (stdlib_name p) (Some "/.")
           && Option.equal Float.equal (float_of_string_opt lit) (Some 0.) ->
        emit "float-hygiene" ~loc:exp_loc
          "division by the float literal 0. yields inf/NaN"
    | Texp_match (_, cases, _) ->
        (* [exception] arms are exempt: exception sets are open *)
        check_arms emit
          (List.filter_map
             (fun (c : computation case) ->
               match split_pattern c.c_lhs with
               | None, _ -> None
               | Some p, _ ->
                   Some (if Option.is_none c.c_guard then Some p else None))
             cases)
    | Texp_function { cases; _ } ->
        check_arms emit
          (List.map
             (fun (c : value case) ->
               if Option.is_none c.c_guard then Some c.c_lhs else None)
             cases)
    | _ -> ());
    match e.exp_desc with
    | Texp_apply (op, args) when against_constant op args ->
        (* walk the operands, not the operator: the comparison is exact *)
        List.iter
          (fun (_, a) -> Option.iter (self.Tast_iterator.expr self) a)
          args
    | _ -> super.expr self e
  in
  let structure_item self item =
    (match item.str_desc with
    | Tstr_primitive vd -> check_primitive emit vd
    | _ -> ());
    super.structure_item self item
  in
  let signature_item self item =
    (match item.sig_desc with
    | Tsig_value vd -> check_primitive emit vd
    | _ -> ());
    super.signature_item self item
  in
  let it = { super with expr; structure_item; signature_item } in
  (match annots with
  | Cmt_loader.Impl st -> it.structure it st
  | Cmt_loader.Intf sg -> it.signature it sg
  | Cmt_loader.Other -> ());
  !acc

(* ------------------------------------------------------------------ *)
(* tree-wide rules                                                     *)

let check_tree ~sources (g : Callgraph.t) =
  let acc = ref [] in
  List.iter
    (fun file ->
      if Filename.check_suffix file ".ml" && not (List.mem (file ^ "i") sources)
      then
        emitter ~file acc "mli-coverage" ~loc:(Location.in_file file)
          ~suggestion:
            "add an interface: undocumented exports become load-bearing"
          "module has no .mli")
    sources;
  Hashtbl.iter
    (fun _ (c : Callgraph.cell) ->
      emitter ~file:c.Callgraph.cell_file acc "global-mutable-state"
        ~loc:c.Callgraph.cell_loc
        ~suggestion:
          "thread the state through a [create]d handle, or guard it with \
           a top-level Mutex like Cmt_loader.read_mutex"
        (Printf.sprintf "top-level mutable state (%s) is shared by every domain"
           (match c.Callgraph.kind with
           | Callgraph.Ref -> "ref"
           | Callgraph.Table -> "Hashtbl"
           | Callgraph.Container -> "container"
           | Callgraph.Atomic -> "Atomic")))
    g.Callgraph.cells;
  !acc

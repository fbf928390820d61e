(* Interprocedural nondeterminism taint: the one nondeterminism rule.

   Sources are the ambient clocks, PRNG and representation-hashing entry
   points.  The first round flags every def that names one directly;
   later rounds flag every def that *reaches* one through any chain of
   top-level calls — the pure-looking helper three calls away from
   [Random.int] gets reported too, with the full chain.

   Audited files (the [deep-nondet] entries in lint.allow: metrics,
   budget, lockfile) are taint *barriers*: their defs still produce
   findings — which the allowlist then suppresses, keeping the entries
   visibly in use — but taint does not propagate through them to their
   callers.  That is the audited-sink contract: a caller of
   [Metrics.record] is not nondeterministic because the metrics file
   timestamps itself.

   Propagation runs in synchronized rounds (breadth-first over the call
   graph), so each tainted def's recorded witness is a shortest chain
   and the result is independent of traversal order. *)

let source_names =
  [
    "Sys.time";
    "Unix.gettimeofday"; "Unix.time"; "Unix.times";
    "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.randomize";
    "Domain.self";
  ]

let is_source name =
  let n = Callgraph.strip_stdlib name in
  String.starts_with ~prefix:"Random." n || List.mem n source_names

type mark =
  | Direct of { src : string; dloc : Location.t }
  | Via of { callee : string; vloc : Location.t }

let findings ~audited (g : Callgraph.t) =
  let marks : (string, mark) Hashtbl.t = Hashtbl.create 64 in
  let def name = Callgraph.find_def g name in
  let audited_def name =
    match def name with
    | Some d -> audited d.Callgraph.file
    | None -> false
  in
  (* round 0: defs referencing a source directly *)
  List.iter
    (fun name ->
      match def name with
      | None -> ()
      | Some d -> (
          match
            List.find_opt
              (fun (r : Callgraph.reference) -> is_source r.target)
              d.Callgraph.refs
          with
          | Some r ->
              Hashtbl.replace marks name
                (Direct { src = r.Callgraph.target; dloc = r.Callgraph.rloc })
          | None -> ()))
    g.Callgraph.def_order;
  (* later rounds: defs referencing an already-tainted, non-audited def.
     Additions are collected against the previous round's marks, so the
     fixpoint is breadth-first and order-independent. *)
  let changed = ref true in
  while !changed do
    changed := false;
    let additions =
      List.filter_map
        (fun name ->
          if Hashtbl.mem marks name then None
          else
            match def name with
            | None -> None
            | Some d ->
                List.find_map
                  (fun (r : Callgraph.reference) ->
                    if
                      Hashtbl.mem marks r.Callgraph.target
                      && not (audited_def r.Callgraph.target)
                    then
                      Some
                        ( name,
                          Via
                            {
                              callee = r.Callgraph.target;
                              vloc = r.Callgraph.rloc;
                            } )
                    else None)
                  d.Callgraph.refs)
        g.Callgraph.def_order
    in
    List.iter
      (fun (name, mark) ->
        changed := true;
        Hashtbl.replace marks name mark)
      additions
  done;
  let rec chain_of name fuel =
    let disp = Callgraph.display_name (Callgraph.strip_stdlib name) in
    if fuel = 0 then [ disp; "..." ]
    else
      match Hashtbl.find_opt marks name with
      | Some (Direct { src; _ }) ->
          [ disp; Callgraph.strip_stdlib src ]
      | Some (Via { callee; _ }) -> disp :: chain_of callee (fuel - 1)
      | None -> [ disp ]
  in
  List.filter_map
    (fun name ->
      match (Hashtbl.find_opt marks name, def name) with
      | Some mark, Some d ->
          let loc =
            match mark with
            | Direct { dloc; _ } -> dloc
            | Via { vloc; _ } -> vloc
          in
          Some
            (Finding.v ~rule:"deep-nondet" ~severity:Finding.Error
               ~file:d.Callgraph.file ~loc
               ~suggestion:
                 "thread an explicit Prng.t / clock through, or audit the \
                  file under deep-nondet in lint.allow"
               (Printf.sprintf "nondeterminism reaches %s: %s"
                  d.Callgraph.display
                  (String.concat " -> " (chain_of name 12))))
      | _ -> None)
    g.Callgraph.def_order

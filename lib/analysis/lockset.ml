(* Static race and lock-order analysis over the {!Callgraph}.

   Pooled-ness.  A def that calls a pool entry ([@pool_entry] in
   lib/exec, or [Domain.spawn]) contains a closure that will run on
   another domain; the analysis conservatively treats the whole def —
   and everything it reaches through top-level calls — as potentially
   parallel.  The must-hold fixpoint then computes, per pooled def, the
   set of top-level mutexes held on *every* call path from a pooled
   root (intersection semantics, descending), so a helper only ever
   invoked under [Cmt_loader.read_mutex] is not flagged for touching what
   that mutex guards.

   Races.  A top-level cell (ref / Hashtbl / container; [Atomic.t] is
   exempt, it is synchronised by construction) with at least one write
   anywhere is reported when a pooled def touches it with an empty
   effective lockset (locks held at the site ∪ must-hold of the def) —
   and also when every pooled access is guarded but by no *common*
   mutex, which serialises nothing.

   Deadlocks.  Acquisition-order edges h → l are collected from lexical
   nesting ([Mutex.protect l] while h is held) and from calls made with
   h held into defs that may acquire l (a may-acquire union fixpoint);
   any cycle — including the self-loop of re-entering a held mutex,
   which OCaml's non-reentrant [Mutex.t] turns into a deadlock — is a
   finding. *)

module SS = Set.Make (String)

let suggestion_race =
  "guard the access with Mutex.protect on one designated mutex, switch the \
   cell to Atomic, or audit the file under deep-race in lint.allow"

(* ------------------------------------------------------------------ *)
(* pooled defs and the must-hold fixpoint                              *)

type pooled = {
  must : (string, SS.t) Hashtbl.t;  (** pooled defs only *)
  root_entry : (string, string) Hashtbl.t;  (** root -> entry it calls *)
  caller : (string, string) Hashtbl.t;  (** first caller that pooled it *)
}

let compute_pooled (g : Callgraph.t) =
  let must = Hashtbl.create 64 in
  let root_entry = Hashtbl.create 16 in
  let caller = Hashtbl.create 64 in
  List.iter
    (fun name ->
      match Callgraph.find_def g name with
      | None -> ()
      | Some d -> (
          match
            List.find_opt
              (fun (r : Callgraph.reference) ->
                Callgraph.is_entry g r.Callgraph.target
                && not (String.equal r.Callgraph.target name))
              d.Callgraph.refs
          with
          | Some r ->
              Hashtbl.replace root_entry name
                (Callgraph.display_name
                   (Callgraph.strip_stdlib r.Callgraph.target));
              Hashtbl.replace must name SS.empty
          | None -> ()))
    g.Callgraph.def_order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        match (Hashtbl.find_opt must c, Callgraph.find_def g c) with
        | Some mc, Some d ->
            List.iter
              (fun (r : Callgraph.reference) ->
                let t = r.Callgraph.target in
                if Hashtbl.mem g.Callgraph.defs t && not (String.equal t c)
                then begin
                  let contrib = SS.union mc (SS.of_list r.Callgraph.rheld) in
                  match Hashtbl.find_opt must t with
                  | None ->
                      Hashtbl.replace must t contrib;
                      Hashtbl.replace caller t c;
                      changed := true
                  | Some cur ->
                      let inter = SS.inter cur contrib in
                      if not (SS.equal inter cur) then begin
                        Hashtbl.replace must t inter;
                        changed := true
                      end
                end)
              d.Callgraph.refs
        | _ -> ())
      g.Callgraph.def_order
  done;
  { must; root_entry; caller }

let job_chain (g : Callgraph.t) p name =
  let disp n =
    match Callgraph.find_def g n with
    | Some d -> d.Callgraph.display
    | None -> Callgraph.display_name n
  in
  let rec back n fuel acc =
    if fuel = 0 then "..." :: acc
    else
      match Hashtbl.find_opt p.caller n with
      | Some c -> back c (fuel - 1) (disp n :: acc)
      | None ->
          let root =
            match Hashtbl.find_opt p.root_entry n with
            | Some e -> Printf.sprintf "%s{%s}" (disp n) e
            | None -> disp n
          in
          root :: acc
  in
  String.concat " -> " (back name 12 [])

(* ------------------------------------------------------------------ *)
(* race detection                                                      *)

type access = {
  acc_def : string;
  acc_loc : Location.t;
  acc_file : string;
  acc_via : string option;  (** [Some mutator] for writes, [None] reads *)
  acc_eff : SS.t;  (** effective lockset: held at site ∪ must of def *)
}

let cell_accesses (g : Callgraph.t) p cell_name =
  List.concat_map
    (fun name ->
      match (Hashtbl.find_opt p.must name, Callgraph.find_def g name) with
      | Some m, Some d ->
          let writes =
            List.filter_map
              (fun (mu : Callgraph.mutation) ->
                if String.equal mu.Callgraph.cell cell_name then
                  Some
                    {
                      acc_def = name;
                      acc_loc = mu.Callgraph.mloc;
                      acc_file = d.Callgraph.file;
                      acc_via = Some mu.Callgraph.via;
                      acc_eff = SS.union m (SS.of_list mu.Callgraph.mheld);
                    }
                else None)
              d.Callgraph.mutations
          in
          let wlocs = List.map (fun a -> a.acc_loc) writes in
          let reads =
            List.filter_map
              (fun (r : Callgraph.reference) ->
                if
                  String.equal r.Callgraph.target cell_name
                  && not (List.mem r.Callgraph.rloc wlocs)
                then
                  Some
                    {
                      acc_def = name;
                      acc_loc = r.Callgraph.rloc;
                      acc_file = d.Callgraph.file;
                      acc_via = None;
                      acc_eff = SS.union m (SS.of_list r.Callgraph.rheld);
                    }
                else None)
              d.Callgraph.refs
          in
          writes @ reads
      | _ -> [])
    g.Callgraph.def_order

let written_anywhere (g : Callgraph.t) cell_name =
  List.exists
    (fun name ->
      match Callgraph.find_def g name with
      | Some d ->
          List.exists
            (fun (mu : Callgraph.mutation) ->
              String.equal mu.Callgraph.cell cell_name)
            d.Callgraph.mutations
      | None -> false)
    g.Callgraph.def_order

let race_findings (g : Callgraph.t) p =
  let cells =
    List.sort
      (fun (a : Callgraph.cell) b ->
        String.compare a.Callgraph.cell_name b.Callgraph.cell_name)
      (Hashtbl.fold (fun _ c acc -> c :: acc) g.Callgraph.cells [])
  in
  List.concat_map
    (fun (c : Callgraph.cell) ->
      if c.Callgraph.kind = Callgraph.Atomic then []
      else
        let name = c.Callgraph.cell_name in
        let accesses = cell_accesses g p name in
        if accesses = [] || not (written_anywhere g name) then []
        else
          let cell_where =
            Printf.sprintf "%s (defined %s:%d)"
              (Callgraph.display_name name)
              c.Callgraph.cell_file
              c.Callgraph.cell_loc.Location.loc_start.Lexing.pos_lnum
          in
          let unguarded =
            List.filter (fun a -> SS.is_empty a.acc_eff) accesses
          in
          if unguarded <> [] then
            (* one finding per (cell, def): the first unguarded site *)
            let seen = Hashtbl.create 8 in
            List.filter_map
              (fun a ->
                if Hashtbl.mem seen a.acc_def then None
                else begin
                  Hashtbl.add seen a.acc_def ();
                  let what =
                    match a.acc_via with
                    | Some via -> Printf.sprintf "write (%s)" via
                    | None -> "access"
                  in
                  Some
                    (Finding.v ~rule:"deep-race" ~severity:Finding.Error
                       ~file:a.acc_file ~loc:a.acc_loc
                       ~suggestion:suggestion_race
                       (Printf.sprintf
                          "possible data race on %s: unguarded %s on the \
                           pool (job chain: %s)"
                          cell_where what
                          (job_chain g p a.acc_def)))
                end)
              unguarded
          else
            let common =
              List.fold_left
                (fun acc a ->
                  match acc with
                  | None -> Some a.acc_eff
                  | Some s -> Some (SS.inter s a.acc_eff))
                None accesses
            in
            match (common, accesses) with
            | Some inter, a0 :: _ :: _ when SS.is_empty inter ->
                [
                  Finding.v ~rule:"deep-race" ~severity:Finding.Error
                    ~file:a0.acc_file ~loc:a0.acc_loc
                    ~suggestion:suggestion_race
                    (Printf.sprintf
                       "inconsistent guards on %s: pooled accesses hold \
                        {%s} with no mutex in common"
                       cell_where
                       (String.concat "} {"
                          (List.map
                             (fun a ->
                               String.concat ","
                                 (List.map Callgraph.display_name
                                    (SS.elements a.acc_eff)))
                             accesses)));
                ]
            | _ -> [])
    cells

(* ------------------------------------------------------------------ *)
(* lock-order cycles                                                   *)

type edge = { e_from : string; e_to : string; e_loc : Location.t; e_file : string }

let may_acquire (g : Callgraph.t) =
  let may = Hashtbl.create 64 in
  List.iter
    (fun name ->
      match Callgraph.find_def g name with
      | Some d ->
          Hashtbl.replace may name
            (SS.of_list
               (List.filter_map
                  (fun (pe : Callgraph.protect_event) ->
                    if Callgraph.mutex_defined g pe.Callgraph.lock then
                      Some pe.Callgraph.lock
                    else None)
                  d.Callgraph.protects))
      | None -> ())
    g.Callgraph.def_order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun name ->
        match Callgraph.find_def g name with
        | Some d ->
            let cur = Option.value (Hashtbl.find_opt may name) ~default:SS.empty in
            let next =
              List.fold_left
                (fun acc (r : Callgraph.reference) ->
                  match Hashtbl.find_opt may r.Callgraph.target with
                  | Some s -> SS.union acc s
                  | None -> acc)
                cur d.Callgraph.refs
            in
            if not (SS.equal next cur) then begin
              Hashtbl.replace may name next;
              changed := true
            end
        | None -> ())
      g.Callgraph.def_order
  done;
  may

let order_edges (g : Callgraph.t) may =
  let edges = Hashtbl.create 16 in
  let add e_from e_to e_loc e_file =
    if
      Callgraph.mutex_defined g e_from
      && Callgraph.mutex_defined g e_to
      && not (Hashtbl.mem edges (e_from, e_to))
    then Hashtbl.add edges (e_from, e_to) { e_from; e_to; e_loc; e_file }
  in
  List.iter
    (fun name ->
      match Callgraph.find_def g name with
      | Some d ->
          List.iter
            (fun (pe : Callgraph.protect_event) ->
              List.iter
                (fun h ->
                  add h pe.Callgraph.lock pe.Callgraph.ploc d.Callgraph.file)
                pe.Callgraph.outer)
            d.Callgraph.protects;
          List.iter
            (fun (r : Callgraph.reference) ->
              if r.Callgraph.rheld <> [] then
                match Hashtbl.find_opt may r.Callgraph.target with
                | Some acq ->
                    List.iter
                      (fun h ->
                        SS.iter
                          (fun m -> add h m r.Callgraph.rloc d.Callgraph.file)
                          acq)
                      r.Callgraph.rheld
                | None -> ())
            d.Callgraph.refs
      | None -> ())
    g.Callgraph.def_order;
  List.sort
    (fun a b ->
      match String.compare a.e_from b.e_from with
      | 0 -> String.compare a.e_to b.e_to
      | n -> n)
    (Hashtbl.fold (fun _ e acc -> e :: acc) edges [])

(* Report each elementary cycle once, keyed by its lexicographically
   smallest node: DFS from that node over nodes >= it. *)
let cycle_findings edges =
  let succs n =
    List.filter (fun e -> String.equal e.e_from n) edges
  in
  let nodes =
    List.sort_uniq String.compare
      (List.concat_map (fun e -> [ e.e_from; e.e_to ]) edges)
  in
  List.filter_map
    (fun start ->
      let rec dfs path visited n =
        List.find_map
          (fun e ->
            if String.equal e.e_to start then Some (List.rev (e :: path))
            else if
              String.compare e.e_to start < 0 || SS.mem e.e_to visited
            then None
            else dfs (e :: path) (SS.add e.e_to visited) e.e_to)
          (succs n)
      in
      match dfs [] SS.empty start with
      | None -> None
      | Some cycle ->
          let names =
            String.concat " -> "
              (List.map (fun e -> Callgraph.display_name e.e_from) cycle
              @ [ Callgraph.display_name start ])
          in
          let witnesses =
            String.concat "; "
              (List.map
                 (fun e ->
                   Printf.sprintf "%s taken at %s:%d while %s held"
                     (Callgraph.display_name e.e_to)
                     e.e_file e.e_loc.Location.loc_start.Lexing.pos_lnum
                     (Callgraph.display_name e.e_from))
                 cycle)
          in
          let e0 = List.hd cycle in
          Some
            (Finding.v ~rule:"deep-lock-order" ~severity:Finding.Error
               ~file:e0.e_file ~loc:e0.e_loc
               ~suggestion:
                 "impose one global acquisition order (acquire mutexes in \
                  a fixed, documented order) or merge the critical sections"
               (Printf.sprintf "mutex acquisition-order cycle: %s (%s)"
                  names witnesses)))
    nodes

let findings (g : Callgraph.t) =
  let p = compute_pooled g in
  let races = race_findings g p in
  let cycles = cycle_findings (order_edges g (may_acquire g)) in
  races @ cycles

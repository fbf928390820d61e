module Json = Search_numerics.Json
module E = Search_numerics.Search_error
module Pool = Search_exec.Pool
module Supervise = Search_exec.Supervise
module Chaos = Search_resilience.Chaos
module Journal = Search_resilience.Journal

type failure = {
  original : Case.t;
  shrunk : Case.t;
  violations : Invariant.violation list;
}

type outcome = { seed : int; cases : int; failures : failure list }

(* Checkpoint codec for one case's violation list. *)
let violations_to_json vs =
  Json.List
    (List.map
       (fun (v : Invariant.violation) ->
         Json.Assoc
           [
             ("invariant", Json.String v.invariant);
             ("detail", Json.String v.detail);
           ])
       vs)

let violations_of_json j =
  match j with
  | Json.List items ->
      let decode item =
        match
          ( Option.bind (Json.member "invariant" item) Json.to_string_value,
            Option.bind (Json.member "detail" item) Json.to_string_value )
        with
        | Some invariant, Some detail ->
            Some { Invariant.invariant; detail }
        | _ -> None
      in
      let decoded = List.filter_map decode items in
      if Int.equal (List.length decoded) (List.length items) then Ok decoded
      else Error "Fuzz: malformed violation entry"
  | _ -> Error "Fuzz: expected a violation list"

let run ?jobs ?(chaos = Chaos.disabled) ?(attempts = 1) ?journal_dir
    ~seed ~cases () =
  let generated = Gen.cases ~seed ~count:cases in
  let persist =
    Option.map
      (fun dir ->
        let config =
          Json.Assoc
            [
              ("run", Json.String "fuzz");
              ("seed", Json.Number (float_of_int seed));
              ("cases", Json.Number (float_of_int cases));
              ( "invariants",
                Json.List
                  (List.map (fun n -> Json.String n) (Invariant.names ())) );
            ]
        in
        {
          Supervise.journal = Journal.open_ ~dir ~config;
          encode = violations_to_json;
          decode = violations_of_json;
        })
      journal_dir
  in
  let spec = { Supervise.default with chaos; attempts } in
  let checked =
    Pool.with_pool ?jobs @@ fun pool ->
    Supervise.map pool ~spec ?persist
      ~task:(fun _ c -> Printf.sprintf "fuzz/case-%d" c.Case.id)
      ~f:(fun _meter c -> Invariant.check_case c)
      generated
    |> List.map2 (fun c r -> (c, r)) generated
  in
  Option.iter (fun p -> Journal.finish p.Supervise.journal) persist;
  (* Shrinking is sequential: failures are rare, and the greedy descent
     re-runs the catalogue many times over ever-smaller cases. *)
  let failures =
    List.filter_map
      (fun (original, result) ->
        match result with
        | Ok [] -> None
        | Ok (_ :: _) ->
            let still_fails c = Invariant.check_case c <> [] in
            let shrunk = Shrink.minimize ~still_fails original in
            Some
              { original; shrunk; violations = Invariant.check_case shrunk }
        | Error err ->
            (* a case the supervisor could not complete is itself a
               finding; it is not shrunk (the invariants did not fail —
               the runtime did) *)
            Some
              {
                original;
                shrunk = original;
                violations =
                  [
                    {
                      Invariant.invariant = "runtime.supervised";
                      detail = E.to_string err;
                    };
                  ];
              })
      checked
  in
  { seed; cases; failures }

let report o =
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "fuzz: seed=%d cases=%d invariants=%d\n" o.seed o.cases
    (List.length (Invariant.names ()));
  List.iter
    (fun fl ->
      pf "\nFAILURE: case %d (shrunk from id %d):\n" fl.shrunk.Case.id
        fl.original.Case.id;
      pf "%s\n" (Json.to_string ~pretty:true (Case.to_json fl.shrunk));
      List.iter
        (fun v -> pf "  %s\n" (Format.asprintf "%a" Invariant.pp_violation v))
        fl.violations)
    o.failures;
  (match o.failures with
  | [] -> pf "result: OK (0 invariant violations)\n"
  | fs -> pf "\nresult: FAIL (%d failing case(s))\n" (List.length fs));
  Buffer.contents buf

let save_failures ~dir o =
  List.map
    (fun fl -> Corpus.save ~dir fl.shrunk ~violations:fl.violations)
    o.failures

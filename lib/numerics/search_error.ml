(* Structured error taxonomy; see search_error.mli for the contract. *)

type resource = Steps

type t =
  | Invalid_input of { where : string; what : string }
  | Regime_violation of { m : int; k : int; f : int; what : string }
  | Non_convergence of { where : string; steps : int; detail : string }
  | Budget_exceeded of {
      task : string;
      resource : resource;
      limit : float;
      spent : float;
    }
  | Injected_fault of { task : string; attempt : int; kind : string }
  | Worker_crash of { task : string; attempt : int; detail : string }
  | Pool_closed of { what : string }
  | Io_failure of { path : string; what : string }

exception Error of t

let raise_ e = raise (Error e)
let invalid ~where what = raise_ (Invalid_input { where; what })

let resource_name = function Steps -> "steps"
let resource_of_name = function "steps" -> Some Steps | _ -> None

let tag = function
  | Invalid_input _ -> "invalid-input"
  | Regime_violation _ -> "regime-violation"
  | Non_convergence _ -> "non-convergence"
  | Budget_exceeded _ -> "budget-exceeded"
  | Injected_fault _ -> "injected-fault"
  | Worker_crash _ -> "worker-crash"
  | Pool_closed _ -> "pool-closed"
  | Io_failure _ -> "io-failure"

let to_string e =
  let body =
    match e with
    | Invalid_input { where; what } -> Printf.sprintf "%s: %s" where what
    | Regime_violation { m; k; f; what } ->
        Printf.sprintf "(m=%d, k=%d, f=%d): %s" m k f what
    | Non_convergence { where; steps; detail } ->
        Printf.sprintf "%s after %d steps: %s" where steps detail
    | Budget_exceeded { task; resource; limit; spent } ->
        Printf.sprintf "%s: %s limit %g exceeded (spent %g)" task
          (resource_name resource) limit spent
    | Injected_fault { task; attempt; kind } ->
        Printf.sprintf "%s (attempt %d): %s" task attempt kind
    | Worker_crash { task; attempt; detail } ->
        Printf.sprintf "%s (attempt %d): %s" task attempt detail
    | Pool_closed { what } -> what
    | Io_failure { path; what } -> Printf.sprintf "%s: %s" path what
  in
  Printf.sprintf "[%s] %s" (tag e) body

let pp fmt e = Format.pp_print_string fmt (to_string e)

(* [Json.to_string] rejects non-finite numbers, so encode them as strings;
   journalled errors must always serialise. *)
let num x =
  if Float.is_finite x then Json.Number x else Json.String (Float.to_string x)

let num_back = function
  | Json.Number x -> Some x
  | Json.String s -> float_of_string_opt s
  | _ -> None

let to_json e =
  let fields =
    match e with
    | Invalid_input { where; what } ->
        [ ("where", Json.String where); ("what", Json.String what) ]
    | Regime_violation { m; k; f; what } ->
        [
          ("m", num (float_of_int m));
          ("k", num (float_of_int k));
          ("f", num (float_of_int f));
          ("what", Json.String what);
        ]
    | Non_convergence { where; steps; detail } ->
        [
          ("where", Json.String where);
          ("steps", num (float_of_int steps));
          ("detail", Json.String detail);
        ]
    | Budget_exceeded { task; resource; limit; spent } ->
        [
          ("task", Json.String task);
          ("resource", Json.String (resource_name resource));
          ("limit", num limit);
          ("spent", num spent);
        ]
    | Injected_fault { task; attempt; kind } ->
        [
          ("task", Json.String task);
          ("attempt", num (float_of_int attempt));
          ("kind", Json.String kind);
        ]
    | Worker_crash { task; attempt; detail } ->
        [
          ("task", Json.String task);
          ("attempt", num (float_of_int attempt));
          ("detail", Json.String detail);
        ]
    | Pool_closed { what } -> [ ("what", Json.String what) ]
    | Io_failure { path; what } ->
        [ ("path", Json.String path); ("what", Json.String what) ]
  in
  Json.Assoc (("error", Json.String (tag e)) :: fields)

let of_json j =
  let str name = Option.bind (Json.member name j) Json.to_string_value in
  let int name =
    Option.bind (Json.member name j) num_back |> Option.map int_of_float
  in
  let flt name = Option.bind (Json.member name j) num_back in
  let ( let* ) o f = Option.bind o f in
  let v =
    match str "error" with
    | Some "invalid-input" ->
        let* where = str "where" in
        let* what = str "what" in
        Some (Invalid_input { where; what })
    | Some "regime-violation" ->
        let* m = int "m" in
        let* k = int "k" in
        let* f = int "f" in
        let* what = str "what" in
        Some (Regime_violation { m; k; f; what })
    | Some "non-convergence" ->
        let* where = str "where" in
        let* steps = int "steps" in
        let* detail = str "detail" in
        Some (Non_convergence { where; steps; detail })
    | Some "budget-exceeded" ->
        let* task = str "task" in
        let* resource = Option.bind (str "resource") resource_of_name in
        let* limit = flt "limit" in
        let* spent = flt "spent" in
        Some (Budget_exceeded { task; resource; limit; spent })
    | Some "injected-fault" ->
        let* task = str "task" in
        let* attempt = int "attempt" in
        let* kind = str "kind" in
        Some (Injected_fault { task; attempt; kind })
    | Some "worker-crash" ->
        let* task = str "task" in
        let* attempt = int "attempt" in
        let* detail = str "detail" in
        Some (Worker_crash { task; attempt; detail })
    | Some "pool-closed" ->
        let* what = str "what" in
        Some (Pool_closed { what })
    | Some "io-failure" ->
        let* path = str "path" in
        let* what = str "what" in
        Some (Io_failure { path; what })
    | Some _ | None -> None
  in
  match v with
  | Some e -> Ok e
  | None -> Result.Error ("Search_error.of_json: " ^ Json.to_string j)

let classify ~task ~attempt = function
  | Error e -> e
  | Invalid_argument s ->
      (* preserve the original ["where: what"] shape when present *)
      let where, what =
        match String.index_opt s ':' with
        | Some i ->
            ( String.sub s 0 i,
              String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
        | None -> (task, s)
      in
      Invalid_input { where; what }
  | Failure s -> Worker_crash { task; attempt; detail = "Failure: " ^ s }
  | e -> Worker_crash { task; attempt; detail = Printexc.to_string e }

let retryable = function
  | Injected_fault _ | Worker_crash _ | Io_failure _ -> true
  | Invalid_input _ | Regime_violation _ | Non_convergence _
  | Budget_exceeded _ | Pool_closed _ ->
      false

(* Seeded inputs of the three workloads and their --jobs 1 references.

   The seed chooses continuous parameters and request order; the shape of
   each workload (operation mix, key-set size, item kinds and sizes) is
   fixed, so two seeds cost the same to serve and only the bytes differ. *)

module FS = Faulty_search
module P = Search_serve.Protocol

type kind = Serve_hot | Serve_mixed | Compute_batch

let all = [ Serve_hot; Serve_mixed; Compute_batch ]

let name = function
  | Serve_hot -> "serve-hot"
  | Serve_mixed -> "serve-mixed"
  | Compute_batch -> "compute-batch"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

(* ------------------------------------------------------------------ *)
(* daemon requests                                                     *)

(* A pool of distinct requests plus a cyclic schedule of pool indices.
   Only [Bound] is cached by the daemon, so repeating a certify, sweep or
   simulate request costs as much as a fresh one; the schedule length is
   a power of two so a run of any length indexes it with a mask. *)
type requests = {
  pool : P.request array;
  schedule : int array;
}

let schedule_len = 1 lsl 18

(* serve_load's 24-entry (m, k, f) draw: m in {2,3}, k in 1..4,
   f in 0..2 clamped to k *)
let hot_keys =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun k -> List.map (fun f -> P.Bound { m; k; f = min f k }) [ 0; 1; 2 ])
        [ 1; 2; 3; 4 ])
    [ 2; 3 ]

(* every valid (m, k, f) with m in 2..9, k in 1..16, 0 <= f <= k:
   1216 keys, well over the daemon's 256-entry cache *)
let mixed_keys =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun k -> List.init (k + 1) (fun f -> P.Bound { m; k; f }))
        (List.init 16 (fun i -> i + 1)))
    (List.init 8 (fun i -> i + 2))

let draw prng n f =
  let acc = ref [] and prng = ref prng in
  for _ = 1 to n do
    let x, p = f !prng in
    acc := x :: !acc;
    prng := p
  done;
  (List.rev !acc, !prng)

let certify_req prng =
  let lambda, prng = FS.Prng.float_range ~lo:4.0 ~hi:6.0 prng in
  (P.Certify { m = 2; k = 3; f = 1; n = 200.; lambda }, prng)

let simulate_req prng =
  let beta, prng = FS.Prng.float_range ~lo:2.0 ~hi:5.0 prng in
  let xi, prng = FS.Prng.int ~bound:900 prng in
  let seed, prng = FS.Prng.int ~bound:1_000_000 prng in
  (P.Simulate { beta; x = float_of_int (100 + xi); samples = 64; seed }, prng)

let sweep_req = P.Sweep { m = 2; k = 3; f = 1; n = 100.; samples = 5 }

(* op mixes in percent: (bound, certify, simulate, sweep); stats gets
   the rest *)
let mix = function
  | Serve_hot -> (95, 0, 0, 0)
  | Serve_mixed | Compute_batch -> (50, 20, 15, 10)

let requests kind ~seed =
  let prng = FS.Prng.make ~seed in
  let keys = match kind with Serve_hot -> hot_keys | _ -> mixed_keys in
  let certs, prng = draw prng 256 certify_req in
  let sims, prng = draw prng 512 simulate_req in
  let groups =
    [| Array.of_list keys; Array.of_list certs; Array.of_list sims;
       [| sweep_req |]; [| P.Stats |] |]
  in
  let offsets = Array.make 5 0 in
  for g = 1 to 4 do
    offsets.(g) <- offsets.(g - 1) + Array.length groups.(g - 1)
  done;
  let pool = Array.concat (Array.to_list groups) in
  let b, c, s, w = mix kind in
  let prng = ref prng in
  let schedule =
    Array.init schedule_len (fun _ ->
        let roll, p = FS.Prng.int ~bound:100 !prng in
        let g =
          if roll < b then 0
          else if roll < b + c then 1
          else if roll < b + c + s then 2
          else if roll < b + c + s + w then 3
          else 4
        in
        let i, p = FS.Prng.int ~bound:(Array.length groups.(g)) p in
        prng := p;
        offsets.(g) + i)
  in
  { pool; schedule }

(* The reply to request [r] with id [i] is {"id":i,"resp":R}; the
   reference keeps the part after the id so a reply is checked with one
   string comparison and no decoding.  Stats replies are observational
   and get the empty reference. *)
let reply_tail s =
  match String.index_opt s ',' with
  | Some i -> String.sub s i (String.length s - i)
  | None -> s

(* --jobs 1 reference: the daemon's own evaluation path on a one-domain
   pool, off the clock *)
let references (r : requests) =
  Search_exec.Pool.with_pool ~jobs:1 @@ fun pool ->
  let d = Search_serve.Dispatch.create ~pool () in
  let items =
    Array.to_list (Array.mapi (fun i req -> ((), i, req)) r.pool)
  in
  let replies = Search_serve.Dispatch.handle_batch d items in
  Array.of_list
    (List.map
       (fun ((), i, resp) ->
         match resp with
         | P.Failed err ->
             failwith
               (Format.asprintf "reference request %d fails: %a" i
                  FS.Search_error.pp err)
         | P.Stats_ok _ -> ""
         | _ -> reply_tail (P.encode_response ~id:0 resp))
       replies)

(* ------------------------------------------------------------------ *)
(* compute items                                                       *)

type item =
  | Cert of { m : int; k : int; f : int; n : float; lambdas : float list }
  | Rows of { m : int; k : int; f : int; n : float; alphas : float list }
  | Mc of { beta : float; x : float; seed : int }

let mc_samples = 4096

(* searching-regime instances, f < k < m (f + 1), for m in {2, 3, 4} *)
let instances = [ (2, 2, 1); (2, 3, 1); (3, 3, 1); (3, 4, 2); (4, 3, 1); (4, 5, 2) ]

let horizon = 2000.

let compute_pool ~seed =
  let prng = ref (FS.Prng.make ~seed) in
  let uniform lo hi =
    let x, p = FS.Prng.float_range ~lo ~hi !prng in
    prng := p;
    x
  in
  let int bound =
    let x, p = FS.Prng.int ~bound !prng in
    prng := p;
    x
  in
  let per_instance =
    List.concat_map
      (fun (m, k, f) ->
        let p = FS.Params.make ~m ~k ~f in
        let bound = FS.Formulas.of_params p in
        let a_star = FS.Formulas.alpha_star ~q:(FS.Params.q p) ~k in
        List.concat
          (List.init 4 (fun _ ->
               let lo = uniform (0.8 *. bound) bound in
               [
                 Cert
                   {
                     m; k; f; n = horizon;
                     lambdas =
                       FS.Certificate.lambda_grid ~lo ~hi:(1.1 *. bound) ~count:12;
                   };
                 Rows
                   {
                     m; k; f; n = horizon;
                     alphas = List.init 6 (fun _ -> a_star *. uniform 0.9 1.3);
                   };
               ])))
      instances
  in
  let mcs =
    List.init 24 (fun _ ->
        let beta = uniform 2.0 5.0 in
        let x = float_of_int (100 + int 900) in
        Mc { beta; x; seed = int 1_000_000 })
  in
  Array.of_list (per_instance @ mcs)

(* Per-call spans of the math layers, summed over every domain.  Off
   unless the traced run turns them on, so the end-to-end runs pay one
   boolean test per call. *)
module Span = struct
  let names =
    [| "problem.make"; "solve.solve"; "certificate.check"; "adversary.worst_case";
       "randomized.expected_ratio"; "formulas.of_params" |]

  let on = ref false
  let ns = Array.init (Array.length names) (fun _ -> Atomic.make 0)
  let calls = Array.init (Array.length names) (fun _ -> Atomic.make 0)

  let reset () =
    Array.iter (fun a -> Atomic.set a 0) ns;
    Array.iter (fun a -> Atomic.set a 0) calls

  let time i f =
    if not !on then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      let v = f () in
      let dt = Unix.gettimeofday () -. t0 in
      ignore (Atomic.fetch_and_add ns.(i) (int_of_float (dt *. 1e9)));
      Atomic.incr calls.(i);
      v
    end
end

let problem ~m ~k ~f ~n = Span.time 0 (fun () -> FS.Problem.make ~m ~k ~f ~horizon:n ())

(* The same public calls as the CLI [certify] and [sweep] subcommands;
   the rendering keeps every bit of every float. *)
let eval_item = function
  | Cert { m; k; f; n; lambdas } ->
      let bound = Span.time 5 (fun () -> FS.Formulas.of_params (FS.Params.make ~m ~k ~f)) in
      let pr = problem ~m ~k ~f ~n in
      let solution = Span.time 1 (fun () -> FS.Solve.solve pr) in
      let turns = Option.get (FS.Solve.orc_turns solution) in
      let q = m * (f + 1) in
      let verdicts =
        List.map
          (fun lambda ->
            Span.time 2 (fun () ->
                if m = 2 then FS.Certificate.check_line ~turns ~f ~lambda ~n ()
                else FS.Certificate.check_orc ~turns ~demand:q ~lambda ~n ()))
          lambdas
      in
      String.concat "\n"
        (Printf.sprintf "%h" bound
        :: List.map (Format.asprintf "%a" FS.Certificate.pp_verdict) verdicts)
  | Rows { m; k; f; n; alphas } ->
      String.concat "\n"
        (List.map
           (fun alpha ->
             let pr = problem ~m ~k ~f ~n in
             let solution = Span.time 1 (fun () -> FS.Solve.solve ~alpha pr) in
             let outcome =
               Span.time 3 (fun () ->
                   FS.Adversary.worst_case (FS.Solve.trajectories solution) ~f ~n ())
             in
             Printf.sprintf "%h %h %h" alpha solution.FS.Solve.designed_ratio
               outcome.FS.Adversary.ratio)
           alphas)
  | Mc { beta; x; seed } ->
      let prng = FS.Prng.make ~seed in
      Printf.sprintf "%h"
        (Span.time 4 (fun () ->
             FS.Randomized.expected_ratio_at ~beta ~x ~samples:mc_samples ~prng))

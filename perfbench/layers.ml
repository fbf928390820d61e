(* In-process replay: the public call of each layer, timed over the
   generated requests.  Each figure is the median of several rounds, in
   microseconds per call. *)

module P = Search_serve.Protocol
module Dispatch = Search_serve.Dispatch
module Pool = Search_exec.Pool

let now = Unix.gettimeofday

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* median over [rounds] of the mean µs per call of [calls] calls *)
let per_call ?(rounds = 15) ~calls f =
  median
    (Array.init rounds (fun _ ->
         let t0 = now () in
         for i = 0 to calls - 1 do
           f i
         done;
         (now () -. t0) *. 1e6 /. float_of_int calls))

let of_kind pool p = List.filter p (Array.to_list pool)

let batch1 d req = ignore (Dispatch.handle_batch d [ ((), 0, req) ])

(* [requests] supplies every op kind (the serve-mixed pool); [mix] is the
   workload's own schedule, for the protocol codec. *)
let measure ~jobs ~(requests : Workload.requests) ~(mix : Workload.requests) =
  let pool = requests.Workload.pool in
  let pick p = Array.of_list (of_kind pool p) in
  let bounds = pick (function P.Bound _ -> true | _ -> false) in
  let certs = pick (function P.Certify _ -> true | _ -> false) in
  let sims = pick (function P.Simulate _ -> true | _ -> false) in
  let sweeps = pick (function P.Sweep _ -> true | _ -> false) in
  let nb = Array.length bounds in
  Pool.with_pool ~jobs @@ fun pl ->
  let d = Dispatch.create ~pool:pl () in
  let hot = bounds.(0) in
  batch1 d hot;
  let eval name arr calls =
    (name, per_call ~calls (fun i -> batch1 d arr.(i mod Array.length arr)))
  in
  (* every bound lookup misses: the keys cycle through more than the
     256-entry cache holds, so each insert also evicts *)
  let cold = Dispatch.create ~pool:pl () in
  for i = 0 to 255 do
    batch1 cold bounds.(i)
  done;
  let miss_i = ref 256 in
  let bound_miss =
    per_call ~calls:200 (fun _ ->
        batch1 cold bounds.(!miss_i mod nb);
        incr miss_i)
  in
  let b32 = List.init 32 (fun i -> ((), i, hot)) in
  let evals =
    [
      ("dispatch.eval_us.bound_hit", per_call ~calls:500 (fun _ -> batch1 d hot));
      ("dispatch.eval_us.bound_miss", bound_miss);
      eval "dispatch.eval_us.certify" certs 20;
      eval "dispatch.eval_us.simulate" sims 20;
      eval "dispatch.eval_us.sweep" sweeps 4;
      ("dispatch.eval_us.stats", per_call ~calls:500 (fun _ -> batch1 d P.Stats));
      ("dispatch.batch32_us.bound_hit",
       per_call ~calls:50 (fun _ -> ignore (Dispatch.handle_batch d b32)));
    ]
  in
  (* protocol codec over the workload's own request mix *)
  let sched = mix.Workload.schedule in
  let mix_req i = mix.Workload.pool.(sched.(i)) in
  let n = 2000 in
  let frames =
    Array.init n (fun i -> P.Frame.encode (P.encode_request ~id:i (mix_req i)))
  in
  let replies =
    Search_exec.Pool.with_pool ~jobs:1 (fun p1 ->
        let d1 = Dispatch.create ~pool:p1 () in
        Array.of_list
          (List.map
             (fun ((), _, r) -> r)
             (Dispatch.handle_batch d1 (List.init n (fun i -> ((), i, mix_req i))))))
  in
  let decode =
    per_call ~calls:n (fun i ->
        let dec = P.Frame.Decoder.create () in
        P.Frame.Decoder.feed_string dec frames.(i);
        match P.Frame.Decoder.next dec with
        | `Frame s -> ignore (P.decode_request s)
        | `Awaiting | `Corrupt _ -> Loadgen.failf "frame did not decode")
  in
  let encode =
    per_call ~calls:n (fun i ->
        ignore (P.Frame.encode (P.encode_response ~id:i replies.(i))))
  in
  let ident _ x = x in
  let map_us k =
    let items = List.init k Fun.id in
    per_call ~calls:100 (fun _ ->
        ignore (Search_exec.Supervise.map pl ~task:(fun i _ -> string_of_int i) ~f:ident items))
  in
  let lru = Search_exec.Memo.Lru.create ~capacity:256 () in
  let payload = 0 in
  ignore (Search_exec.Memo.Lru.find_or_add lru (-1) (fun () -> payload));
  let lru_hit =
    per_call ~calls:10_000 (fun _ ->
        ignore (Search_exec.Memo.Lru.find_or_add lru (-1) (fun () -> payload)))
  in
  let full = Search_exec.Memo.Lru.create ~capacity:256 () in
  for k = 1 to 256 do
    ignore (Search_exec.Memo.Lru.find_or_add full k (fun () -> payload))
  done;
  let key = ref 256 in
  let lru_miss =
    per_call ~calls:10_000 (fun _ ->
        incr key;
        ignore (Search_exec.Memo.Lru.find_or_add full !key (fun () -> payload)))
  in
  evals
  @ [
      ("protocol.decode_us", decode);
      ("protocol.encode_us", encode);
      ("supervise.map_us.b1", map_us 1);
      ("supervise.map_us.b32", map_us 32);
      ("memo.lru_hit_us", lru_hit);
      ("memo.lru_miss_us", lru_miss);
    ]

(* The compute-batch path: seeded items through [Supervise.map] on a pool
   of [jobs] domains, in-process, each result checked bit for bit against
   the sequential (--jobs 1) evaluation of the same item. *)

module Pool = Search_exec.Pool
module Supervise = Search_exec.Supervise

let now = Unix.gettimeofday

type t = {
  items : Workload.item array;
  refs : string array;
}

let prepare ~seed =
  let items = Workload.compute_pool ~seed in
  { items; refs = Array.map Workload.eval_item items }

(* One batch: the items at [order] through [Supervise.map], each result
   checked into [tally].  Returns per-item wall times (s) and the earliest
   finish time. *)
let batch pool t order tally =
  let n = Array.length order in
  let wall = Array.make n 0. in
  let first = Atomic.make infinity in
  let results =
    Supervise.map pool
      ~task:(fun i _ -> "item-" ^ string_of_int i)
      ~f:(fun _ j ->
        let t0 = now () in
        let out = Workload.eval_item t.items.(order.(j)) in
        let t1 = now () in
        wall.(j) <- t1 -. t0;
        let rec lower () =
          let cur = Atomic.get first in
          if t1 < cur && not (Atomic.compare_and_set first cur t1) then lower ()
        in
        lower ();
        out)
      (List.init n Fun.id)
  in
  List.iteri
    (fun j r ->
      tally.Loadgen.attempted <- tally.Loadgen.attempted + 1;
      Loadgen.note tally
        (match r with
        | Ok out when String.equal out t.refs.(order.(j)) -> Loadgen.Good
        | Ok _ -> Loadgen.Bad (Printf.sprintf "item %d differs from the reference" order.(j))
        | Error e ->
            Loadgen.Bad (Format.asprintf "item %d failed: %a" order.(j) Search_numerics.Search_error.pp e)))
    results;
  (wall, Atomic.get first)

let shuffle prng n =
  let a = Array.init n Fun.id in
  let prng = ref prng in
  for i = n - 1 downto 1 do
    let j, p = Faulty_search.Prng.int ~bound:(i + 1) !prng in
    prng := p;
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  (a, !prng)

(* Seconds from pool creation to the first finished item, on a batch of
   the certificate items (the same shapes at every seed), as a sample
   (seconds, steal ticks, seconds). *)
let setup ~jobs t tally =
  let certs =
    Array.of_list
      (List.filter
         (fun i -> match t.items.(i) with Workload.Cert _ -> true | _ -> false)
         (List.init (Array.length t.items) Fun.id))
  in
  let order = Array.sub certs 0 (min jobs (Array.length certs)) in
  let st = Loadgen.steal () in
  let t0 = now () in
  let s = Pool.with_pool ~jobs (fun pool -> snd (batch pool t order tally)) -. t0 in
  (s, Loadgen.steal () - st, s)

type batch_run = {
  wall : float array;  (** per-item seconds *)
  rate : float;  (** items per second *)
  steal : int;  (** steal ticks during the batch *)
  secs : float;
}

(* Batches of every item once, each in a fresh seeded order so every
   batch does the same work, until [seconds] have passed. *)
let timed ~jobs ~seed ~seconds t tally =
  Pool.with_pool ~jobs @@ fun pool ->
  let prng = ref (Faulty_search.Prng.make ~seed) in
  let runs = ref [] in
  let until = now () +. seconds in
  while now () < until do
    let order, p = shuffle !prng (Array.length t.items) in
    prng := p;
    let st = Loadgen.steal () in
    let t0 = now () in
    let wall, _ = batch pool t order tally in
    let secs = now () -. t0 in
    runs :=
      { wall; rate = float_of_int (Array.length order) /. secs; steal = Loadgen.steal () - st; secs }
      :: !runs
  done;
  List.rev !runs

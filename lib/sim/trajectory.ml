module Lazy_seq = Search_numerics.Lazy_seq
module E = Search_numerics.Search_error

type leg = { ray : int; d_from : float; d_to : float; t_start : float }

type t = { itinerary : Itinerary.t; legs : leg Lazy_seq.t }

let stalled ~steps detail =
  E.raise_
    (E.Non_convergence { where = "Trajectory"; steps; detail })

let default_max_legs = 2_000_000

(* State of the leg generator: next waypoint to head to, current location
   and time, plus a stashed second leg when a ray change was split. *)
type gen_state = {
  next_wp : int;
  pos : World.point;
  now : float;
  stash : (int * float) option; (* (ray, d_to): outbound leg from origin *)
}

let duration d_from d_to = Float.abs (d_to -. d_from)

(* One step of the leg generator, reading waypoints through [waypoint]:
   the memoised accessor behind the lazy leg sequence, the raw one for
   [flatten]'s single forward walk. *)
let step itinerary waypoint state =
  match state.stash with
  | Some (ray, d_to) ->
      let l = { ray; d_from = 0.; d_to; t_start = state.now } in
      ( l,
        {
          next_wp = state.next_wp;
          pos = World.point (Itinerary.world itinerary) ~ray ~dist:d_to;
          now = state.now +. d_to;
          stash = None;
        } )
  | None ->
      (* Find the next waypoint that produces a nonzero move; bound the
         scan so a constant itinerary raises instead of spinning. *)
      let rec advance i guard =
        if guard > 1000 then
          stalled ~steps:guard
            (Printf.sprintf "%s: 1000 consecutive stationary waypoints"
               (Itinerary.label itinerary))
        else
          let wp = waypoint i in
          if World.equal_point wp state.pos then advance (i + 1) (guard + 1)
          else (i, wp)
      in
      let i, wp = advance state.next_wp 0 in
      let same_ray =
        World.is_origin state.pos || World.is_origin wp
        || Int.equal wp.World.ray state.pos.World.ray
      in
      if same_ray then
        let ray =
          if World.is_origin wp then state.pos.World.ray else wp.World.ray
        in
        let d_from = state.pos.World.dist and d_to = wp.World.dist in
        let l = { ray; d_from; d_to; t_start = state.now } in
        ( l,
          {
            next_wp = i + 1;
            pos = wp;
            now = state.now +. duration d_from d_to;
            stash = None;
          } )
      else
        (* inbound leg now; outbound leg stashed *)
        let d_from = state.pos.World.dist in
        let l =
          { ray = state.pos.World.ray; d_from; d_to = 0.; t_start = state.now }
        in
        ( l,
          {
            next_wp = i + 1;
            pos = World.origin;
            now = state.now +. d_from;
            stash = Some (wp.World.ray, wp.World.dist);
          } )

let init = { next_wp = 1; pos = World.origin; now = 0.; stash = None }

let compile itinerary =
  {
    itinerary;
    legs = Lazy_seq.unfold ~init (step itinerary (Itinerary.waypoint itinerary));
  }

let itinerary t = t.itinerary
let world t = Itinerary.world t.itinerary
let label t = Itinerary.label t.itinerary
let leg t i = Lazy_seq.get t.legs i

let leg_end l = l.t_start +. duration l.d_from l.d_to

(* Walk legs while [continue leg] holds, threading an accumulator. *)
let fold_legs t ~max_legs ~continue ~f init =
  let rec loop i acc =
    if i > max_legs then
      stalled ~steps:max_legs
        (Printf.sprintf "%s: exceeded %d legs within horizon" (label t)
           max_legs)
    else
      let l = leg t i in
      if not (continue l) then acc else loop (i + 1) (f acc l)
  in
  loop 1 init

let position ?(max_legs = default_max_legs) t time =
  if time < 0. then invalid_arg "Trajectory.position: negative time";
  let found =
    fold_legs t ~max_legs
      ~continue:(fun l -> l.t_start <= time)
      ~f:(fun acc l ->
        if time <= leg_end l then
          let progressed = time -. l.t_start in
          let dir = if l.d_to >= l.d_from then 1. else -1. in
          Some (World.point (world t) ~ray:l.ray ~dist:(l.d_from +. (dir *. progressed)))
        else acc)
      None
  in
  match found with
  | Some p -> p
  | None -> World.origin (* time 0 before any leg *)

(* Visit times of [target] within one leg. *)
let leg_visit l (target : World.point) =
  if (not (Int.equal l.ray target.World.ray)) && not (World.is_origin target)
  then None
  else
    let d = target.World.dist in
    let lo = Float.min l.d_from l.d_to and hi = Float.max l.d_from l.d_to in
    if World.is_origin target then
      (* the origin belongs to every ray *)
      if lo <= 0. && 0. <= hi then Some (l.t_start +. duration l.d_from 0.)
      else None
    else if d < lo || d > hi then None
    else Some (l.t_start +. duration l.d_from d)

let visits ?(max_legs = default_max_legs) t ~target ~horizon =
  let times =
    fold_legs t ~max_legs
      ~continue:(fun l -> l.t_start <= horizon)
      ~f:(fun acc l ->
        match leg_visit l target with
        | Some time when time <= horizon -> time :: acc
        | Some _ | None -> acc)
      []
  in
  (* A turn exactly at the target produces the same time from the inbound
     and outbound legs; dedup. *)
  List.sort_uniq Float.compare times

let first_visit ?max_legs t ~target ~horizon =
  match visits ?max_legs t ~target ~horizon with [] -> None | x :: _ -> Some x

let leg_endpoints ?(max_legs = default_max_legs) t ~horizon =
  fold_legs t ~max_legs
    ~continue:(fun l -> l.t_start <= horizon)
    ~f:(fun acc l -> (l.ray, l.d_to) :: acc)
    []
  |> List.rev

(* Flat (struct-of-arrays) view of the leg prefix within a horizon: the
   adversary probes the same prefix once per candidate target, and the
   lazy path pays a mutex + hashtable probe per leg per candidate.  The
   flat view is built by stepping the leg generator directly — raw
   waypoints, no leg or waypoint memo — and scanned with plain array
   reads.  Same legs as [fold_legs] with the same horizon cut and the
   same [max_legs] guard, so the prefix is identical leg for leg. *)
type flat = {
  flat_rays : int array;
  flat_froms : float array;
  flat_tos : float array;
  flat_los : float array;
  flat_his : float array;
  flat_starts : float array;
}

let flatten ?(max_legs = default_max_legs) t ~horizon =
  let step = step t.itinerary (Itinerary.raw_waypoint t.itinerary) in
  let rec walk i state acc =
    if i > max_legs then
      stalled ~steps:max_legs
        (Printf.sprintf "%s: exceeded %d legs within horizon" (label t)
           max_legs)
    else
      let l, state = step state in
      if l.t_start <= horizon then walk (i + 1) state (l :: acc)
      else (i - 1, acc)
  in
  let len, rev_legs = walk 1 init [] in
  let fl =
    {
      flat_rays = Array.make len 0;
      flat_froms = Array.make len 0.;
      flat_tos = Array.make len 0.;
      flat_los = Array.make len 0.;
      flat_his = Array.make len 0.;
      flat_starts = Array.make len 0.;
    }
  in
  List.iteri
    (fun i l ->
      let j = len - 1 - i in
      fl.flat_rays.(j) <- l.ray;
      fl.flat_froms.(j) <- l.d_from;
      fl.flat_tos.(j) <- l.d_to;
      fl.flat_los.(j) <- Float.min l.d_from l.d_to;
      fl.flat_his.(j) <- Float.max l.d_from l.d_to;
      fl.flat_starts.(j) <- l.t_start)
    rev_legs;
  fl

let[@hot] flat_first_visit fl ~ray ~dist ~horizon =
  (* Legs are time-ordered, so the first leg containing the target gives
     the earliest visit; a visit time past the horizon cannot be beaten
     by a later leg (whose times are even later), hence the early
     [infinity].  Bit-identical to [first_visit] for targets with
     [dist >= 1] (never the origin): same time expression, same horizon
     cut.  [infinity] encodes "not visited" so callers can sort a
     scratch array without an option box.  A while loop over unboxed
     local refs, not a recursive closure — this probe runs once per
     robot per candidate and must not allocate. *)
  let len = Array.length fl.flat_starts in
  let j = ref 0 in
  let out = ref infinity in
  let scanning = ref true in
  while !scanning && !j < len do
    if
      Int.equal fl.flat_rays.(!j) ray
      && dist >= fl.flat_los.(!j)
      && dist <= fl.flat_his.(!j)
    then begin
      let time =
        fl.flat_starts.(!j) +. Float.abs (dist -. fl.flat_froms.(!j))
      in
      if time <= horizon then out := time;
      scanning := false
    end
    else incr j
  done;
  !out

module Stats = Search_numerics.Stats
module Search_error = Search_numerics.Search_error

type outcome = {
  ratio : float;
  witness : World.point;
  detection_time : float;
  candidates_scanned : int;
}

let default_eps = 1e-7
let default_ratio_cap = 256.

(* Sorted dedup in place: candidate depths come in with real duplicates
   (the same turning depth reached by several trajectories, and the
   always-added [1.]/[n] colliding with leg endpoints), and every
   duplicate re-runs a full detection scan for an identical answer. *)
let sorted_dedup a =
  let n = Array.length a in
  if n <= 1 then a
  else begin
    Array.sort Float.compare a;
    let w = ref 1 in
    for r = 1 to n - 1 do
      if not (Float.equal a.(r) a.(!w - 1)) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    Array.sub a 0 !w
  end

(* Per-ray candidate depths, each ascending and duplicate-free, from the
   leg endpoints of the flattened prefixes.  [worst_case] and
   [reference_worst_case] both visit rays in index order and depths in
   ascending order, so the supremum fold visits identical (ray, depth)
   sequences — same ratio, same witness. *)
let candidate_depths flats ~m ~eps ~n =
  let cap = Array.make m 2 in
  Array.iter
    (fun fl ->
      Array.iter (fun ray -> cap.(ray) <- cap.(ray) + 3) fl.Trajectory.flat_rays)
    flats;
  let depths = Array.map (fun c -> Array.make c 0.) cap in
  let fill = Array.make m 0 in
  let add ray d =
    if d >= 1. && d <= n then begin
      depths.(ray).(fill.(ray)) <- d;
      fill.(ray) <- fill.(ray) + 1
    end
  in
  for ray = 0 to m - 1 do
    add ray 1.;
    add ray n
  done;
  Array.iter
    (fun fl ->
      Array.iteri
        (fun j ray ->
          let d = fl.Trajectory.flat_tos.(j) in
          add ray d;
          add ray (d *. (1. -. eps));
          add ray (d *. (1. +. eps)))
        fl.Trajectory.flat_rays)
    flats;
  Array.mapi (fun ray ds -> sorted_dedup (Array.sub ds 0 fill.(ray))) depths

let flatten_all trajectories ~n ~time_horizon =
  if n < 1. then
    Search_error.invalid ~where:"Adversary.candidate_targets" "need n >= 1";
  Array.map (fun tr -> Trajectory.flatten tr ~horizon:time_horizon) trajectories

let candidate_targets trajectories ?(eps = default_eps) ~n ~time_horizon () =
  let world = Trajectory.world trajectories.(0) in
  let flats = flatten_all trajectories ~n ~time_horizon in
  let depths = candidate_depths flats ~m:(World.arity world) ~eps ~n in
  List.concat
    (List.mapi
       (fun ray ds ->
         Array.to_list ds |> List.map (fun d -> World.point world ~ray ~dist:d))
       (Array.to_list depths))

(* The compiled detection scan, extracted so the allocation lint can
   hold it to a zero budget and the bench can put a Gc meter on it.
   Writes [best ratio; best ray (as float); best dist] into [out]
   (unit return — a float return would box on the way out); [times] is
   the reused (f+1)-st-order-statistic scratch and [cursors] the reused
   per-robot leg cursor.  The flat first-visit probe is inlined (a
   cross-module call pays the float-return box) and resumes from the
   robot's cursor: on one ray the first leg covering depth [d] never
   moves to an earlier leg as [d] grows (see the .mli), so each robot's
   legs are walked once per ray rather than once per candidate.  The
   per-candidate [Array.sort] is an in-place insertion sort — [k] is the
   robot count, single digits, where insertion sort on an almost-sorted
   scratch beats the closure-per-comparison of [Array.sort
   Float.compare]. *)
let[@hot] compiled_scan ~flats ~depths ~times ~cursors ~f ~k ~horizon ~out =
  out.(0) <- neg_infinity;
  out.(1) <- 0.;
  out.(2) <- 0.;
  for ray = 0 to Array.length depths - 1 do
    let ds = depths.(ray) in
    for r = 0 to k - 1 do
      cursors.(r) <- 0
    done;
    for di = 0 to Array.length ds - 1 do
      let d = ds.(di) in
      for r = 0 to k - 1 do
        let fl = flats.(r) in
        let len = Array.length fl.Trajectory.flat_starts in
        let j = ref cursors.(r) in
        let visit = ref infinity in
        let scanning = ref true in
        while !scanning && !j < len do
          if
            Int.equal fl.Trajectory.flat_rays.(!j) ray
            && d >= fl.Trajectory.flat_los.(!j)
            && d <= fl.Trajectory.flat_his.(!j)
          then begin
            let time =
              fl.Trajectory.flat_starts.(!j)
              +. Float.abs (d -. fl.Trajectory.flat_froms.(!j))
            in
            if time <= horizon then visit := time;
            scanning := false
          end
          else incr j
        done;
        cursors.(r) <- !j;
        times.(r) <- !visit
      done;
      for i = 1 to k - 1 do
        let x = times.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && times.(!j) > x do
          times.(!j + 1) <- times.(!j);
          decr j
        done;
        times.(!j + 1) <- x
      done;
      let t = if f < k then times.(f) else infinity in
      let ratio = if Float.equal t infinity then infinity else t /. d in
      (* same contract as [Stats.sup_add]: a NaN ratio surfaces.  NaN
         fails every ordered comparison, so this is the primitive NaN
         test — [Float.is_nan] would box the unboxed local to make the
         call. *)
      if not (ratio >= neg_infinity) then
        Search_error.raise_
          (Search_error.Non_convergence
             {
               where = "Stats.sup_add";
               steps = 0;
               detail = "supremum fed a NaN sample";
             });
      if ratio > out.(0) then begin
        out.(0) <- ratio;
        out.(1) <- Float.of_int ray;
        out.(2) <- d
      end
    done
  done

(* The setup both scans share: flattened prefixes, per-ray candidate
   depths and their total count. *)
let prepare trajectories ~eps ~ratio_cap ~n =
  if Array.length trajectories = 0 then
    Search_error.invalid ~where:"Adversary.worst_case" "no robots";
  let time_horizon = ratio_cap *. n in
  let world = Trajectory.world trajectories.(0) in
  let flats = flatten_all trajectories ~n ~time_horizon in
  let depths = candidate_depths flats ~m:(World.arity world) ~eps ~n in
  let scanned = Array.fold_left (fun acc a -> acc + Array.length a) 0 depths in
  (world, time_horizon, flats, depths, scanned)

let outcome ~ratio ~witness ~scanned =
  let detection_time =
    if Float.equal ratio infinity then infinity
    else ratio *. witness.World.dist
  in
  { ratio; witness; detection_time; candidates_scanned = scanned }

let worst_case trajectories ~f ?(eps = default_eps)
    ?(ratio_cap = default_ratio_cap) ~n () =
  let world, time_horizon, flats, depths, scanned =
    prepare trajectories ~eps ~ratio_cap ~n
  in
  if f < 0 then Search_error.invalid ~where:"Adversary.worst_case" "f < 0";
  (* flat leg arrays, reused scratch arrays for the (f+1)-st smallest
     visit time and the per-robot leg cursors, no per-candidate
     allocation.  The arithmetic (visit times, the (f+1)-st order
     statistic, the ratio) matches [reference_worst_case] bit for bit,
     and candidates are visited in the same order, so ratio and witness
     agree exactly. *)
  let k = Array.length trajectories in
  let times = Array.make k infinity in
  let cursors = Array.make k 0 in
  let out = [| neg_infinity; 0.; 0. |] in
  compiled_scan ~flats ~depths ~times ~cursors ~f ~k ~horizon:time_horizon
    ~out;
  if Float.equal out.(0) neg_infinity then
    Search_error.invalid ~where:"Adversary.worst_case" "empty candidate set";
  let witness = World.point world ~ray:(int_of_float out.(1)) ~dist:out.(2) in
  outcome ~ratio:out.(0) ~witness ~scanned

let reference_worst_case trajectories ~f ?(eps = default_eps)
    ?(ratio_cap = default_ratio_cap) ~n () =
  let world, time_horizon, _, depths, scanned =
    prepare trajectories ~eps ~ratio_cap ~n
  in
  let sup = ref Stats.sup_empty in
  Array.iteri
    (fun ray ds ->
      Array.iter
        (fun d ->
          let target = World.point world ~ray ~dist:d in
          let ratio =
            Engine.detection_ratio trajectories ~f ~target ~time_horizon
          in
          sup := Stats.sup_add !sup ~key:target ~value:ratio)
        ds)
    depths;
  match Stats.sup_witness !sup with
  | None ->
      Search_error.invalid ~where:"Adversary.worst_case" "empty candidate set"
  | Some witness -> outcome ~ratio:(Stats.sup_value !sup) ~witness ~scanned

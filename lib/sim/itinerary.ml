module Lazy_seq = Search_numerics.Lazy_seq

type t = {
  label : string;
  world : World.t;
  raw : int -> World.point;
  waypoints : World.point Lazy_seq.t;
}

let make ?(label = "robot") ~world wp =
  let check i =
    let p = wp i in
    (* re-validate through the world's constructor *)
    World.point world ~ray:p.World.ray ~dist:p.World.dist
  in
  { label; world; raw = check; waypoints = Lazy_seq.of_fun check }

let of_excursions ?label ~world exc =
  (* Interleave explicit origin returns so that same-ray consecutive rounds
     still pass through 0, as the ORC setting requires. *)
  let wp i =
    if i mod 2 = 0 then World.origin
    else
      let ray, dist = exc ((i + 1) / 2) in
      World.point world ~ray ~dist
  in
  make ?label ~world wp

let of_line_turns ?label turns =
  let wp i =
    let d = turns i in
    if d < 0. then invalid_arg "Itinerary.of_line_turns: negative turn";
    (* odd indices head right (ray 0), even head left (ray 1) *)
    World.point World.line ~ray:((i + 1) mod 2) ~dist:d
  in
  make ?label ~world:World.line wp

let world t = t.world
let label t = t.label
let waypoint t i = Lazy_seq.get t.waypoints i
let raw_waypoint t i = t.raw i

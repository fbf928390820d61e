(** Robot itineraries: infinite plans of waypoints.

    A robot's strategy, for simulation purposes, is the infinite sequence of
    waypoints it heads to, starting from the origin at time 0 and moving at
    unit speed along the star metric (through the origin when changing
    rays).  Both motion disciplines of the paper fit this model:

    - the {e zigzag} line strategies of Section 2 are waypoints alternating
      between ray 0 and ray 1 (no explicit origin stops: crossing happens
      inside a leg);
    - the {e round} strategies of Section 3 (ORC setting, m-ray cyclic and
      exponential strategies) are waypoints on varying rays, with origin
      returns implied by each ray change. *)

type t

val make :
  ?label:string -> world:World.t -> (int -> World.point) -> t
(** [make ~world wp] — [wp i] is the i-th waypoint (1-based); it must
    belong to [world].  The function is memoised; it must be pure.
    [label] names the robot in traces (default ["robot"]). *)

val of_excursions :
  ?label:string -> world:World.t -> (int -> int * float) -> t
(** [of_excursions ~world exc] builds the round-based plan where the i-th
    excursion [(ray, depth) = exc i] goes out to [depth] on [ray] and back;
    equivalent to [make] with the same waypoints (origin returns are implied
    by the star metric whenever consecutive excursions change ray, and made
    explicit here even on the same ray, matching the ORC rule that repeat
    coverings only count after a return to 0). *)

val of_line_turns : ?label:string -> (int -> float) -> t
(** Zigzag on the line from a turning-point sequence [t]: waypoints
    [+t 1, -t 2, +t 3, ...] (positive direction first, as the proofs
    normalise). *)

val world : t -> World.t
val label : t -> string

val waypoint : t -> int -> World.point
(** The i-th waypoint (1-based). *)

val raw_waypoint : t -> int -> World.point
(** {!waypoint} without the memo: recomputes (and re-validates) the
    waypoint on every call.  For a single forward walk, where each index
    is read once and the memo's lock and table probe are pure cost. *)

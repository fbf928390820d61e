type verdict =
  | Covered
  | Gap of { from_ : float; upto : float; at : float; multiplicity : int }

let multiplicity_at x ivs =
  List.fold_left (fun n iv -> if Interval1.mem x iv then n + 1 else n) 0 ivs

(* The profile works on interval interiors: collect all endpoints clipped to
   the window, sort/dedup them, and evaluate the multiplicity at each piece's
   midpoint.  Midpoint evaluation makes left-end kinds irrelevant (they only
   matter on a measure-zero set), which is exactly the resolution at which
   the covering proofs operate ("every point of R_{>1} is covered exactly s
   times" after truncation).

   A piece's midpoint lies strictly between two consecutive endpoints, so an
   interval contains it iff the interval has started (lo <= piece start) and
   not yet ended (hi >= piece end; hi cannot fall inside the piece).  A
   single pass over the endpoint events — +1 at each lo, -1 at each hi, both
   applied once the sweep moves past the position — therefore maintains every
   piece's multiplicity in O(n log n) total, instead of an
   O(pieces x intervals) rescan per piece.  [check] below uses the same
   counting without building the profile.  Degenerate intervals [c, c] add
   and immediately retire at the same position, contributing to no piece —
   exactly the midpoint semantics. *)
let coverage_profile ~within:(lo, hi) ivs =
  if lo >= hi then []
  else begin
    let n = List.length ivs in
    (* +1 events at interval starts, -1 events at interval ends *)
    let events = Array.make (2 * n) (0., 0) in
    List.iteri
      (fun i (iv : Interval1.t) ->
        events.(2 * i) <- (iv.Interval1.lo, 1);
        events.((2 * i) + 1) <- (iv.Interval1.hi, -1))
      ivs;
    Array.sort
      (fun (x, _) (y, _) -> Float.compare x y)
      events;
    let cuts =
      Array.to_list events
      |> List.filter_map (fun (x, _) -> if x > lo && x < hi then Some x else None)
      |> List.sort_uniq Float.compare
    in
    let points = (lo :: cuts) @ [ hi ] in
    let next_event = ref 0 in
    let running = ref 0 in
    (* apply every event at a position <= a: an interval ending exactly at
       the piece's start no longer covers its midpoint, one starting there
       does *)
    let advance_to a =
      while
        !next_event < Array.length events && fst events.(!next_event) <= a
      do
        running := !running + snd events.(!next_event);
        incr next_event
      done
    in
    let rec pieces = function
      | a :: (b :: _ as rest) ->
          advance_to a;
          (* bind before recursing: argument evaluation order must not let
             the recursive call advance the cursor past this piece *)
          let count = !running in
          (a, b, count) :: pieces rest
      | [ _ ] | [] -> []
    in
    pieces points
  end

let min_multiplicity ~within ivs =
  match coverage_profile ~within ivs with
  | [] -> 0
  | pieces -> List.fold_left (fun m (_, _, c) -> min m c) max_int pieces

(* In-place ascending heapsort.  Monomorphic on purpose: the
   polymorphic [Array.sort] boxes every float it reads and calls a
   closure per comparison, which on a certificate's cover costs more
   than the whole sweep. *)
let sift_down (a : float array) i len =
  let x = a.(i) in
  let i = ref i and sifting = ref true in
  while !sifting do
    let c = (2 * !i) + 1 in
    if c >= len then sifting := false
    else begin
      let c = if c + 1 < len && a.(c + 1) > a.(c) then c + 1 else c in
      if a.(c) > x then begin
        a.(!i) <- a.(c);
        i := c
      end
      else sifting := false
    end
  done;
  a.(!i) <- x

let sort_floats (a : float array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for len = n - 1 downto 1 do
    let x = a.(len) in
    a.(len) <- a.(0);
    a.(0) <- x;
    sift_down a 0 len
  done

(* The same pieces and counts as [coverage_profile], without building
   the profile: sorted unboxed [lo]/[hi] arrays, one cursor into each.  A
   piece starting at [a] has multiplicity (#lo <= a) - (#hi <= a), and
   ends at the smallest endpoint beyond [a] (or at [hi]).  Stops at the
   first piece short of [demand]. *)
let check ~demand ~within:(lo, hi) ivs =
  if lo >= hi then
    (* degenerate window: single point *)
    let c = multiplicity_at lo ivs in
    if c >= demand then Covered
    else Gap { from_ = lo; upto = lo; at = lo; multiplicity = c }
  else begin
    let n = List.length ivs in
    let los = Array.make n 0. and his = Array.make n 0. in
    List.iteri
      (fun i (iv : Interval1.t) ->
        los.(i) <- iv.Interval1.lo;
        his.(i) <- iv.Interval1.hi)
      ivs;
    sort_floats los;
    sort_floats his;
    let rec piece a il ih =
      let il = ref il and ih = ref ih in
      while !il < n && los.(!il) <= a do incr il done;
      while !ih < n && his.(!ih) <= a do incr ih done;
      let c = !il - !ih in
      let next =
        Float.min
          (if !il < n then los.(!il) else hi)
          (if !ih < n then his.(!ih) else hi)
      in
      let b = Float.min next hi in
      if c < demand then
        Gap { from_ = a; upto = b; at = 0.5 *. (a +. b); multiplicity = c }
      else if b >= hi then Covered
      else piece b !il !ih
    in
    piece lo 0 0
  end

(** Sweep-line coverage counting for collections of intervals.

    Central verification primitive: both covering relaxations of the paper
    (the ± line-cover setting and the ORC setting) reduce to the question
    "is every point of [[1, N]] covered at least [s] times by this multiset
    of intervals?".  {!check} sorts the interval endpoints once and sweeps
    them left to right, stopping at the leftmost under-covered piece;
    {!coverage_profile} builds the whole piecewise multiplicity profile.
    Endpoints must not be NaN. *)

type verdict =
  | Covered
      (** every point of the queried segment has multiplicity >= the demand *)
  | Gap of { from_ : float; upto : float; at : float; multiplicity : int }
      (** [(from_, upto)] is the leftmost under-covered stretch; [at] is its
          midpoint, a witness point whose multiplicity falls short. *)

val check :
  demand:int -> within:float * float -> Interval1.t list -> verdict
(** [check ~demand ~within:(lo, hi) ivs] verifies [demand]-fold coverage of
    the closed segment [[lo, hi]], at the interior resolution of
    {!coverage_profile}: the verdict is the first profile piece short of
    [demand] (its ends, midpoint and multiplicity), or [Covered] when there
    is none.  A degenerate window ([lo >= hi]) is checked at the single
    point [lo], kind-aware, as {!multiplicity_at} counts.

    Cost: O(n log n) for n intervals — two in-place sorts of the [lo] and
    [hi] endpoints into unboxed float arrays — then one pass over the
    pieces left of the first gap, O(1) each; no profile or piece list is
    built. *)

val multiplicity_at : float -> Interval1.t list -> int
(** Number of intervals containing the point (kind-aware). *)

val coverage_profile :
  within:float * float -> Interval1.t list -> (float * float * int) list
(** Piecewise-constant multiplicity profile over [(lo, hi)]: a list of
    [(from, to, multiplicity)] pieces in increasing order, partitioning the
    open segment.  Endpoint multiplicities can differ on measure-zero sets;
    the profile reports the multiplicity of the {e interior} of each piece. *)

val min_multiplicity :
  within:float * float -> Interval1.t list -> int
(** Minimum interior multiplicity over the segment (0 when some stretch is
    uncovered). *)

(** Structured instance reports.

    Bundles everything the library can say about one instance — regime,
    closed-form bound, designed and simulated ratios (both the bracketing
    scan and the exact piecewise-affine supremum), the covering verdict,
    the certificate at a claimed sub-bound ratio, and the Byzantine
    transfer — into a single record with a markdown renderer.  The CLI's
    [report] subcommand writes it to a file. *)

type t = {
  problem : Problem.t;
  regime : Search_bounds.Params.regime;
  bound : float;
  designed_ratio : float;
  simulated_ratio : float;  (** bracketing scan *)
  exact_sup : float;  (** exact piecewise-affine supremum *)
  covering_ok : bool option;
  certificate_below : Search_covering.Certificate.verdict option;
      (** verdict at [0.99 *. bound]; [None] outside the searching regime *)
  byzantine_transfer : float option;
      (** the [B >= A] figure; [None] when not in the searching regime *)
}

val build : ?claimed_fraction:float -> Problem.t -> t
(** Solve, verify, and certify the instance.  [claimed_fraction]
    (default 0.99) sets the sub-bound ratio the certificate is run at.
    @raise Search_numerics.Search_error.Error ([Regime_violation]) for
      [f = k]. *)

val to_markdown : t -> string
(** A self-contained markdown document. *)

val pp : Format.formatter -> t -> unit
(** Compact one-paragraph rendering. *)

val sweep_row :
  m:int ->
  k:int ->
  f:int ->
  n:float ->
  alpha_star:float ->
  samples:int ->
  int ->
  string list option
(** Row [i] of the ratio-vs-alpha sweep over [samples >= 2] points:
    [alpha = alpha_star * (0.7 + 0.8 t)] with [t = i / (samples - 1)].
    [None] when [alpha <= 1.001] (no strategy exists there), else the
    cells alpha, designed ratio and simulated worst-case ratio, each to
    4 decimals.  The CLI [sweep] and the daemon's [sweep] request both
    render their rows here, so the two print identical cells. *)
